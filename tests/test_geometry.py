import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavlink.config import scenario_from_dict, scenario_to_dict
from uavlink.geometry import (AngularSupport, Box, DegenerateGeometry,
                              OutOfBox, Position3D, Scenario, dbm_to_mw,
                              distances, noise_power, place_users)


def _tau(scenario, xy):
    """tau1 and tau2 of one candidate against the scenario's fixed users."""
    users = np.array([u.as_array() for u in scenario.users])
    tau1, tau2 = distances(scenario, xy, users)
    return tau1[0], tau2[0]


def test_bs_to_uav_distance_matches_hand_value():
    s = Scenario(users=[Position3D(60.0, 60.0, 0.0)], group_sizes=[1])
    tau1, tau2 = _tau(s, (50.0, 50.0))
    assert tau1 == pytest.approx(math.sqrt(5100.0), abs=1e-12)
    assert tau2[0] == pytest.approx(math.sqrt(100 + 100 + 400), abs=1e-12)


def test_noise_power_100mhz():
    assert noise_power(Scenario()) == pytest.approx(-94.0, abs=1e-12)


def test_db_milliwatt_round_trip():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(30.0) == pytest.approx(1000.0)
    assert 10.0 * math.log10(dbm_to_mw(-94.0)) == pytest.approx(-94.0)


def test_out_of_box_candidate_rejected():
    s = Scenario(users=[Position3D(60.0, 60.0, 0.0)], group_sizes=[1])
    with pytest.raises(OutOfBox):
        _tau(s, (120.0, 50.0))
    with pytest.raises(OutOfBox):
        _tau(s, (50.0, -0.5))


def test_degenerate_geometry_detected():
    # a scenario refuses such a user (below); a caller's own user_xyz is not
    s = Scenario(users=[Position3D(60.0, 60.0, 0.0)], group_sizes=[1])
    with pytest.raises(DegenerateGeometry):
        distances(s, (50.0, 50.0), np.array([[50.0, 50.0, 20.0]]))


def test_uav_altitude_of_the_bs_is_refused_when_a_candidate_reaches_it():
    # a swarm may clip a candidate onto the box corner where the BS stands
    with pytest.raises(ValueError, match=r"scenario\.uav_position altitude "
                       r"10\.0 equals scenario\.bs_position"):
        Scenario(uav=Position3D(50.0, 50.0, 10.0))
    Scenario(uav=Position3D(50.0, 50.0, 10.0), bs=Position3D(-1.0, 0.0, 10.0))


def test_uav_altitude_of_a_configured_user_is_refused_in_the_box():
    with pytest.raises(ValueError, match=r"scenario\.uav_position altitude "
                       r"20\.0 equals scenario\.users\[1\]"):
        Scenario(users=[Position3D(60.0, 60.0, 0.0),
                        Position3D(70.0, 70.0, 20.0)], group_sizes=[2])
    Scenario(users=[Position3D(60.0, 60.0, 0.0),
                    Position3D(170.0, 70.0, 20.0)], group_sizes=[2])


coords = st.floats(min_value=0.0, max_value=100.0)
user_coords = st.floats(min_value=0.0, max_value=100.0)


@given(x=coords, y=coords, ux=user_coords, uy=user_coords)
def test_triangle_inequality_via_relay(x, y, ux, uy):
    s = Scenario(users=[Position3D(ux, uy, 0.0)], group_sizes=[1])
    tau1, tau2 = _tau(s, (x, y))
    direct = np.linalg.norm(s.bs.as_array() - s.users[0].as_array())
    assert direct <= tau1 + tau2[0] + 1e-9


@given(x=st.floats(10.0, 90.0), y=st.floats(10.0, 90.0),
       shift=st.floats(-500.0, 500.0))
def test_distances_translation_invariant(x, y, shift):
    base = Scenario(users=[Position3D(70.0, 80.0, 0.0)], group_sizes=[1])
    moved = Scenario(
        bs=Position3D(base.bs.x + shift, base.bs.y + shift, base.bs.z),
        uav=Position3D(base.uav.x + shift, base.uav.y + shift, base.uav.z),
        users=[Position3D(70.0 + shift, 80.0 + shift, 0.0)],
        group_sizes=[1],
        box=Box(base.box.x_min + shift, base.box.y_min + shift,
                base.box.x_max + shift, base.box.y_max + shift))
    t1a, t2a = _tau(base, (x, y))
    t1b, t2b = _tau(moved, (x + shift, y + shift))
    assert t1a == pytest.approx(t1b, rel=1e-12)
    assert t2a[0] == pytest.approx(t2b[0], rel=1e-12)


def test_place_users_within_range_and_on_ground():
    rng = np.random.default_rng(0)
    users = place_users(rng, 50, (50.0, 100.0))
    assert len(users) == 50
    for u in users:
        assert 50.0 <= u.x <= 100.0 and 50.0 <= u.y <= 100.0
        assert u.z == 0.0


def test_group_assignment_is_contiguous():
    s = Scenario(group_sizes=[2, 3])
    assert [s.group_of_user(k) for k in range(5)] == [0, 0, 1, 1, 1]
    assert s.num_users == 5
    with pytest.raises(IndexError):
        s.group_of_user(5)


def test_angular_support_validation():
    with pytest.raises(ValueError):
        AngularSupport(0.05, 1.0, 0.2, 0.1)      # elevation leaves (0, pi)
    with pytest.raises(ValueError):
        AngularSupport(1.0, 1.0, -0.1, 0.1)
    sup = AngularSupport(1.0, 2.0, 0.2, 0.3)
    assert sup.elev_interval == (0.8, 1.2)
    assert sup.azim_interval == (1.7, 2.3)


def test_box_contains_is_inclusive():
    box = Box(0.0, 0.0, 100.0, 100.0)
    assert box.contains((0.0, 100.0))
    assert not box.contains((100.0001, 50.0))
    assert np.allclose(box.clip((-5.0, 120.0)), [0.0, 100.0])


def test_scenario_validates_group_and_budget_consistency():
    with pytest.raises(ValueError):
        Scenario(users=[Position3D(60, 60, 0)], group_sizes=[2])
    with pytest.raises(ValueError):
        Scenario(group_sizes=[2, 2], rf_budget_bs=3)
    with pytest.raises(OutOfBox):
        Scenario(uav=Position3D(500.0, 50.0, 20.0))


def test_scenario_dict_round_trip():
    s = Scenario(group_sizes=[1, 2], bs_array=(3, 5))
    back = scenario_from_dict(scenario_to_dict(s))
    assert back.group_sizes == [1, 2]
    assert back.bs_array == (3, 5)
    assert back.first_link_tx_support == s.first_link_tx_support
    assert back.group_supports == s.group_supports
    assert back.box == s.box


def test_config_rejects_unknown_fields_by_name():
    # the superseded table-style support encodings are unknown fields too
    for key in ("bs_arrray", "angle_spread_deg", "first_link_mean_elev_deg",
                "first_link_mean_azim_deg", "group_supports_deg",
                "group_mean_elev_deg", "group_azim_start_deg",
                "group_azim_step_deg"):
        with pytest.raises(ValueError,
                           match=f"unknown config field scenario.{key}$"):
            scenario_from_dict({"bs_array": [12, 12], key: 10.0})


def _support_deg(**overrides):
    sup = {"mean_elev_deg": 60.0, "mean_azim_deg": 120.0,
           "spread_elev_deg": 10.0, "spread_azim_deg": 10.0}
    sup.update(overrides)
    return sup


@pytest.mark.parametrize("cfg, path", [
    ({"first_link_supports_deg": {"tx": _support_deg()}},
     "missing config field scenario.first_link_supports_deg.rx$"),
    ({"first_link_supports_deg": {"tx": {"mean_elev_deg": 60.0,
                                         "mean_azim_deg": 120.0,
                                         "spread_elev_deg": 10.0},
                                  "rx": _support_deg()}},
     "missing config field scenario.first_link_supports_deg.tx"
     ".spread_azim_deg$"),
    ({"first_link_supports_deg": {"tx": _support_deg(), "rx": _support_deg(),
                                  "mid": _support_deg()}},
     "unknown config field scenario.first_link_supports_deg.mid$"),
    ({"first_link_supports_deg": {"tx": _support_deg(),
                                  "rx": _support_deg(spread_deg=5.0)}},
     "unknown config field scenario.first_link_supports_deg.rx.spread_deg$"),
    ({"group_supports_deg_full": [_support_deg(mean_azim_deg=21.0),
                                  _support_deg(mean_azim_deg=141.0,
                                               mean_elev=1.0)]},
     "unknown config field scenario.group_supports_deg_full\\[1\\]"
     ".mean_elev$"),
    ({"group_supports_deg_full": [_support_deg(), [60.0, 120.0, 10.0, 10.0]]},
     "config field scenario.group_supports_deg_full\\[1\\] must be an "
     "object$"),
])
def test_config_rejects_malformed_supports_by_path(cfg, path):
    with pytest.raises(ValueError, match=path):
        scenario_from_dict(cfg)
