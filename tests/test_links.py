import warnings

import numpy as np
import pytest

from uavlink import rates
from uavlink.beamforming import OverlappingSupports
from uavlink.geometry import OutOfBox, Position3D, Scenario
from uavlink.harness import ExperimentSpec, realization
from uavlink.links import make_realization


def test_batch_matches_single_point_formulas(desk_realization, p20_mw,
                                             desk_sigma2):
    rlz = desk_realization
    rng = np.random.default_rng(0)
    xys = rng.uniform(5.0, 95.0, size=(6, 2))
    p_hat = rng.uniform(0.05, 2.0, size=rlz.num_users)
    batch = rlz.evaluate_batch(xys, p20_mw, desk_sigma2, p_hat)
    for i, xy in enumerate(xys):
        rep = rlz.rate_at(xy, p20_mw, desk_sigma2, p_hat)
        assert batch.r1[i] == pytest.approx(rep.r1, rel=1e-9)
        assert batch.r2[i] == pytest.approx(rep.r2, rel=1e-9)
        assert batch.r_total[i] == pytest.approx(rep.r_total, rel=1e-9)
        assert np.allclose(batch.sinr[i], rep.sinr, rtol=1e-8)


def test_equal_power_batch_matches_eps_scaling(desk_realization, p20_mw,
                                               desk_sigma2):
    rlz = desk_realization
    xy = np.array([40.0, 60.0])
    batch = rlz.evaluate_batch(xy[None, :], p20_mw, desk_sigma2, None)
    stages = rlz.stages_at(xy, p20_mw, desk_sigma2)
    alloc = rates.equal_alloc(stages.b_ut, p20_mw)
    assert np.allclose(batch.alloc_mw[0], alloc.p, rtol=1e-9)


def test_same_seed_same_realization(desk_scenario, p20_mw, desk_sigma2):
    a = make_realization(desk_scenario, 77)
    b = make_realization(desk_scenario, 77)
    c = make_realization(desk_scenario, 78)
    assert np.array_equal(a.h1_raw, b.h1_raw)
    assert np.array_equal(a.h2_raw, b.h2_raw)
    assert [u.x for u in a.users] == [u.x for u in b.users]
    assert not np.array_equal(a.h1_raw, c.h1_raw)
    ra = a.rate_at(a.default_xy, p20_mw, desk_sigma2)
    rb = b.rate_at(b.default_xy, p20_mw, desk_sigma2)
    assert ra.r_total == rb.r_total


def test_stream_substreams_are_order_independent(desk_scenario):
    spec = ExperimentSpec(scenario=desk_scenario, seed=42)
    full = {i: realization(spec, i) for i in range(5)}
    only_third = realization(spec, 3)
    assert np.array_equal(full[3].h1_raw, only_third.h1_raw)
    assert np.array_equal(full[3].h2_raw, only_third.h2_raw)
    assert not np.array_equal(full[2].h1_raw, only_third.h1_raw)


def test_out_of_box_candidates_rejected(desk_realization, p20_mw, desk_sigma2):
    with pytest.raises(OutOfBox):
        desk_realization.evaluate_batch(
            np.array([[50.0, 50.0], [101.0, 50.0]]), p20_mw, desk_sigma2)
    with pytest.raises(OutOfBox):
        desk_realization.rate_at((-1.0, 10.0), p20_mw, desk_sigma2)


def test_stage_constraints_hold_at_any_position(desk_realization, p20_mw,
                                                desk_sigma2):
    rlz = desk_realization
    for xy in ([10.0, 90.0], [75.0, 25.0]):
        stages = rlz.stages_at(xy, p20_mw, desk_sigma2)
        n_t = stages.f_b.shape[0]
        assert np.max(np.abs(np.abs(stages.f_b) - n_t ** -0.5)) < 1e-12
        assert np.linalg.norm(stages.f_b @ stages.b_b) ** 2 == pytest.approx(
            p20_mw, rel=1e-9)
        alloc = rates.scale_alloc(np.array([0.3, 1.0, 0.1, 0.6]),
                                  stages.b_ut, p20_mw)
        spent = float(alloc.p @ rates.precoder_gains(stages.b_ut))
        assert spent == pytest.approx(p20_mw, rel=1e-9)


def test_channel_scaling_with_distance(desk_scenario):
    users = [Position3D(70, 70, 0), Position3D(60, 80, 0),
             Position3D(90, 55, 0), Position3D(75, 95, 0)]
    s = Scenario(users=users)
    rlz = make_realization(s, 5)
    near = rlz.channel_pair_at([45.0, 45.0])
    far = rlz.channel_pair_at([5.0, 5.0])
    # moving away from the BS strengthens hop 1 and weakens hop 2
    assert np.linalg.norm(far.h1) > np.linalg.norm(near.h1)
    assert np.linalg.norm(far.h2) < np.linalg.norm(near.h2)
    eta = s.pathloss_exp
    ratio = np.linalg.norm(far.h1) / np.linalg.norm(near.h1)
    assert ratio == pytest.approx((far.tau1 / near.tau1) ** (-eta / 2),
                                  rel=1e-9)


def test_geometric_angle_model_builds_and_evaluates(desk_scenario, p20_mw,
                                                    desk_sigma2):
    # at 4x4 scale the geometric supports of nearby groups can share cells,
    # which is allowed and reported as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlappingSupports)
        rlz = make_realization(desk_scenario, 21, angle_model="geometric")
    rep = rlz.rate_at(rlz.default_xy, p20_mw, desk_sigma2)
    assert np.isfinite(rep.r_total) and rep.r_total > 0.0


def test_rate_at_accepts_relative_powers(desk_realization, p20_mw,
                                         desk_sigma2):
    rlz = desk_realization
    base = rlz.rate_at(rlz.default_xy, p20_mw, desk_sigma2)
    skew = rlz.rate_at(rlz.default_xy, p20_mw, desk_sigma2,
                       np.array([1.0, 0.0, 0.0, 0.0]))
    # single-user allocation: no interference for that user, zero rate others
    assert skew.sinr[0] > base.sinr[0]
    assert np.allclose(skew.sinr[1:], 0.0, atol=1e-30)
