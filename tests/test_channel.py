import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavlink import channel as ch
from uavlink.geometry import AngularSupport, Position3D, Scenario


def test_receive_steering_two_element_example():
    vec = ch.steering_vector(math.pi / 2, 0.0, 2, 1, 0.5, "receive")
    assert np.allclose(vec, [1.0, -1.0], atol=1e-12)


def test_transmit_is_conjugate_of_receive():
    tx = ch.steering_vector(1.0, 2.0, 3, 4, 0.5, "transmit")
    rx = ch.steering_vector(1.0, 2.0, 3, 4, 0.5, "receive")
    assert np.allclose(tx, rx.conj(), atol=1e-14)


def test_steering_rejects_unknown_direction():
    with pytest.raises(ValueError):
        ch.steering_vector(1.0, 1.0, 2, 2, 0.5, "sideways")


def test_kronecker_structure_against_manual_ramps():
    elev, azim, rows, cols, d = 1.1, 0.7, 3, 2, 0.5
    u = math.sin(elev) * math.cos(azim)
    v = math.sin(elev) * math.sin(azim)
    ax = np.exp(2j * math.pi * d * u * np.arange(rows))
    ay = np.exp(2j * math.pi * d * v * np.arange(cols))
    expected = np.kron(ax, ay)
    got = ch.steering_vector(elev, azim, rows, cols, d, "transmit")
    assert np.allclose(got, expected, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(elev=st.floats(0.01, math.pi - 0.01),
       azim=st.floats(0.01, 2 * math.pi - 0.01),
       rows=st.integers(1, 8), cols=st.integers(1, 8))
def test_steering_entries_unit_magnitude(elev, azim, rows, cols):
    vec = ch.steering_vector(elev, azim, rows, cols, 0.5, "transmit")
    assert vec.shape == (rows * cols,)
    assert np.allclose(np.abs(vec), 1.0, atol=1e-12)


def test_pathloss_follows_log_distance_slope():
    amp1 = ch.pathloss_amplitude(10.0, 61.34, 3.6)
    amp2 = ch.pathloss_amplitude(20.0, 61.34, 3.6)
    assert amp2 / amp1 == pytest.approx(2.0 ** (-1.8), rel=1e-12)
    assert ch.pathloss_amplitude(1.0, 61.34, 3.6) == pytest.approx(
        10.0 ** (-61.34 / 20.0), rel=1e-12)
    with pytest.raises(ValueError):
        ch.pathloss_amplitude(0.0, 61.34, 3.6)


def test_single_path_first_link_is_rank_one_outer_product():
    tx = ch.PathSet([1.0], [2.0], [1.0 + 0.0j])
    rx = ch.PathSet([0.9], [1.4], [1.0 + 0.0j])
    h1 = ch.first_link_matrix(tx, rx, (3, 3), (2, 2), 0.5)
    a_r = ch.steering_vector(0.9, 1.4, 3, 3, 0.5, "transmit")
    a_t = ch.steering_vector(1.0, 2.0, 2, 2, 0.5, "receive")
    assert np.allclose(h1, np.outer(a_r, a_t), atol=1e-14)
    assert np.linalg.matrix_rank(h1) == 1


def test_second_link_row_matches_path_sum():
    paths = ch.PathSet([1.0, 1.2], [0.5, 0.7], [0.3 - 0.1j, -0.2 + 0.4j])
    h2 = ch.second_link_rows([paths], (2, 3), 0.5)
    expected = sum(
        paths.gains[q] * ch.steering_vector(paths.elev[q], paths.azim[q],
                                            2, 3, 0.5, "receive")
        for q in range(2))
    assert np.allclose(h2[0], expected, atol=1e-14)


def test_first_link_norm_tracks_pathloss_model():
    # mean Frobenius norm over draws approaches N_r * N_T * amp^2
    s = Scenario()
    rng = np.random.default_rng(99)
    draws = 10_000
    tau1 = math.sqrt(5100.0)
    amp = ch.pathloss_amplitude(tau1, s.ref_pathloss_db, s.pathloss_exp)
    acc = 0.0
    for _ in range(draws):
        tx, rx = ch.draw_first_link(s, rng)
        h1 = amp * ch.first_link_matrix(tx, rx, s.uav_rx_array, s.bs_array,
                                        s.element_spacing)
        acc += np.sum(np.abs(h1) ** 2)
    expected = 16 * 16 * amp ** 2
    assert acc / draws == pytest.approx(expected, rel=0.05)


def test_path_angles_stay_inside_declared_supports():
    s = Scenario()
    rng = np.random.default_rng(1)
    tx, rx = ch.draw_first_link(s, rng)
    for paths, sup in ((tx, s.first_link_tx_support),
                       (rx, s.first_link_rx_support)):
        lo, hi = sup.elev_interval
        assert np.all((paths.elev >= lo) & (paths.elev <= hi))
        lo, hi = sup.azim_interval
        assert np.all((paths.azim >= lo) & (paths.azim <= hi))


def test_mean_path_power_is_normalized():
    rng = np.random.default_rng(2)
    gains = np.concatenate([ch.draw_gains(rng, 10) for _ in range(4000)])
    assert np.mean(np.abs(gains) ** 2) * 10 == pytest.approx(1.0, rel=0.05)


def test_geometric_mode_recentres_on_line_of_sight():
    base = AngularSupport(1.0, 1.0, 0.1, 0.1)
    src = Position3D(0.0, 0.0, 0.0)
    dst = Position3D(1.0, 1.0, math.sqrt(2.0))
    sup = ch.recenter_support(base, src, dst)
    assert sup.mean_elev == pytest.approx(math.pi / 4, abs=1e-9)
    assert sup.mean_azim == pytest.approx(math.pi / 4, abs=1e-9)
    assert sup.spread_elev == base.spread_elev

    s = Scenario()
    rng = np.random.default_rng(3)
    tx_fixed, _ = ch.draw_first_link(s, rng, angle_model="fixed")
    tx_geo, _ = ch.draw_first_link(
        s, np.random.default_rng(3), angle_model="geometric")
    assert tx_fixed.size == tx_geo.size
    los = np.array([50.0, 50.0, 20.0]) - np.array([0.0, 0.0, 10.0])
    elev_los = math.acos(los[2] / np.linalg.norm(los))
    assert abs(np.mean(tx_geo.elev) - elev_los) < s.first_link_tx_support.spread_elev
