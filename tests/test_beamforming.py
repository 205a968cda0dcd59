import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uavlink import beamforming as bf
from uavlink import channel as ch
from uavlink.geometry import AngularSupport, Scenario
from uavlink.links import design_rf_stages


def dense_image(support, samples):
    """The support image the long way: a meshgrid of the angles, then the
    direction cosines of the raveled grid."""
    elo, ehi = support.elev_interval
    alo, ahi = support.azim_interval
    ee, aa = np.meshgrid(np.linspace(elo, ehi, samples),
                         np.linspace(alo, ahi, samples), indexing="ij")
    return ch.direction_cosines(ee.ravel(), aa.ravel())


def reference_pairs(support, nx, ny, budget, minimum, samples):
    """(n, k) of ``select_pairs`` written out densely: np.unique over the
    hashed cell keys of every sample, then the nearest-first trim and fill
    its docstring states. None where the grid cannot supply ``minimum``."""
    u, v = dense_image(support, samples)
    keys = np.unique(bf.cell_index(u, nx).astype(np.int64) * (ny + 1)
                     + bf.cell_index(v, ny))
    lx, ly = bf.grid_cosines(nx), bf.grid_cosines(ny)
    uc, vc = ch.direction_cosines(support.mean_elev, support.mean_azim)

    def rank(nk):
        return math.hypot(lx[nk[0] - 1] - uc, ly[nk[1] - 1] - vc), nk

    chosen = sorted([(int(key // (ny + 1)), int(key % (ny + 1)))
                     for key in keys], key=rank)
    if budget is not None:
        chosen = chosen[:budget]
    if minimum is not None and len(chosen) < minimum:
        cells = itertools.product(range(1, nx + 1), range(1, ny + 1))
        rest = sorted(set(cells) - set(chosen), key=rank)
        chosen += rest[:minimum - len(chosen)]
        if len(chosen) < minimum:
            return None
    return sorted(chosen)


def rasterize_oracle(support, nx, ny, samples):
    """Independent pair count: test every cell interval against the image."""
    u, v = dense_image(support, samples)
    lx = bf.grid_cosines(nx)
    ly = bf.grid_cosines(ny)
    count = 0
    for i in range(nx):
        in_x = np.abs(u - lx[i]) <= 1.0 / nx
        if not np.any(in_x):
            continue
        for j in range(ny):
            if np.any(in_x & (np.abs(v - ly[j]) <= 1.0 / ny)):
                count += 1
    return count


def test_grid_cosines_closed_form():
    assert np.allclose(bf.grid_cosines(4), [-0.75, -0.25, 0.25, 0.75])
    n = 9
    lam = bf.grid_cosines(n)
    for idx, val in enumerate(lam, start=1):
        assert val == pytest.approx(-1.0 + (2 * idx - 1) / n, abs=1e-15)


def test_cell_index_covers_the_closed_interval():
    assert bf.cell_index(-1.0, 4) == 1
    assert bf.cell_index(1.0, 4) == 4
    assert bf.cell_index(-0.500001, 4) == 1
    assert bf.cell_index(-0.499999, 4) == 2
    assert np.array_equal(bf.cell_index(np.array([-0.9, 0.0, 0.9]), 4),
                          [1, 2, 4])


@pytest.mark.parametrize("seed", range(8))
def test_selected_pair_count_matches_rasterization_oracle(seed):
    rng = np.random.default_rng(seed)
    sup = AngularSupport(
        mean_elev=rng.uniform(0.4, math.pi - 0.4),
        mean_azim=rng.uniform(0.4, 2 * math.pi - 0.4),
        spread_elev=rng.uniform(0.05, 0.3),
        spread_azim=rng.uniform(0.05, 0.3))
    nx, ny = int(rng.integers(2, 13)), int(rng.integers(2, 13))
    pairs = bf.select_pairs(sup, nx, ny, samples=100)
    assert len(pairs) == rasterize_oracle(sup, nx, ny, samples=100)


_SPREADS = st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 0.6))


@st.composite
def supports(draw):
    """Supports anywhere inside the admissible open intervals; positions 0
    and 1 put an edge within 1e-9 rad of the (0, pi) or (0, 2 pi) limit."""
    spread_elev, spread_azim = draw(_SPREADS), draw(_SPREADS)
    t_elev, t_azim = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    lo, hi = spread_elev + 1e-9, math.pi - spread_elev - 1e-9
    mean_elev = lo + t_elev * (hi - lo)
    lo, hi = spread_azim + 1e-9, 2.0 * math.pi - spread_azim - 1e-9
    mean_azim = lo + t_azim * (hi - lo)
    try:
        return AngularSupport(mean_elev, mean_azim, spread_elev, spread_azim)
    except ValueError:
        assume(False)


# 123 samples leave a partial last row block in select_pairs
@settings(max_examples=300, deadline=None)
@given(support=supports(), nx=st.integers(1, 16), ny=st.integers(1, 16),
       samples=st.sampled_from([1, 2, 7, 100, 123, 200]),
       budget=st.none() | st.integers(1, 12),
       minimum=st.none() | st.integers(1, 12))
def test_select_pairs_matches_the_dense_reference(support, nx, ny, samples,
                                                  budget, minimum):
    expected = reference_pairs(support, nx, ny, budget, minimum, samples)
    if expected is None:
        with pytest.raises(bf.EmptySupport):
            bf.select_pairs(support, nx, ny, budget, minimum, samples)
        return
    pairs = bf.select_pairs(support, nx, ny, budget, minimum, samples)
    assert [(p.n, p.k) for p in pairs] == expected
    lx, ly = bf.grid_cosines(nx), bf.grid_cosines(ny)
    assert [(p.lx, p.ly) for p in pairs] == [(lx[n - 1], ly[k - 1])
                                             for n, k in expected]


@pytest.mark.parametrize("samples", [1, 2, 7, 200])
def test_support_image_equals_the_dense_image(samples):
    sup = AngularSupport(1.0, 2.0, 0.3, 0.2)
    u, v = bf.support_image(sup, samples)
    ru, rv = dense_image(sup, samples)
    assert u.shape == v.shape == (samples, samples)
    assert np.array_equal(u.ravel(), ru) and np.array_equal(v.ravel(), rv)


def test_budget_keeps_cells_nearest_the_support_centre():
    sup = AngularSupport(math.radians(60), math.radians(120),
                         math.radians(25), math.radians(25))
    full = bf.select_pairs(sup, 8, 8)
    assert len(full) > 3
    trimmed = bf.select_pairs(sup, 8, 8, budget=3)
    assert len(trimmed) == 3
    uc, vc = ch.direction_cosines(sup.mean_elev, sup.mean_azim)
    dist = lambda p: math.hypot(p.lx - uc, p.ly - vc)
    worst_kept = max(dist(p) for p in trimmed)
    dropped = [p for p in full if (p.n, p.k) not in {(q.n, q.k) for q in trimmed}]
    assert all(dist(p) >= worst_kept - 1e-12 for p in dropped)


def test_minimum_floor_adds_nearest_offsupport_cells():
    sup = AngularSupport(math.radians(60), math.radians(120),
                         math.radians(1), math.radians(1))
    bare = bf.select_pairs(sup, 4, 4)
    floored = bf.select_pairs(sup, 4, 4, minimum=6)
    assert len(floored) == max(6, len(bare))
    keys = {(p.n, p.k) for p in floored}
    assert {(p.n, p.k) for p in bare} <= keys
    with pytest.raises(bf.EmptySupport):
        bf.select_pairs(sup, 2, 2, minimum=5)


def test_analog_entries_have_constant_modulus():
    sup = AngularSupport(1.0, 2.0, 0.2, 0.2)
    pairs = bf.select_pairs(sup, 5, 3)
    f_b = bf.build_f_b(pairs, 5, 3)
    f_ur = bf.build_f_ur(pairs, 5, 3)
    assert f_b.shape == (15, len(pairs))
    assert f_ur.shape == (len(pairs), 15)
    assert np.max(np.abs(np.abs(f_b) - 1 / math.sqrt(15))) < 1e-12
    assert np.max(np.abs(np.abs(f_ur) - 1 / math.sqrt(15))) < 1e-12


def test_grid_columns_are_orthonormal_at_half_wavelength():
    sup = AngularSupport(1.0, 2.5, 0.5, 0.6)
    pairs = bf.select_pairs(sup, 6, 6)
    f_b = bf.build_f_b(pairs, 6, 6)
    gram = f_b.conj().T @ f_b
    assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-9
    f_ur = bf.build_f_ur(pairs, 6, 6)
    gram_r = f_ur @ f_ur.conj().T
    assert np.max(np.abs(gram_r - np.eye(len(pairs)))) < 1e-9


def test_group_blocks_and_overlap_warning():
    sups = [AngularSupport(1.0, 0.8, 0.15, 0.15),
            AngularSupport(1.0, 3.0, 0.15, 0.15)]
    f_ut = bf.build_f_ut(sups, 6, 6)
    group_pairs = [bf.select_pairs(sup, 6, 6) for sup in sups]
    assert np.array_equal(
        f_ut, np.hstack([bf.build_f_b(p, 6, 6) for p in group_pairs]))
    with pytest.warns(bf.OverlappingSupports):
        bf.build_f_ut([sups[0], sups[0]], 6, 6)


def test_rf_design_ignores_fast_fading():
    # same supports, different rng draws -> bit-identical analog stages
    s = Scenario()
    d1 = design_rf_stages(s, ch.angular_supports(s, [], "fixed"))
    d2 = design_rf_stages(s, ch.angular_supports(s, [], "fixed"))
    assert np.array_equal(d1.f_b, d2.f_b)
    assert np.array_equal(d1.f_ur, d2.f_ur)
    assert np.array_equal(d1.f_ut, d2.f_ut)


def test_first_link_digital_stages_reconstruct_singular_values():
    rng = np.random.default_rng(0)
    for _ in range(20):
        eff1 = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        p_t = float(rng.uniform(0.5, 200.0))
        k = int(rng.integers(1, 5))
        b_b, b_ur, svals = bf.bb_first_link(eff1, p_t, k)
        recon = b_ur @ eff1 @ b_b * math.sqrt(k / p_t)
        assert np.allclose(recon, np.diag(svals), atol=1e-9)
        assert np.linalg.norm(b_b) ** 2 == pytest.approx(p_t, rel=1e-12)


def test_rank_deficient_first_link_rejected():
    col = np.ones((6, 1)) + 0j
    eff1 = col @ np.ones((1, 4))            # rank one
    with pytest.raises(bf.RankDeficient):
        bf.bb_first_link(eff1, 10.0, 2)
    with pytest.raises(bf.RankDeficient):
        bf.bb_first_link(np.ones((1, 1), dtype=complex), 10.0, 3)


def test_rzf_satisfies_normal_equations():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k, n = int(rng.integers(1, 5)), int(rng.integers(4, 9))
        eff2 = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        ridge = float(rng.uniform(1e-8, 1e-2))
        b_ut = bf.bb_second_link(eff2, ridge)
        lhs = (eff2.conj().T @ eff2 + ridge * n * np.eye(n)) @ b_ut
        assert np.allclose(lhs, eff2.conj().T, atol=1e-9)


def test_rzf_two_user_elimination_oracle():
    eff2 = np.array([[1.0 + 1.0j, 2.0 - 1.0j],
                     [0.5 - 0.5j, 1.0 + 2.0j]])
    ridge = 0.01
    a = eff2.conj().T @ eff2 + ridge * 2 * np.eye(2)
    rhs = eff2.conj().T
    # manual 2x2 Gaussian elimination, column by column
    expected = np.empty((2, 2), dtype=complex)
    for col in range(2):
        b0, b1 = rhs[0, col], rhs[1, col]
        factor = a[1, 0] / a[0, 0]
        a11 = a[1, 1] - factor * a[0, 1]
        y1 = (b1 - factor * b0) / a11
        y0 = (b0 - a[0, 1] * y1) / a[0, 0]
        expected[:, col] = (y0, y1)
    assert np.allclose(bf.bb_second_link(eff2, ridge), expected, atol=1e-12)


def test_unregularized_singular_system_raises():
    eff2 = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(bf.SingularSystem):
        bf.bb_second_link(eff2, 0.0)
    # regularized solve of the same system is fine
    assert np.all(np.isfinite(bf.bb_second_link(eff2, 1e-3)))


def test_cross_group_leakage_small_at_scale():
    s = Scenario(bs_array=(12, 12), uav_rx_array=(12, 12),
                 uav_tx_array=(12, 12))
    rf = design_rf_stages(s, ch.angular_supports(s, [], "fixed"))
    blocks = [bf.build_f_b(bf.select_pairs(
        sup, *s.uav_tx_array, budget=s.rf_budget_uav_tx_per_group,
        minimum=size), *s.uav_tx_array, s.element_spacing)
        for sup, size in zip(s.group_supports, s.group_sizes)]
    assert np.array_equal(np.hstack(blocks), rf.f_ut)
    rng = np.random.default_rng(7)
    for g, sup in enumerate(s.group_supports):
        elev, azim = ch.draw_path_angles(rng, sup, 64)
        rows = ch.steering_block(ch.PathSet(elev, azim, np.ones(64)),
                                 s.uav_tx_array, s.element_spacing, "receive")
        for other, block in enumerate(blocks):
            if other == g:
                continue
            # ||A F||_F / ||A||_F for group g's steering rows A
            leakage = np.linalg.norm(rows @ block) / np.linalg.norm(rows)
            assert leakage < 0.1
