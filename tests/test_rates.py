import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavlink import beamforming as bf
from uavlink import rates
from uavlink.beamforming import HbfStages


def assemble_stages(h1, h2, f_b, f_ur, f_ut, p_t_mw, sigma2_mw):
    """Digital stages and effective channels on top of fixed analog stages."""
    eff1 = f_ur @ h1 @ f_b
    eff2 = h2 @ f_ut
    b_b, b_ur, _ = bf.bb_first_link(eff1, p_t_mw, h2.shape[0])
    b_ut = bf.bb_second_link(eff2, sigma2_mw / p_t_mw)
    return HbfStages(f_b=f_b, b_b=b_b, f_ur=f_ur, b_ur=b_ur, f_ut=f_ut,
                     b_ut=b_ut, eff1=eff1, eff2=eff2)


def random_stages(rng, k=3, n_rf=5, n_ant=12, p_t=100.0, sigma2=1e-6):
    """Realistic random stage set: orthonormal-ish analog, SVD/RZF digital."""
    h1 = rng.standard_normal((n_ant, n_ant)) + 1j * rng.standard_normal(
        (n_ant, n_ant))
    h2 = rng.standard_normal((k, n_ant)) + 1j * rng.standard_normal((k, n_ant))
    f_b = np.linalg.qr(rng.standard_normal((n_ant, n_rf))
                       + 1j * rng.standard_normal((n_ant, n_rf)))[0]
    f_ur = np.linalg.qr(rng.standard_normal((n_ant, n_rf))
                        + 1j * rng.standard_normal((n_ant, n_rf)))[0].conj().T
    f_ut = np.linalg.qr(rng.standard_normal((n_ant, n_rf))
                        + 1j * rng.standard_normal((n_ant, n_rf)))[0]
    return assemble_stages(h1, h2, f_b, f_ur, f_ut, p_t, sigma2)


def sinr_oracle(eff2, b_ut, p, sigma2):
    """Coupling matrix and SINR with explicit scalar loops."""
    k = eff2.shape[0]
    n = eff2.shape[1]
    c = [[sum(eff2[i][m] * b_ut[m][j] for m in range(n)) for j in range(k)]
         for i in range(k)]
    out = []
    for i in range(k):
        desired = p[i] * abs(c[i][i]) ** 2
        interf = sum(p[j] * abs(c[i][j]) ** 2 for j in range(k) if j != i)
        out.append(desired / (interf + sigma2))
    return np.array(out)


def test_sinr_matches_brute_force_oracle():
    # random digital stages keep every coupling entry far from the
    # cancellation floor, where loop and BLAS sums legitimately differ
    rng = np.random.default_rng(3)
    for _ in range(10):
        stages = random_stages(rng)
        stages.b_ut = rng.standard_normal(stages.b_ut.shape) \
            + 1j * rng.standard_normal(stages.b_ut.shape)
        p = rng.uniform(0.1, 5.0, size=3)
        alloc = rates.PowerAlloc(p)
        got = rates.sinr_per_user(stages, alloc, 1e-6)
        want = sinr_oracle(stages.eff2, stages.b_ut, p, 1e-6)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_batched_sinr_equals_per_slice_sinr():
    rng = np.random.default_rng(5)
    stages = [[random_stages(rng, k=4) for _ in range(3)] for _ in range(2)]
    p = rng.uniform(0.1, 5.0, size=(2, 3, 4))
    c = np.array([[rates.coupling_matrix(st) for st in row] for row in stages])
    batch = rates.sinr_from_couplings(c, p, 1e-6)
    assert batch.shape == (2, 3, 4)
    for i, row in enumerate(stages):
        for j, st in enumerate(row):
            one = rates.sinr_per_user(st, rates.PowerAlloc(p[i, j]), 1e-6)
            assert np.array_equal(batch[i, j], one)


def test_identity_coupling_gives_unit_sinr_and_rate_k():
    k = 4
    stages = HbfStages(
        f_b=np.eye(k), b_b=np.eye(k), f_ur=np.eye(k), b_ur=np.eye(k),
        f_ut=np.eye(k), b_ut=np.eye(k, dtype=complex),
        eff1=np.eye(k), eff2=np.eye(k, dtype=complex))
    sigma2 = 0.37
    alloc = rates.PowerAlloc(np.full(k, sigma2))
    sinr = rates.sinr_per_user(stages, alloc, sigma2)
    assert np.allclose(sinr, 1.0, atol=1e-14)
    assert rates.rate_second_link(stages, alloc, sigma2) == pytest.approx(
        float(k), abs=1e-12)


def test_first_link_rate_closed_form_with_orthonormal_combiner():
    # with orthonormal combined rows the noise covariance is sigma^2 I and
    # the rate collapses to a sum over singular-value SNRs
    rng = np.random.default_rng(5)
    k, p_t, sigma2 = 3, 42.0, 1e-5
    stages = random_stages(rng, k=k, p_t=p_t, sigma2=sigma2)
    r1 = rates.rate_first_link(stages, sigma2)
    svals = np.linalg.svd(stages.eff1, compute_uv=False)[:k]
    expected = np.sum(np.log2(1.0 + (p_t / k) * svals ** 2 / sigma2))
    assert r1 == pytest.approx(expected, rel=1e-9)


def test_first_link_rate_requires_positive_definite_noise():
    k = 2
    stages = HbfStages(
        f_b=np.eye(k), b_b=np.eye(k), f_ur=np.zeros((k, k)),
        b_ur=np.zeros((k, k)), f_ut=np.eye(k), b_ut=np.eye(k),
        eff1=np.eye(k), eff2=np.eye(k))
    with pytest.raises(rates.NumericalFailure):
        rates.rate_first_link(stages, 1e-6)


def test_kappa_single_user_unit_column():
    b_ut = np.array([[1.0 + 0.0j]])
    assert rates.kappa(np.array([1.0]), b_ut, 25.0) == pytest.approx(
        math.sqrt(25.0), rel=1e-12)


def test_kappa_scaling_meets_budget_with_equality():
    rng = np.random.default_rng(8)
    for _ in range(25):
        k, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        b_ut = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        p_hat = rng.uniform(0.0, 3.0, size=k)
        p_hat[int(rng.integers(0, k))] = 1.0     # keep at least one active
        p_t = float(rng.uniform(0.1, 500.0))
        alloc = rates.scale_alloc(p_hat, b_ut, p_t)
        spent = float(alloc.p @ rates.precoder_gains(b_ut))
        assert spent == pytest.approx(p_t, rel=1e-9)
        assert np.all(alloc.p >= 0.0)


def test_equal_power_unit_columns():
    b_ut = np.eye(4, dtype=complex)
    eps = rates.kappa(None, b_ut, 16.0)
    assert eps == pytest.approx(2.0, rel=1e-12)
    alloc = rates.scale_alloc(None, b_ut, 16.0)
    assert np.allclose(alloc.p, 4.0)


def test_equal_power_equals_kappa_with_uniform_relative_powers():
    rng = np.random.default_rng(9)
    b_ut = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    p_t = 77.0
    eps = rates.kappa(None, b_ut, p_t)
    alloc = rates.scale_alloc(np.ones(3), b_ut, p_t)
    assert np.allclose(alloc.p, eps ** 2, rtol=1e-12)


def test_equal_alloc_matches_the_uniform_level_exactly():
    # the equal-power formula scale_alloc(None, ...) replaced: one level
    # eps with sum_k eps^2 b_k^H b_k = P_T, from a plain sum of the gains
    rng = np.random.default_rng(10)
    for _ in range(200):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        b_ut = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        p_t = float(rng.uniform(0.1, 500.0))
        gains = np.sum(np.abs(b_ut) ** 2, axis=0)
        oracle = np.full(k, math.sqrt(p_t / np.sum(gains)) ** 2)
        assert np.array_equal(rates.scale_alloc(None, b_ut, p_t).p, oracle)
    with pytest.raises(rates.AllZeroAlloc):
        rates.scale_alloc(None, np.zeros((3, 2), dtype=complex), 10.0)


def test_degenerate_scaling_inputs_raise():
    with pytest.raises(rates.AllZeroAlloc):
        rates.kappa(np.zeros(3), np.eye(3, dtype=complex), 10.0)
    with pytest.raises(rates.AllZeroAlloc):
        rates.kappa(None, np.zeros((3, 3), dtype=complex), 10.0)
    with pytest.raises(ValueError):
        rates.PowerAlloc(np.array([1.0, -0.1]))


@settings(max_examples=40, deadline=None)
@given(bump=st.floats(0.01, 10.0), victim=st.integers(0, 2),
       source=st.integers(0, 2))
def test_sinr_nonincreasing_in_other_users_power(bump, victim, source):
    rng = np.random.default_rng(11)
    stages = random_stages(rng, k=3)
    base = np.array([1.0, 1.2, 0.8])
    before = rates.sinr_per_user(stages, rates.PowerAlloc(base), 1e-6)
    raised = base.copy()
    raised[source] += bump
    after = rates.sinr_per_user(stages, rates.PowerAlloc(raised), 1e-6)
    if source == victim:
        assert after[victim] >= before[victim] - 1e-15
    else:
        assert after[victim] <= before[victim] + 1e-15


def test_rates_invariant_to_common_power_noise_rescale():
    rng = np.random.default_rng(12)
    h1 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h2 = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    f = np.linalg.qr(rng.standard_normal((8, 4))
                     + 1j * rng.standard_normal((8, 4)))[0]
    p_t, sigma2 = 10.0, 1e-7
    a = assemble_stages(h1, h2, f, f.conj().T, f, p_t, sigma2)
    b = assemble_stages(h1, h2, f, f.conj().T, f, 10 * p_t, 10 * sigma2)
    alloc_a = rates.scale_alloc(np.array([1.0, 2.0, 0.5]), a.b_ut, p_t)
    alloc_b = rates.scale_alloc(np.array([1.0, 2.0, 0.5]), b.b_ut, 10 * p_t)
    assert rates.rate_first_link(a, sigma2) == pytest.approx(
        rates.rate_first_link(b, 10 * sigma2), rel=1e-9)
    assert rates.rate_second_link(a, alloc_a, sigma2) == pytest.approx(
        rates.rate_second_link(b, alloc_b, 10 * sigma2), rel=1e-9)


def test_rate_report_takes_bottleneck_half():
    rng = np.random.default_rng(13)
    stages = random_stages(rng)
    alloc = rates.scale_alloc(None, stages.b_ut, 100.0)
    report = rates.rate_report(stages, alloc, 1e-6)
    assert report.r_total == pytest.approx(0.5 * min(report.r1, report.r2))
    assert report.sinr.shape == (3,)
