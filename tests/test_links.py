import warnings

import numpy as np
import pytest

from uavlink import channel as ch
from uavlink import rates
from uavlink.beamforming import OverlappingSupports
from uavlink.geometry import (OutOfBox, Position3D, Scenario, dbm_to_mw,
                              noise_power)
from uavlink.harness import ExperimentSpec, paper_scale_spec, realization
from uavlink.links import (Realization, design_rf_stages, make_realization,
                           shared_rf, stack_realizations)


@pytest.mark.parametrize("scenario", [
    Scenario(),                           # desk: 4x4 arrays
    paper_scale_spec().scenario,          # 12x12 arrays, N_RF > K
    Scenario(element_spacing=0.7),        # non-orthogonal grid, Q1 != I
], ids=["desk", "paper_scale", "spacing_0.7"])
def test_batch_matches_single_point_formulas(scenario, p20_mw):
    rlz = make_realization(scenario, 12345)
    sigma2 = dbm_to_mw(noise_power(scenario))
    rng = np.random.default_rng(0)
    xys = rng.uniform(5.0, 95.0, size=(6, 2))
    p_hat = rng.uniform(0.05, 2.0, size=rlz.num_users)
    batch = rlz.evaluate_batch(xys, p20_mw, sigma2, p_hat)
    for i, xy in enumerate(xys):
        rep = rlz.rate_at(xy, p20_mw, sigma2, p_hat)
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


def test_rf_design_stages_are_read_only(desk_scenario, desk_realization,
                                        p20_mw, desk_sigma2):
    # one design reaches every realization of a run, so none may edit it
    rf = design_rf_stages(desk_scenario,
                          ch.angular_supports(desk_scenario, [], "fixed"))
    stages = desk_realization.stages_at(desk_realization.default_xy, p20_mw,
                                        desk_sigma2)
    for stage in (rf.f_b, rf.f_ur, rf.f_ut, stages.f_b, stages.f_ur,
                  stages.f_ut):
        with pytest.raises(ValueError, match="read-only"):
            stage[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            stage *= 2.0


def test_shared_rf_design_builds_the_same_realization(desk_scenario, p20_mw,
                                                      desk_sigma2):
    rf = shared_rf(desk_scenario, "fixed")
    own = make_realization(desk_scenario, 31)
    shared = Realization(desk_scenario, np.random.default_rng(31), rf=rf)
    assert shared.rf is rf
    assert np.array_equal(own.h1_raw, shared.h1_raw)
    assert np.array_equal(own.h2_raw, shared.h2_raw)
    a = own.rate_at(own.default_xy, p20_mw, desk_sigma2)
    b = shared.rate_at(shared.default_xy, p20_mw, desk_sigma2)
    assert (a.r1, a.r2) == (b.r1, b.r2)


def test_geometric_angle_model_refuses_a_shared_design(desk_scenario):
    assert shared_rf(desk_scenario, "geometric") is None
    rf = design_rf_stages(desk_scenario,
                          ch.angular_supports(desk_scenario, [], "fixed"))
    with pytest.raises(ValueError, match="geometric"):
        Realization(desk_scenario, np.random.default_rng(0),
                    angle_model="geometric", rf=rf)


@pytest.mark.parametrize("scenario", [
    Scenario(), paper_scale_spec().scenario], ids=["desk", "paper_scale"])
@pytest.mark.parametrize("shared_p_hat", [False, True])
def test_per_candidate_budget_equals_scalar_calls(scenario, shared_p_hat):
    rlz = make_realization(scenario, 12345)
    sigma2 = dbm_to_mw(noise_power(scenario))
    rng = np.random.default_rng(1)
    powers = np.array([dbm_to_mw(p) for p in (0.0, 20.0, 40.0)])
    which = rng.integers(0, powers.size, size=13)
    xys = rng.uniform(5.0, 95.0, size=(which.size, 2))
    k = rlz.num_users
    p_hat = (rng.uniform(0.05, 2.0, size=k) if shared_p_hat
             else rng.uniform(0.05, 2.0, size=(which.size, k)))
    batch = rlz.evaluate_batch(xys, powers[which], sigma2, p_hat)
    for j, p_t in enumerate(powers):
        rows = which == j
        single = rlz.evaluate_batch(
            xys[rows], float(p_t), sigma2,
            p_hat if shared_p_hat else p_hat[rows])
        for name in ("r1", "r2", "r_total", "sinr", "alloc_mw"):
            assert np.array_equal(getattr(batch, name)[rows],
                                  getattr(single, name)), name


def test_per_candidate_budget_needs_one_per_row(desk_realization,
                                                desk_sigma2):
    xys = np.array([[40.0, 60.0], [50.0, 50.0]])
    with pytest.raises(ValueError, match="one value or \\(n,\\)"):
        desk_realization.evaluate_batch(xys, np.ones(3), desk_sigma2)


@pytest.mark.parametrize("case", ["desk", "paper_scale", "geometric"])
@pytest.mark.parametrize("shared", [False, True],
                         ids=["per_candidate", "shared"])
def test_stacked_evaluation_equals_each_realization(stack_members, case,
                                                     shared):
    members = stack_members(case)
    if case == "geometric":
        assert len({int(rlz.rf.f_ut.shape[1]) for rlz in members}) > 1
    stack = stack_realizations(members)
    scenario = members[0].scenario
    sigma2 = dbm_to_mw(noise_power(scenario))
    rng = np.random.default_rng(2)
    index = rng.integers(0, len(members), size=23)
    xys = rng.uniform(5.0, 95.0, size=(index.size, 2))
    k = scenario.num_users
    if shared:
        p_t, p_hat = dbm_to_mw(20.0), rng.uniform(0.05, 2.0, size=k)
    else:
        p_t = dbm_to_mw(rng.choice([0.0, 20.0, 40.0], size=index.size))
        p_hat = rng.uniform(0.05, 2.0, size=(index.size, k))
    batch = stack.evaluate_batch(xys, p_t, sigma2, p_hat, index)
    for r, rlz in enumerate(members):
        rows = index == r
        single = rlz.evaluate_batch(xys[rows], p_t if shared else p_t[rows],
                                    sigma2, p_hat if shared else p_hat[rows])
        for name in ("r1", "r2", "r_total", "sinr", "alloc_mw"):
            assert np.array_equal(getattr(batch, name)[rows],
                                  getattr(single, name)), name


def test_stack_refuses_realizations_of_two_scenarios(desk_realization):
    other = make_realization(Scenario(bs_array=(3, 3)), 1)
    with pytest.raises(ValueError, match="different scenarios: realization "
                       r"1 differs from realization 0 in scenario\.bs_array"):
        stack_realizations([desk_realization, other])


def test_stack_evaluates_batches_only(desk_realization, p20_mw, desk_sigma2):
    stack = stack_realizations([desk_realization, desk_realization])
    xy = desk_realization.default_xy
    for call in (lambda: stack.stages_at(xy, p20_mw, desk_sigma2),
                 lambda: stack.rate_at(xy, p20_mw, desk_sigma2),
                 lambda: stack.channel_pair_at(xy)):
        with pytest.raises(ValueError, match="not a stack of 2"):
            call()
    xys = np.array([xy, xy])
    for index in ([0, 2], [0, -1], [0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="realization index"):
            stack.evaluate_batch(xys, p20_mw, desk_sigma2, index=index)
