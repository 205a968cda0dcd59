import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavlink import pso
from uavlink.geometry import Box, dbm_to_mw, noise_power
from uavlink.pso import PsoConfig, clip, exhaustive_grid, run_pso


@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_clip_stays_in_unit_box(values):
    x = np.array(values)
    y = clip(x, (0.0, 1.0))
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    inside = (x >= 0.0) & (x <= 1.0)
    assert np.array_equal(y[inside], x[inside])


def _sphere(points):
    # maximum at the unit-box centre
    return -np.sum((points - 0.5) ** 2, axis=1)


def test_trace_is_monotone_and_has_final_value():
    cfg = PsoConfig(particles=10, iterations=30)
    pos, val, trace = run_pso(_sphere, 4, cfg, seed=3)
    assert trace.shape == (cfg.iterations + 1,)
    assert np.all(np.diff(trace) >= 0.0)
    assert trace[-1] == val
    assert val > -1e-2


def test_run_pso_bit_reproducible():
    cfg = PsoConfig(particles=8, iterations=20)
    out = [run_pso(_sphere, 3, cfg, seed=9) for _ in range(2)]
    assert np.array_equal(out[0][0], out[1][0])
    assert out[0][1] == out[1][1]
    assert np.array_equal(out[0][2], out[1][2])


def test_warm_start_is_first_particle():
    cfg = PsoConfig(particles=6, iterations=0)
    warm = [np.array([0.5, 0.5])]
    _, val, trace = run_pso(_sphere, 2, cfg, seed=1, warm_starts=warm)
    # with zero iterations the best candidate is the seeded optimum
    assert val == 0.0
    assert np.array_equal(trace, [0.0])


def test_inertia_schedule_interpolates():
    cfg = PsoConfig(iterations=10, inertia=0.9,
                    inertia_schedule=(0.9, 0.4))
    assert cfg.inertia_at(0) == pytest.approx(0.9)
    assert cfg.inertia_at(10) == pytest.approx(0.4)
    assert cfg.inertia_at(5) == pytest.approx(0.65)
    flat = PsoConfig(inertia=1.1)
    assert flat.inertia_at(7) == 1.1


def test_power_solver_beats_equal_allocation(desk_realization, p20_mw,
                                             desk_sigma2):
    rlz = desk_realization
    cfg = PsoConfig(particles=12, iterations=25)
    sol = pso.solve_pa_fixed_loc(rlz, rlz.default_xy, cfg, p20_mw,
                                 desk_sigma2, seed=4)
    equal = rlz.rate_at(rlz.default_xy, p20_mw, desk_sigma2)
    # the warm start seeds equal power, so the result can never be below it
    assert sol.value >= equal.r_total
    assert np.array_equal(sol.xy, np.asarray(rlz.default_xy, dtype=float))
    check = rlz.rate_at(sol.xy, p20_mw, desk_sigma2, sol.p_hat)
    assert check.r_total == pytest.approx(sol.value, rel=1e-12)


def test_location_solver_stays_in_box_and_reports_rate(desk_realization,
                                                       p20_mw, desk_sigma2):
    rlz = desk_realization
    cfg = PsoConfig(particles=12, iterations=25)
    sol = pso.solve_loc_equal_pa(rlz, cfg, p20_mw, desk_sigma2, seed=8)
    assert rlz.scenario.box.contains(sol.xy)
    assert sol.p_hat is None
    check = rlz.rate_at(sol.xy, p20_mw, desk_sigma2)
    assert check.r_total == pytest.approx(sol.value, rel=1e-12)


def test_joint_solver_reports_consistent_rate(desk_realization, p20_mw,
                                              desk_sigma2):
    rlz = desk_realization
    cfg = PsoConfig(particles=16, iterations=30)
    joint = pso.solve_joint(rlz, cfg, p20_mw, desk_sigma2, seed=11)
    assert rlz.scenario.box.contains(joint.xy)
    equal_here = rlz.rate_at(rlz.default_xy, p20_mw, desk_sigma2)
    # warm start covers the default deployment with equal power
    assert joint.value >= equal_here.r_total
    check = rlz.rate_at(joint.xy, p20_mw, desk_sigma2, joint.p_hat)
    assert check.r_total == pytest.approx(joint.value, rel=1e-12)


def test_joint_handles_zero_power_particles(desk_realization, p20_mw,
                                            desk_sigma2):
    # tiny swarm with wild velocities exercises the clipped all-zero corner
    rlz = desk_realization
    cfg = PsoConfig(particles=3, iterations=40, velocity_clip=(-0.5, 0.5))
    sol = pso.solve_joint(rlz, cfg, p20_mw, desk_sigma2, seed=2)
    assert np.isfinite(sol.value) and sol.value > 0.0


def test_eval_candidates_scores_dead_rows_minus_inf(desk_realization, p20_mw,
                                                    desk_sigma2):
    rlz = desk_realization
    xys = np.array([[50.0, 50.0], [50.0, 50.0]])
    p_hat = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    vals = pso._eval_candidates(rlz, xys, p_hat, p20_mw, desk_sigma2,
                                "r_total")
    assert np.isfinite(vals[0]) and vals[0] > 0.0
    assert vals[1] == -np.inf


def test_grid_centers_cover_box():
    cs = pso._centers(0.0, 100.0, 20.0)
    assert np.allclose(cs, [10.0, 30.0, 50.0, 70.0, 90.0])
    one = pso._centers(0.0, 100.0, 150.0)
    assert np.allclose(one, [50.0])


def test_exhaustive_grid_finds_best_cell(desk_realization, p20_mw,
                                         desk_sigma2):
    rlz = desk_realization
    res = exhaustive_grid(rlz, 25.0, 25.0, p20_mw, desk_sigma2)
    assert res.values.shape == (4, 4)
    ix, iy = np.unravel_index(np.argmax(res.values), res.values.shape)
    assert res.best_xy[0] == res.xs[ix]
    assert res.best_xy[1] == res.ys[iy]
    assert res.best_value == np.max(res.values)
    direct = rlz.rate_at(res.best_xy, p20_mw, desk_sigma2)
    assert direct.r_total == pytest.approx(res.best_value, rel=1e-12)


def test_grid_rejects_nonpositive_steps(desk_realization, p20_mw,
                                        desk_sigma2):
    with pytest.raises(ValueError):
        exhaustive_grid(desk_realization, 0.0, 5.0, p20_mw, desk_sigma2)


def test_objective_field_selects_hop(desk_realization, p20_mw, desk_sigma2):
    batch = desk_realization.evaluate_batch(
        np.array([[50.0, 50.0]]), p20_mw, desk_sigma2)
    assert pso._objective_field(batch, "r1") is batch.r1
    assert pso._objective_field(batch, "r_total") is batch.r_total
    with pytest.raises(ValueError):
        pso._objective_field(batch, "nope")


def test_box_map_round_trip():
    box = Box(-20.0, 10.0, 80.0, 60.0)
    unit = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]])
    xy = box.from_unit(unit)
    assert np.allclose(xy[0], [box.x_min, box.y_min])
    assert np.allclose(xy[1], [box.x_max, box.y_max])
    assert np.allclose(xy[2], [30.0, 22.5])
    assert np.allclose(box.to_unit(xy), unit)
    assert np.allclose(box.to_unit(xy[2]), unit[2])


def test_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(particles=0)
    with pytest.raises(ValueError):
        PsoConfig(velocity_clip=(0.2, 0.2))
    with pytest.raises(ValueError):
        Box(0.0, 0.0, 0.0, 100.0)


# inertia -1 flips every velocity each step, so particles bounce between
# the box faces and some land on an all-zero power row
BOUNCING = PsoConfig(particles=4, iterations=30, velocity_clip=(-1.0, 1.0),
                     inertia=-1.0)
SMALL = PsoConfig(particles=6, iterations=12)
POWERS_DBM = (0.0, 20.0, 40.0, 10.0)


def _solver_calls(rlz):
    """The three solvers on ``rlz``, a realization or a list of them."""
    xy = (rlz[0] if isinstance(rlz, list) else rlz).default_xy
    return {
        "pa": lambda cfg, p, s2, seed, obj: pso.solve_pa_fixed_loc(
            rlz, xy, cfg, p, s2, seed, obj),
        "loc": lambda cfg, p, s2, seed, obj: pso.solve_loc_equal_pa(
            rlz, cfg, p, s2, seed, obj),
        "joint": lambda cfg, p, s2, seed, obj: pso.solve_joint(
            rlz, cfg, p, s2, seed, obj),
    }


def _same_result(a, b):
    for name in ("xy", "p_hat", "trace"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    assert a.value == b.value
    assert (a.objective, a.infeasible, a.last_improvement) == \
        (b.objective, b.infeasible, b.last_improvement)


@pytest.mark.parametrize("cfg", [SMALL, BOUNCING], ids=["small", "bouncing"])
@pytest.mark.parametrize("solver", ["pa", "loc", "joint"])
def test_stacked_solve_equals_single_solves(desk_realization, desk_sigma2,
                                            solver, cfg):
    rlz = desk_realization
    solve = _solver_calls(rlz)[solver]
    p_t = [dbm_to_mw(p) for p in POWERS_DBM]
    seeds = [np.random.SeedSequence([7, i]) for i in range(len(p_t))]
    objectives = ["r_total", "r1", "r2", "r_total"]
    stacked = solve(cfg, p_t, desk_sigma2, seeds, objectives)
    assert isinstance(stacked, list) and len(stacked) == len(seeds)
    for sol, p, seed, obj in zip(stacked, p_t, seeds, objectives):
        _same_result(sol, solve(cfg, p, desk_sigma2, seed, obj))
    if cfg is BOUNCING and solver != "loc":
        assert any(sol.infeasible > 0 for sol in stacked)


@pytest.mark.parametrize("case", ["desk", "paper_scale", "geometric"])
@pytest.mark.parametrize("solver", ["pa", "loc", "joint"])
def test_solve_over_realizations_equals_lone_solves(stack_members, case,
                                                    solver):
    members = stack_members(case)
    sigma2 = dbm_to_mw(noise_power(members[0].scenario))
    p_t = [dbm_to_mw(p) for p in (0.0, 20.0, 40.0, 10.0, 30.0, 20.0)]
    seeds = [np.random.SeedSequence([9, i]) for i in range(len(members))]
    objectives = ["r_total", "r1", "r2"] * 2
    cfg = BOUNCING if case == "desk" else SMALL
    stacked = _solver_calls(members)[solver](cfg, p_t, sigma2, seeds,
                                             objectives)
    assert isinstance(stacked, list) and len(stacked) == len(members)
    for sol, rlz, p, seed, obj in zip(stacked, members, p_t, seeds,
                                      objectives):
        _same_result(sol, _solver_calls(rlz)[solver](cfg, p, sigma2, seed,
                                                     obj))
    if cfg is BOUNCING and solver != "loc":
        assert any(sol.infeasible > 0 for sol in stacked)


def test_stacked_solve_shares_one_power_and_objective(desk_realization,
                                                      desk_sigma2, p20_mw):
    seeds = [3, 4]
    stacked = pso.solve_joint(desk_realization, SMALL, p20_mw, desk_sigma2,
                              seeds, "r2")
    for sol, seed in zip(stacked, seeds):
        _same_result(sol, pso.solve_joint(desk_realization, SMALL, p20_mw,
                                          desk_sigma2, seed, "r2"))


def test_single_seed_returns_one_result(desk_realization, desk_sigma2,
                                        p20_mw):
    for solve in _solver_calls(desk_realization).values():
        sol = solve(SMALL, p20_mw, desk_sigma2, 5, "r_total")
        assert isinstance(sol, pso.SolveResult)
        # a list of one seed is a stack of one
        one = solve(SMALL, p20_mw, desk_sigma2, [5], "r_total")
        assert isinstance(one, list) and len(one) == 1
        _same_result(one[0], sol)


def test_stacked_solve_rejects_mismatched_lists(desk_realization,
                                                desk_sigma2, p20_mw):
    with pytest.raises(ValueError, match="p_t_mw gives 3 values for 2"):
        pso.solve_joint(desk_realization, SMALL, [p20_mw] * 3, desk_sigma2,
                        [1, 2])
    with pytest.raises(ValueError, match="objective gives 1 values for 2"):
        pso.solve_loc_equal_pa(desk_realization, SMALL, p20_mw, desk_sigma2,
                               [1, 2], ["r1"])
    pair = [desk_realization, desk_realization]
    with pytest.raises(ValueError, match="rlz gives 2 realizations for 3"):
        pso.solve_joint(pair, SMALL, p20_mw, desk_sigma2, [1, 2, 3])
    with pytest.raises(ValueError, match="list of realizations needs a list"):
        pso.solve_pa_fixed_loc(pair[:1], desk_realization.default_xy, SMALL,
                               p20_mw, desk_sigma2, 1)


def test_run_swarms_records_infeasible():
    cfg = PsoConfig(particles=5, iterations=15)

    def objective(coords):
        # rows whose first coordinate sits left of 0.3 are infeasible
        values = _sphere(coords.reshape(-1, coords.shape[-1]))
        values[coords.reshape(-1, coords.shape[-1])[:, 0] < 0.3] = -np.inf
        return values.reshape(coords.shape[:2])

    seen = []

    def recording(coords):
        seen.append(objective(coords))
        return seen[-1]

    run = pso.run_swarms(recording, 3, cfg, [1, 2, 3])
    all_values = np.stack(seen)                  # (iterations + 1, S, m)
    assert np.array_equal(run.infeasible,
                          np.isneginf(all_values).sum(axis=(0, 2)))
    assert np.any(run.infeasible > 0)
    for s in range(3):
        # each swarm alone walks the same path
        pos, val, trace = run_pso(lambda c: objective(c[None])[0], 3, cfg,
                                  seed=s + 1)
        assert np.array_equal(pos, run.best_pos[s]) and val == run.best_val[s]
        assert np.array_equal(trace, run.trace[s])


@pytest.mark.parametrize("solver", ["pa", "loc", "joint"])
def test_last_improvement_is_the_last_gbest_gain(desk_realization,
                                                 desk_sigma2, solver):
    p_t = [dbm_to_mw(p) for p in POWERS_DBM]
    sols = _solver_calls(desk_realization)[solver](
        BOUNCING, p_t, desk_sigma2, [1, 2, 3, 4], "r_total")
    for sol in sols:
        gains = np.flatnonzero(np.diff(sol.trace) > 0.0)
        assert sol.last_improvement == (gains[-1] + 1 if gains.size else 0)
    flat = pso.solve_loc_equal_pa(desk_realization, PsoConfig(iterations=0),
                                  p_t[0], desk_sigma2, 1)
    assert flat.last_improvement == 0


def test_list_seed_means_one_swarm_per_element(desk_realization,
                                               desk_sigma2, p20_mw):
    # a list is never one seed's entropy: [7, 0] is the swarms 7 and 0
    pair = pso.solve_loc_equal_pa(desk_realization, SMALL, p20_mw,
                                  desk_sigma2, [7, 0])
    for sol, seed in zip(pair, [7, 0]):
        _same_result(sol, pso.solve_loc_equal_pa(desk_realization, SMALL,
                                                 p20_mw, desk_sigma2, seed))
    # wrapped, the same entropy seeds one swarm
    one = pso.solve_loc_equal_pa(desk_realization, SMALL, p20_mw,
                                 desk_sigma2, np.random.SeedSequence([7, 0]))
    assert isinstance(one, pso.SolveResult)
    _, _, trace = run_pso(
        lambda c: pso._eval_candidates(
            desk_realization, desk_realization.scenario.box.from_unit(c),
            None, p20_mw, desk_sigma2, "r_total"),
        2, SMALL, [7, 0],
        [desk_realization.scenario.box.to_unit(desk_realization.default_xy)])
    assert np.array_equal(one.trace, trace)


def test_eval_candidates_scores_objective_blocks(desk_realization,
                                                 desk_sigma2, p20_mw):
    rlz = desk_realization
    xys = np.array([[50.0, 50.0], [20.0, 70.0], [50.0, 50.0], [20.0, 70.0]])
    p_hat = np.array([[1.0, 2.0, 0.5, 1.0], [0.0, 0.0, 0.0, 0.0],
                      [1.0, 2.0, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0]])
    vals = pso._eval_candidates(rlz, xys, p_hat, p20_mw, desk_sigma2,
                                ["r1", "r2"])
    batch = rlz.evaluate_batch(xys[[0, 2, 3]], p20_mw, desk_sigma2,
                               p_hat[[0, 2, 3]])
    assert vals[0] == batch.r1[0] and vals[1] == -np.inf
    assert vals[2] == batch.r2[1] and vals[3] == batch.r2[2]
