import numpy as np
import pytest

from uavlink import pso
from uavlink.geometry import dbm_to_mw
from uavlink.links import make_realization
from uavlink.pso import PsoConfig
from uavlink.relay import (BufferPolicy, ZeroRate, buffered_rate,
                           little_delay, optimize_policy)

CFG = PsoConfig(particles=10, iterations=20)


def test_buffered_rate_uses_per_hop_positions(desk_realization, p20_mw,
                                              desk_sigma2):
    rlz = desk_realization
    policy = BufferPolicy(loc_rx=[20.0, 20.0], loc_tx=[80.0, 80.0])
    report = buffered_rate(rlz, policy, p20_mw, desk_sigma2)
    assert report.r1 == rlz.rate_at([20.0, 20.0], p20_mw, desk_sigma2).r1
    assert report.r2 == rlz.rate_at([80.0, 80.0], p20_mw, desk_sigma2).r2
    assert report.r_total == 0.5 * min(report.r1, report.r2)


def test_bufferless_policy_is_single_point(desk_realization, p20_mw,
                                           desk_sigma2):
    rlz = desk_realization
    policy = BufferPolicy(loc_rx=[40.0, 60.0], loc_tx=[40.0, 60.0])
    report = buffered_rate(rlz, policy, p20_mw, desk_sigma2)
    direct = rlz.rate_at([40.0, 60.0], p20_mw, desk_sigma2)
    assert report.r_total == direct.r_total


def test_buffer_never_loses_on_a_realization(desk_scenario, p20_mw,
                                             desk_sigma2):
    for seed in (1, 2, 3):
        rlz = make_realization(desk_scenario, seed)
        plain = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=seed,
                                mode="without_buffer")
        buf = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=seed,
                              mode="with_buffer")
        r_plain = buffered_rate(rlz, plain, p20_mw, desk_sigma2).r_total
        r_buf = buffered_rate(rlz, buf, p20_mw, desk_sigma2).r_total
        assert r_buf >= r_plain


def test_optimize_policy_leaves_the_callers_seed_sequence_alone(
        desk_realization, p20_mw, desk_sigma2):
    seq = np.random.SeedSequence(5)
    first = optimize_policy(desk_realization, CFG, p20_mw, desk_sigma2, seq)
    second = optimize_policy(desk_realization, CFG, p20_mw, desk_sigma2, seq)
    fresh = optimize_policy(desk_realization, CFG, p20_mw, desk_sigma2,
                            np.random.SeedSequence(5))
    assert seq.n_children_spawned == 0
    for policy in (second, fresh):
        for field in ("loc_rx", "loc_tx", "base_xy"):
            assert np.array_equal(getattr(policy, field), getattr(first, field))


def test_optimize_policy_reproducible(desk_realization, p20_mw, desk_sigma2):
    a = optimize_policy(desk_realization, CFG, p20_mw, desk_sigma2, seed=5)
    b = optimize_policy(desk_realization, CFG, p20_mw, desk_sigma2, seed=5)
    assert np.array_equal(a.loc_rx, b.loc_rx)
    assert np.array_equal(a.loc_tx, b.loc_tx)


def test_little_delay_hand_value():
    # 8-bit queue over a 16 bps bottleneck drains in half a second
    assert little_delay(16.0, 20.0, 8.0) == 0.5
    assert little_delay(20.0, 16.0, 8.0) == 0.5
    assert little_delay(4.0, 4.0, 0.0) == 0.0


def test_little_delay_decreases_with_rate():
    delays = [little_delay(r, r + 1.0, 100.0) for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(delays, delays[1:]))


def test_little_delay_rejects_degenerate_inputs():
    with pytest.raises(ZeroRate):
        little_delay(0.0, 10.0, 5.0)
    with pytest.raises(ValueError):
        little_delay(1.0, 1.0, -1.0)


def _record_stacks(monkeypatch) -> list:
    """Run every stacked location search one swarm at a time, and record
    the objectives of each stack."""
    solve = pso.solve_loc_equal_pa
    stacks = []

    def one_at_a_time(rlz, cfg, p_t_mw, sigma2_mw, seed, objective="r_total"):
        if not isinstance(seed, list):
            return solve(rlz, cfg, p_t_mw, sigma2_mw, seed, objective)
        stacks.append(list(objective))
        return [solve(rlz, cfg, p_t_mw, sigma2_mw, s, o)
                for s, o in zip(seed, objective)]

    monkeypatch.setattr(pso, "solve_loc_equal_pa", one_at_a_time)
    return stacks


def test_buffered_policy_stacks_its_three_searches(desk_realization, p20_mw,
                                                   desk_sigma2, monkeypatch):
    rlz = desk_realization
    stacked = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=5)
    stacks = _record_stacks(monkeypatch)
    lone = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=5)
    assert stacks == [["r_total", "r1", "r2"]]
    assert np.array_equal(stacked.loc_rx, lone.loc_rx)
    assert np.array_equal(stacked.loc_tx, lone.loc_tx)


def test_bufferless_policy_makes_the_same_single_search(
        desk_realization, p20_mw, desk_sigma2, monkeypatch):
    rlz = desk_realization
    stacked = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=5,
                              mode="without_buffer")
    stacks = _record_stacks(monkeypatch)
    lone = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=5,
                           mode="without_buffer")
    assert stacks == [["r_total", "r1", "r2"]]
    _same_policy(stacked, lone)


def _same_policy(a, b):
    for name in ("loc_rx", "loc_tx", "base_xy"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


@pytest.mark.parametrize("mode", ["with_buffer", "without_buffer"])
def test_power_list_equals_per_power_calls(desk_realization, desk_sigma2,
                                           mode):
    rlz = desk_realization
    p_t_mw = [dbm_to_mw(p) for p in (0.0, 20.0, 40.0)]
    seeds = [np.random.SeedSequence([5, j]) for j in range(len(p_t_mw))]
    stacked = optimize_policy(rlz, CFG, p_t_mw, desk_sigma2, seeds,
                              mode=mode)
    assert len(stacked) == len(p_t_mw)
    for j, policy in enumerate(stacked):
        lone = optimize_policy(rlz, CFG, p_t_mw[j], desk_sigma2,
                               np.random.SeedSequence([5, j]), mode=mode)
        _same_policy(policy, lone)


def test_one_budget_serves_every_seed(desk_realization, p20_mw,
                                      desk_sigma2):
    rlz = desk_realization
    shared = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, [3, 4])
    each = optimize_policy(rlz, CFG, [p20_mw, p20_mw], desk_sigma2, [3, 4])
    for a, b in zip(shared, each):
        _same_policy(a, b)


def test_bufferless_policy_comes_from_the_buffered_search(
        desk_realization, p20_mw, desk_sigma2):
    rlz = desk_realization
    buffered = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=5)
    plain = optimize_policy(rlz, CFG, p20_mw, desk_sigma2, seed=5,
                            mode="without_buffer")
    _same_policy(buffered.bufferless(), plain)


def test_policy_arguments_are_checked(desk_realization, p20_mw, desk_sigma2):
    with pytest.raises(ValueError, match="records no bufferless optimum"):
        BufferPolicy(loc_rx=[10.0, 10.0], loc_tx=[20.0, 20.0]).bufferless()
    with pytest.raises(ValueError, match="2 budgets for 3 seeds"):
        optimize_policy(desk_realization, CFG, [p20_mw, p20_mw], desk_sigma2,
                        [1, 2, 3])
    with pytest.raises(ValueError, match="unknown mode"):
        optimize_policy(desk_realization, CFG, p20_mw, desk_sigma2, 1,
                        mode="queued")
