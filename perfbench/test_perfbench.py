"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench, {m["name"]: m["unit"] for m in bench["end_to_end"]}


# --- percentile rule -------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(99) is None       # p90 rank 90, 9 beyond
    assert stats.tail_percentile(100) == 90.0      # p90 rank 90, 10 beyond
    assert stats.tail_percentile(999) == 90.0      # p99 rank 990, 9 beyond
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_nearest_rank_percentile_and_summary():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile([3.0], 90) == 3.0
    summary = stats.summarize(reversed(samples))
    assert summary == {"n": 100, "p50": 50.5, "tail_p": 90.0, "tail": 90.0}
    assert stats.summarize([])["n"] == 0


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


# --- self-time arithmetic ----------------------------------------------------------

def _span(name, start, end, parent, layer="links", count=1):
    return (name, layer, start, end, parent, count)


def test_covered_merges_and_clips():
    assert tracing.covered(0.0, 10.0, []) == 0.0
    assert tracing.covered(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert tracing.covered(2.0, 6.0, [(0, 3), (5, 9)]) == 2.0


def test_self_time_subtracts_only_direct_children():
    spans = [_span("a", 0.0, 10.0, -1),
             _span("b", 1.0, 4.0, 0),
             _span("c", 2.0, 3.0, 1),
             _span("d", 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_under_flags_strict_descendants():
    spans = [_span(tracing.BUILD, 0.0, 10.0, -1),
             _span("x", 1.0, 2.0, 0),
             _span("y", 1.2, 1.5, 1),
             _span("z", 11.0, 12.0, -1)]
    assert tracing.under(spans, (tracing.BUILD,)) == [False, True, True, False]


def test_layer_metrics_infeasible_ratio_and_rates():
    spans = [_span("pso.solve_joint", 0.0, 1.0, -1, "pso", count=10),
             _span(tracing.EVAL, 0.1, 0.3, 0, count=4),
             _span(tracing.EVAL, 0.4, 0.6, 0, count=4),
             _span(tracing.EVAL, 2.0, 2.5, -1, count=100)]
    m = tracing.layer_metrics(spans)
    assert m["pso.infeasible_ratio"] == pytest.approx(0.2)
    assert m["pso.self_s"] == pytest.approx(0.6)
    assert m["links.eval_candidates"] == 108
    assert m["links.eval_us_per_candidate"] == pytest.approx(0.9e6 / 108)


# --- names and the result line ------------------------------------------------------

def test_every_metric_name_matches_the_pattern():
    bench, _ = _declared()
    names = [m["name"] for s in ("end_to_end", "per_layer") for m in bench[s]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert stats.NAME_RE.fullmatch(name), name
    assert set(tracing.layer_metrics([])) <= {m["name"]
                                             for m in bench["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in bench["workloads"]}


def _valid_result(declared):
    return {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u}
                        for n, u in declared.items()}}


def test_validator_accepts_a_good_result():
    _, declared = _declared()
    stats.validate_result(_valid_result(declared), declared)


@pytest.mark.parametrize("corrupt", [
    lambda r: r.pop("failed"),
    lambda r: r.update(extra=1),
    lambda r: r.update(attempted=0),
    lambda r: r.update(attempted=2.0),
    lambda r: r.update(correct="yes"),
    lambda r: r.update(failed=9),
    lambda r: r["metrics"].pop("setup_s"),
    lambda r: r["metrics"].update({"bad name": {"value": 1.0, "unit": "s"}}),
    lambda r: r["metrics"]["wall_s"].update(unit="ms"),
    lambda r: r["metrics"]["wall_s"].update(value=float("nan")),
    lambda r: r["metrics"]["wall_s"].update(value="1.0"),
])
def test_validator_rejects_a_corrupted_result(corrupt):
    _, declared = _declared()
    result = _valid_result(declared)
    corrupt(result)
    with pytest.raises(ValueError):
        stats.validate_result(result, declared)


# --- correctness checks reject corrupted outputs ------------------------------------

def _sweep_raw(wl):
    spec = wl.spec(0)
    records = []
    for i in range(spec.realizations):
        for p_t in spec.p_t_dbm:
            for k, scheme in enumerate(spec.schemes):
                r1, r2 = 6.0 + k, 5.0 + k
                records.append({"realization": i, "scheme": scheme,
                                "p_t_dbm": p_t, "r1": r1, "r2": r2,
                                "r_total": 0.5 * min(r1, r2),
                                "uav_x": 50.0, "uav_y": 50.0})
    from uavlink.harness import ResultRow
    results = [ResultRow(scheme=s, p_t_dbm=p, mean_r1=0.0, std_r1=0.0,
                         mean_r2=0.0, std_r2=0.0,
                         mean_r_total=0.5 * (5.0 + k), std_r_total=0.0,
                         realizations=spec.realizations)
               for k, s in enumerate(spec.schemes) for p in spec.p_t_dbm]
    return {"results": results, "records": records}


def test_sweep_check_rejects_corrupted_records():
    wl = workloads.Sweep(1)
    raw = _sweep_raw(wl)
    assert wl.check(raw, 0) == []
    for field, value in (("r_total", 1.0), ("uav_x", 100.5)):
        bad = copy.deepcopy(raw)
        bad["records"][-1][field] = value
        assert wl.check(bad, 0)
    bad = copy.deepcopy(raw)
    bad["records"][3]["r_total"] = 0.0          # psolpa below fl_eqpa
    bad["records"][3]["r1"] = bad["records"][3]["r2"] = 0.0
    assert any("below fl_eqpa" in e for e in wl.check(bad, 0))


def test_delay_check_rejects_buffered_above_fixed_and_nonlinear_rows():
    wl = workloads.Delay(1)
    rows = [{"p_t_dbm": p, "queue_bits": q, "delay_fixed": 2.0 * q,
             "delay_buffered": 1.0 * q}
            for p in wl.base.p_t_dbm for q in wl.queue_bits]
    assert wl.check({"rows": rows}, 0) == []
    bad = copy.deepcopy(rows)
    bad[0]["delay_buffered"] = 3.0 * bad[0]["queue_bits"]
    assert wl.check({"rows": bad}, 0)
    bad = copy.deepcopy(rows)
    bad[1]["delay_fixed"] *= 1.01
    assert any("linear" in e for e in wl.check({"rows": bad}, 0))


# --- tracer coverage ------------------------------------------------------------------

def test_tracer_catches_calls_through_imported_names():
    import numpy as np
    from uavlink import learn, rates
    original = rates.scale_alloc
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert learn.scale_alloc is rates.scale_alloc is not original
        tracer.enabled = True
        learn.scale_alloc(np.ones(2), np.eye(2), 1.0)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert rates.scale_alloc is original and learn.scale_alloc is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "rates.scale_alloc" and "rates.kappa" in names
