"""Timing summaries, result digests and the result-line validator.

Kept free of uavlink imports so the tests of the benchmark's own arithmetic
run without the package.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics

# Percentiles a timing summary may report beyond its median.
TAIL_LADDER = (90.0, 99.0, 99.9)
# A reported tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(round(p * n / 100.0, 9)))  # no float-noise ranks


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(samples)
    return float(ordered[rank(len(ordered), p) - 1])


def lower_quartile(samples) -> float:
    """Nearest-rank 25th percentile. Timings on a shared machine come in
    bursts up to 2x slower that last seconds; the lower quartile of a run's
    units reads the uncontended speed while the median moves with them."""
    return percentile(samples, 25.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with TAIL_MIN_BEYOND samples
    strictly beyond its rank, or None when even the lowest has too few."""
    best = None
    for p in TAIL_LADDER:
        if n - rank(n, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def summarize(samples) -> dict:
    """Median, the highest qualified tail percentile, and the sample count."""
    samples = list(samples)
    if not samples:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = tail_percentile(len(samples))
    return {"n": len(samples), "p50": statistics.median(samples),
            "tail_p": tail_p,
            "tail": None if tail_p is None else percentile(samples, tail_p)}


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def combine_digests(digests) -> str:
    """One digest over an ordered list of digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def validate_result(result: dict, declared: dict[str, str]) -> None:
    """Reject a result line that breaks the output contract.

    ``declared`` maps each metric the run must report to its unit. Raises
    ValueError naming the first defect.
    """
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ValueError("result needs exactly correct, attempted, failed, "
                         "metrics")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} must be a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("failed must lie in [0, attempted]")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(declared):
        raise ValueError("metrics must be exactly the declared set")
    for name, entry in metrics.items():
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise ValueError(f"{name}: entry needs exactly value and unit")
        if entry["unit"] != declared[name] or not UNIT_RE.fullmatch(
                entry["unit"]):
            raise ValueError(f"{name}: unit {entry['unit']!r} is not "
                             f"{declared[name]!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"{name}: value must be a finite number")
