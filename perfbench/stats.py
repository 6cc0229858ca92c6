"""Statistics of the repository benchmark, kept free of I/O so that
test_stats.py can check them on fixed inputs."""

import math
import statistics

# Stamp fields that describe the host and the build.  Two result sets
# are comparable only when all of them agree; the revision and the
# source digest are expected to differ between the sets being judged.
HOST_KEYS = ("hardware_threads", "cpu_model", "compiler", "build_type")

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    With n samples sorted ascending, nearest-rank percentile p has
    n - ceil(p * n) samples beyond it, so the highest p leaving
    `beyond` of them is (n - beyond) / n and its value is the
    (beyond + 1)-th largest sample.  Returns (value, percentile,
    samples beyond).  With too few samples the maximum is returned
    with percentile 100 and 0 samples beyond, and callers report it as
    such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def geomean(values):
    """Geometric mean of positive values (0 when there are none)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """Self time of every span: its duration minus the durations of
    its direct children.  `spans` is a list of dicts with start_us,
    end_us and parent (an index into the list, -1 at the root).
    Returns {name: [self_us, ...]} in span order."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_us"] - s["start_us"]
    out = {}
    for i, s in enumerate(spans):
        out.setdefault(s["name"], []).append(
            s["end_us"] - s["start_us"] - child[i])
    return out


def planner_self_ms(plan_ms, profile_ms, mapper_ms, trials, trial_ms):
    """Planner time not explained by its profile run, its device
    mapping and its emulated trials: plan - profile - mapper -
    trials x trial."""
    return plan_ms - profile_ms - mapper_ms - trials * trial_ms


def stamp_mismatch(a, b):
    """Host/build stamp fields on which two stamps differ."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


def spread(values):
    """Inter-quartile range as a share of the median, as
    statistics.quantiles(values, n=4) gives the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
