"""Order statistics for latency samples."""

TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 70, 60, 50)


def percentile(sorted_vals, p):
    """Linear-interpolated percentile of an ascending, non-empty list."""
    k = (len(sorted_vals) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def beyond(n, p):
    """Samples of ``n`` that lie above the p-th percentile's position."""
    return n - 1 - int((n - 1) * p / 100.0)


def tail(sorted_vals, preferred):
    """(percentile, value) at the workload's fixed tail percentile, or at
    the highest lower one with at least ten samples beyond it."""
    n = len(sorted_vals)
    for p in (preferred,) + tuple(q for q in TAIL_LADDER if q < preferred):
        if beyond(n, p) >= 10:
            return p, percentile(sorted_vals, p)
    return 50, percentile(sorted_vals, 50)


def latency(seconds, preferred):
    """p50 and tail in ms of a list of durations in seconds, with the
    percentile used and the sample count."""
    ms = sorted(1e3 * x for x in seconds) or [float("nan")]
    p, tail_ms = tail(ms, preferred)
    return {"p50": percentile(ms, 50), "tail": tail_ms, "tail_pct": p,
            "samples": len(seconds), "beyond": beyond(len(seconds), p)}
