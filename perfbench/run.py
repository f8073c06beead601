"""sfadet benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_ref --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the workload is set up several times (the fastest set-up
is ``setup_s``) and then timed for ``--seconds`` with no tracing; the
end-to-end metrics are printed. With ``--trace 1`` the module functions are
wrapped while the workload is set up once, and then for ``--seconds`` short
untraced and traced blocks of operations alternate; the per-layer metrics
and the tracing overhead are printed. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A fuller
record (environment, seed, percentiles, sample counts, output digests,
problems found) goes to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
BLOCK_OPS = 2       # ops per untraced or traced block of a traced run

# (name, unit, better), the same for every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("images_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_share", "ratio", "higher"),
)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Set the BLAS thread variables to at most nproc; call before numpy."""
    cap = nproc()
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else cap
        os.environ[var] = str(min(n, cap))


def blas_info():
    """BLAS library name, version and the thread count OpenBLAS reports."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f
                       if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_op(wl, ctx, i):
    """Seconds taken by operation ``i`` (None if it raised) and the problems
    found in its output."""
    t0 = time.perf_counter()
    try:
        out = wl.op(ctx, i)
    except Exception as e:  # a failed operation is counted, not fatal
        return None, [f"{type(e).__name__}: {e}"]
    secs = time.perf_counter() - t0
    return secs, wl.check(ctx, out)


def measure(wl, ctx, seconds):
    """Run timed operations until ``seconds`` have passed."""
    lat, problems = [], []
    deadline = time.perf_counter() + seconds
    ops = 0
    while time.perf_counter() < deadline:
        secs, found = timed_op(wl, ctx, ops)
        if found:
            problems.append((ops, found))
        else:
            lat.append(secs)
        ops += 1
    return {"ops": ops, "failed": len(problems), "lat": lat,
            "problems": problems}


def _setup(wl, seed, workdir):
    workdir.mkdir()
    return wl.setup(wl.inputs(seed), str(workdir))


def _result(ops, failed, problems, metrics, specs):
    return {"correct": failed == 0, "attempted": max(ops, 1),
            "failed": failed, "problems": problems,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in specs}}


def run_plain(wl, args, workdir):
    from stats import latency

    times, digests = [], set()
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = _setup(wl, args.seed, workdir / f"setup{r}")
        times.append(time.perf_counter() - t0)
        digests.add(json.dumps(ctx["digest"]))
    setup_problems = list(ctx["setup_problems"])
    if len(digests) != 1:
        setup_problems.append("repeated set-ups gave different outputs")
    win = measure(wl, ctx, args.seconds)
    lat = latency(win["lat"], wl.tail_pct)
    ops = max(win["ops"], 1)
    failed = win["failed"] + bool(setup_problems)
    metrics = {
        "setup_s": min(times),
        "images_per_s": (wl.items(ctx) * len(win["lat"]) / sum(win["lat"])
                         if win["lat"] else 0.0),
        "op_ms_p50": lat["p50"],
        "op_ms_tail": lat["tail"],
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_share": 1.0 - failed / ops,
    }
    problems = ([("setup", setup_problems)] if setup_problems else []) \
        + win["problems"]
    rec = _result(win["ops"], failed, problems, metrics, END_TO_END)
    report = [("setup_s", metrics["setup_s"], "s",
               f"fastest of {SETUP_REPEATS} set-ups")]
    report += wl.report(ctx, lat, metrics["images_per_s"])
    report += [("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
               ("ops_failed_share", failed / ops, "ratio",
                f"{failed} of {ops} {wl.units}")]
    rec.update(digest=ctx["digest"], report=report, setup_times_s=times,
               op_latency=lat)
    return rec


def run_traced(wl, args, workdir):
    """Set up once with the wrappers installed, then alternate blocks of
    BLOCK_OPS untraced and BLOCK_OPS traced operations on the same context.
    The per-layer metrics come from the traced blocks; the tracing overhead
    is the median over block pairs of the traced minus the untraced block
    median, so slow drift of the host's speed cancels."""
    import statistics
    from collections import Counter

    from layers import METRICS, Instrumentation
    from stats import latency
    from tracer import Tracer

    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    try:
        tracer.op = "setup"
        ctx = _setup(wl, args.seed, workdir / "setup")
        tracer.op = None
    finally:
        tracer.restore()
    base = Counter(tracer.counts)
    inst.cubes.clear()

    lat = {False: [], True: []}
    traced_ops, diffs, problems = [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        block = {False: [], True: []}
        for traced in (False, True):
            ids = range(i, i + BLOCK_OPS)
            i += BLOCK_OPS
            if traced:
                inst.install()
                traced_ops += ids
            try:
                for j in ids:
                    if traced:
                        tracer.op = j
                    secs, found = timed_op(wl, ctx, j)
                    if found:
                        problems.append((j, found))
                    else:
                        block[traced].append(secs)
            finally:
                tracer.op = None
                tracer.restore()
            lat[traced] += block[traced]
        if block[False] and block[True]:
            diffs.append(statistics.median(block[True])
                         - statistics.median(block[False]))
    window = Counter(tracer.counts)
    window.subtract(base)
    tracer.dump(OUT / f"{wl.name}-seed{args.seed}.spans.tsv")

    p50 = [latency(lat[t], 50)["p50"] for t in (False, True)]
    overhead_ms = 1e3 * statistics.median(diffs) if diffs else float("nan")
    extra = {
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_share": overhead_ms / p50[0],
        "detect.roi_predict.dets": ctx.get("dets", 0) / max(i, 1),
        "detect.roi_predict.outside_share":
            ctx.get("outside", 0) / max(ctx.get("dets", 0), 1),
    }
    metrics = inst.metrics(traced_ops, window, extra)
    setup_problems = ctx["setup_problems"]
    if setup_problems:
        problems.insert(0, ("setup", setup_problems))
    failed = len(problems)
    rec = _result(i, failed, problems, metrics, METRICS)
    rec.update(digest=ctx["digest"], report=[
        ("untraced_op_ms_p50", p50[0], "ms", f"{len(lat[False])} {wl.units}"),
        ("traced_op_ms_p50", p50[1], "ms", f"{len(lat[True])} {wl.units}"),
        ("trace.overhead_ms", overhead_ms, "ms",
         f"median of {len(diffs)} paired blocks of {BLOCK_OPS} {wl.units}")])
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sfadet" / "__init__.py").is_file():
        print(f"error: no sfadet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import sfadet
    from workloads import WORKLOADS

    if Path(sfadet.__file__).resolve().parent != ROOT / "src" / "sfadet":
        print(f"error: imported sfadet from {sfadet.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        rec = (run_traced if args.trace else run_plain)(wl, args, workdir)
    finally:
        shutil.rmtree(workdir)

    rec.update(workload=wl.name, why=wl.why, seed=args.seed,
               seconds=args.seconds, trace=args.trace, env={
                   "nproc": nproc(), "python": platform.python_version(),
                   "numpy": np.__version__, "blas": blas_info(),
                   "blas_env": {v: os.environ[v] for v in BLAS_VARS}})
    (OUT / f"{tag}.json").write_text(json.dumps(rec, indent=1) + "\n")

    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(rec['env'], sort_keys=True)}")
    print(f"digest: {json.dumps(rec['digest'])}")
    for op, found in rec["problems"][:20]:
        print(f"failed op {op}: {'; '.join(found)}")
    for name, value, unit, note in rec["report"]:
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, v in rec["metrics"].items():
        print(f"metric {name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({k: rec[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
