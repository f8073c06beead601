"""Self-tests of the benchmark's tracing and bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from sfadet import autodiff, cli, detect, evalap, hsi, trainer  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] and C [5, 7]; B holds D [2, 3]
    ticks = iter([0, 1, 2, 3, 4, 5, 7, 10])
    t = Tracer(clock=lambda: next(ticks))
    t.begin("A")
    t.begin("B")
    t.begin("D")
    t.end()
    t.end()
    t.begin("C")
    t.end()
    t.end()
    assert [s.name for s in t.spans] == ["A", "B", "D", "C"]
    assert [s.parent for s in t.spans] == [None, 0, 1, 0]
    assert t.self_times() == [5, 2, 1, 2]
    total, self_total, _ = t.totals()
    assert total["A"] == 10 and self_total["A"] == 5


def test_self_time_counts_overlapping_children_once():
    t = Tracer()
    t.spans = [Span("A", 0.0, 10.0, None, None, None),
               Span("B", 1.0, 5.0, 0, None, None),
               Span("C", 3.0, 6.0, 0, None, None),
               Span("D", 9.0, 12.0, 0, None, None)]
    assert t.self_times()[0] == 10.0 - 5.0 - 1.0


def test_wrappers_are_removed_after_tracing():
    owners = (autodiff, autodiff.Tensor, autodiff.Adam, cli, detect, evalap,
              hsi, trainer)
    before = {(o, k): v for o in owners for k, v in vars(o).items()}
    t = Tracer()
    layers.Instrumentation(t).install()
    try:
        assert detect.nms is not before[(detect, "nms")]
        assert evalap.iou_xywh is not before[(evalap, "iou_xywh")]
    finally:
        t.restore()
    after = {(o, k): v for o in owners for k, v in vars(o).items()}
    assert after == before


def test_counts_of_one_full_step(tmp_path):
    wl = WORKLOADS["train_ref"]
    t = Tracer()
    inst = layers.Instrumentation(t)
    inst.install()
    try:
        t.op = "setup"
        ctx = wl.setup(wl.inputs(0), str(tmp_path))
        assert ctx["setup_problems"] == []
        base = Counter(t.counts)
        t.op = 0
        bd = wl.op(ctx, 0)
    finally:
        t.restore()
    window = Counter(t.counts)
    window.subtract(base)
    assert wl.check(ctx, bd) == []
    assert window["autodiff.conv2d.calls"] == 39
    assert window["trainer.standardize_cube.calls"] == 12
    assert window["detect.nms.calls"] == 6
    tags = {s.tag for s in t.spans if s.name == "autodiff.conv2d"}
    assert tags == set(layers.CONV_LAYERS)
    m = inst.metrics([0], window, {
        k: 0.0 for k in ("trace.overhead_ms", "trace.overhead_share",
                         "detect.roi_predict.dets",
                         "detect.roi_predict.outside_share")})
    assert m["autodiff.conv2d.calls"] == 39
    assert m["sacm.sacm_loss.calls"] == 1
    assert m["autodiff.backward_ms"] > 0 and m["autodiff.adam_ms"] > 0
    assert m["evalap.evaluate.calls"] == 0


class NmsOnly:
    """A workload whose operation is one call of a wrapped function."""

    name, units = "nms_only", "ops"

    def inputs(self, seed):
        return seed

    def setup(self, inputs, workdir):
        return {"setup_problems": [], "digest": None}

    def op(self, ctx, i):
        return detect.nms([[0, 0, 2, 2], [0, 0, 2, 2]], [0.9, 0.8], 0.5)

    def check(self, ctx, out):
        return [] if list(out) == [0] else [f"kept {out}"]


def test_traced_run_alternates_untraced_and_traced_blocks(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    original = detect.nms
    args = argparse.Namespace(seed=0, seconds=0.05)
    rec = run.run_traced(NmsOnly(), args, tmp_path)
    assert detect.nms is original
    assert rec["correct"] and rec["attempted"] % (2 * run.BLOCK_OPS) == 0
    ops = [int(line.split("\t")[6]) for line in
           (tmp_path / "nms_only-seed0.spans.tsv").read_text().splitlines()[1:]]
    # only the second block of each pair is traced
    assert ops and all(i % (2 * run.BLOCK_OPS) >= run.BLOCK_OPS for i in ops)
    assert len(ops) == rec["attempted"] // 2
    assert rec["metrics"]["detect.nms.calls"]["value"] == 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    vals = list(range(100))
    assert stats.tail(vals, 80) == (80, stats.percentile(vals, 80))
    assert stats.tail(vals, 95)[0] == 90
    assert stats.beyond(100, 90) >= 10
    assert stats.tail(list(range(12)), 80)[0] == 50


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(layers.METRICS)
