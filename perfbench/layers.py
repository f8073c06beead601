"""Which public functions of each sfadet module the traced run wraps, and
how the per-layer metrics are derived from the spans and counters.

Layers are the package's modules. Every metric is normalised per timed
operation of the workload (a train step, or an ``infer_eval`` pass), except
``hsi.generate_domain_pair.ms`` and ``hsi.write_cube.ms``, which happen
during set-up and are given per set-up.
"""

from __future__ import annotations

import os

import numpy as np

from sfadet import autodiff, cli, detect, evalap, hsi, sacm, ssam, trainer

CONV_LAYERS = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3",
               "lat1", "lat2", "lat3", "out1", "out2", "out3",
               "dc1", "dc2", "dc3", "rpn.conv", "rpn.obj", "rpn.reg")

# (name, unit, better)
METRICS = (
    [("autodiff.conv2d.calls", "count", "lower"),
     ("autodiff.conv2d.fwd_ms", "ms", "lower"),
     ("autodiff.conv2d.gflops", "GFLOP/s", "higher")]
    + [m for layer in CONV_LAYERS for m in (
        (f"autodiff.conv2d.{layer}.fwd_ms", "ms", "lower"),
        (f"autodiff.conv2d.{layer}.gflops", "GFLOP/s", "higher"))]
    + [("autodiff.backward_ms", "ms", "lower"),
       ("autodiff.adam_ms", "ms", "lower"),
       ("autodiff.roi_pool_bilinear.fwd_ms", "ms", "lower"),
       ("autodiff.roi_pool_bilinear.rois", "count", "lower"),
       ("ssam.ssam_forward.ms", "ms", "lower"),
       ("ssam.classify_domain.ms", "ms", "lower"),
       ("ssam.classify_domain.calls", "count", "lower"),
       ("ssam.recon_loss.ms", "ms", "lower"),
       ("ssam.recon_loss.calls", "count", "lower"),
       ("ssam.domain_loss.ms", "ms", "lower"),
       ("sacm.sacm_loss.ms", "ms", "lower"),
       ("sacm.sacm_loss.calls", "count", "lower"),
       ("detect.rpn_forward.ms", "ms", "lower"),
       ("detect.rpn_loss.ms", "ms", "lower"),
       ("detect.assign_anchors.ms", "ms", "lower"),
       ("detect.rpn_proposals.ms", "ms", "lower"),
       ("detect.rpn_proposals.self_ms", "ms", "lower"),
       ("detect.nms.ms", "ms", "lower"),
       ("detect.nms.calls", "count", "lower"),
       ("detect.nms.boxes_in", "count", "lower"),
       ("detect.nms.keep_ratio", "ratio", "higher"),
       ("detect.iou_xywh.calls", "count", "lower"),
       ("detect.roi_loss.ms", "ms", "lower"),
       ("detect.roi_loss.rois", "count", "lower"),
       ("detect.roi_predict.ms", "ms", "lower"),
       ("detect.roi_predict.dets", "count", "lower"),
       ("detect.roi_predict.outside_share", "ratio", "lower"),
       ("detect.generate_anchors.calls", "count", "lower"),
       ("trainer.train_step.ms", "ms", "lower"),
       ("trainer.train_step.self_ms", "ms", "lower"),
       ("trainer.standardize_cube.ms", "ms", "lower"),
       ("trainer.standardize_cube.calls", "count", "lower"),
       ("trainer.standardize_cube.unique_ratio", "ratio", "higher"),
       ("trainer.infer.ms", "ms", "lower"),
       ("trainer.infer.self_ms", "ms", "lower"),
       ("evalap.evaluate.ms", "ms", "lower"),
       ("evalap.evaluate.calls", "count", "lower"),
       ("evalap.group_detections.ms", "ms", "lower"),
       ("evalap.iou_xywh.calls", "count", "lower"),
       ("evalap.detections_scored", "count", "lower"),
       ("hsi.generate_domain_pair.ms", "ms", "lower"),
       ("hsi.write_cube.ms", "ms", "lower"),
       ("hsi.read_cube.ms", "ms", "lower"),
       ("hsi.read_cube.mb_per_s", "MB/s", "higher"),
       ("hsi.match_bands.ms", "ms", "lower"),
       ("hsi.load_annotations.ms", "ms", "lower"),
       ("cli.eval.self_ms", "ms", "lower"),
       ("trace.overhead_ms", "ms", "lower"),
       ("trace.overhead_share", "ratio", "lower")]
)


def _conv_flop(w, out):
    o, c, k, _ = w.data.shape
    n, _, ho, wo = out.shape
    return 2 * n * o * ho * wo * c * k * k


def _fingerprint(values):
    v = np.asarray(values)
    return v.shape, v.ravel()[::97].tobytes()


class Instrumentation:
    """Installs the wrappers on a Tracer and keeps the state they need."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.labels = {}        # id(weight tensor) -> conv layer name
        self.cubes = set()      # fingerprints of standardized cubes

    def _learn_labels(self, params):
        for key, t in params.items():
            if key.endswith(".w"):
                self.labels[id(t)] = key[:-2]

    def install(self):
        t, counts = self.tracer, self.tracer.counts

        def conv(a, kw, out):
            f = _conv_flop(a[1], out)
            counts["autodiff.conv2d.flop"] += f
            counts[f"autodiff.conv2d.{self.labels.get(id(a[1]), '?')}.flop"] += f

        def nms(a, kw, keep):
            counts["detect.nms.boxes_in"] += len(a[0])
            counts["detect.nms.kept"] += len(keep)

        def standardize(a, kw, out):
            self.cubes.add(_fingerprint(a[0]))

        t.wrap(trainer, "init_state", "trainer.init_state",
               count=lambda a, kw, st: self._learn_labels(st.params))
        t.wrap(trainer, "load_checkpoint", "trainer.load_checkpoint",
               count=lambda a, kw, r: self._learn_labels(r[0]))
        t.wrap(autodiff, "conv2d", "autodiff.conv2d", count=conv,
               tag=lambda a, kw: self.labels.get(id(a[1]), "?"))
        t.wrap(autodiff.Tensor, "backward", "autodiff.backward")
        t.wrap(autodiff.Adam, "step", "autodiff.adam")
        t.wrap(autodiff, "roi_pool_bilinear", "autodiff.roi_pool_bilinear",
               count=lambda a, kw, r: counts.update(
                   {"autodiff.roi_pool_bilinear.rois": len(a[1])}))
        for name in ("ssam_forward", "classify_domain", "recon_loss",
                     "domain_loss"):
            t.wrap(ssam, name, f"ssam.{name}")
        t.wrap(sacm, "sacm_loss", "sacm.sacm_loss")
        for name in ("rpn_forward", "rpn_loss", "assign_anchors",
                     "rpn_proposals", "roi_predict"):
            t.wrap(detect, name, f"detect.{name}")
        t.wrap(detect, "nms", "detect.nms", count=nms)
        t.wrap(detect, "roi_loss", "detect.roi_loss",
               count=lambda a, kw, r: counts.update(
                   {"detect.roi_loss.rois": sum(len(p) for p in a[1])}))
        t.wrap(detect, "iou_xywh", "detect.iou_xywh", timed=False)
        t.wrap(detect, "generate_anchors", "detect.generate_anchors",
               timed=False)
        for name in ("train_step", "infer"):
            t.wrap(trainer, name, f"trainer.{name}")
        t.wrap(trainer, "standardize_cube", "trainer.standardize_cube",
               count=standardize)
        t.wrap(evalap, "evaluate", "evalap.evaluate",
               count=lambda a, kw, r: counts.update(
                   {"evalap.detections_scored": sum(len(d) for d in a[0])}))
        t.wrap(evalap, "group_detections", "evalap.group_detections")
        # evalap imported iou_xywh by name, so it is wrapped on its own
        t.wrap(evalap, "iou_xywh", "evalap.iou_xywh", timed=False)
        for name in ("generate_domain_pair", "write_cube", "match_bands",
                     "load_annotations"):
            t.wrap(hsi, name, f"hsi.{name}")
        t.wrap(hsi, "read_cube", "hsi.read_cube",
               count=lambda a, kw, r: counts.update(
                   {"hsi.read_cube.bytes": os.path.getsize(a[0])}))
        t.wrap(cli, "main", "cli.main")

    def metrics(self, window_ops, window_counts, extra):
        """Per-layer metrics over the spans of ``window_ops`` timed
        operations; set-up spans carry the op id ``"setup"``."""
        ops = set(window_ops)
        n = max(len(ops), 1)
        total, self_t, by_tag = self.tracer.totals(ops)
        setup_total, _, _ = self.tracer.totals({"setup"})
        c = window_counts
        m = {}

        def ms(key, secs):
            m[key] = 1e3 * secs / n

        def rate(flop, secs):
            return flop / secs / 1e9 if secs > 0 else 0.0

        m["autodiff.conv2d.calls"] = c["autodiff.conv2d.calls"] / n
        ms("autodiff.conv2d.fwd_ms", total["autodiff.conv2d"])
        m["autodiff.conv2d.gflops"] = rate(c["autodiff.conv2d.flop"],
                                           total["autodiff.conv2d"])
        for layer in CONV_LAYERS:
            secs = by_tag[("autodiff.conv2d", layer)]
            ms(f"autodiff.conv2d.{layer}.fwd_ms", secs)
            m[f"autodiff.conv2d.{layer}.gflops"] = rate(
                c[f"autodiff.conv2d.{layer}.flop"], secs)
        ms("autodiff.backward_ms", total["autodiff.backward"])
        ms("autodiff.adam_ms", total["autodiff.adam"])
        ms("autodiff.roi_pool_bilinear.fwd_ms",
           total["autodiff.roi_pool_bilinear"])
        for key in ("autodiff.roi_pool_bilinear.rois", "detect.nms.boxes_in",
                    "detect.roi_loss.rois", "evalap.detections_scored"):
            m[key] = c[key] / n
        for name in ("ssam.ssam_forward", "ssam.classify_domain",
                     "ssam.recon_loss", "ssam.domain_loss", "sacm.sacm_loss",
                     "detect.rpn_forward", "detect.rpn_loss",
                     "detect.assign_anchors", "detect.rpn_proposals",
                     "detect.nms", "detect.roi_loss", "detect.roi_predict",
                     "trainer.train_step", "trainer.standardize_cube",
                     "trainer.infer", "evalap.evaluate",
                     "evalap.group_detections", "hsi.read_cube",
                     "hsi.match_bands", "hsi.load_annotations"):
            ms(name + ".ms", total[name])
        for name in ("detect.rpn_proposals", "trainer.train_step",
                     "trainer.infer"):
            ms(name + ".self_ms", self_t[name])
        ms("cli.eval.self_ms", self_t["cli.main"])
        for name in ("ssam.classify_domain", "ssam.recon_loss",
                     "sacm.sacm_loss", "detect.nms", "detect.iou_xywh",
                     "detect.generate_anchors", "trainer.standardize_cube",
                     "evalap.evaluate", "evalap.iou_xywh"):
            m[name + ".calls"] = c[name + ".calls"] / n
        m["detect.nms.keep_ratio"] = (c["detect.nms.kept"]
                                      / max(c["detect.nms.boxes_in"], 1))
        m["trainer.standardize_cube.unique_ratio"] = (
            len(self.cubes) / max(c["trainer.standardize_cube.calls"], 1))
        secs = total["hsi.read_cube"]
        m["hsi.read_cube.mb_per_s"] = (c["hsi.read_cube.bytes"] / 1e6 / secs
                                       if secs > 0 else 0.0)
        for name in ("hsi.generate_domain_pair", "hsi.write_cube"):
            m[name + ".ms"] = 1e3 * setup_total[name]
        m.update(extra)
        return {name: m[name] for name, _, _ in METRICS}
