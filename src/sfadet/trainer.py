"""Two-flow adversarial training loop and the inference path.

Each step runs the source flow (reconstruction, domain loss, spectral
autocorrelation alignment against target features, RPN + ROI with source
labels) and the target flow (reconstruction, domain loss, RPN), then takes
one Adam step on the weighted total. Ablation modes drop the alignment
terms to reproduce the w/o-SACM and w/o-SSAM+SACM configurations.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass, fields, make_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import detect, evalap, sacm, ssam
from .autodiff import Tensor
from .hsi import match_bands

ABLATIONS = ("full", "no_sacm", "no_ssam_sacm")
TARGET_RPN_MODES = ("background", "off")

# The training objective: each loss term in loss-CSV order, with the
# TrainConfig field that weighs it in the total (None: weight 1).
OBJECTIVE = (("l_s_r", "epsilon"), ("l_s_d", "eta"), ("l_sacm", "tau"),
             ("l_s_rpn", None), ("l_roi", None),
             ("l_t_r", "epsilon"), ("l_t_d", "eta"), ("l_t_rpn", None))
LOSS_FIELDS = tuple(term for term, _ in OBJECTIVE)


class NonFiniteLossError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    epsilon: float = 0.5
    eta: float = 0.5
    tau: float = 0.2
    beta: float = 2.0
    lam: float = 0.25          # "lambda" in config files
    grl_scale: float = -0.5
    alpha: float = 0.01
    lr: float = 3e-4
    iterations: int = 500
    batch_size: int = 2
    ablation: str = "full"
    seed: int = 0
    sacm_normalize: bool = False
    target_rpn: str = "background"
    proposals_train: int = 12
    proposals_infer: int = 50

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.target_rpn not in TARGET_RPN_MODES:
            raise ConfigError(f"unknown target_rpn mode {self.target_rpn!r}")
        if not (0.0 < self.lam < 1.0):
            raise ConfigError("lambda must lie in (0, 1)")
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not np.isfinite(self.grl_scale):
            raise ConfigError(f"grl_scale must be finite, got {self.grl_scale}")
        for name in ("epsilon", "eta", "tau", "alpha", "lr"):
            value = getattr(self, name)
            if not (value >= 0 and np.isfinite(value)):
                raise ConfigError(f"{name} must be non-negative and finite, got {value}")
        for name in ("iterations", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("batch_size", "proposals_train", "proposals_infer"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")

_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def parse_config(path, cls, what="config", keys=None) -> dict:
    """Keyword arguments for dataclass ``cls`` from a flat key=value file.

    Blank lines and ``#`` comments are skipped. ``keys`` maps field names
    to their names in the file. A value takes the type of its field's
    default; a bool is one of true/false/1/0/yes/no. A key may appear
    once. Every error is a one-line ``ConfigError`` that starts with
    ``path:line``.
    """
    names = {(keys or {}).get(f.name, f.name): f.name for f in fields(cls)}
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs, first_line = {}, {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{ln}"
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ConfigError(f"{where}: expected key=value, got {line!r}")
            if key not in names:
                raise ConfigError(f"{where}: unknown {what} key {key!r}")
            kind = type(defaults[names[key]])
            try:
                kwargs[names[key]] = (_BOOLS[value.lower()] if kind is bool
                                      else kind(value))
            except (KeyError, ValueError):
                want = ("one of true/false/1/0/yes/no" if kind is bool
                        else kind.__name__)
                raise ConfigError(f"{where}: {key} must be {want}, "
                                  f"got {value!r}") from None
            if key in first_line:
                raise ConfigError(f"{where}: {key} was already set on line "
                                  f"{first_line[key]}")
            first_line[key] = ln
    return kwargs


def load_config(path, cls=TrainConfig, what="config", **overrides):
    """A ``cls`` from ``path`` and ``overrides``; every error names the path."""
    args = parse_config(path, cls, what, keys={"lam": "lambda"})
    args.update(overrides)
    try:
        return cls(**args)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _recombined(self, cfg: TrainConfig) -> float:
    """The weighted total, recomputed from the logged terms."""
    return sum((1.0 if w is None else getattr(cfg, w)) * getattr(self, term)
               for term, w in OBJECTIVE)


# one float per loss term, then the total the step took its gradient of
LossBreakdown = make_dataclass(
    "LossBreakdown", [(k, float, 0.0) for k in LOSS_FIELDS + ("total",)],
    namespace={"recombined": _recombined})


_BAND_BLOCK = 8   # bands standardized per float64 block


def standardize_cube(values, out=None, bands=None):
    """Per-band zero-mean unit-variance scaling of the (L, H, W) array
    ``values[bands]`` (``values`` when ``bands`` is None), into ``out`` (a
    new float32 array if None), which is returned.

    The float64 sums and divisions of ``(v - v.mean()) / (v.std() + 1e-6)``
    per band, made in blocks of ``_BAND_BLOCK`` bands, so that each band
    is converted to float64 once and the float64 buffers stay small. Each
    distinct band of ``values`` that ``bands`` shows is standardized once,
    then copied to every later output band that shows it.
    """
    v = np.asarray(values, dtype=np.float32)
    nb, h, w = v.shape
    if bands is None:
        bands = shown = first = where = np.arange(nb)
    else:
        shown, first, where = np.unique(bands, return_index=True,
                                        return_inverse=True)
    shape = (len(bands), h, w)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape:
        raise ValueError(f"standardize_cube: cube shape {shape} does not "
                         f"match the output's {out.shape}")
    d = np.empty((min(len(shown), _BAND_BLOCK), h, w), dtype=np.float64)
    sq = np.empty_like(d)
    for lo in range(0, len(shown), _BAND_BLOCK):
        db, sb = d[:len(shown) - lo], sq[:len(shown) - lo]
        block = shown[lo:lo + _BAND_BLOCK]
        if block[-1] - block[0] == len(block) - 1:   # consecutive: no gather
            block = slice(block[0], block[-1] + 1)
        db[...] = v[block]
        db -= db.sum(axis=(1, 2), keepdims=True) / (h * w)
        np.square(db, out=sb)
        db /= np.sqrt(sb.sum(axis=(1, 2), keepdims=True) / (h * w)) + 1e-6
        out[first[lo:lo + _BAND_BLOCK]] = db
    src = first[where]
    again = src != np.arange(len(bands))
    out[again] = out[src[again]]
    return out


def _batch_tensor(cubes):
    """The standardized cubes as one (N, L, H, W) batch; a band-matched
    cube is standardized from its source's array."""
    first = cubes[0]
    batch = np.empty((len(cubes), first.bands, first.height, first.width),
                     dtype=np.float32)
    for i, c in enumerate(cubes):
        standardize_cube(c.array, out=batch[i], bands=c.index)
    return Tensor(batch)


@dataclass
class TrainState:
    cfg: TrainConfig
    params: ssam.Params           # name -> Tensor (backbone + heads)
    optimizer: ad.Adam
    rng: np.random.Generator

    @property
    def in_bands(self) -> int:
        return self.params["enc1.w"].shape[1]

    @property
    def num_classes(self) -> int:
        # one column per class, plus background
        return self.params["roi.cls.w"].shape[1] - 1


def init_state(cfg: TrainConfig, in_bands, num_classes) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    params = ssam.init_ssam(in_bands, rng)
    params.update(detect.init_detect_params(num_classes, rng))
    active = _active_params(params, cfg)
    opt = ad.Adam(active, lr=cfg.lr)
    return TrainState(cfg=cfg, params=params, optimizer=opt, rng=rng)


def _active_params(params, cfg):
    """Parameters that receive gradients under the configured ablation."""
    skip_prefixes = ()
    if cfg.ablation == "no_ssam_sacm":
        skip_prefixes = ("dec", "dc")
    return [t for k, t in sorted(params.items())
            if not k.startswith(skip_prefixes)]


def _pairwise_sum(terms):
    """Sum a list of tensors by adding neighbours, level by level:
    ((a + b) + (c + d)) + ((e + f) + (g + h)) for eight terms."""
    while len(terms) > 1:
        terms = [ad.add(*terms[i:i + 2]) if i + 1 < len(terms) else terms[i]
                 for i in range(0, len(terms), 2)]
    return terms[0]


def _jittered(gt, rng):
    """Four jittered copies of each row of a (k, 4) xywh gt array, in row
    order: sides scaled by U(0.5, 1.6) (at least 2 px), corner moved by
    U(-0.35, 0.35) of the side. Each copy draws its factors in (w, h, x, y)
    order."""
    u = rng.uniform((0.5, 0.5, -0.35, -0.35), (1.6, 1.6, 0.35, 0.35),
                    size=(len(gt), 4, 4))
    x, y, w, h = (gt[:, None, c] for c in range(4))
    return np.stack([x + u[..., 2] * w, y + u[..., 3] * h,
                     np.maximum(2.0, w * u[..., 0]),
                     np.maximum(2.0, h * u[..., 1])], axis=-1).reshape(-1, 4)


def train_step(state: TrainState, source_samples, target_cubes) -> LossBreakdown:
    """One optimization step of the two-flow procedure."""
    total, breakdown = _objective(state, source_samples, target_cubes)
    for name in LOSS_FIELDS:
        if not np.isfinite(getattr(breakdown, name)):
            raise NonFiniteLossError(f"loss term {name} became non-finite")

    state.optimizer.zero_grad()
    total.backward()
    state.optimizer.step()
    state.optimizer.zero_grad()
    return breakdown


def _objective(state: TrainState, source_samples, target_cubes):
    """The step's weighted total, as a graph, and its LossBreakdown.

    Only the total leaves this function, so the graph is all that keeps the
    forward's buffers alive, and backward frees each one at its last use.
    What no later forward op reads is dropped at its last forward use, so
    that it is gone before the RPN and ROI stage, where the step's memory
    peaks: the two input batches' tensors and both flows' reconstructions
    after the reconstruction losses, and, under ``target_rpn="off"``, the
    target flow's FPN levels 1 and 2 with the graph nodes only they keep.
    The batches' arrays stay, kept by ``enc1`` for its weight gradient.
    No node is created in another order.
    """
    cfg = state.cfg
    use_ae = cfg.ablation != "no_ssam_sacm"
    use_sacm = cfg.ablation == "full"

    src = _batch_tensor([s.cube for s in source_samples])
    tgt = _batch_tensor(target_cubes)
    src_hw, tgt_hw = src.shape[2:], tgt.shape[2:]

    src_out = ssam.ssam_forward(src, state.params, cfg.grl_scale,
                                with_decoder=use_ae, with_classifier=use_ae)
    tgt_out = ssam.ssam_forward(tgt, state.params, cfg.grl_scale,
                                with_decoder=use_ae, with_classifier=use_ae)

    # ablated terms stay 0
    terms = dict.fromkeys(LOSS_FIELDS, Tensor(np.float32(0.0)))
    if use_ae:
        terms["l_s_r"] = ssam.recon_loss(src, src_out, cfg.alpha)
        terms["l_t_r"] = ssam.recon_loss(tgt, tgt_out, cfg.alpha)
        # no backward reads a reconstruction: sub's reads only shapes, and
        # the decoder conv's reads its input
        src_out.reconstruction.data = tgt_out.reconstruction.data = None
        terms["l_s_d"] = ssam.domain_loss(src_out.domain_logit, "source",
                                          cfg.beta, cfg.lam)
        terms["l_t_d"] = ssam.domain_loss(tgt_out.domain_logit, "target",
                                          cfg.beta, cfg.lam)
    if use_sacm:
        terms["l_sacm"] = sacm.sacm_loss(src_out.bottleneck, tgt_out.bottleneck,
                                         normalize=cfg.sacm_normalize)
    # the target flow's FPN levels feed only its RPN loss
    tgt_levels = tgt_out.fpn_levels if cfg.target_rpn == "background" else None
    del src, tgt, tgt_out

    gts = [np.asarray(s.boxes, dtype=np.float64).reshape(-1, 4)
           for s in source_samples]
    # anchor sampling uses a function of the batch inputs only, so a step
    # with identical inputs and parameters yields an identical loss
    rpn_rng = np.random.default_rng(cfg.seed)
    s_logits, s_deltas = detect.rpn_forward(src_out.fpn_levels, state.params)
    src_anchors = detect.anchors_for(*src_hw)
    terms["l_s_rpn"] = detect.rpn_loss(s_logits, s_deltas, src_anchors, gts,
                                       rpn_rng)

    # proposals for the ROI head: gt boxes, four jittered copies of each so
    # the box-refinement branch sees non-zero targets, then the RPN output
    props = detect.rpn_proposals(s_logits, s_deltas, src_anchors, src_hw,
                                 post_nms=cfg.proposals_train)
    proposals = [np.concatenate([gt, _jittered(gt, rpn_rng), boxes])
                 for gt, (boxes, _) in zip(gts, props)]
    terms["l_roi"] = detect.roi_loss(
        src_out.fpn_levels, proposals,
        [(gt, s.classes) for gt, s in zip(gts, source_samples)], state.params,
    )

    if cfg.target_rpn == "background":
        t_logits, t_deltas = detect.rpn_forward(tgt_levels, state.params)
        terms["l_t_rpn"] = detect.rpn_loss(
            t_logits, t_deltas, detect.anchors_for(*tgt_hw),
            [[] for _ in target_cubes], rpn_rng)

    total = _pairwise_sum([terms[k] if w is None
                           else ad.scale(terms[k], getattr(cfg, w))
                           for k, w in OBJECTIVE])

    breakdown = LossBreakdown(
        **{k: float(v.data) for k, v in terms.items()}, total=float(total.data)
    )
    return total, breakdown


def save_checkpoint(state: TrainState, path):
    """Write the model's parameters, and nothing else, to ``path``."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    os.close(fd)
    try:
        ssam.save_params(state.params, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """(params, in_bands, num_classes) of a checkpoint; the two counts are
    read off the ``enc1.w`` and ``roi.cls.w`` tensors.

    The checkpoint must hold exactly the layers, with the shapes, of the
    model these counts build, and only finite values; the first layer
    that does not fails with one ``CheckpointError`` line naming it.
    """
    params = ssam.load_params(path)
    for layer in ("enc1.w", "roi.cls.w"):
        if layer not in params:
            raise ssam.CheckpointError(f"{path}: missing layer {layer!r}")
    enc, cls = params["enc1.w"].shape, params["roi.cls.w"].shape
    if len(enc) != 4:
        raise ssam.CheckpointError(
            f"{path}: layer 'enc1.w' must be 4-d, got shape {enc}")
    if len(cls) != 2 or cls[1] < 2:
        raise ssam.CheckpointError(
            f"{path}: layer 'roi.cls.w' must be 2-d with at least 2 columns, "
            f"got shape {cls}")
    want = ssam.init_params(   # a model of these counts, for its shapes
        {**ssam.layer_shapes(enc[1]), **detect.layer_shapes(cls[1] - 1)},
        np.random.default_rng(0))
    missing, unknown = want.keys() - params.keys(), params.keys() - want.keys()
    if missing:
        raise ssam.CheckpointError(f"{path}: missing layer {min(missing)!r}")
    if unknown:
        raise ssam.CheckpointError(f"{path}: unknown layer {min(unknown)!r}")
    for layer, t in sorted(params.items()):
        if t.shape != want[layer].shape:
            raise ssam.CheckpointError(
                f"{path}: layer {layer!r} has shape {t.shape}, the model's "
                f"is {want[layer].shape}")
        if not np.isfinite(t.data).all():
            raise ssam.CheckpointError(
                f"{path}: layer {layer!r} has non-finite values")
    return params, enc[1], cls[1] - 1


def train(cfg: TrainConfig, source_samples, target_samples,
          checkpoint_path=None, loss_csv_path=None, log_every=0):
    """Run the full loop; returns (state, list of LossBreakdown)."""
    if not source_samples or not target_samples:
        raise ValueError("both datasets must be non-empty")
    target_bands = target_samples[0].cube.bands
    matched = [replace(s, cube=match_bands(s.cube, target_bands))
               for s in source_samples]
    num_classes = max(max(s.classes, default=1) for s in matched)
    state = init_state(cfg, target_bands, num_classes)

    history = []
    ns, nt = len(matched), len(target_samples)
    for it in range(cfg.iterations):
        si = state.rng.choice(ns, size=min(cfg.batch_size, ns), replace=False)
        ti = state.rng.choice(nt, size=min(cfg.batch_size, nt), replace=False)
        bd = train_step(state, [matched[i] for i in si],
                        [target_samples[i].cube for i in ti])
        history.append(bd)
        if log_every and (it + 1) % log_every == 0:
            print(f"step {it + 1}: total={bd.total:.4f}")

    if loss_csv_path:
        write_loss_csv(history, loss_csv_path)
    if checkpoint_path:
        save_checkpoint(state, checkpoint_path)
    return state, history


def ablate(cfg: TrainConfig, source, target):
    """{mode: (state, history, report)} for each mode, in ABLATIONS order."""
    out = {}
    for mode in ABLATIONS:
        state, history = train(replace(cfg, ablation=mode), source, target)
        dets = infer(state.params, state.in_bands, state.num_classes,
                     [s.cube for s in target], state.cfg)
        out[mode] = (state, history, evalap.evaluate(dets, target))
    return out


def write_loss_csv(history, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("step",) + LOSS_FIELDS + ("total",))
        for i, bd in enumerate(history):
            w.writerow([i] + [f"{getattr(bd, k):.6f}" for k in
                              LOSS_FIELDS + ("total",)])


def infer(params, in_bands, num_classes, cubes, cfg: TrainConfig = None):
    """Detect objects in target-domain cubes with a trained model."""
    cfg = cfg or TrainConfig()
    # the counts repeat what the parameters hold; they must agree
    bands, classes = params["enc1.w"].shape[1], params["roi.cls.w"].shape[1] - 1
    if (in_bands, num_classes) != (bands, classes):
        raise ValueError(
            f"infer: in_bands={in_bands}, num_classes={num_classes}, but the "
            f"model takes {bands} bands and has {classes} classes")
    for c in cubes:
        if c.bands != in_bands:
            raise ValueError(
                f"cube has {c.bands} bands but the model expects {in_bands}; "
                f"run band matching first"
            )
    out = []
    for cube in cubes:
        batch = _batch_tensor([cube])
        fwd = ssam.ssam_forward(batch, params, with_decoder=False,
                                with_classifier=False)
        h, w = batch.shape[2], batch.shape[3]
        logits, deltas = detect.rpn_forward(fwd.fpn_levels, params)
        props = detect.rpn_proposals(logits, deltas, detect.anchors_for(h, w),
                                     (h, w), pre_nms=400,
                                     post_nms=cfg.proposals_infer)
        dets = detect.roi_predict(fwd.fpn_levels, [props[0][0]], params)
        out.extend(dets)
    return out
