"""Spectral-spatial alignment backbone.

A three-stage strided conv encoder with a sparse bottleneck, a mirrored
decoder for self-reconstruction, a small three-level feature pyramid, and
a gradient-reversed domain classifier with the asymmetric focal-style
domain losses. Checkpoints use the flat "SFAW" binary format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ENC_CHANNELS = (16, 32, 64)
STRIDES = (2, 4, 8)        # of the encoder stages and the pyramid levels
FPN_WIDTH = 32
DC_HIDDEN = 16

CKPT_MAGIC = b"SFAW"
CKPT_VERSION = 2
CKPT_MAX_RANK = 32         # numpy 1.x's most dimensions; no layer has over 4


class CheckpointError(ValueError):
    pass


class Params(dict):
    """Every learnable tensor of the model, keyed by layer name
    (``enc1.w``, ``dec3.b``, ``rpn.conv.w``, ``roi.fc.w``, ...)."""

    def parameters(self):
        return list(self.values())


def layer_shapes(in_bands):
    """The weight shape of each backbone layer, in draw order: encoder,
    mirrored decoder, pyramid laterals and smoothers, domain classifier."""
    enc = (in_bands,) + ENC_CHANNELS
    dec = ENC_CHANNELS[::-1] + (in_bands,)
    dc = (FPN_WIDTH, DC_HIDDEN, DC_HIDDEN, 1)
    shapes = {f"enc{i}": (enc[i], enc[i - 1], 3, 3) for i in (1, 2, 3)}
    shapes.update({f"dec{i}": (dec[i], dec[i - 1], 3, 3) for i in (1, 2, 3)})
    for i, c in enumerate(ENC_CHANNELS, start=1):
        shapes[f"lat{i}"] = (FPN_WIDTH, c, 1, 1)
        shapes[f"out{i}"] = (FPN_WIDTH, FPN_WIDTH, 3, 3)
    shapes.update({f"dc{i}": (dc[i], dc[i - 1], 1, 1) for i in (1, 2, 3)})
    return shapes


def init_params(shapes, rng):
    """A ``<layer>.w`` and ``<layer>.b`` tensor for each layer of a shape
    table, drawn in its order: He-normal weights, std sqrt(2 / fan-in),
    and zero biases with one entry per output. A 4-d weight is a conv's
    (out, in, k, k), a 2-d one a dense layer's (in, out)."""
    params = Params()
    for layer, shape in shapes.items():
        conv = len(shape) == 4
        std = np.sqrt(2.0 / (math.prod(shape[1:]) if conv else shape[0]))
        params[f"{layer}.w"] = Tensor(rng.normal(0.0, std, size=shape),
                                      requires_grad=True)
        params[f"{layer}.b"] = Tensor(np.zeros(shape[0] if conv else shape[1]),
                                      requires_grad=True)
    return params


def init_ssam(in_bands, rng):
    return init_params(layer_shapes(in_bands), rng)


@dataclass
class SsamOutput:
    reconstruction: Tensor   # same shape as the input batch
    bottleneck: Tensor       # stride-8 sparse code, the feature used by SACM
    fpn_levels: list         # [stride2, stride4, stride8]; [2] feeds the classifier
    domain_logit: Tensor     # one scalar per batch element


def ssam_forward(batch: Tensor, params: Params, grl_scale=-0.5,
                 with_decoder=True, with_classifier=True) -> SsamOutput:
    """Run the backbone on an (N, L, H, W) batch."""
    n, l, h, w = batch.shape
    if h % STRIDES[-1] or w % STRIDES[-1]:
        raise ad.ShapeError(
            f"spatial dims {h}x{w} must be divisible by {STRIDES[-1]}; "
            f"pad or crop the cubes first"
        )
    in_bands = params["enc1.w"].shape[1]
    if l != in_bands:
        raise ad.ShapeError(f"batch has {l} bands but the backbone expects {in_bands}")
    e1 = ad.relu(ad.conv2d(batch, params["enc1.w"], params["enc1.b"],
                           stride=2, padding=1))
    e2 = ad.relu(ad.conv2d(e1, params["enc2.w"], params["enc2.b"],
                           stride=2, padding=1))
    e3 = ad.relu(ad.conv2d(e2, params["enc3.w"], params["enc3.b"],
                           stride=2, padding=1))

    recon = None
    if with_decoder:
        # each decoder layer is a nearest-2x upsample and a 3x3 conv, fused
        d = ad.relu(ad.conv2d(e3, params["dec1.w"], params["dec1.b"],
                              padding=1, upsample=2))
        d = ad.relu(ad.conv2d(d, params["dec2.w"], params["dec2.b"],
                              padding=1, upsample=2))
        recon = ad.conv2d(d, params["dec3.w"], params["dec3.b"],
                          padding=1, upsample=2)

    # feature pyramid: lateral 1x1, top-down nearest-neighbor merge, 3x3 smooth
    l3 = ad.conv2d(e3, params["lat3.w"], params["lat3.b"])
    l2 = ad.add(ad.conv2d(e2, params["lat2.w"], params["lat2.b"]),
                ad.upsample_nearest2d(l3, 2))
    l1 = ad.add(ad.conv2d(e1, params["lat1.w"], params["lat1.b"]),
                ad.upsample_nearest2d(l2, 2))
    p1 = ad.conv2d(l1, params["out1.w"], params["out1.b"], padding=1)
    p2 = ad.conv2d(l2, params["out2.w"], params["out2.b"], padding=1)
    p3 = ad.conv2d(l3, params["out3.w"], params["out3.b"], padding=1)
    fpn = [p1, p2, p3]

    logit = None
    if with_classifier:
        logit = classify_domain(p3, params, grl_scale)

    return SsamOutput(recon, e3, fpn, logit)


def classify_domain(fpn_level3: Tensor, params: Params, grl_scale=-0.5) -> Tensor:
    """Gradient-reversed 1x1 conv stack pooled to one logit per image."""
    x = ad.grad_reverse(fpn_level3, grl_scale)
    x = ad.relu(ad.conv2d(x, params["dc1.w"], params["dc1.b"]))
    x = ad.relu(ad.conv2d(x, params["dc2.w"], params["dc2.b"]))
    x = ad.conv2d(x, params["dc3.w"], params["dc3.b"])
    n = x.shape[0]
    return ad.reshape(ad.tmean(x, axis=(2, 3)), (n,))


def recon_loss(batch: Tensor, out: SsamOutput, alpha=0.01) -> Tensor:
    """Squared Frobenius reconstruction error plus the L1 sparsity penalty."""
    if out.reconstruction.shape != batch.shape:
        raise ad.ShapeError(
            f"reconstruction {out.reconstruction.shape} vs input {batch.shape}"
        )
    loss = ad.frobenius_sq(ad.sub(out.reconstruction, batch))
    if alpha:
        loss = ad.add(loss, ad.scale(ad.l1_norm(out.bottleneck), alpha))
    return loss


def domain_loss(logit: Tensor, domain: str, beta=2.0, lam=0.25) -> Tensor:
    """Asymmetric focal-style binary loss on per-image domain logits.

    source: -((1-lam)/beta) * log(sigmoid(-beta*D)); target uses lam/beta.
    Written via softplus for numerical stability; mean over the batch.
    """
    if beta <= 0 or not (0.0 < lam < 1.0):
        raise ValueError("need beta > 0 and 0 < lam < 1")
    if not np.all(np.isfinite(logit.data)):
        raise ValueError("domain_loss: non-finite logit")
    if domain == "source":
        coef = (1.0 - lam) / beta
    elif domain == "target":
        coef = lam / beta
    else:
        raise ValueError(f"unknown domain {domain!r}")
    # -log(sigmoid(-beta D)) == softplus(beta D)
    return ad.scale(ad.tmean(ad.softplus(ad.scale(logit, beta))), coef)


# ---------------------------------------------------------------------------
# checkpoint io ("SFAW" flat binary)


def save_params(named_tensors, path):
    """Write {name: Tensor} to the flat SFAW binary format."""
    items = sorted(named_tensors.items())
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<HI", CKPT_VERSION, len(items)))
        for name, t in items:
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            dims = t.data.shape
            f.write(struct.pack("<B", len(dims)))
            for d in dims:
                f.write(struct.pack("<I", d))
            f.write(t.data.astype("<f4").tobytes())


def load_params(path):
    """Read an SFAW file back into a Params of tensors without
    requires_grad: a loaded model only infers, and builds no graph."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    off = 4

    view = memoryview(raw)

    def take(size, what):
        nonlocal off
        if len(raw) - off < size:
            raise CheckpointError(f"{path}: truncated in {what}: needs "
                                  f"{off + size} bytes, has {len(raw)}")
        off += size
        return view[off - size:off]

    version, count = struct.unpack("<HI", take(6, "the header"))
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    out = Params()
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2, f"record {i}"))
        try:
            name = bytes(take(nlen, f"the name of record {i}")).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: the name of record {i} is not "
                                  "UTF-8") from None
        (rank,) = struct.unpack("<B", take(1, f"record {name!r}"))
        if rank > CKPT_MAX_RANK:
            raise CheckpointError(f"{path}: record {name!r} has rank {rank}, "
                                  f"more than {CKPT_MAX_RANK}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"record {name!r}"))
        size = 4 * math.prod(dims)
        vals = np.frombuffer(take(size, f"the values of {name!r}"), "<f4")
        out[name] = Tensor(vals.reshape(dims).copy())
    if off != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after {count} records")
    return out
