"""Spectral autocorrelation alignment.

Bottleneck features are summarized per image as a channel-by-channel Gram
matrix (spatial positions flattened), averaged over the batch; the
alignment loss is the squared Frobenius norm of the source/target Gram
difference. Unnormalized by default; ``normalize=True`` divides each Gram
by its spatial position count so unequal crop sizes stay comparable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def gram(feature: Tensor, normalize=False) -> Tensor:
    """Batch-averaged C x C spectral autocorrelation of an (N, C, H, W) map."""
    if feature.size == 0:
        raise ad.ShapeError("gram: empty feature")
    n, c, h, w = feature.shape
    flat = ad.reshape(feature, (n, c, h * w))          # (N, C, P) = M^T per image
    flatT = ad.transpose(flat, (0, 2, 1))              # (N, P, C) = M
    g = ad.matmul(flat, flatT)                         # M^T M, batched (N, C, C)
    g = ad.scale(ad.tsum(g, axis=0), 1.0 / n)
    if normalize:
        g = ad.scale(g, 1.0 / (h * w))
    return g


def sacm_loss(f_s: Tensor, f_t: Tensor, normalize=False) -> Tensor:
    """Squared Frobenius distance between the two domain Gram matrices."""
    if f_s.shape[1] != f_t.shape[1]:
        raise ad.ShapeError(
            f"sacm_loss: channel counts differ, {f_s.shape} vs {f_t.shape}"
        )
    return ad.frobenius_sq(ad.sub(gram(f_t, normalize), gram(f_s, normalize)))


def gram_values(feature: np.ndarray) -> np.ndarray:
    """Plain-array Gram for inspection dumps (no graph)."""
    return gram(Tensor(feature)).data
