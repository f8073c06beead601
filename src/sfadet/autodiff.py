"""Minimal reverse-mode autodiff on float32 numpy arrays.

Every operation the detection network needs is implemented here as a tape
node. The tape is implicit: nodes carry a monotonically increasing id, so
sorting reachable nodes by id gives the insertion order and the backward
pass walks it in exact reverse. Backward consumes the tape: each node
drops its closure, its inputs and its gradient as soon as its backward has
run, so the buffers the forward saved are freed at their last use. A node
keeps only the inputs whose gradient it computes and the arrays its
backward reads. Reductions accumulate in float64 before casting back to
float32 to keep Frobenius norms stable on wide cubes.
Convolution unrolls its input one image at a time, into one reused
C-ordered (C*k*k, Ho*Wo) buffer that the image's GEMM reads; a 1x1,
stride-1, unpadded conv reads its input as it is. No conv keeps its
columns: a conv whose weight needs a gradient keeps its input, and
backward unrolls it again into channel-major columns, a (C*k*k, N*Ho*Wo)
array whose column n*Ho*Wo + i is output position i of image n, which
the weight gradient reads.
With ``upsample=2``, a 3x3 conv of the nearest-2x upsampled input runs as
four 2x2 sub-pixel phase convs on the low-resolution input, one per
output pixel phase, whose taps are sums of the 3x3 taps.
"""

from __future__ import annotations

import itertools

import numpy as np

_ids = itertools.count()
SMOOTH_L1_BETA = 1.0   # |pred - target| at which smooth_l1 turns linear
ADAM_BETA1 = 0.9       # Adam's moment decay rates
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8        # added to Adam's denominator


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradError(RuntimeError):
    """Raised on backward-pass misuse (missing grad, stale grad buffers)."""


class Tensor:
    """A float32 array node in the computation graph.

    Leaves are created directly; interior nodes are produced by the ops
    below. ``grad`` is populated by :meth:`backward` and must be cleared
    with :meth:`zero_grad` before the next backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad", "_prev", "_bw", "_id",
                 "__weakref__")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._prev = ()
        self._bw = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None):
        """Reverse-mode sweep from this node, consuming its graph.

        Re-running backward while a leaf still holds a grad from a previous
        sweep is an error; call ``zero_grad`` on the leaves first. Each
        interior node is freed once its backward has run, so a graph
        supports one backward; build it again for another.
        """
        # ascending ids: popping from the end walks the tape in reverse
        nodes = sorted(_reachable(self), key=lambda n: n._id)
        for t in nodes:
            if t._bw is _consumed:
                _consumed(None)
            if t.requires_grad and t._bw is None and t.grad is not None:
                raise GradError(
                    "leaf already has a grad from a previous backward; "
                    "call zero_grad() before running backward again"
                )
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float32)
        while nodes:
            t = nodes.pop()
            if t._bw is None:
                continue
            if t.grad is not None:
                t._bw(t.grad)
            # what the forward saved for this node is not read again
            t._bw, t._prev = _consumed, ()
            if t is not self:
                t.grad = None


def _consumed(g):
    """The backward of a node whose graph an earlier sweep consumed."""
    raise GradError("backward: this graph was consumed by an earlier "
                    "backward(); build it again")


def _reachable(root):
    seen = {id(root): root}
    stack = [root]
    while stack:
        t = stack.pop()
        for p in t._prev:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def _node(data, prev, bw):
    rg = any(p.requires_grad for p in prev)
    t = Tensor(data, requires_grad=rg)
    if rg:
        t._prev = tuple(p for p in prev if p.requires_grad)
        t._bw = bw
    return t


def _needing_grad(*tensors):
    """Each tensor that needs a gradient, and None in place of the others:
    what a backward closure of several inputs captures, so that it keeps
    alive no input it computes no gradient for."""
    return [t if t.requires_grad else None for t in tensors]


def _acc(t, g):
    if t is None:
        return
    g = g.astype(np.float32, copy=False)
    if t.grad is None:
        t.grad = g.copy() if g.base is not None or g is t.data else g
    else:
        t.grad = t.grad + g


def _unbroadcast(g, shape):
    """Sum-reduce a broadcasted gradient back to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b):
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    ta, tb = _needing_grad(a, b)

    def bw(g):
        _acc(ta, _unbroadcast(g, sa))
        _acc(tb, _unbroadcast(g, sb))

    return _node(out, (a, b), bw)


def sub(a, b):
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    ta, tb = _needing_grad(a, b)

    def bw(g):
        _acc(ta, _unbroadcast(g, sa))
        if tb is not None:
            _acc(tb, _unbroadcast(-g, sb))

    return _node(out, (a, b), bw)


def mul(a, b):
    if a.data.shape != b.data.shape:
        try:
            np.broadcast_shapes(a.data.shape, b.data.shape)
        except ValueError:
            raise ShapeError(
                f"mul: incompatible shapes {a.data.shape} vs {b.data.shape}"
            ) from None
    out = a.data * b.data
    ta, tb = _needing_grad(a, b)
    # each operand's gradient reads the other operand
    a_data = a.data if tb is not None else None
    b_data = b.data if ta is not None else None

    def bw(g):
        if ta is not None:
            _acc(ta, _unbroadcast(g * b_data, ta.data.shape))
        if tb is not None:
            _acc(tb, _unbroadcast(g * a_data, tb.data.shape))

    return _node(out, (a, b), bw)


def scale(a, s):
    s = float(s)
    out = a.data * np.float32(s)

    def bw(g):
        _acc(a, g * np.float32(s))

    return _node(out, (a,), bw)


def relu(a):
    out = np.maximum(a.data, 0.0)

    def bw(g):
        _acc(a, g * (a.data > 0))

    return _node(out, (a,), bw)


def softplus(a):
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bw(g):
        s = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        _acc(a, g * s.astype(np.float32))

    return _node(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions (float64 accumulation)


def tsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, dtype=np.float64, keepdims=keepdims).astype(np.float32)

    def bw(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _acc(a, np.broadcast_to(gg, a.data.shape))

    return _node(out, (a,), bw)


def tmean(a, axis=None, keepdims=False):
    out = a.data.mean(axis=axis, dtype=np.float64, keepdims=keepdims).astype(np.float32)
    if axis is None:
        n = a.data.size
    else:
        ax = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for i in ax:
            n *= a.data.shape[i]

    def bw(g):
        gg = np.asarray(g) / np.float32(n)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _acc(a, np.broadcast_to(gg, a.data.shape))

    return _node(out, (a,), bw)


_SUM_BLOCK = 1 << 15


def _sum_of_squares(x):
    """float64 sum of the squares of ``x``'s entries, equal bit for bit to
    ``np.sum(np.square(x.astype(np.float64)))``.

    numpy sums a contiguous float64 run pairwise: a run longer than 128
    is split at n2 = n // 2 rounded down to a multiple of 8, and the sums
    of the two parts are added. Runs longer than ``_SUM_BLOCK`` are split
    the same way here, so only one block at a time is converted to float64.
    """
    return _sum_of_squares_run(x.reshape(-1), 0, x.size)


def _sum_of_squares_run(flat, lo, n):
    """:func:`_sum_of_squares` of ``flat[lo:lo + n]``. A module function,
    not a closure: a recursive closure refers to itself, so the cycle would
    keep ``flat`` alive until the next garbage collection."""
    if n <= _SUM_BLOCK:
        block = flat[lo:lo + n].astype(np.float64)
        return np.sum(np.square(block, out=block))
    n2 = n // 2
    n2 -= n2 % 8
    return (_sum_of_squares_run(flat, lo, n2)
            + _sum_of_squares_run(flat, lo + n2, n - n2))


def frobenius_sq(a):
    """Squared Frobenius norm: sum of squared entries, as a scalar tensor."""
    out = np.float32(_sum_of_squares(a.data))

    def bw(g):
        _acc(a, (2.0 * np.asarray(g)) * a.data)

    return _node(out, (a,), bw)


def l1_norm(a):
    mag = a.data.astype(np.float64)
    out = np.float32(np.sum(np.abs(mag, out=mag)))

    def bw(g):
        _acc(a, np.asarray(g) * np.sign(a.data))

    return _node(out, (a,), bw)


# ---------------------------------------------------------------------------
# shape / linear algebra


def reshape(a, shape):
    out = a.data.reshape(shape)

    def bw(g):
        _acc(a, g.reshape(a.data.shape))

    return _node(out, (a,), bw)


def transpose(a, axes):
    out = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bw(g):
        _acc(a, np.transpose(g, inv))

    return _node(out, (a,), bw)


def concat(tensors, axis=0):
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    targets = _needing_grad(*tensors)

    def bw(g):
        off = 0
        for t, s in zip(targets, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(off, off + s)
            _acc(t, g[tuple(idx)])
            off += s

    return _node(out, tuple(tensors), bw)


def matmul(a, b):
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner dims differ, {a.data.shape} vs {b.data.shape}"
        )
    out = np.matmul(a.data, b.data)
    ta, tb = _needing_grad(a, b)
    # each operand's gradient reads the other operand
    a_data = a.data if tb is not None else None
    b_data = b.data if ta is not None else None

    def bw(g):
        if ta is not None:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            _acc(ta, _unbroadcast(ga, ta.data.shape))
        if tb is not None:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            _acc(tb, _unbroadcast(gb, tb.data.shape))

    return _node(out, (a, b), bw)


# ---------------------------------------------------------------------------
# convolution / pooling / resampling


def _im2col(x, k, stride, padding):
    """(N, C*k*k, Ho*Wo) columns of an NCHW array, as a view of one
    channel-major (C*k*k, N*Ho*Wo) buffer; of ``x`` itself for a 1x1,
    stride-1, unpadded conv."""
    n, c, h, w = x.shape
    if k == 1 and stride == 1 and not padding:
        return x.reshape(n, c, h * w), h, w
    xp = x.transpose(1, 0, 2, 3)
    if padding:
        xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    ho = (xp.shape[2] - k) // stride + 1
    wo = (xp.shape[3] - k) // stride + 1
    s = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, k, k, n, ho, wo),
        strides=(s[0], s[2], s[3], s[1], s[2] * stride, s[3] * stride),
        writeable=False,
    )
    cols = np.ascontiguousarray(cols).reshape(c * k * k, n, ho * wo)
    return cols.transpose(1, 0, 2), ho, wo


def conv2d(x, w, b, stride=1, padding=0, upsample=1):
    """Cross-correlation of NCHW input with OIkk weights plus per-channel bias.

    ``upsample=2`` convolves the nearest-2x upsampled input, as
    ``conv2d(upsample_nearest2d(x, 2), w, b, padding=1)`` does, without
    building it; it takes a 3x3 kernel, stride 1 and padding 1 only.
    """
    if upsample not in (1, 2):
        raise ValueError(f"conv2d: upsample must be 1 or 2, got {upsample!r}")
    n, c, h, wd = x.data.shape
    o, ci, k, k2 = w.data.shape
    if k != k2:
        raise ShapeError(f"conv2d: non-square kernel {w.data.shape}")
    if c != ci:
        raise ShapeError(
            f"conv2d: input channels {x.data.shape} do not match weight {w.data.shape}"
        )
    if upsample == 2:
        if k != 3:
            raise ShapeError(f"conv2d: upsample=2 needs a 3x3 kernel, got {k}x{k}")
        if stride != 1:
            raise ShapeError(f"conv2d: upsample=2 needs stride 1, got stride={stride}")
        if padding != 1:
            raise ShapeError(
                f"conv2d: upsample=2 needs padding 1, got padding={padding}")
        return _conv2d_up2(x, w, b)
    if h + 2 * padding < k or wd + 2 * padding < k:
        raise ShapeError(
            f"conv2d: spatial dims {x.data.shape} too small for kernel {k} "
            f"with padding {padding}"
        )
    wmat = w.data.reshape(o, c * k * k)
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    p = ho * wo
    if k == 1 and stride == 1 and not padding:
        out = np.matmul(wmat, _columns(x.data, k, stride, padding, o)[0])
    else:
        out = np.empty((n, o, p), dtype=np.float32)
        for i, cols in enumerate(_image_columns(x.data, k, stride, padding,
                                                ho, wo)):
            np.matmul(wmat, cols, out=out[i])
    out += b.data.reshape(o, 1)
    out = out.reshape(n, o, ho, wo)
    tx, tw, tb = _needing_grad(x, w, b)
    # the weight gradient reads the columns, k*k/stride**2 times the
    # input's size, so backward builds them again from the input
    xd = x.data if tw is not None else None

    def bw(g):
        gout = g.reshape(n, o, p)
        if tw is not None:
            # einsum's GEMM reads the columns as (C*k*k, N*Ho*Wo): a view
            # of the channel-major buffer, unless they are x or a copy
            cols = _columns(xd, k, stride, padding, o)[0]
            gw = np.einsum("nop,ncp->oc", gout, cols, optimize=True)
            del cols
            _acc(tw, gw.reshape(o, c, k, k))
        if tb is not None:
            _acc(tb, gout.sum(axis=(0, 2)))
        if tx is not None:
            _acc(tx, _col2im(wmat, gout, (n, c, h, wd), k, stride, padding,
                             ho, wo))

    return _node(out, (x, w, b), bw)


def _columns(x, k, stride, padding, o):
    """``_im2col`` of ``x`` for a conv of ``o`` output channels, laid out
    as the 1x1 forward's GEMM and the weight gradient's einsum read them.

    OpenBLAS picks its kernel, and with it the order of each dot
    product's sum, from the matrix sizes and operand layouts. The
    products of conv2d have the sizes and layouts of conv2d_batch_major
    in tests/oracles.py, so they give its sums and signed zeros: one GEMM
    per image, and a C-ordered copy where numpy uses gemv, dot or
    einsum's own loops (o == 1 or Ho*Wo == 1), which read strided
    operands in another order.
    """
    cols, ho, wo = _im2col(x, k, stride, padding)
    if o == 1 or ho * wo == 1:
        cols = cols.copy()
    return cols, ho, wo


def _image_columns(x, k, stride, padding, ho, wo):
    """Each image's (C*k*k, Ho*Wo) columns of an NCHW array, in turn, in
    one C-ordered buffer that every image overwrites: the layout of one
    image's columns in conv2d_batch_major (tests/oracles.py), so the
    forward GEMM on it gives the oracle's bits.

    Each tap (ki, kj) copies the input rows and columns it reads to the
    output positions that read them; positions that read the padding are
    zeroed once and never written.
    """
    n, c, h, wd = x.shape

    def span(t, size, n_out):
        # output positions j whose input j*stride + t - padding lies in
        # [0, size), and the input slice they read
        lo = max(0, -((t - padding) // stride))
        hi = max(lo, min(n_out, (size - 1 + padding - t) // stride + 1))
        first = lo * stride + t - padding
        return slice(lo, hi), slice(first, first + (hi - lo) * stride, stride)

    taps = [((slice(None), ki, kj, ro, co), (slice(None), ri, ci))
            for ki, (ro, ri) in enumerate(span(t, h, ho) for t in range(k))
            for kj, (co, ci) in enumerate(span(t, wd, wo) for t in range(k))]
    buf = np.zeros((c, k, k, ho, wo), dtype=np.float32)
    cols = buf.reshape(c * k * k, ho * wo)
    for xi in x:
        for dst, src in taps:
            buf[dst] = xi[src]
        yield cols


def _col2im(wmat, gout, shape, k, stride, padding, ho, wo):
    """Input gradient of a conv: the per-image GEMM ``wmat.T @ gout``,
    whose (C, k, k) rows are each added to the padded input gradient at
    its tap's offset, in tap order onto zeros.

    At stride 1 this runs on each image's padded (Hp, Wp) grid flattened
    to one run, as ``_conv2d_up2`` does: the output gradient is
    zero-extended to Ho x Wp, so that each tap adds one contiguous
    Ho*Wp run per (image, channel), at offset ki*Wp + kj. The extra
    columns hold products of zeros, which leave every sum of real terms
    as it was: a running sum that starts at +0 never holds -0.
    """
    n, c, h, wd = shape
    o = gout.shape[1]
    hp, wp = h + 2 * padding, wd + 2 * padding
    if stride == 1:
        m = ho * wp
        gext = np.zeros((n, o, ho, wp), dtype=np.float32)
        gext[..., :wo] = gout.reshape(n, o, ho, wo)
        gcols = np.matmul(wmat.T, gext.reshape(n, o, m)).reshape(n, c, k * k, m)
        del gext
        # k - 1 trailing zeros: the last row's extra positions land past
        # the grid
        gxpf = np.zeros((n, c, hp * wp + k - 1), dtype=np.float32)
        for t in range(k * k):
            off = (t // k) * wp + t % k
            gxpf[:, :, off:off + m] += gcols[:, :, t]
        gx = gxpf[:, :, :hp * wp].reshape(n, c, hp, wp)
    else:
        gcols = np.matmul(wmat.T, gout).reshape(n, c, k, k, ho, wo)
        gx = np.zeros((n, c, hp, wp), dtype=np.float32)
        for ki in range(k):
            for kj in range(k):
                gx[:, :, ki : ki + stride * ho : stride,
                   kj : kj + stride * wo : stride] += gcols[:, :, ki, kj]
    return gx[:, :, padding:padding + h, padding:padding + wd]


def _fold3(v):
    """Sub-pixel phase taps of a 3-tap last axis after nearest-2x
    upsampling: (..., 3) -> (2, ..., 2). Phase 0 reads source offsets
    (-1, 0) with taps (k0, k1 + k2); phase 1 reads (0, +1) with taps
    (k0 + k1, k2)."""
    f = np.empty((2,) + v.shape[:-1] + (2,), dtype=np.float32)
    f[0, ..., 0] = v[..., 0]
    f[0, ..., 1] = v[..., 1] + v[..., 2]
    f[1, ..., 0] = v[..., 0] + v[..., 1]
    f[1, ..., 1] = v[..., 2]
    return f


def _unfold3(f):
    """Adjoint of :func:`_fold3`: (2, ..., 2) -> (..., 3)."""
    v = np.empty(f.shape[1:-1] + (3,), dtype=np.float32)
    v[..., 0] = f[0, ..., 0] + f[1, ..., 0]
    v[..., 1] = f[0, ..., 1] + f[1, ..., 0]
    v[..., 2] = f[0, ..., 1] + f[1, ..., 1]
    return v


def _up2_columns(x):
    """The four phase convs' columns of an (N, C, H, W) array, as a
    (4, C*2*2, N*H*(W+2)) array: [2a + b] holds phase (a, b)'s columns,
    rows (c, t, s), read from each image's zero-padded (H+2, W+2) grid
    flattened to one run, at positions i*(W+2) + j + (a + t)*(W+2) + b + s."""
    n, c, h, wd = x.shape
    wp = wd + 2
    grid, m = (h + 2) * wp, h * wp
    # 2 trailing zeros: the last row's extra positions read 2 past the grid
    xpf = np.zeros((c, n, grid + 2), dtype=np.float32)
    xp = xpf[:, :, :grid].reshape(c, n, h + 2, wp)
    xp[:, :, 1:h + 1, 1:wd + 1] = x.transpose(1, 0, 2, 3)
    s = xpf.strides
    cols = np.lib.stride_tricks.as_strided(
        xpf,
        shape=(2, 2, c, 2, 2, n, m),
        strides=(wp * s[2], s[2], s[0], wp * s[2], s[2], s[1], s[2]),
        writeable=False,
    )
    return np.ascontiguousarray(cols).reshape(4, 4 * c, n * m)


def _conv2d_up2(x, w, b):
    """3x3, padding-1 conv of the nearest-2x upsampled input, as four 2x2
    phase convs on the low-resolution input (sub-pixel convolution).

    Output pixel (2i + a, 2j + b) is phase (a, b): a 2x2 conv whose taps
    are sums of the 3x3 taps (``_fold3`` on both axes), read at padded
    rows i + a + t and columns j + b + s, t, s in {0, 1}. Each image's
    padded (H+2, W+2) grid is flattened, and the phases are computed at
    the H*(W+2) positions i*(W+2) + j, j < W+2, so that every im2col and
    col2im run is one contiguous slice of it; the 2 extra columns per
    row are dropped in the forward and get a zero output gradient.
    The columns, 16x the input, are not kept: the weight gradient builds
    them again from the input, which the tape keeps when it needs a
    gradient, as every decoder input does.
    """
    xd = x.data
    n, c, h, wd = xd.shape
    o = w.data.shape[0]
    wp = wd + 2
    grid, m = (h + 2) * wp, h * wp
    p = n * m
    # wf[2a + b] is (O, C*2*2): phase (a, b)'s kernel, rows t, columns s
    wf = _fold3(_fold3(w.data).swapaxes(-1, -2)).swapaxes(-1, -2)
    wf = wf.reshape(4, o, 4 * c)
    res = np.matmul(wf, _up2_columns(xd)).reshape(2, 2, o, n, h, wp)[..., :wd]
    out = np.empty((n, o, 2 * h, 2 * wd), dtype=np.float32)
    out6 = out.reshape(n, o, h, 2, wd, 2)
    bias = b.data.reshape(o, 1, 1)
    for a in range(2):
        for bb in range(2):
            np.add(res[a, bb].transpose(1, 0, 2, 3), bias,
                   out=out6[:, :, :, a, :, bb])
    del res, out6
    tx, tw, tb = _needing_grad(x, w, b)
    xd = xd if tw is not None else None

    def bw(g):
        if tb is not None:
            _acc(tb, g.reshape(n, o, 4 * h * wd).sum(axis=(0, 2)))
        # g4[2a + b] is phase (a, b)'s output gradient, (O, N*H*(W+2))
        g6 = g.reshape(n, o, h, 2, wd, 2)
        g4 = np.empty((2, 2, o, n, h, wp), dtype=np.float32)
        g4[..., wd:] = 0
        for a in range(2):
            for bb in range(2):
                g4[a, bb, ..., :wd] = g6[:, :, :, a, :, bb].transpose(1, 0, 2, 3)
        g4 = g4.reshape(4, o, p)
        if tw is not None:
            gwf = np.matmul(_up2_columns(xd), g4.transpose(0, 2, 1))
            gwf = gwf.transpose(0, 2, 1).reshape(2, 2, o, c, 2, 2)
            _acc(tw, _unfold3(_unfold3(gwf.swapaxes(-1, -2)).swapaxes(-1, -2)))
        if tx is not None:
            gcols = np.matmul(wf.transpose(0, 2, 1), g4)
            gcols = gcols.reshape(2, 2, c, 2, 2, n, m)
            # 2x2 col2im on the flattened padded grid: the phase taps that
            # read offset (r, q) are summed first, then added once
            gxpf = np.zeros((c, n, grid + 2), dtype=np.float32)
            for r in range(3):
                for q in range(3):
                    parts = [gcols[a, bb, :, r - a, q - bb]
                             for a in range(max(0, r - 1), min(r, 1) + 1)
                             for bb in range(max(0, q - 1), min(q, 1) + 1)]
                    off = r * wp + q
                    gxpf[:, :, off:off + m] += sum(parts[1:], parts[0])
            del gcols
            gxp = gxpf[:, :, :grid].reshape(c, n, h + 2, wp)
            _acc(tx, gxp[:, :, 1:h + 1, 1:wd + 1].transpose(1, 0, 2, 3))

    return _node(out, (x, w, b), bw)


def avg_pool2d(x, k):
    """Non-overlapping k-by-k average pooling (stride == k)."""
    n, c, h, w = x.data.shape
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d: dims {x.data.shape} not divisible by {k}")
    r = x.data.reshape(n, c, h // k, k, w // k, k)
    out = r.mean(axis=(3, 5), dtype=np.float64).astype(np.float32)

    def bw(g):
        gg = np.repeat(np.repeat(g, k, axis=2), k, axis=3) / np.float32(k * k)
        _acc(x, gg)

    return _node(out, (x,), bw)


def max_pool2d(x, k):
    """Non-overlapping k-by-k max pooling (stride == k)."""
    n, c, h, w = x.data.shape
    if h % k or w % k:
        raise ShapeError(f"max_pool2d: dims {x.data.shape} not divisible by {k}")
    r = x.data.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
    flat = r.reshape(n, c, h // k, w // k, k * k)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gg = gflat.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5)
        _acc(x, gg.reshape(n, c, h, w))

    return _node(out, (x,), bw)


def upsample_nearest2d(x, factor):
    out = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)
    n, c, h, w = x.data.shape

    def bw(g):
        if factor >= 8 or w == 1:
            # here numpy sums each pixel's f*f phases in blocks of 8 or
            # as one run, not in the phase order below
            gg = g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5))
        else:
            # column phases, then row phases onto zeros: the order in
            # which the reshape-sum above adds them, signed zeros included
            rows = g[..., 0::factor]
            for j in range(1, factor):
                rows = rows + g[..., j::factor]
            gg = np.zeros((n, c, h, w), dtype=np.float32)
            for i in range(factor):
                gg += rows[:, :, i::factor]
        _acc(x, gg)

    return _node(out, (x,), bw)


def grad_reverse(x, factor):
    """Identity forward; backward multiplies the incoming gradient by ``factor``."""
    if not np.isfinite(factor):
        raise ValueError("grad_reverse: factor must be finite")

    def bw(g):
        _acc(x, g * np.float32(factor))

    return _node(x.data, (x,), bw)


# ---------------------------------------------------------------------------
# losses on logits


def bce_with_logits(logits, targets):
    """Elementwise binary cross-entropy; ``targets`` is a plain 0/1 array."""
    t = np.asarray(targets, dtype=np.float32)
    x = logits.data
    out = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def bw(g):
        s = (1.0 / (1.0 + np.exp(-x.astype(np.float64)))).astype(np.float32)
        _acc(logits, g * (s - t))

    return _node(out, (logits,), bw)


def cross_entropy_logits(logits, labels):
    """Per-row softmax cross-entropy for (N, C) logits and integer labels."""
    lab = np.asarray(labels, dtype=np.int64)
    x = logits.data.astype(np.float64)
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    out = (lse - x[np.arange(len(lab)), lab]).astype(np.float32)

    def bw(g):
        p = np.exp(x - lse[:, None]).astype(np.float32)
        p[np.arange(len(lab)), lab] -= 1.0
        _acc(logits, p * np.asarray(g)[:, None])

    return _node(out, (logits,), bw)


def smooth_l1(pred, target):
    """Elementwise Huber-style loss against a constant target array."""
    beta = SMOOTH_L1_BETA
    t = np.asarray(target, dtype=np.float32)
    d = pred.data - t
    ad = np.abs(d)
    out = np.where(ad < beta, 0.5 * d * d / beta, ad - 0.5 * beta).astype(np.float32)

    def bw(g):
        _acc(pred, g * np.clip(d / beta, -1.0, 1.0))

    return _node(out, (pred,), bw)


def _scatter_add_rows(table, rows, vals):
    """``np.add.at(table, rows, vals)`` for a float32 (P, C) table and
    float64 (K, C) values, with the same result.

    Every element gets ``float32(float64(element) + value)`` for each of
    its contributions, in the order they come in ``rows``. add.at does
    this one element at a time on its casting path. Here the k-th
    contribution to each row goes in round k, which touches each row at
    most once, so a round is one vectorized read-add-write.
    """
    n = len(rows)
    by_row = np.argsort(rows, kind="stable")
    sorted_rows = rows[by_row]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_rows[1:] != sorted_rows[:-1]
    run_start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[by_row] = np.arange(n) - run_start
    by_round = np.argsort(rank, kind="stable")
    bounds = np.cumsum(np.bincount(rank))
    lo = 0
    for hi in bounds:
        sel = by_round[lo:hi]
        at = rows[sel]
        table[at] = table[at] + vals[sel]
        lo = hi


def roi_pool_bilinear(feat, rois, out_size):
    """Bilinear ROI pooling: one sample at each of out_size^2 bin centers.

    ``rois`` is a plain (R, 5) array of [image_index, x1, y1, x2, y2] in
    feature-map coordinates. Returns an (R, C, s, s) tensor.
    """
    rois = np.asarray(rois, dtype=np.float32).reshape(-1, 5)
    n, c, h, w = feat.data.shape
    s = out_size
    grid = (np.arange(s, dtype=np.float32) + 0.5) / s
    bi = rois[:, 0].astype(np.int64)
    x1, y1, x2, y2 = rois[:, 1:2], rois[:, 2:3], rois[:, 3:4], rois[:, 4:5]
    xs = np.clip(x1 + grid * np.maximum(x2 - x1, 1e-3), 0.0, w - 1.0)
    ys = np.clip(y1 + grid * np.maximum(y2 - y1, 1e-3), 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1i = np.minimum(x0 + 1, w - 1)
    y1i = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[:, None, :]  # (R, 1, s), float64
    fy = (ys - y0)[:, :, None]  # (R, s, 1)
    # taps 00, 01, 10, 11 as (R, 4, s, s) rows of the (N*H*W, C) pixel
    # table, and their bilinear weights
    row0 = (bi * (h * w))[:, None, None] + (y0 * w)[:, :, None]
    row1 = (bi * (h * w))[:, None, None] + (y1i * w)[:, :, None]
    taps = np.stack([row0 + x0[:, None, :], row0 + x1i[:, None, :],
                     row1 + x0[:, None, :], row1 + x1i[:, None, :]], axis=1)
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx,
                        fy * (1 - fx), fy * fx], axis=1)[..., None]
    pixels = feat.data.transpose(0, 2, 3, 1).reshape(-1, c)
    # the four taps summed in order 00, 01, 10, 11, in float64
    v = pixels[taps[:, 0]] * weights[:, 0]
    for k in range(1, 4):
        v = v + pixels[taps[:, k]] * weights[:, k]
    out = v.astype(np.float32).transpose(0, 3, 1, 2)

    def bw(g):
        gpix = np.zeros((n * h * w, c), dtype=np.float32)
        # contributions in (roi, tap, bin) order, as a per-roi, per-tap
        # scatter would add them to each feature element
        vals = g.transpose(0, 2, 3, 1)[:, None] * weights
        _scatter_add_rows(gpix, taps.reshape(-1), vals.reshape(-1, c))
        _acc(feat, gpix.reshape(n, h, w, c).transpose(0, 3, 1, 2))

    return _node(out, (feat,), bw)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Standard Adam with bias correction over a list of leaf tensors."""

    def __init__(self, params, lr=3e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise GradError("Adam.step: parameter has no gradient")
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= (self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)).astype(
                np.float32
            )

    def zero_grad(self):
        for p in self.params:
            p.grad = None
