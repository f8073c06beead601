import gc
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sfadet import autodiff as ad
from sfadet.autodiff import Tensor

from oracles import (check_grad, conv2d_batch_major, conv2d_up2_f64,
                     conv2d_up2_keep_columns, roi_pool_loops, same_bits,
                     upsample_nearest2d_grad_reshape)


def randn(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


class TestConv2d:
    def test_1x1_conv_is_scalar_multiply(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        b = Tensor([0.0])
        out = ad.conv2d(x, w, b)
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_2x2_hand_sum(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, w, Tensor([0.0]))
        assert out.shape == (1, 1, 1, 1)
        assert out.data.item() == 10.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(randn(rng, 2, 3, 5, 5))
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = ad.conv2d(x, Tensor(w), Tensor(np.zeros(3)), padding=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        w = Tensor(np.ones((1, 3, 3, 3)))
        with pytest.raises(ad.ShapeError, match=r"\(1, 2, 4, 4\)"):
            ad.conv2d(x, w, Tensor([0.0]))

    def test_too_small_input_raises(self):
        with pytest.raises(ad.ShapeError):
            ad.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))),
                      Tensor([0.0]))

    def test_output_size(self):
        x = Tensor(np.ones((1, 1, 7, 9)))
        out = ad.conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor([0.0]),
                        stride=2, padding=1)
        assert out.shape == (1, 1, 4, 5)

    @pytest.mark.parametrize("factor", [0, 3, 2.5, None])
    def test_upsample_factor_rejected(self, factor):
        x = Tensor(np.ones((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="upsample must be 1 or 2"):
            ad.conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor([0.0]),
                      padding=1, upsample=factor)

    @pytest.mark.parametrize("k,stride,padding,cause", [
        (1, 1, 1, "3x3 kernel, got 1x1"), (3, 2, 1, "stride=2"),
        (3, 1, 0, "padding=0"), (3, 1, 2, "padding=2")])
    def test_upsample_needs_3x3_stride_1_padding_1(self, k, stride, padding,
                                                   cause):
        x = Tensor(np.ones((1, 1, 4, 4)))
        with pytest.raises(ad.ShapeError, match=cause):
            ad.conv2d(x, Tensor(np.ones((1, 1, k, k))), Tensor([0.0]),
                      stride=stride, padding=padding, upsample=2)


class TestPrimitives:
    def test_frobenius_sq_zero(self):
        assert float(ad.frobenius_sq(Tensor(np.zeros((3, 4)))).data) == 0.0

    def test_matmul_ones(self):
        out = ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))

    def test_matmul_shape_error(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_upsample_nearest(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        out = ad.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 1] == 0.0 and out.data[0, 0, 0, 2] == 1.0

    def test_pools(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        avg = ad.avg_pool2d(x, 2)
        mx = ad.max_pool2d(x, 2)
        assert avg.data[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
        assert mx.data[0, 0, 1, 1] == 15.0

    def test_mul_shape_error_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\) vs \(3, 2\)"):
            ad.mul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


class TestGradReverse:
    def test_forward_bitwise_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(randn(rng, 3, 4))
        y = ad.grad_reverse(x, -0.5)
        assert y.data.tobytes() == x.data.tobytes()

    def test_backward_scales_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        ad.tsum(ad.grad_reverse(x, -0.5)).backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), -0.5))

    def test_unit_scale_is_identity(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = ad.grad_reverse(x, 1.0)
        assert y.data.tobytes() == x.data.tobytes()
        ad.tsum(y).backward()
        np.testing.assert_array_equal(x.grad, np.ones(4))

    def test_nonfinite_scale_rejected(self):
        with pytest.raises(ValueError):
            ad.grad_reverse(Tensor([1.0]), float("nan"))


class TestGraphSemantics:
    def test_shared_tensor_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 7
        ad.tsum(y).backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_backward_twice_without_zero_errors(self):
        x = Tensor([1.0], requires_grad=True)
        ad.frobenius_sq(x).backward()
        with pytest.raises(ad.GradError):
            ad.frobenius_sq(x).backward()
        x.zero_grad()
        ad.frobenius_sq(x).backward()  # fine after reset

    def test_no_grad_path_builds_no_tape(self):
        x = Tensor(np.ones(3))
        y = ad.relu(ad.scale(x, 2.0))
        assert y._prev == () and y._bw is None


def _conv_graph(rng):
    """conv -> relu -> frobenius_sq on a batch that needs no gradient;
    returns the loss, the leaves, weakrefs to the batch, to its array and
    to the conv's and the relu's outputs, and the arrays the conv's
    backward closure holds."""
    x = Tensor(randn(rng, 2, 3, 8, 8))
    w = Tensor(randn(rng, 4, 3, 3, 3), requires_grad=True)
    b = Tensor(randn(rng, 4), requires_grad=True)
    h = ad.conv2d(x, w, b, stride=2, padding=1)
    held = [c.cell_contents for c in h._bw.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    r = ad.relu(h)
    loss = ad.frobenius_sq(r)
    refs = {"x": weakref.ref(x), "x.data": weakref.ref(x.data),
            "h": weakref.ref(h), "r": weakref.ref(r)}
    return loss, (w, b), refs, held


class TestConsumedTape:
    def test_backward_frees_interior_tensors_and_kept_input(self):
        loss, (w, b), refs, held = _conv_graph(np.random.default_rng(0))
        # the batch gets no gradient, so the tape drops its tensor; the
        # conv keeps its array, not its columns, for the weight gradient
        assert refs["x"]() is None
        assert all(refs[k]() is not None for k in ("x.data", "h", "r"))
        assert len(held) == 2 and any(a is refs["x.data"]() for a in held)
        assert all(a.size <= refs["x.data"]().size for a in held)
        del held
        loss.backward()
        assert all(ref() is None for ref in refs.values())
        assert w.grad is not None and b.grad is not None

    def test_conv_on_interior_input_keeps_the_input_not_columns(self):
        rng = np.random.default_rng(1)
        x = Tensor(randn(rng, 2, 3, 8, 8))
        w1, b1, w2, b2 = (Tensor(randn(rng, *s), requires_grad=True)
                          for s in ((4, 3, 3, 3), (4,), (5, 4, 3, 3), (5,)))
        r = ad.relu(ad.conv2d(x, w1, b1, padding=1))
        h = ad.conv2d(r, w2, b2, padding=1)
        held = [c.cell_contents for c in h._bw.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        ncols = 4 * 3 * 3 * 2 * 8 * 8   # C*k*k*N*Ho*Wo
        assert not any(a.size == ncols or (a.base is not None
                                           and a.base.size == ncols)
                       for a in held)
        assert any(a is r.data for a in held)
        ref = weakref.ref(r.data)
        del r, held
        loss = ad.frobenius_sq(h)
        del h
        loss.backward()
        assert ref() is None
        assert all(t.grad is not None for t in (w1, b1, w2, b2))

    def test_forward_unrolls_one_image_at_a_time(self):
        # enc1 on the training batch: beyond its output, the forward
        # allocates one image's columns, not the batch's
        rng = np.random.default_rng(3)
        x = Tensor(randn(rng, 6, 60, 64, 64))
        w, b = (Tensor(randn(rng, *s), requires_grad=True)
                for s in ((16, 60, 3, 3), (16,)))
        one_image = 60 * 3 * 3 * 32 * 32 * 4   # C*k*k * Ho*Wo float32
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, b, stride=2, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes <= 1.05 * one_image

    def test_second_backward_on_consumed_graph_raises(self):
        loss, (w, b), _, _ = _conv_graph(np.random.default_rng(2))
        loss.backward()
        w.zero_grad()
        b.zero_grad()
        with pytest.raises(ad.GradError, match="consumed by an earlier backward"):
            loss.backward()
        assert w.grad is None and b.grad is None

    def test_graph_sharing_a_consumed_node_raises(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = ad.relu(ad.scale(x, 3.0))
        first, second = ad.tsum(y), ad.frobenius_sq(y)
        first.backward()
        x.zero_grad()
        with pytest.raises(ad.GradError, match="consumed"):
            second.backward()

    def test_node_keeps_only_inputs_needing_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        assert ad.sub(a, c)._prev == (a,)
        assert ad.concat([c, a, c])._prev == (a,)


BLOCK = ad._SUM_BLOCK


def _lengths(lo, hi):
    return st.integers(lo, hi).map(lambda n: (n,))


# 1-D runs below, around and above the block size, and NCHW batches up to
# the (6, 60, 64, 64) reconstruction difference of the reference step
@given(st.integers(0, 2**32 - 1),
       st.one_of(_lengths(1, 300), _lengths(BLOCK - 40, BLOCK + 40),
                 _lengths(BLOCK + 41, 5 * BLOCK),
                 st.tuples(st.integers(1, 6), st.integers(1, 60),
                           st.integers(1, 64), st.integers(1, 64))),
       st.floats(-6, 6))
@example(0, (6, 60, 64, 64), 0.0)
@example(1, (BLOCK,), 0.0)
@example(2, (BLOCK + 1,), 0.0)
@settings(max_examples=120, deadline=None)
def test_frobenius_sq_matches_one_float64_sum(seed, shape, log_scale):
    x = (np.random.default_rng(seed).normal(size=shape)
         * 10.0 ** log_scale).astype(np.float32)
    want = np.sum(np.square(x.astype(np.float64)))
    # the float64 sum itself, not only its float32 rounding, is numpy's
    assert ad._sum_of_squares(x) == want
    assert same_bits(ad.frobenius_sq(Tensor(x)).data, np.float32(want))


def test_frobenius_sq_frees_its_input_without_garbage_collection():
    # a sum over more than one block once left a reference cycle that kept
    # the summed array alive until the next collection: both reconstruction
    # differences, 11 MiB, in a training step of the full model
    x = np.ones(3 * BLOCK, dtype=np.float32)
    alive = weakref.ref(x)
    gc.disable()
    try:
        ad.frobenius_sq(Tensor(x))
        del x
        assert alive() is None
    finally:
        gc.enable()


GRADCHECK_CASES = {
    "add": lambda a, b: ad.frobenius_sq(ad.add(a, b)),
    "sub": lambda a, b: ad.frobenius_sq(ad.sub(a, b)),
    "mul": lambda a, b: ad.tsum(ad.mul(a, b)),
    "matmul": lambda a, b: ad.frobenius_sq(ad.matmul(a, b)),
    "relu": lambda a, b: ad.tsum(ad.relu(ad.add(a, b))),
    "softplus": lambda a, b: ad.tsum(ad.softplus(a)),
    "mean": lambda a, b: ad.tmean(ad.mul(a, a)),
    "frobenius": lambda a, b: ad.frobenius_sq(a),
    "l1": lambda a, b: ad.l1_norm(a),
    "transpose": lambda a, b: ad.frobenius_sq(ad.transpose(a, (1, 0))),
    "reshape": lambda a, b: ad.frobenius_sq(ad.reshape(a, (-1,))),
}


@pytest.mark.parametrize("name", sorted(GRADCHECK_CASES))
def test_primitive_gradients_match_finite_differences(name):
    # str hashes change per process; crc32 gives every run the same data
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    build = GRADCHECK_CASES[name]
    for trial in range(20):
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4, 3) if name == "matmul" else (3, 4)).astype(np.float32)
        # keep the argument of l1 (a) and of relu (a + b) away from the
        # kink at 0
        if name == "l1":
            a = a + np.sign(a) * 0.3
        if name == "relu":
            b = b + np.sign(a + b) * 0.3
        check_grad(build, [a, b], which=0)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_conv2d_gradients(which):
    rng = np.random.default_rng(7)
    # the upsampling case gets a smaller, non-square input: its float32
    # loss sums a 4x larger output, and the finite differences' rounding
    # noise grows with it (the unfused upsample + conv shows the same)
    for xshape, stride, padding, upsample in (((2, 3, 6, 6), 2, 1, 1),
                                              ((1, 3, 4, 5), 1, 1, 2)):
        for trial in range(5):
            x = rng.normal(size=xshape).astype(np.float32) * 0.5
            w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32) * 0.3
            b = rng.normal(size=(4,)).astype(np.float32)
            check_grad(
                lambda xt, wt, bt: ad.frobenius_sq(
                    ad.conv2d(xt, wt, bt, stride=stride, padding=padding,
                              upsample=upsample)
                ),
                [x, w, b],
                which=which,
            )


@pytest.mark.parametrize("op", ["avg", "max", "upsample"])
def test_pool_gradients(op):
    rng = np.random.default_rng(11)
    for trial in range(5):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        x += np.sign(x) * 0.2  # avoid max-pool ties
        if op == "avg":
            f = lambda t: ad.frobenius_sq(ad.avg_pool2d(t, 2))
        elif op == "max":
            f = lambda t: ad.frobenius_sq(ad.max_pool2d(t, 2))
        else:
            f = lambda t: ad.frobenius_sq(ad.upsample_nearest2d(t, 2))
        check_grad(f, [x], which=0)


def test_roi_pool_bilinear_gradient():
    rng = np.random.default_rng(13)
    rois = np.array([[0, 0.5, 0.5, 4.5, 4.5], [1, 1.0, 0.0, 5.0, 3.0]])
    x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
    check_grad(
        lambda t: ad.frobenius_sq(ad.roi_pool_bilinear(t, rois, 4)),
        [x],
        which=0,
    )


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_roi_pool_bilinear_matches_per_roi_oracle(seed, n, c, s):
    # ROIs from several images on three pyramid-like levels, some on
    # integer and half-pixel coordinates, some partly or wholly outside
    rng = np.random.default_rng(seed)
    for h, w in ((16, 12), (8, 6), (3, 5)):
        feat = rng.normal(size=(n, c, h, w)).astype(np.float32)
        r = int(rng.integers(0, 25))
        x1 = rng.uniform(-3, w + 2, r)
        y1 = rng.uniform(-3, h + 2, r)
        x2 = x1 + rng.uniform(-1, w, r)
        y2 = y1 + rng.uniform(-1, h, r)
        rois = np.stack([rng.integers(0, n, r), x1, y1, x2, y2], axis=1)
        rois[: r // 3, 1:] = np.round(rois[: r // 3, 1:] * 2) / 2
        g = rng.normal(size=(r, c, s, s)).astype(np.float32)
        t = Tensor(feat, requires_grad=True)
        out = ad.roi_pool_bilinear(t, rois, s)
        out.backward(g)
        want_out, want_grad = roi_pool_loops(feat, rois, s, g)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(t.grad, want_grad)


def _conv2d_matches_oracle(rng, n, c, o, h, w, k, stride, padding):
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    wt = rng.normal(size=(o, c, k, k)).astype(np.float32)
    b = rng.normal(size=(o,)).astype(np.float32)
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    g = rng.normal(size=(n, o, ho, wo)).astype(np.float32)
    want = conv2d_batch_major(x, wt, b, g, stride, padding)
    # with and without an input gradient: the weight gradient builds the
    # columns again from the kept input either way
    for x_grad in (True, False):
        tx = Tensor(x, requires_grad=x_grad)
        tw, tb = (Tensor(a, requires_grad=True) for a in (wt, b))
        out = ad.conv2d(tx, tw, tb, stride=stride, padding=padding)
        out.backward(g)
        got = (out.data, tx.grad, tw.grad, tb.grad)
        for name, a, ref in zip(("out", "gx", "gw", "gb"), got, want):
            if name == "gx" and not x_grad:
                assert a is None
            else:
                assert same_bits(a, ref), (name, x_grad)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.integers(1, 40),
       st.integers(1, 40), st.integers(1, 24), st.integers(1, 12),
       st.sampled_from([1, 3]), st.sampled_from([1, 2]), st.sampled_from([0, 1]))
@settings(max_examples=150, deadline=None)
def test_conv2d_matches_batch_major_oracle(seed, n, c, o, h, dw, k, stride,
                                           padding):
    h = max(h, k - 2 * padding)
    _conv2d_matches_oracle(np.random.default_rng(seed), n, c, o, h, h + dw,
                           k, stride, padding)


@pytest.mark.parametrize("c,o,h,k,stride,padding", [
    (60, 16, 64, 3, 2, 1), (16, 32, 32, 3, 2, 1), (32, 64, 16, 3, 2, 1),
    (64, 32, 16, 3, 1, 1), (32, 16, 32, 3, 1, 1), (16, 60, 64, 3, 1, 1),
    (16, 32, 32, 1, 1, 0), (32, 32, 16, 1, 1, 0), (64, 32, 8, 1, 1, 0),
    (32, 32, 8, 3, 1, 1), (32, 16, 8, 1, 1, 0), (16, 1, 8, 1, 1, 0),
    pytest.param(16, 32, (32, 96), 3, 1, 1, id="16-32-32x96-3-1-1"),
    pytest.param(16, 32, (32, 96), 3, 2, 1, id="16-32-32x96-3-2-1"),
    pytest.param(60, 16, (96, 32), 3, 2, 1, id="60-16-96x32-3-2-1"),
    pytest.param(32, 32, (8, 24), 1, 1, 0, id="32-32-8x24-1-1-0"),
])
def test_conv2d_matches_oracle_on_backbone_shapes(c, o, h, k, stride, padding):
    # the encoder, decoder, pyramid and domain-classifier convs at batch 6
    # on 64x64 scenes: large GEMMs as well as small ones; then on
    # non-square (H, W) scenes
    h, w = h if isinstance(h, tuple) else (h, h)
    _conv2d_matches_oracle(np.random.default_rng(c * o + h), 6, c, o, h, w,
                           k, stride, padding)


def _max_rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-30)


def _conv2d_up2_matches_unfused_and_f64(rng, n, c, o, h, w):
    x = randn(rng, n, c, h, w)
    wt = randn(rng, o, c, 3, 3)
    b = randn(rng, o)
    g = randn(rng, n, o, 2 * h, 2 * w)
    got, ref = [], []
    for fused, res in ((True, got), (False, ref)):
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, wt, b))
        if fused:
            out = ad.conv2d(tx, tw, tb, padding=1, upsample=2)
        else:
            out = ad.conv2d(ad.upsample_nearest2d(tx, 2), tw, tb, padding=1)
        out.backward(g)
        res += [out.data, tx.grad, tw.grad, tb.grad]
    ins64 = [a.astype(np.float64) for a in (x, wt, b, g)]
    f64 = conv2d_up2_f64(*ins64)
    # a float32 sum rounds to within a few eps32 (1.2e-7) of the sum of
    # the magnitudes of its terms, which the same oracle on |x|, |w|, |b|,
    # |g| gives; so next to 1e-5 of the result, allow 1e-6 of that scale,
    # which only matters for a sum that cancels (gb over a few dozen terms)
    mag64 = conv2d_up2_f64(*(np.abs(a) for a in ins64))
    for name, a, r, r64, m64 in zip(("out", "gx", "gw", "gb"), got, ref, f64,
                                    mag64):
        assert a.shape == r.shape == r64.shape and a.dtype == np.float32
        assert _max_rel_err(a, r) <= 1e-5, name
        scale = max(np.abs(r64).max(), 0.1 * m64.max(), 1e-30)
        assert np.abs(a - r64).max() <= 1e-5 * scale, name


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.integers(1, 20),
       st.integers(1, 20), st.integers(1, 12), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
# gb here is 0.0072, a sum of 32 terms whose magnitudes sum to 25.6
@example(seed=449, n=1, c=1, o=1, h=2, dw=2)
def test_conv2d_upsample_matches_unfused_and_f64(seed, n, c, o, h, dw):
    # the fused nearest-2x upsample + 3x3 conv against the two-op float32
    # path and the float64 oracle: forward, gx, gw and gb, with H != W
    _conv2d_up2_matches_unfused_and_f64(np.random.default_rng(seed), n, c, o,
                                        h, h + dw)


@pytest.mark.parametrize("c,o,h", [(64, 32, 8), (32, 16, 16), (16, 60, 32)])
def test_conv2d_upsample_on_decoder_shapes(c, o, h):
    # dec1, dec2 and dec3 at batch 6 on 64x64, 60-band scenes
    _conv2d_up2_matches_unfused_and_f64(np.random.default_rng(c * o + h), 6,
                                        c, o, h, h)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 8),
       st.integers(1, 8),
       st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True))
@settings(max_examples=60, deadline=None)
# dec1, dec2 and dec3 at batch 6 on 64x64, 60-band scenes
@example(seed=0, n=6, c=64, o=32, hw=[8, 8])
@example(seed=1, n=6, c=32, o=16, hw=[16, 16])
@example(seed=2, n=6, c=16, o=60, hw=[32, 32])
def test_conv2d_upsample_matches_keep_columns_oracle(seed, n, c, o, hw):
    # rebuilding the phase columns in backward and adding the bias while
    # interleaving the phases gives the bits of the conv that kept them
    rng = np.random.default_rng(seed)
    h, w = hw
    x, wt, b = randn(rng, n, c, h, w), randn(rng, o, c, 3, 3), randn(rng, o)
    g = randn(rng, n, o, 2 * h, 2 * w)
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, wt, b))
    out = ad.conv2d(tx, tw, tb, padding=1, upsample=2)
    out.backward(g)
    got = (out.data, tx.grad, tw.grad, tb.grad)
    for name, a, want in zip(("out", "gx", "gw", "gb"), got,
                             conv2d_up2_keep_columns(x, wt, b, g)):
        assert same_bits(a, want), name


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 5),
       st.integers(1, 9), st.integers(1, 9), st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_upsample_backward_matches_reshape_sum(seed, n, c, h, w, factor):
    rng = np.random.default_rng(seed)
    t = Tensor(rng.normal(size=(n, c, h, w)), requires_grad=True)
    g = rng.normal(size=(n, c, h * factor, w * factor)).astype(np.float32)
    g[:, :, :factor] = -0.0
    g[:, :, :factor, :factor] = 0.0
    ad.upsample_nearest2d(t, factor).backward(g)
    assert same_bits(t.grad, upsample_nearest2d_grad_reshape(g, factor))


def test_bce_and_ce_gradients():
    rng = np.random.default_rng(17)
    logits = rng.normal(size=(6,)).astype(np.float32)
    targets = (rng.random(6) > 0.5).astype(np.float32)
    check_grad(lambda t: ad.tsum(ad.bce_with_logits(t, targets)), [logits])
    logits2 = rng.normal(size=(5, 3)).astype(np.float32)
    labels = rng.integers(0, 3, size=5)
    check_grad(lambda t: ad.tsum(ad.cross_entropy_logits(t, labels)), [logits2])


def test_smooth_l1_gradient():
    rng = np.random.default_rng(19)
    pred = rng.normal(size=(8,)).astype(np.float32) * 2
    target = rng.normal(size=(8,)).astype(np.float32)
    d = pred - target
    pred[np.abs(np.abs(d) - 1.0) < 0.05] += 0.2  # stay off the kink
    check_grad(lambda t: ad.tsum(ad.smooth_l1(t, target)), [pred])


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0], dtype=np.float32)
        opt = ad.Adam([p], lr=3e-4)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 3e-4, abs=1e-7)

    def test_zero_grad_leaves_param_unchanged(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.0], dtype=np.float32)
        ad.Adam([p], lr=3e-4).step()
        assert p.data[0] == 1.0

    def test_constant_grad_monotone_decrease(self):
        # independent oracle: the Adam recurrence by hand
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        p = Tensor([5.0], requires_grad=True)
        opt = ad.Adam([p], lr=lr)
        m = v = 0.0
        ref = 5.0
        for t in range(1, 6):
            p.grad = np.array([2.0], dtype=np.float32)
            prev = float(p.data[0])
            opt.step()
            m = b1 * m + (1 - b1) * 2.0
            v = b2 * v + (1 - b2) * 4.0
            ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert float(p.data[0]) < prev
            assert float(p.data[0]) == pytest.approx(ref, rel=1e-5)

    def test_missing_grad_errors(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ad.GradError):
            ad.Adam([p]).step()
