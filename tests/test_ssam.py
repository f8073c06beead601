import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfadet import autodiff as ad
from sfadet import ssam
from sfadet.autodiff import Tensor

from oracles import check_grad, recon_forward_f64


@pytest.fixture
def params():
    return ssam.init_ssam(4, np.random.default_rng(0))


def batch(rng, n=1, l=4, s=16):
    return batch_hw(rng, n, l, s, s)


def batch_hw(rng, n, l, h, w):
    return Tensor(rng.normal(size=(n, l, h, w)).astype(np.float32))


class TestForwardShapes:
    def test_shapes(self, params):
        rng = np.random.default_rng(1)
        out = ssam.ssam_forward(batch(rng, 2, 4, 32), params)
        assert out.reconstruction.shape == (2, 4, 32, 32)
        assert out.bottleneck.shape == (2, 64, 4, 4)
        assert [f.shape for f in out.fpn_levels] == [
            (2, 32, 16, 16), (2, 32, 8, 8), (2, 32, 4, 4)
        ]
        assert out.domain_logit.shape == (2,)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 5),
           st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_keeps_input_shape(self, seed, n, bands, h8, dw8):
        # any H != W that are multiples of 8, through the fused decoder
        rng = np.random.default_rng(seed)
        h, w = 8 * h8, 8 * (h8 + dw8)
        p = ssam.init_ssam(bands, rng)
        x = batch_hw(rng, n, bands, h, w)
        out = ssam.ssam_forward(x, p, with_classifier=False)
        assert out.reconstruction.shape == (n, bands, h, w)
        assert out.bottleneck.shape == (n, 64, h // 8, w // 8)
        assert np.isfinite(out.reconstruction.data).all()

    def test_indivisible_dims_rejected(self, params):
        rng = np.random.default_rng(1)
        with pytest.raises(ad.ShapeError, match="divisible"):
            ssam.ssam_forward(Tensor(rng.normal(size=(1, 4, 30, 30))), params)

    def test_band_mismatch_rejected(self, params):
        with pytest.raises(ad.ShapeError, match="bands"):
            ssam.ssam_forward(Tensor(np.zeros((1, 5, 16, 16))), params)

    def test_zero_classifier_gives_zero_logit(self, params):
        for k in ("dc1", "dc2", "dc3"):
            params[f"{k}.w"].data[:] = 0
            params[f"{k}.b"].data[:] = 0
        rng = np.random.default_rng(2)
        out = ssam.ssam_forward(batch(rng, 2), params)
        np.testing.assert_array_equal(out.domain_logit.data, [0.0, 0.0])

    def test_batch_independence(self, params):
        rng = np.random.default_rng(3)
        a = batch(rng, 1)
        b = batch(rng, 1)
        both = Tensor(np.concatenate([a.data, b.data]))
        out_a = ssam.ssam_forward(a, params)
        out_b = ssam.ssam_forward(b, params)
        out = ssam.ssam_forward(both, params)
        np.testing.assert_allclose(
            out.reconstruction.data,
            np.concatenate([out_a.reconstruction.data, out_b.reconstruction.data]),
            atol=1e-5,
        )
        np.testing.assert_allclose(
            out.domain_logit.data,
            np.concatenate([out_a.domain_logit.data, out_b.domain_logit.data]),
            atol=1e-5,
        )


class TestReconLoss:
    def test_perfect_reconstruction_zero(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = ssam.SsamOutput(Tensor(x.data.copy()), Tensor(np.zeros((1, 1, 1, 1))),
                              None, None)
        assert float(ssam.recon_loss(x, out, alpha=0.01).data) == 0.0

    def test_off_by_one_reconstruction(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        out = ssam.SsamOutput(Tensor(np.ones((1, 1, 2, 2))),
                              Tensor(np.zeros((1, 1, 1, 1))), None, None)
        assert float(ssam.recon_loss(x, out, alpha=0.5).data) == pytest.approx(4.0)

    def test_alpha_zero_is_pure_frobenius(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 2, 2, 2)).astype(np.float32))
        r = Tensor(rng.normal(size=(1, 2, 2, 2)).astype(np.float32))
        bn = Tensor(rng.normal(size=(1, 4, 1, 1)).astype(np.float32))
        out = ssam.SsamOutput(r, bn, None, None)
        expect = float(np.sum((r.data - x.data) ** 2))
        assert float(ssam.recon_loss(x, out, alpha=0.0).data) == pytest.approx(
            expect, rel=1e-6
        )

    def test_sparsity_penalty_added(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        bn = Tensor(np.array([[[[1.0, -2.0]]]]))
        out = ssam.SsamOutput(Tensor(np.zeros((1, 1, 2, 2))), bn, None, None)
        assert float(ssam.recon_loss(x, out, alpha=0.1).data) == pytest.approx(0.3)

    def test_nonnegative_and_zero_iff_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = Tensor(rng.normal(size=(1, 2, 2, 2)).astype(np.float32))
            out = ssam.SsamOutput(
                Tensor(rng.normal(size=(1, 2, 2, 2)).astype(np.float32)),
                Tensor(rng.normal(size=(1, 3, 1, 1)).astype(np.float32)),
                None, None,
            )
            assert float(ssam.recon_loss(x, out).data) > 0.0


class TestDomainLoss:
    def test_source_closed_form_at_zero(self):
        loss = ssam.domain_loss(Tensor([0.0]), "source", beta=2.0, lam=0.25)
        assert float(loss.data) == pytest.approx(0.375 * math.log(2), abs=1e-6)

    def test_target_closed_form_at_zero(self):
        loss = ssam.domain_loss(Tensor([0.0]), "target", beta=2.0, lam=0.25)
        assert float(loss.data) == pytest.approx(0.125 * math.log(2), abs=1e-6)

    def test_source_target_ratio_is_three(self):
        for d in (-1.3, 0.0, 0.7, 2.0):
            s = float(ssam.domain_loss(Tensor([d]), "source").data)
            t = float(ssam.domain_loss(Tensor([d]), "target").data)
            assert s / t == pytest.approx(3.0, rel=1e-5)

    def test_batch_mean(self):
        single = [float(ssam.domain_loss(Tensor([d]), "source").data)
                  for d in (0.0, 1.0)]
        both = float(ssam.domain_loss(Tensor([0.0, 1.0]), "source").data)
        assert both == pytest.approx(sum(single) / 2, rel=1e-6)

    def test_non_finite_logit_rejected(self):
        with pytest.raises(ValueError):
            ssam.domain_loss(Tensor([np.inf]), "source")

    def test_bad_hyperparams_rejected(self):
        with pytest.raises(ValueError):
            ssam.domain_loss(Tensor([0.0]), "source", beta=-1.0)
        with pytest.raises(ValueError):
            ssam.domain_loss(Tensor([0.0]), "source", lam=1.5)


class TestClassifierGrl:
    def test_forward_independent_of_grl_scale(self, params):
        rng = np.random.default_rng(6)
        f = Tensor(rng.normal(size=(1, 32, 4, 4)).astype(np.float32))
        a = ssam.classify_domain(f, params, grl_scale=-0.5)
        b = ssam.classify_domain(f, params, grl_scale=1.0)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("scale", [-0.5, -1.0, 0.25])
    def test_grl_scales_feature_gradient_exactly(self, params, scale):
        rng = np.random.default_rng(7)
        fvals = rng.normal(size=(2, 32, 4, 4)).astype(np.float32)

        def grad_at(s):
            f = Tensor(fvals, requires_grad=True)
            for p in params.parameters():
                p.zero_grad()
            loss = ssam.domain_loss(ssam.classify_domain(f, params, s), "source")
            loss.backward()
            return f.grad.copy()

        g_unit = grad_at(1.0)
        g = grad_at(scale)
        np.testing.assert_array_equal(g, np.float32(scale) * g_unit)

    def test_grl_zero_decouples(self, params):
        rng = np.random.default_rng(8)
        f = Tensor(rng.normal(size=(1, 32, 4, 4)).astype(np.float32),
                   requires_grad=True)
        loss = ssam.domain_loss(ssam.classify_domain(f, params, 0.0), "target")
        loss.backward()
        np.testing.assert_array_equal(f.grad, np.zeros_like(f.grad))


class TestGradients:
    CHUNK = 32   # perturbed elements per oracle call; bounds its memory

    def test_recon_loss_gradients_all_weights(self):
        rng = np.random.default_rng(9)
        params = ssam.init_ssam(4, rng)
        x = rng.normal(size=(1, 4, 8, 8)).astype(np.float32)
        x64 = x.astype(np.float64)
        t64 = {k: v.data.astype(np.float64) for k, v in params.items()}

        out = ssam.ssam_forward(Tensor(x), params, with_classifier=False)
        loss = ssam.recon_loss(Tensor(x), out, alpha=0.01)
        loss.backward()
        base, cache = recon_forward_f64(x64, t64)
        # sanity: both forwards agree on the loss value
        assert float(loss.data) == pytest.approx(base, rel=1e-5)

        # every element, as central differences: the +h and -h copies of
        # CHUNK elements form one batch of perturbed values of the parameter
        h = 1e-5
        for name in [n for n in t64 if n.startswith(("enc", "dec"))]:
            layer = name.split(".")[0]
            analytic = params[name].grad.astype(np.float64)
            flat = t64[name].ravel()
            numeric = np.zeros(flat.size)
            for lo in range(0, flat.size, self.CHUNK):
                idx = np.arange(lo, min(lo + self.CHUNK, flat.size))
                rows = np.arange(len(idx))
                stack = np.tile(flat, (2 * len(idx), 1))
                stack[rows, idx] += h
                stack[rows + len(idx), idx] -= h
                f = recon_forward_f64(x64, t64, start=layer, cache=cache,
                                      perturb=(name, stack.reshape(
                                          -1, *t64[name].shape)))
                numeric[idx] = (f[:len(idx)] - f[len(idx):]) / (2 * h)
            numeric = numeric.reshape(analytic.shape)
            scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-4)
            rel = np.abs(analytic - numeric).max() / scale
            assert rel <= 1e-3, f"{name}: rel err {rel:.2e}"

    def test_domain_loss_gradient(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(4,)).astype(np.float32)
        check_grad(lambda t: ssam.domain_loss(t, "source"), [logits])
        check_grad(lambda t: ssam.domain_loss(t, "target"), [logits])


class TestCheckpoint:
    def test_round_trip(self, params, tmp_path):
        path = tmp_path / "m.sfaw"
        ssam.save_params(params, path)
        back = ssam.load_params(path)
        assert set(back) == set(params)
        for k, t in params.items():
            np.testing.assert_array_equal(back[k].data, t.data)

    def test_loaded_params_build_no_graph(self, params, tmp_path):
        # a loaded model only runs inference, so its forward keeps no
        # backward closures (and none of the buffers they save)
        path = tmp_path / "m.sfaw"
        ssam.save_params(params, path)
        back = ssam.load_params(path)
        assert not any(t.requires_grad for t in back.values())
        out = ssam.ssam_forward(batch(np.random.default_rng(2)), back)
        for t in [out.reconstruction, out.bottleneck, out.domain_logit,
                  *out.fpn_levels]:
            assert t._bw is None and t._prev == ()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sfaw"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ssam.CheckpointError):
            ssam.load_params(path)

    # 10 header bytes, then per record: name length (2), name, rank (1),
    # dims (4 each), float32 values
    @pytest.mark.parametrize("cut,where", [
        (7, "in the header"), (13, "in the name of record 0"),
        (-3, "in the values of")])
    def test_truncated_file_names_path(self, params, tmp_path, cut, where):
        path = tmp_path / "m.sfaw"
        ssam.save_params(params, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ssam.CheckpointError,
                           match=f"^{re.escape(str(path))}: truncated {where}"):
            ssam.load_params(path)

    @staticmethod
    def _one_record(name, dims, payload=b""):
        return (ssam.CKPT_MAGIC + struct.pack("<HI", ssam.CKPT_VERSION, 1)
                + struct.pack("<H", len(name)) + name
                + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + payload)

    # each failed without naming the file at the parent of this check: a
    # bare UnicodeDecodeError; numpy's "maximum supported dimension";
    # np.prod wrapped to a negative size, and the reshape failed
    @pytest.mark.parametrize("name,dims,cause", [
        (b"\xffw", (1,), "the name of record 0 is not UTF-8"),
        (b"x", (1,) * 65, "record 'x' has rank 65, more than 32"),
        (b"x", (2**32 - 1, 2**32 - 1), "truncated in the values of 'x': "
         f"needs {22 + 4 * (2**32 - 1) ** 2} bytes, has 26"),
    ], ids=["not_utf8", "rank_65", "size_past_int64"])
    def test_unreadable_record_named(self, tmp_path, name, dims, cause):
        path = tmp_path / "m.sfaw"
        path.write_bytes(self._one_record(name, dims, payload=b"\0" * 4))
        with pytest.raises(ssam.CheckpointError) as err:
            ssam.load_params(path)
        assert str(err.value) == f"{path}: {cause}"

    def test_repeated_record_name_named(self, params, tmp_path):
        # the later record once replaced the earlier one, and the checkpoint
        # check then reported the dropped record as a missing layer
        path = tmp_path / "m.sfaw"
        ssam.save_params(params, path)
        raw = path.read_bytes()
        assert raw.count(b"enc1.b") == 1
        path.write_bytes(raw.replace(b"enc1.b", b"enc1.w"))
        with pytest.raises(ssam.CheckpointError) as err:
            ssam.load_params(path)
        i = sorted(params).index("enc1.w")
        assert str(err.value) == f"{path}: record {i} repeats the name 'enc1.w'"


def _probe_accuracy(fs, ft):
    """Accuracy of a freshly fit logistic probe separating the two sets."""
    n = len(fs)
    x = np.concatenate([fs, ft])
    y = np.concatenate([np.zeros(n), np.ones(n)])
    keep = x.std(0) > 1e-6
    if not keep.any():
        return 0.5
    x = (x[:, keep] - x[:, keep].mean(0)) / (x[:, keep].std(0) + 1e-8)
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(2000):
        p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        g = p - y
        w -= 0.5 * (x.T @ g) / len(y)
        b -= 0.5 * g.mean()
    return float(np.mean((x @ w + b > 0) == (y > 0.5)))


class TestAdversarialAlignment:
    def _align(self, seed, iters=3000):
        """Adversarial training on linearly separable toy features.

        The domain cue is a mean offset on input dim 0; dims 1-3 carry shared
        content that a small reconstruction head must preserve (as the
        autoencoder does in the full model, keeping the encoder from
        collapsing to zero). The critic is renormalized to unit weight norm
        each step so it cannot escape by driving every logit to -inf.
        """
        rng = np.random.default_rng(seed)
        n = 64
        base = rng.normal(0, 1, size=(2 * n, 4)).astype(np.float32)
        src, tgt = base[:n].copy(), base[n:].copy()
        src[:, 0] = rng.normal(1.0, 0.3, n)
        tgt[:, 0] = rng.normal(-1.0, 0.3, n)

        enc_w = ad.Tensor(rng.normal(0, 0.5, size=(4, 8)), requires_grad=True)
        enc_b = ad.Tensor(np.zeros(8), requires_grad=True)
        dec_w = ad.Tensor(rng.normal(0, 0.5, size=(8, 3)), requires_grad=True)
        cls_w = ad.Tensor(rng.normal(0, 0.5, size=(8, 1)), requires_grad=True)
        enc_opt = ad.Adam([enc_w, enc_b, dec_w], lr=3e-2)
        cls_opt = ad.Adam([cls_w], lr=1e-2)

        def feats(x):
            return ad.relu(ad.add(ad.matmul(x, enc_w), enc_b))

        def logit(f):
            rev = ad.grad_reverse(f, -0.5)
            return ad.reshape(ad.matmul(rev, cls_w), (f.shape[0],))

        content_s, content_t = src[:, 1:], tgt[:, 1:]
        for _ in range(iters):
            fs, ft = feats(ad.Tensor(src)), feats(ad.Tensor(tgt))
            dom = ad.add(ssam.domain_loss(logit(fs), "source"),
                         ssam.domain_loss(logit(ft), "target"))
            rec = ad.add(
                ad.frobenius_sq(ad.sub(ad.matmul(fs, dec_w),
                                       ad.Tensor(content_s))),
                ad.frobenius_sq(ad.sub(ad.matmul(ft, dec_w),
                                       ad.Tensor(content_t))),
            )
            total = ad.add(dom, ad.scale(rec, 1.0 / n))
            enc_opt.zero_grad()
            cls_opt.zero_grad()
            total.backward()
            enc_opt.step()
            cls_opt.step()
            cls_w.data /= max(np.linalg.norm(cls_w.data), 1e-8)

        relu = lambda v: np.maximum(v, 0)
        fs = relu(src @ enc_w.data + enc_b.data)
        ft = relu(tgt @ enc_w.data + enc_b.data)
        return src, tgt, fs, ft

    def test_probe_accuracy_near_chance_after_alignment(self):
        accs = []
        for seed in (0, 1, 2):
            src, tgt, fs, ft = self._align(seed)
            # the raw inputs really are separable
            assert _probe_accuracy(src, tgt) >= 0.95
            # and the encoder did not just zero everything out
            assert fs.std() > 0.02 and ft.std() > 0.02
            accs.append(_probe_accuracy(fs, ft))
        assert sorted(accs)[1] <= 0.65, f"probe accuracies {accs}"
