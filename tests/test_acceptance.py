"""Acceptance gate: one test per criterion.

The conftest terminal-summary hook prints one verdict line per criterion
(from CRITERIA below) after the run. Criterion 9 trains three small models
and dominates the runtime of this file.
"""

import json
import time

import numpy as np
import pytest

import sfadet.autodiff as ad
from sfadet import detect, evalap, hsi, sacm, ssam, trainer
from sfadet.autodiff import Tensor
from sfadet.hsi import AnnotatedSample, HyperCube

from oracles import (
    _AE_LAYERS,
    check_grad,
    evaluate_slow,
    numerical_grad,
    recon_forward_f64,
    roi_loss_f64,
    sacm_loss_loops,
)
from test_eval import random_case, size_buckets


CRITERIA = {
    1: "finite-difference gradient suite, rel err <= 1e-3, < 2 min",
    2: "grad reversal: bitwise forward, exact -0.5 backward",
    3: "domain loss closed forms (0.375/0.125 ln2) and exact 3:1 ratio",
    4: "alignment loss identities + brute-force oracle, rel <= 1e-5",
    5: "band matching rules + 200-case contiguity property",
    6: "evaluator matches brute-force matcher exactly, 200 seeds",
    7: "total == weighted recombination within 1e-5 every step",
    8: "target annotations never read during 100 training steps",
    9: "synthetic trend: ablation ordering, +5pt over baseline, recon "
       "halves by step 200",
    10: "identical seeds give identical loss CSVs and detections",
}


# ---------------------------------------------------------------------------
# 1. gradient suite


def _grad_conv2d(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=3).astype(np.float32)
    check_grad(
        lambda tx, tw, tb: ad.frobenius_sq(ad.conv2d(tx, tw, tb, 2, 1)),
        [x, w, b],
        which=seed % 3,
    )


def _grad_pooling(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
    x += np.sign(x) * 0.2  # keep max-pool argmaxes away from ties
    fns = [
        lambda t: ad.frobenius_sq(ad.avg_pool2d(t, 2)),
        lambda t: ad.frobenius_sq(ad.max_pool2d(t, 2)),
        lambda t: ad.frobenius_sq(ad.upsample_nearest2d(t, 2)),
        lambda t: ad.frobenius_sq(
            ad.roi_pool_bilinear(
                t, np.array([[0, 0.4, 0.2, 3.6, 3.1], [1, 1.0, 0.0, 4.0, 2.5]]), 3
            )
        ),
    ]
    for f in fns:
        check_grad(f, [x], which=0)


def _grad_grad_reverse(seed):
    # the op's contract is to *mismatch* its forward: analytic gradient must
    # equal -0.5 times the finite-difference gradient of the plain function
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 2, 2)).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    ad.frobenius_sq(ad.grad_reverse(t, -0.5)).backward()
    analytic = t.grad.astype(np.float64)
    numeric = numerical_grad(
        lambda a: float(ad.frobenius_sq(Tensor(a)).data), [x], 0
    )
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-4)
    rel = np.abs(analytic - (-0.5) * numeric).max() / scale
    assert rel <= 1e-3, f"grad_reverse rel err {rel:.2e}"


def _grad_recon_loss(seed):
    """Subset finite differences against the float64 forward oracle."""
    rng = np.random.default_rng(seed)
    params = ssam.init_ssam(2, rng)
    x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
    batch = Tensor(x)
    out = ssam.ssam_forward(batch, params, with_classifier=False)
    loss = ssam.recon_loss(batch, out)
    for t in params.parameters():
        t.zero_grad()
    loss.backward()

    tensors = {k: t.data.astype(np.float64) for k, t in params.items()}
    x64 = x.astype(np.float64)
    base, cache = recon_forward_f64(x64, tensors)
    assert abs(float(loss.data) - base) <= 1e-4 * max(1.0, abs(base))

    layer = _AE_LAYERS[seed % len(_AE_LAYERS)]
    name = f"{layer}.w"
    grad = params[name].grad.astype(np.float64)
    flat_idx = rng.choice(grad.size, size=min(30, grad.size), replace=False)
    h = 1e-5
    worst = 0.0
    wt = tensors[name]
    for fi in flat_idx:
        idx = np.unravel_index(fi, wt.shape)
        wt[idx] += h
        fp = recon_forward_f64(x64, tensors, start=layer, cache=cache)
        wt[idx] -= 2 * h
        fm = recon_forward_f64(x64, tensors, start=layer, cache=cache)
        wt[idx] += h
        num = (fp - fm) / (2 * h)
        scale = max(abs(num), abs(grad[idx]), 1e-4)
        worst = max(worst, abs(num - grad[idx]) / scale)
    assert worst <= 1e-3, f"recon grad rel err {worst:.2e} (layer {layer})"


def _grad_domain_loss(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=4).astype(np.float32)
    domain = "source" if seed % 2 else "target"
    check_grad(lambda t: ssam.domain_loss(t, domain), [logits], which=0)


def _grad_sacm_loss(seed):
    rng = np.random.default_rng(seed)
    f_s = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
    f_t = rng.normal(size=(1, 3, 2, 2)).astype(np.float32)
    check_grad(
        lambda a, b: sacm.sacm_loss(a, b), [f_s, f_t], which=seed % 2
    )


def _grad_rpn_loss(seed):
    rng = np.random.default_rng(seed)
    anchors = detect.xywh_to_cxcywh(
        np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 10.0, 10.0],
                  [2.0, 40.0, 12.0, 12.0]])
    )
    gt = [(1.0, 1.0, 10.0, 10.0)]
    logits = rng.normal(size=3).astype(np.float32)
    deltas = rng.normal(size=(3, 4)).astype(np.float32) * 0.3
    check_grad(
        lambda lg, dl: detect.rpn_loss(
            lg, dl, anchors, gt, np.random.default_rng(0)
        ),
        [logits, deltas],
        which=seed % 2,
    )


def _grad_roi_loss(seed):
    """Subset finite differences against the float64 forward oracle.

    Direct float32 differencing sits right at the tolerance here (relu
    kinks in the shared MLP vs single-precision forward noise), so the
    numeric side uses an independent float64 reimplementation.
    """
    rng = np.random.default_rng(seed)
    params = detect.init_detect_params(1, np.random.default_rng(1))
    lvls = [
        rng.normal(size=(1, ssam.FPN_WIDTH, s, s)).astype(np.float32) * 0.5
        for s in (4, 2, 1)
    ]
    gt = [(np.array([[1.0, 1.0, 5.0, 5.0]]), np.array([1]))]
    proposals = [np.array([[1.0, 1.0, 5.0, 5.0], [0.0, 3.0, 4.0, 4.0]])]

    fpn = [Tensor(l, requires_grad=True) for l in lvls]
    loss = detect.roi_loss(fpn, proposals, gt, params)
    loss.backward()

    tensors = {k: t.data.astype(np.float64) for k, t in params.items()
               if k.startswith("roi.")}
    lvls64 = [l.astype(np.float64) for l in lvls]
    base = roi_loss_f64(lvls64, proposals, gt, tensors)
    assert abs(float(loss.data) - base) <= 1e-4 * max(1.0, abs(base))

    # alternate between the input features and a head weight
    if seed % 2 == 0:
        grad = fpn[0].grad.astype(np.float64)
        target = lvls64[0]
    else:
        wname = ("roi.fc.w", "roi.cls.w", "roi.reg.w")[seed % 3]
        grad = params[wname].grad.astype(np.float64)
        target = tensors[wname]
    flat_idx = rng.choice(grad.size, size=min(30, grad.size), replace=False)
    h = 1e-5
    worst = 0.0
    for fi in flat_idx:
        idx = np.unravel_index(fi, grad.shape)
        target[idx] += h
        fp = roi_loss_f64(lvls64, proposals, gt, tensors)
        target[idx] -= 2 * h
        fm = roi_loss_f64(lvls64, proposals, gt, tensors)
        target[idx] += h
        num = (fp - fm) / (2 * h)
        scale = max(abs(num), abs(grad[idx]), 1e-4)
        worst = max(worst, abs(num - grad[idx]) / scale)
    assert worst <= 1e-3, f"roi grad rel err {worst:.2e}"


def test_criterion_1_gradients():
    start = time.time()
    for op in (
        _grad_conv2d,
        _grad_pooling,
        _grad_grad_reverse,
        _grad_recon_loss,
        _grad_domain_loss,
        _grad_sacm_loss,
        _grad_rpn_loss,
        _grad_roi_loss,
    ):
        for seed in range(20):
            op(seed)
    assert time.time() - start <= 120.0


# ---------------------------------------------------------------------------
# 2. gradient reversal contract


def test_criterion_2_grl():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 5, 5)).astype(np.float32)

    t = Tensor(x, requires_grad=True)
    y = ad.grad_reverse(t, -0.5)
    assert y.data.tobytes() == x.tobytes()  # bitwise identity

    upstream = rng.normal(size=x.shape).astype(np.float32)

    def grad_with(scale):
        p = Tensor(x, requires_grad=True)
        out = ad.tsum(ad.mul(ad.grad_reverse(p, scale), Tensor(upstream)))
        out.backward()
        return p.grad.copy()

    g_unit = grad_with(1.0)
    g_rev = grad_with(-0.5)
    np.testing.assert_array_equal(g_rev, np.float32(-0.5) * g_unit)


# ---------------------------------------------------------------------------
# 3. closed-form domain-loss values


def test_criterion_3_domain_loss():
    zero = Tensor(np.zeros(4, dtype=np.float32))
    s = float(ssam.domain_loss(zero, "source").data)
    t = float(ssam.domain_loss(zero, "target").data)
    assert abs(s - 0.375 * np.log(2)) <= 1e-6
    assert abs(t - 0.125 * np.log(2)) <= 1e-6

    # (1-lam)/beta = 0.375 and lam/beta = 0.125 are exact binary fractions,
    # so source == 3 * target holds exactly in float32 at any logit
    rng = np.random.default_rng(3)
    for _ in range(5):
        logit = Tensor(rng.normal(size=3).astype(np.float32))
        num = np.float32(ssam.domain_loss(logit, "source").data)
        den = np.float32(ssam.domain_loss(logit, "target").data)
        assert num == np.float32(3.0) * den


# ---------------------------------------------------------------------------
# 4. SACM identities


def test_criterion_4_sacm():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
    assert float(sacm.sacm_loss(Tensor(f), Tensor(f.copy())).data) == 0.0

    # spatial permutation invariance
    perm = rng.permutation(9)
    fp = f.reshape(2, 4, 9)[:, :, perm].reshape(2, 4, 3, 3)
    g = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
    a = float(sacm.sacm_loss(Tensor(f), Tensor(g)).data)
    b = float(sacm.sacm_loss(Tensor(fp), Tensor(g)).data)
    assert abs(a - b) <= 1e-5 * max(1.0, abs(a))

    for seed in range(10):
        r = np.random.default_rng(100 + seed)
        n_s, n_t = int(r.integers(1, 3)), int(r.integers(1, 3))
        c = int(r.integers(1, 5))
        fs = r.normal(size=(n_s, c, 3, 3)).astype(np.float32)
        ft = r.normal(size=(n_t, c, 2, 2)).astype(np.float32)
        fast = float(sacm.sacm_loss(Tensor(fs), Tensor(ft)).data)
        slow = sacm_loss_loops(fs, ft)
        assert abs(fast - slow) <= 1e-5 * max(1.0, abs(slow))


# ---------------------------------------------------------------------------
# 5. band matching


def test_criterion_5_band_matching():
    def cube_of(n):
        vals = np.arange(n, dtype=np.float32).reshape(n, 1, 1)
        return HyperCube(np.broadcast_to(vals, (n, 4, 4)).copy())

    out = hsi.match_bands(cube_of(4), 8).values[:, 0, 0]
    np.testing.assert_array_equal(out, [0, 0, 0, 1, 2, 3, 3, 3])

    out = hsi.match_bands(cube_of(5), 3).values[:, 0, 0]
    np.testing.assert_array_equal(out, [0, 2, 4])

    c = cube_of(6)
    same = hsi.match_bands(c, 6)
    np.testing.assert_array_equal(same.values, c.values)

    rng = np.random.default_rng(5)
    for _ in range(200):
        l = int(rng.integers(1, 13))
        t = int(rng.integers(l, l + 13))
        got = hsi.match_bands(cube_of(l), t).values[:, 0, 0]
        assert got.shape[0] == t
        front = (t - l) // 2
        np.testing.assert_array_equal(got[front : front + l], np.arange(l))
        assert np.all(got[:front] == 0) and np.all(got[front + l :] == l - 1)


# ---------------------------------------------------------------------------
# 6. evaluator vs brute force


def test_criterion_6_evaluator():
    for wh, bucket in [((31, 31), "small"), ((32, 32), "medium"),
                       ((95, 96), "medium"), ((96, 96), "large")]:
        assert size_buckets(*wh) == [bucket]

    for seed in range(200):
        rng = np.random.default_rng(seed)
        dets, gts = random_case(rng)
        rep = evalap.evaluate(dets, gts)
        slow_dets = [(d.boxes, d.scores, d.classes) for d in dets]
        with hsi.eval_annotation_access():
            slow_gts = [
                (np.asarray(g.boxes, dtype=np.float64).reshape(-1, 4),
                 list(g.classes))
                for g in gts
            ]
        slow = evaluate_slow(slow_dets, slow_gts)
        assert rep.ap50 == slow["ap50"], f"seed {seed}"
        assert rep.ap == slow["ap"], f"seed {seed}"
        assert rep.ar == slow["ar"], f"seed {seed}"


# ---------------------------------------------------------------------------
# shared small dataset for criteria 7/8/10


def _tiny_datasets(bands=5, size=16, n=3):
    rng = np.random.default_rng(42)

    def make(image_id, held_out):
        values = rng.normal(0, 1, size=(bands, size, size)).astype(np.float32)
        values[:, 4:12, 4:12] += np.linspace(1, 2, bands)[:, None, None]
        return AnnotatedSample(HyperCube(values), [(4.0, 4.0, 8.0, 8.0)], [1],
                               held_out=held_out, image_id=image_id)

    src = [make(i, False) for i in range(n)]
    tgt = [make(10 + i, True) for i in range(n)]
    return src, tgt


# 7. loss aggregation identity


def test_criterion_7_aggregation():
    src, tgt = _tiny_datasets()
    cfg = trainer.TrainConfig(iterations=20, batch_size=2, proposals_train=4)
    _, history = trainer.train(cfg, src, tgt)
    assert len(history) == 20
    for bd in history:
        recomb = bd.recombined(cfg)
        assert abs(bd.total - recomb) <= 1e-5 * max(1.0, abs(bd.total))


# 8. target-label firewall


def test_criterion_8_firewall():
    src, tgt = _tiny_datasets()
    reads = []

    class Tripwire(AnnotatedSample):
        @property
        def boxes(self):
            reads.append("boxes")
            return super().boxes

        @property
        def classes(self):
            reads.append("classes")
            return super().classes

    wired = [
        Tripwire(t.cube, list(t._boxes), list(t._classes), held_out=True,
                 image_id=t.image_id)
        for t in tgt
    ]
    cfg = trainer.TrainConfig(iterations=100, batch_size=2, proposals_train=4)
    trainer.train(cfg, src, wired)
    assert reads == []


# ---------------------------------------------------------------------------
# 9. end-to-end synthetic ablation trend

REF_SEED = 0
REF_TRAIN = dict(iterations=500, batch_size=6, lr=1e-3, target_rpn="off",
                 seed=REF_SEED)


@pytest.fixture(scope="module")
def trend_results():
    scfg = hsi.SynthConfig(seed=REF_SEED)
    src, tgt = hsi.generate_domain_pair(scfg)
    start = time.time()
    results = trainer.ablate(trainer.TrainConfig(**REF_TRAIN), src, tgt)
    out = {mode: (rep, history) for mode, (_, history, rep) in results.items()}
    out["elapsed"] = time.time() - start
    return out


def test_criterion_9_trend(trend_results):
    ap = {m: trend_results[m][0].ap50 for m in
          ("full", "no_sacm", "no_ssam_sacm")}
    assert trend_results["elapsed"] <= 15 * 60
    assert ap["full"] > ap["no_sacm"] > ap["no_ssam_sacm"], ap
    # no_ssam_sacm with target_rpn=off has no target-dependent loss term:
    # it is the train-on-source-only baseline
    assert ap["full"] - ap["no_ssam_sacm"] >= 0.05, ap

    history = trend_results["full"][1]
    assert history[200].l_s_r <= 0.5 * history[0].l_s_r
    assert history[200].l_t_r <= 0.5 * history[0].l_t_r


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism(tmp_path):
    src, tgt = _tiny_datasets()
    cfg = trainer.TrainConfig(iterations=20, batch_size=2, proposals_train=4,
                              seed=7)
    outputs = []
    for name in ("a", "b"):
        csvp = tmp_path / f"{name}.csv"
        state, _ = trainer.train(cfg, src, tgt, loss_csv_path=csvp)
        dets = trainer.infer(state.params, state.in_bands, state.num_classes,
                             [t.cube for t in tgt], cfg)
        blob = json.dumps(
            detect.detections_to_json(dets, [t.image_id for t in tgt]),
            sort_keys=True,
        )
        outputs.append((csvp.read_bytes(), blob))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
