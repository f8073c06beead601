"""Independent slow-path oracles used by the test suite.

These deliberately avoid the library's own code paths: finite differences
for gradients, an O(everything) loop-based Gram/AP computation for the
alignment loss and the evaluator.
"""

import numpy as np
from hypothesis import strategies as st

from sfadet.autodiff import GradError, Tensor, _fold3, _unfold3
from sfadet.hsi import HyperCube


def numerical_grad(f, arrays, which, h=1e-3):
    """Central finite differences of scalar f(*arrays) w.r.t. arrays[which]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    out = np.zeros_like(base[which])
    for idx in np.ndindex(base[which].shape):
        args = [a.copy() for a in base]
        args[which][idx] += h
        fp = f(*args)
        args[which][idx] -= 2 * h
        fm = f(*args)
        out[idx] = (fp - fm) / (2 * h)
    return out


def check_grad(build_loss, arrays, which=0, h=1e-3, rtol=1e-3):
    """Compare analytic grad of build_loss(*tensors) against finite diffs.

    ``build_loss`` receives Tensors (requires_grad on the checked one) and
    must return a scalar Tensor.
    """

    def f(*arrs):
        ts = [Tensor(a) for a in arrs]
        return float(build_loss(*ts).data)

    tensors = [
        Tensor(a, requires_grad=(i == which)) for i, a in enumerate(arrays)
    ]
    loss = build_loss(*tensors)
    loss.backward()
    analytic = tensors[which].grad.astype(np.float64)
    numeric = numerical_grad(f, arrays, which, h=h)
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-4)
    rel = np.abs(analytic - numeric).max() / scale
    assert rel <= rtol, f"gradient mismatch: rel err {rel:.2e}"
    return rel


def conv2d_f64(x, w, b, stride=1, pad=0):
    """Plain float64 convolution: an im2col and one GEMM.

    A stack of B weights (B, O, C, k, k) or of B biases (B, O) gives a
    (B, N, O, Ho, Wo) output, one convolution per stacked value.
    """
    n, c, h, ww = x.shape
    o, _, kh, kw = w.shape[-4:]
    xp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + ww] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kh, kw, n, oh, ow),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    cols = windows.reshape(c * kh * kw, n * oh * ow)
    out = (w.reshape(-1, c * kh * kw) @ cols).reshape(*w.shape[:-4], o, n, oh, ow)
    return np.swapaxes(out, -4, -3) + b[..., None, :, None, None]


def conv2d_f64_grads(x, w, g, stride=1, pad=0):
    """Float64 input and weight gradients of ``conv2d_f64`` for an output
    gradient ``g`` (the bias gradient is ``g.sum(axis=(0, 2, 3))``)."""
    n, c, h, ww = x.shape
    o, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape)
    for i in range(kh):
        for j in range(kw):
            win = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            gw[:, :, i, j] = np.einsum("nohw,nchw->oc", g, win)
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += (
                np.einsum("nohw,oc->nchw", g, w[:, :, i, j]))
    return gxp[:, :, pad:pad + h, pad:pad + ww], gw


def conv2d_up2_f64(x, w, b, g=None):
    """``conv2d_f64`` with padding 1 on the nearest-2x upsampled input.
    With an output gradient ``g``, returns (out, gx, gw, gb)."""
    up = x.repeat(2, axis=2).repeat(2, axis=3)
    out = conv2d_f64(up, w, b, 1, 1)
    if g is None:
        return out
    gup, gw = conv2d_f64_grads(up, w, g, 1, 1)
    n, c, h, ww = x.shape
    gx = gup.reshape(n, c, h, 2, ww, 2).sum(axis=(3, 5))
    return out, gx, gw, g.sum(axis=(0, 2, 3))


_AE_LAYERS = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")


def recon_forward_f64(x, tensors, alpha=0.01, start="enc1", cache=None,
                      perturb=None):
    """Float64 re-implementation of the autoencoder + recon loss.

    Independent of the float32 engine; used as the finite-difference target
    so the numeric gradient is not drowned in single-precision noise.
    ``cache`` (from a previous call) holds per-layer inputs so that a sweep
    perturbing only layer ``start`` skips recomputing everything upstream.
    ``perturb=(name, stack)`` replaces parameter ``name`` of layer ``start``
    by each of the B values stacked along the leading axis of ``stack``;
    the call then returns the B losses as an array. The layers after
    ``start`` run once on all B outputs, batched.
    """
    t = tensors if perturb is None else {**tensors, perturb[0]: perturb[1]}
    relu = lambda v: np.maximum(v, 0.0)
    up2 = lambda v: v.repeat(2, axis=2).repeat(2, axis=3)
    new_cache = {} if cache is None else None
    k = _AE_LAYERS.index(start)
    a = x if cache is None else cache[start]
    e3_term = None
    nb = 1 if perturb is None else len(perturb[1])
    for i, name in enumerate(_AE_LAYERS):
        if i < k:
            continue
        if new_cache is not None:
            new_cache[name] = a
        stride = 2 if name.startswith("enc") else 1
        if name.startswith("dec"):
            a = up2(a)
        a = conv2d_f64(a, t[f"{name}.w"], t[f"{name}.b"], stride, 1)
        if a.ndim == 5:  # one output per stacked value: fold B into N
            a = a.reshape(-1, *a.shape[2:])
        if name != "dec3":
            a = relu(a)
        if name == "enc3":
            e3_term = alpha * np.abs(a).reshape(nb, -1).sum(axis=1)
    if e3_term is None:  # perturbation downstream of the bottleneck
        e3_term = cache["_e3_term"]
    elif new_cache is not None:
        new_cache["_e3_term"] = e3_term
    loss = np.sum((a.reshape(nb, -1) - x.reshape(1, -1)) ** 2, axis=1) + e3_term
    if perturb is None:
        loss = float(loss[0])
    if new_cache is not None:
        return loss, new_cache
    return loss


def roi_loss_f64(levels, proposals_per_image, gt_per_image, tensors,
                 pool=4, fg_iou=0.5):
    """Float64 re-implementation of the ROI head loss.

    ``levels`` are plain float64 arrays for strides 2/4/8; ``tensors`` maps
    the roi.* parameter names to float64 arrays. Mirrors the documented
    conventions (area-based level routing, bin-center bilinear sampling,
    shared-MLP heads, per-coordinate smooth-L1 over foreground rows).
    """
    strides = (2, 4, 8)
    rows, labels, targets, masks = [], [], [], []
    grid = (np.arange(pool) + 0.5) / pool
    order = []  # (level, ...) grouping must match the library's row order
    for lvl_want in (1, 2, 3):
        for img, props in enumerate(proposals_per_image):
            for j, box in enumerate(props):
                x, y, w, h = [float(v) for v in box]
                lvl = min(max(int(np.floor(np.log2(max(np.sqrt(w * h), 1e-9) / 16.0))) + 1, 1), 3)
                if lvl != lvl_want:
                    continue
                order.append((img, j))
                s = strides[lvl - 1]
                f = levels[lvl - 1][img]
                _, fh, fw = f.shape
                xs = np.clip(x / s + grid * max(w / s, 1e-3), 0.0, fw - 1.0)
                ys = np.clip(y / s + grid * max(h / s, 1e-3), 0.0, fh - 1.0)
                x0 = np.floor(xs).astype(int)
                y0 = np.floor(ys).astype(int)
                x1 = np.minimum(x0 + 1, fw - 1)
                y1 = np.minimum(y0 + 1, fh - 1)
                fx, fy = xs - x0, ys - y0
                v = (f[:, y0[:, None], x0[None, :]] * ((1 - fy)[:, None] * (1 - fx)[None, :])
                     + f[:, y0[:, None], x1[None, :]] * ((1 - fy)[:, None] * fx[None, :])
                     + f[:, y1[:, None], x0[None, :]] * (fy[:, None] * (1 - fx)[None, :])
                     + f[:, y1[:, None], x1[None, :]] * (fy[:, None] * fx[None, :]))
                rows.append(v.reshape(-1))

                gt_boxes, gt_classes = gt_per_image[img]
                label = 0
                t = None
                if len(gt_boxes):
                    ious = [iou_slow(box, g) for g in gt_boxes]
                    g = int(np.argmax(ious))
                    if ious[g] >= fg_iou:
                        label = int(gt_classes[g])
                        gx, gy, gw, gh = [float(v) for v in gt_boxes[g]]
                        cx, cy = x + w / 2, y + h / 2
                        gcx, gcy = gx + gw / 2, gy + gh / 2
                        t = np.array([(gcx - cx) / w, (gcy - cy) / h,
                                      np.log(gw / w), np.log(gh / h)])
                labels.append(label)
                targets.append((label, t))

    feats = np.stack(rows)
    hid = np.maximum(feats @ tensors["roi.fc.w"] + tensors["roi.fc.b"], 0.0)
    cls = hid @ tensors["roi.cls.w"] + tensors["roi.cls.b"]
    reg = hid @ tensors["roi.reg.w"] + tensors["roi.reg.b"]

    lse = np.log(np.exp(cls - cls.max(1, keepdims=True)).sum(1)) + cls.max(1)
    ce = lse - cls[np.arange(len(labels)), labels]
    loss = ce.mean()

    n_fg = max(sum(1 for l in labels if l > 0), 1)
    reg_sum = 0.0
    for row, (label, t) in enumerate(targets):
        if label == 0 or t is None:
            continue
        d = reg[row, 4 * (label - 1): 4 * label] - t
        reg_sum += np.where(np.abs(d) < 1, 0.5 * d * d, np.abs(d) - 0.5).sum()
    return loss + reg_sum / (4.0 * n_fg)


def rpn_labels_loops(anchors, gt, pos_iou=0.7, neg_iou=0.3):
    """Anchor labels (1, 0, -1) and matched gt index (-1 if none) of the
    documented rule, one gt box at a time: an anchor's best IoU decides,
    and each gt box's best anchors (within 1e-9) are positive."""
    ax1 = anchors[:, 0] - anchors[:, 2] / 2
    ay1 = anchors[:, 1] - anchors[:, 3] / 2
    ax2, ay2 = ax1 + anchors[:, 2], ay1 + anchors[:, 3]
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
    a = len(anchors)
    labels, matched = np.zeros(a, dtype=np.int64), np.full(a, -1)
    if not len(gt):
        return labels, matched
    ious = np.zeros((len(gt), a))
    for g, (x, y, w, h) in enumerate(gt):
        iw = np.clip(np.minimum(ax2, x + w) - np.maximum(ax1, x), 0, None)
        ih = np.clip(np.minimum(ay2, y + h) - np.maximum(ay1, y), 0, None)
        inter = iw * ih
        ious[g] = inter / (anchors[:, 2] * anchors[:, 3] + w * h - inter)
    best = ious.max(axis=0)
    labels[:] = -1
    labels[best <= neg_iou] = 0
    labels[best >= pos_iou] = 1
    for row in ious:
        if row.max() > 0:
            labels[row >= row.max() - 1e-9] = 1
    matched[labels == 1] = ious.argmax(axis=0)[labels == 1]
    return labels, matched


def rpn_loss_f64(logits, deltas, anchors, gt_per_image, rng, samples=32,
                 pos_fraction=0.5):
    """Float64 RPN loss of a flow and its gradients, written out per image.

    ``logits``/``deltas`` are (N, A) and (N, A, 4) arrays, ``anchors`` the
    (A, 4) cx, cy, w, h rows and ``gt_per_image`` one list of xywh boxes per
    image. Anchors are labelled by :func:`rpn_labels_loops` and sampled
    with the library's ``rng.choice`` calls in its order, so the same
    generator state gives the same sample. Returns (loss, g_logits,
    g_deltas, m_logits, m_deltas): the m arrays are the magnitude each
    gradient element's float32 rounding scales with, c * (sigmoid + target)
    and c * min(|delta| + |target|, 1) for its per-image factor c, where the
    differences that make the gradient can cancel.
    """
    logits = np.asarray(logits, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    n, a = logits.shape
    loss = 0.0
    g_logits, m_logits = np.zeros((n, a)), np.zeros((n, a))
    g_deltas, m_deltas = np.zeros((n, a, 4)), np.zeros((n, a, 4))
    for i, gt in enumerate(gt_per_image):
        gt = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
        labels, matched = rpn_labels_loops(anchors, gt)
        pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
        if len(pos) > int(samples * pos_fraction):
            pos = rng.choice(pos, size=int(samples * pos_fraction),
                             replace=False)
        if len(neg) > samples - len(pos):
            neg = rng.choice(neg, size=samples - len(pos), replace=False)

        c = 1.0 / (n * max(len(pos) + len(neg), 1))
        for j in np.concatenate([pos, neg]):
            x, t = logits[i, j], float(j in pos)
            s = 1.0 / (1.0 + np.exp(-x))
            loss += c * (max(x, 0.0) - x * t + np.log1p(np.exp(-abs(x))))
            g_logits[i, j], m_logits[i, j] = c * (s - t), c * (s + t)
        if not len(pos):
            continue
        c = 1.0 / (n * 4.0 * len(pos))
        for j in pos:
            x, y, w, h = gt[matched[j]]
            cx, cy, aw, ah = anchors[j]
            t = np.array([(x + w / 2 - cx) / aw, (y + h / 2 - cy) / ah,
                          np.log(w / aw), np.log(h / ah)])
            d = deltas[i, j] - t
            loss += c * np.where(np.abs(d) < 1, 0.5 * d * d,
                                 np.abs(d) - 0.5).sum()
            g_deltas[i, j] = c * np.clip(d, -1.0, 1.0)
            m_deltas[i, j] = c * np.minimum(np.abs(deltas[i, j]) + np.abs(t),
                                            1.0)
    return loss, g_logits, g_deltas, m_logits, m_deltas


def gram_loops(feature):
    """Gram matrix by explicit loops over channels and positions."""
    n, c, h, w = feature.shape
    g = np.zeros((c, c), dtype=np.float64)
    for img in range(n):
        for a in range(c):
            for b in range(c):
                s = 0.0
                for i in range(h):
                    for j in range(w):
                        s += float(feature[img, a, i, j]) * float(feature[img, b, i, j])
                g[a, b] += s
    return g / n


def sacm_loss_loops(f_s, f_t):
    d = gram_loops(f_t) - gram_loops(f_s)
    total = 0.0
    for a in range(d.shape[0]):
        for b in range(d.shape[1]):
            total += d[a, b] ** 2
    return total


# ---------------------------------------------------------------------------
# brute-force AP/AR evaluator (mirrors the COCO-style conventions of the
# fast evaluator but via naive per-instance loops)

IOUS = [round(0.5 + 0.05 * i, 2) for i in range(10)]


def iou_slow(a, b):
    ax1, ay1, ax2, ay2 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx1, by1, bx2, by2 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def _match_slow(dets, gts, ignore, thresh):
    """dets: [(box, score)] sorted outside; returns det statuses."""
    taken = [False] * len(gts)
    status = []
    for box, score in dets:
        best, best_v = -1, thresh - 1e-12
        for g, gt in enumerate(gts):
            if taken[g] or ignore[g]:
                continue
            v = iou_slow(box, gt)
            if v > best_v:
                best, best_v = g, v
        if best >= 0:
            taken[best] = True
            status.append(1)
            continue
        besti, besti_v = -1, thresh - 1e-12
        for g, gt in enumerate(gts):
            if taken[g] or not ignore[g]:
                continue
            v = iou_slow(box, gt)
            if v > besti_v:
                besti, besti_v = g, v
        if besti >= 0:
            taken[besti] = True
            status.append(-1)
        else:
            status.append(0)
    return status


def _ap_slow(pooled, n_gt):
    """pooled: list of (score, order_key, status) across images."""
    pooled = sorted(pooled, key=lambda r: (-r[0], r[1]))
    st = [s for _, _, s in pooled if s >= 0]
    if n_gt == 0:
        return None, None
    if not st:
        return 0.0, 0.0
    tp = fp = 0
    pr = []
    for s in st:
        if s == 1:
            tp += 1
        else:
            fp += 1
        pr.append((tp / n_gt, tp / (tp + fp)))
    best_per_point = []
    for k in range(101):
        r = k / 100.0
        best = 0.0
        for rec, prec in pr:
            if rec >= r and prec > best:
                best = prec
        best_per_point.append(best)
    # same pairwise-summation mean as the library so values match exactly
    return float(np.mean(best_per_point)), pr[-1][0]


def evaluate_slow(dets, gts, area_lo=0.0, area_hi=float("inf"), max_dets=100):
    """AP/AR per the fast evaluator's conventions, computed naively.

    dets: per image, (boxes, scores, classes); gts: per image,
    (boxes, classes). Returns dict with ap50, ap, ar.
    """
    classes = sorted(
        {int(c) for _, _, cs in dets for c in cs}
        | {int(c) for _, cs in gts for c in cs}
    )
    ap_per, rec_per = {t: [] for t in IOUS}, {t: [] for t in IOUS}
    for c in classes:
        n_gt = 0
        per_t = {t: [] for t in IOUS}
        for img, ((dboxes, dscores, dclasses), (gboxes, gclasses)) in enumerate(
            zip(dets, gts)
        ):
            g = [b for b, gc in zip(gboxes, gclasses) if int(gc) == c]
            ignore = [not (area_lo <= b[2] * b[3] < area_hi) for b in g]
            n_gt += sum(1 for i in ignore if not i)
            d = [
                (b, s, k)
                for k, (b, s, dc) in enumerate(zip(dboxes, dscores, dclasses))
                if int(dc) == c
            ]
            d.sort(key=lambda r: (-r[1], r[2]))
            d = d[:max_dets]
            for t in IOUS:
                status = _match_slow([(b, s) for b, s, _ in d], g, ignore, t)
                for (b, s, k), stt in zip(d, status):
                    per_t[t].append((s, (img, k), stt))
        if n_gt == 0:
            continue
        for t in IOUS:
            ap, rec = _ap_slow(per_t[t], n_gt)
            ap_per[t].append(ap)
            rec_per[t].append(rec)
    flat_ap = [v for t in IOUS for v in ap_per[t]]
    flat_rec = [v for t in IOUS for v in rec_per[t]]
    return {
        "ap50": float(np.mean(ap_per[0.5])) if ap_per[0.5] else 0.0,
        "ap": float(np.mean(flat_ap)) if flat_ap else 0.0,
        "ar": float(np.mean(flat_rec)) if flat_rec else 0.0,
    }


# ---------------------------------------------------------------------------
# per-row NMS, per-class detection assembly and per-ROI pooling, one box,
# class or ROI at a time


def nms_loops(boxes, scores, thresh, max_keep=None):
    """Greedy NMS one pair at a time: visit boxes by (-score, x, y, w, h),
    keep each alive one and suppress every later alive box whose IoU with
    it exceeds ``thresh``; stop after ``max_keep`` kept boxes."""
    boxes = [tuple(float(v) for v in b) for b in boxes]
    order = sorted(range(len(boxes)), key=lambda i: (-float(scores[i]),) + boxes[i])
    alive = [True] * len(boxes)
    keep = []
    for pos, i in enumerate(order):
        if not alive[i]:
            continue
        if max_keep is not None and len(keep) == max_keep:
            break
        keep.append(i)
        for j in order[pos + 1:]:
            if alive[j] and iou_slow(boxes[i], boxes[j]) > thresh:
                alive[j] = False
    return keep


def roi_predict_loops(fpn_levels, proposals_per_image, params, num_classes):
    """``detect.roi_predict`` as first written: the same scores and refined
    boxes, then one NMS call per image and class, and a stable sort of each
    image's class-major kept list by descending score."""
    from sfadet import detect

    def empty():
        return detect.DetectionSet(np.zeros((0, 4)), np.zeros(0),
                                   np.zeros(0, np.int64))

    n_images = len(proposals_per_image)
    if all(len(p) == 0 for p in proposals_per_image):
        return [empty() for _ in range(n_images)]
    features, images, boxes = detect._roi_features(fpn_levels,
                                                   proposals_per_image)
    cls_logits, reg = detect._roi_mlp(features, params)
    logits = cls_logits.data.astype(np.float64)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    fg = probs[:, 1:num_classes + 1]
    rows, cols = np.nonzero(~((fg <= probs[:, :1])
                              | (fg < detect.SCORE_FLOOR)))
    deltas = reg.data.reshape(len(images), -1, 4)[rows, cols]
    all_boxes = detect.decode_deltas(deltas,
                                     detect.xywh_to_cxcywh(boxes[rows]))
    all_scores = fg[rows, cols]
    all_classes = cols + 1
    det_images = images[rows]

    out = []
    for img in range(n_images):
        sel = det_images == img
        if not sel.any():
            out.append(empty())
            continue
        boxes_i, scores_i = all_boxes[sel], all_scores[sel]
        classes_i = all_classes[sel]
        kept_all = []
        for c in np.unique(classes_i):
            idx = np.flatnonzero(classes_i == c)
            keep = detect.nms(boxes_i[idx], scores_i[idx], detect.DET_NMS_IOU)
            kept_all.extend(idx[keep])
        kept_all = np.array(kept_all, dtype=np.int64)
        order = np.argsort(-scores_i[kept_all], kind="stable")
        kept = kept_all[order[:detect.MAX_DETS]]
        out.append(detect.DetectionSet(boxes_i[kept], scores_i[kept],
                                       classes_i[kept]))
    return out


def jitter_loops(gt_boxes, rng):
    """Four jittered copies of each xywh gt box, one scalar draw at a time:
    per copy, w and h factors from U(0.5, 1.6), then x and y shifts from
    U(-0.35, 0.35)."""
    out = []
    for x, y, w, h in gt_boxes:
        for _ in range(4):
            jw = max(2.0, w * rng.uniform(0.5, 1.6))
            jh = max(2.0, h * rng.uniform(0.5, 1.6))
            jx = x + rng.uniform(-0.35, 0.35) * w
            jy = y + rng.uniform(-0.35, 0.35) * h
            out.append([jx, jy, jw, jh])
    return np.array(out, dtype=np.float64).reshape(-1, 4)


def roi_pool_loops(feat, rois, s, g):
    """Bilinear ROI pooling one ROI at a time, and the scatter of the
    output gradient ``g`` back onto ``feat`` one ROI and one tap at a time.

    Returns (out, grad) as float32 arrays.
    """
    n, c, h, w = feat.shape
    rois = np.asarray(rois, dtype=np.float32).reshape(-1, 5)
    out = np.zeros((len(rois), c, s, s), dtype=np.float32)
    grad = np.zeros_like(feat)
    grid = (np.arange(s, dtype=np.float32) + 0.5) / s
    for i, (bi, x1, y1, x2, y2) in enumerate(rois):
        bi = int(bi)
        xs = np.clip(x1 + grid * max(x2 - x1, 1e-3), 0.0, w - 1.0)
        ys = np.clip(y1 + grid * max(y2 - y1, 1e-3), 0.0, h - 1.0)
        x0 = np.floor(xs).astype(np.int64)
        y0 = np.floor(ys).astype(np.int64)
        x1i = np.minimum(x0 + 1, w - 1)
        y1i = np.minimum(y0 + 1, h - 1)
        fx, fy = xs - x0, ys - y0
        taps = (
            (y0, x0, (1 - fy)[:, None] * (1 - fx)[None, :]),
            (y0, x1i, (1 - fy)[:, None] * fx[None, :]),
            (y1i, x0, fy[:, None] * (1 - fx)[None, :]),
            (y1i, x1i, fy[:, None] * fx[None, :]),
        )
        t00, t01, t10, t11 = (feat[bi][:, yy[:, None], xx[None, :]] * wt
                              for yy, xx, wt in taps)
        out[i] = t00 + t01 + t10 + t11
        for yy, xx, wt in taps:
            np.add.at(grad[bi], (slice(None), yy[:, None], xx[None, :]), g[i] * wt)
    return out, grad


# ---------------------------------------------------------------------------
# dense kernels as first written: batch-major im2col with np.pad, one GEMM
# per image, einsum weight gradient, reshape-sum upsample backward and a
# two-pass standardize. The library's kernels must match them bit for bit.


def same_bits(got, want):
    """Same dtype, shape and bytes: equal values, signed zeros included."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _im2col_batch_major(x, k, stride, padding):
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    s = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, ho, wo),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
        writeable=False,
    )
    return np.ascontiguousarray(cols).reshape(n, c * k * k, ho * wo), ho, wo


def conv2d_batch_major(x, w, b, g, stride, padding):
    """Float32 conv2d forward and, for output gradient ``g``, the input,
    weight and bias gradients. Returns (out, gx, gw, gb)."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    cols, ho, wo = _im2col_batch_major(x, k, stride, padding)
    wmat = w.reshape(o, c * k * k)
    out = np.matmul(wmat, cols) + b.reshape(1, o, 1)
    out = out.reshape(n, o, ho, wo)
    gout = g.reshape(n, o, ho * wo)
    gw = np.einsum("nop,ncp->oc", gout, cols, optimize=True).reshape(o, c, k, k)
    gb = gout.sum(axis=(0, 2))
    gcols = np.matmul(wmat.T, gout).reshape(n, c, k, k, ho, wo)
    hp, wp = h + 2 * padding, wd + 2 * padding
    gx = np.zeros((n, c, hp, wp), dtype=np.float32)
    for ki in range(k):
        for kj in range(k):
            gx[:, :, ki : ki + stride * ho : stride,
               kj : kj + stride * wo : stride] += gcols[:, :, ki, kj]
    if padding:
        gx = gx[:, :, padding:-padding, padding:-padding]
    return out, gx, gw, gb


def conv2d_up2_keep_columns(x, w, b, g):
    """The sub-pixel conv of ``conv2d(..., upsample=2)`` as first written:
    the forward keeps its (4, C*2*2, N*H*(W+2)) phase columns for the
    weight gradient and adds the bias in a pass of its own. Returns the
    float32 (out, gx, gw, gb) for output gradient ``g``."""
    n, c, h, wd = x.shape
    o = w.shape[0]
    wp = wd + 2
    grid, m = (h + 2) * wp, h * wp
    p = n * m
    wf = _fold3(_fold3(w).swapaxes(-1, -2)).swapaxes(-1, -2)
    wf = wf.reshape(4, o, 4 * c)
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
    cols = np.ascontiguousarray(cols).reshape(4, 4 * c, p)
    res = np.matmul(wf, cols).reshape(2, 2, o, n, h, wp)[..., :wd]
    out = np.empty((n, o, 2 * h, 2 * wd), dtype=np.float32)
    out6 = out.reshape(n, o, h, 2, wd, 2)
    for a in range(2):
        for bb in range(2):
            out6[:, :, :, a, :, bb] = res[a, bb].transpose(1, 0, 2, 3)
    out += b.reshape(o, 1, 1)

    gb = g.reshape(n, o, 4 * h * wd).sum(axis=(0, 2))
    g6 = g.reshape(n, o, h, 2, wd, 2)
    g4 = np.empty((2, 2, o, n, h, wp), dtype=np.float32)
    g4[..., wd:] = 0
    for a in range(2):
        for bb in range(2):
            g4[a, bb, ..., :wd] = g6[:, :, :, a, :, bb].transpose(1, 0, 2, 3)
    g4 = g4.reshape(4, o, p)
    gwf = np.matmul(cols, g4.transpose(0, 2, 1)).transpose(0, 2, 1)
    gwf = gwf.reshape(2, 2, o, c, 2, 2)
    gw = _unfold3(_unfold3(gwf.swapaxes(-1, -2)).swapaxes(-1, -2))
    gcols = np.matmul(wf.transpose(0, 2, 1), g4).reshape(2, 2, c, 2, 2, n, m)
    gxpf = np.zeros((c, n, grid + 2), dtype=np.float32)
    for r in range(3):
        for q in range(3):
            parts = [gcols[a, bb, :, r - a, q - bb]
                     for a in range(max(0, r - 1), min(r, 1) + 1)
                     for bb in range(max(0, q - 1), min(q, 1) + 1)]
            off = r * wp + q
            gxpf[:, :, off:off + m] += sum(parts[1:], parts[0])
    gxp = gxpf[:, :, :grid].reshape(c, n, h + 2, wp)
    gx = np.ascontiguousarray(gxp[:, :, 1:h + 1, 1:wd + 1].transpose(1, 0, 2, 3))
    return out, gx, gw, gb


def upsample_nearest2d_grad_reshape(g, factor):
    """Input gradient of nearest upsampling by ``factor`` for an NCHW
    output gradient ``g``."""
    n, c, hf, wf = g.shape
    h, w = hf // factor, wf // factor
    return g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)).astype(np.float32)


def standardize_cube_two_pass(values):
    v = np.asarray(values, dtype=np.float32)
    mean = v.mean(axis=(1, 2), keepdims=True, dtype=np.float64)
    std = v.std(axis=(1, 2), keepdims=True, dtype=np.float64)
    return ((v - mean) / (std + 1e-6)).astype(np.float32)


def backward_whole_tape(root, grad=None):
    """``Tensor.backward`` as first written: every node's backward runs in
    reverse tape order, only the interior grads are freed, and every node
    keeps its closure, so all the buffers the forward saved stay alive
    until the graph is dropped. Training with it in place of the library's
    consuming sweep must give the same bits."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for p in stack.pop()._prev:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    nodes = list(seen.values())
    for t in nodes:
        if t.requires_grad and not t._prev and t.grad is not None:
            raise GradError("leaf already has a grad from a previous backward")
    if grad is None:
        grad = np.ones_like(root.data)
    root.grad = np.asarray(grad, dtype=np.float32)
    for t in sorted(nodes, key=lambda n: n._id, reverse=True):
        if t._bw is not None and t.grad is not None:
            t._bw(t.grad)
            if t._prev and t is not root:
                t.grad = None


# ---------------------------------------------------------------------------
# one-field mutations of a JSON record, for the readers' fuzz properties

class _Dropped:
    def __repr__(self):
        return "DROPPED"


DROPPED = _Dropped()  # the field was removed
JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False), st.just(1e30),
    st.just(float("nan")), st.just(2**63), st.just(-2**63 - 1),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def mutate_field(data, record):
    """Drop one field of ``record`` or give it a value drawn from
    JSON_JUNK, in place; returns (key, new value or DROPPED)."""
    key = data.draw(st.sampled_from(sorted(record)))
    value = data.draw(st.one_of(st.just(DROPPED), JSON_JUNK))
    if value is DROPPED:
        del record[key]
    else:
        record[key] = value
    return key, value


# ---------------------------------------------------------------------------
# the model's initial draws, as first written layer by layer


def _conv_init_by_hand(rng, out_c, in_c, k):
    std = np.sqrt(2.0 / (in_c * k * k))
    return (rng.normal(0.0, std, size=(out_c, in_c, k, k)).astype(np.float32),
            np.zeros(out_c, dtype=np.float32))


def init_ssam_by_hand(in_bands, rng):
    """The backbone's He-normal weights and zero biases, in draw order:
    encoder, decoder, pyramid (each lateral before its smoother), domain
    classifier."""
    t = {}
    c_prev = in_bands
    for i, c in enumerate((16, 32, 64), start=1):
        t[f"enc{i}.w"], t[f"enc{i}.b"] = _conv_init_by_hand(rng, c, c_prev, 3)
        c_prev = c
    for i, c in enumerate((32, 16, in_bands), start=1):
        t[f"dec{i}.w"], t[f"dec{i}.b"] = _conv_init_by_hand(rng, c, c_prev, 3)
        c_prev = c
    for i, c in enumerate((16, 32, 64), start=1):
        t[f"lat{i}.w"], t[f"lat{i}.b"] = _conv_init_by_hand(rng, 32, c, 1)
        t[f"out{i}.w"], t[f"out{i}.b"] = _conv_init_by_hand(rng, 32, 32, 3)
    t["dc1.w"], t["dc1.b"] = _conv_init_by_hand(rng, 16, 32, 1)
    t["dc2.w"], t["dc2.b"] = _conv_init_by_hand(rng, 16, 16, 1)
    t["dc3.w"], t["dc3.b"] = _conv_init_by_hand(rng, 1, 16, 1)
    return t


def init_detect_by_hand(num_classes, rng):
    """The RPN's three convs, then the ROI head's three dense layers, each
    weight He-normal with std sqrt(2 / fan-in) and each bias zero."""
    t = {}
    t["rpn.conv.w"], t["rpn.conv.b"] = _conv_init_by_hand(rng, 32, 32, 3)
    t["rpn.obj.w"], t["rpn.obj.b"] = _conv_init_by_hand(rng, 3, 32, 1)
    t["rpn.reg.w"], t["rpn.reg.b"] = _conv_init_by_hand(rng, 12, 32, 1)
    for name, (fan_in, out) in (("roi.fc", (512, 64)),
                                ("roi.cls", (64, num_classes + 1)),
                                ("roi.reg", (64, 4 * num_classes))):
        std = np.sqrt(2.0 / fan_in)
        t[f"{name}.w"] = rng.normal(0, std, size=(fan_in, out)).astype(
            np.float32)
        t[f"{name}.b"] = np.zeros(out, dtype=np.float32)
    return t


# ---------------------------------------------------------------------------
# the scene renderer as first written: full-cube gain, offset and noise
# draw, each a new array, then a float32 copy of the finished cube


def render_scene_full_cube(cfg, rng, mats, bgs, domain):
    size = cfg.image_size
    bands = cfg.source_bands if domain == "source" else cfg.target_bands
    scale = cfg.source_scale if domain == "source" else cfg.target_scale
    noise = cfg.noise_source if domain == "source" else cfg.noise_target
    wl = np.linspace(0.0, 1.0, bands)

    bg = bgs[rng.integers(len(bgs))](wl).astype(np.float32)
    cube = np.broadcast_to(bg[:, None, None], (bands, size, size)).copy()
    ramp = 1.0 + 0.1 * np.linspace(-1, 1, size)[None, None, :] * rng.uniform(-1, 1)
    cube *= ramp.astype(np.float32)

    boxes, classes = [], []
    n_obj = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    for _ in range(n_obj):
        side_lo = max(4, int(cfg.min_object_frac * size * scale))
        side_hi = max(side_lo + 1, int(cfg.max_object_frac * size * scale))
        w = int(rng.integers(side_lo, side_hi + 1))
        h = int(rng.integers(side_lo, side_hi + 1))
        w, h = min(w, size - 2), min(h, size - 2)
        x = int(rng.integers(0, size - w))
        y = int(rng.integers(0, size - h))
        mi = int(rng.integers(len(mats)))
        sig = mats[mi](wl).astype(np.float32)
        yy, xx = np.mgrid[0:h, 0:w]
        if rng.random() < 0.5:
            mask = np.ones((h, w), dtype=bool)
        else:
            mask = ((yy - (h - 1) / 2) / (h / 2)) ** 2 + (
                (xx - (w - 1) / 2) / (w / 2)
            ) ** 2 <= 1.0
        region = cube[:, y : y + h, x : x + w]
        region[:, mask] = sig[:, None]
        boxes.append((float(x), float(y), float(w), float(h)))
        classes.append(mi + 1)

    if domain == "target":
        cube = cube * cfg.target_gain + cfg.target_offset
    cube += rng.normal(0.0, noise, size=cube.shape).astype(np.float32)
    res = 4.5 if domain == "source" else 2.2
    return HyperCube(cube.astype(np.float32), spectral_resolution=res), boxes, classes
