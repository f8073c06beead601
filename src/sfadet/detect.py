"""Anchor-based detection heads: a light RPN over the three pyramid levels
and a small ROI head with bilinear 4x4 pooling. Boxes are (x, y, w, h) in
pixels with a top-left origin unless noted; anchors are (cx, cy, w, h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .ssam import FPN_WIDTH, _conv_init

STRIDES = (2, 4, 8)
BASE_SIZES = (16, 32, 64)
ASPECT_RATIOS = (0.5, 1.0, 2.0)
ROI_POOL = 4
ROI_HIDDEN = 64


@dataclass
class DetectionSet:
    """Scored, class-labeled boxes for one image, sorted by descending score."""

    boxes: np.ndarray    # (K, 4) xywh
    scores: np.ndarray   # (K,)
    classes: np.ndarray  # (K,) 1-based category ids

    def __len__(self):
        return len(self.scores)


def detections_to_json(dets, image_ids):
    out = []
    for det, img in zip(dets, image_ids):
        for box, score, cls in zip(det.boxes, det.scores, det.classes):
            out.append({
                "image_id": int(img),
                "bbox": [round(float(v), 3) for v in box],
                "score": round(float(score), 5),
                "category_id": int(cls),
            })
    return out


# ---------------------------------------------------------------------------
# geometry


def _corners(boxes):
    """(x1, y1, x2, y2, area) columns of (N, 4) xywh boxes."""
    b = np.atleast_2d(np.asarray(boxes, dtype=np.float64))
    return b[:, 0], b[:, 1], b[:, 0] + b[:, 2], b[:, 1] + b[:, 3], b[:, 2] * b[:, 3]


def _pairwise_iou(a, b):
    """IoU matrix between the boxes of two :func:`_corners` column sets."""
    ax1, ay1, ax2, ay2, a_area = (v[:, None] for v in a)
    bx1, by1, bx2, by2, b_area = (v[None, :] for v in b)
    ix = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    iy = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = ix * iy
    union = a_area + b_area - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def iou_xywh(a, b):
    """Pairwise IoU matrix between (N,4) and (M,4) xywh boxes."""
    return _pairwise_iou(_corners(a), _corners(b))


def xywh_to_cxcywh(boxes):
    boxes = np.asarray(boxes, dtype=np.float64)
    out = boxes.copy()
    out[..., 0] = boxes[..., 0] + boxes[..., 2] / 2
    out[..., 1] = boxes[..., 1] + boxes[..., 3] / 2
    return out


def cxcywh_to_xywh(boxes):
    boxes = np.asarray(boxes, dtype=np.float64)
    out = boxes.copy()
    out[..., 0] = boxes[..., 0] - boxes[..., 2] / 2
    out[..., 1] = boxes[..., 1] - boxes[..., 3] / 2
    return out


def encode_deltas(gt_xywh, anchors_cxcywh):
    """Regression targets (dx, dy, dw, dh) from anchors to ground truth."""
    g = xywh_to_cxcywh(gt_xywh)
    a = np.asarray(anchors_cxcywh, dtype=np.float64)
    return np.stack(
        [
            (g[..., 0] - a[..., 0]) / a[..., 2],
            (g[..., 1] - a[..., 1]) / a[..., 3],
            np.log(g[..., 2] / a[..., 2]),
            np.log(g[..., 3] / a[..., 3]),
        ],
        axis=-1,
    )


def decode_deltas(deltas, anchors_cxcywh):
    """Inverse of :func:`encode_deltas`; returns xywh boxes."""
    d = np.asarray(deltas, dtype=np.float64)
    a = np.asarray(anchors_cxcywh, dtype=np.float64)
    dw = np.clip(d[..., 2], -8.0, 8.0)
    dh = np.clip(d[..., 3], -8.0, 8.0)
    cx = a[..., 0] + d[..., 0] * a[..., 2]
    cy = a[..., 1] + d[..., 1] * a[..., 3]
    w = a[..., 2] * np.exp(dw)
    h = a[..., 3] * np.exp(dh)
    return cxcywh_to_xywh(np.stack([cx, cy, w, h], axis=-1))


def generate_anchors(level_shapes):
    """Anchor (cx, cy, w, h) rows of all pyramid levels, as one (A, 4) array.

    ``level_shapes`` is a list of (H, W) feature-map shapes for strides
    2/4/8. Each location gets one anchor per aspect ratio at the level's
    base size (equal-area family). Rows run level by level, then row-major
    over locations, then over aspect ratios: the order of
    :func:`rpn_forward`'s outputs.
    """
    out = []
    for (h, w), stride, base in zip(level_shapes, STRIDES, BASE_SIZES):
        ys = (np.arange(h) + 0.5) * stride
        xs = (np.arange(w) + 0.5) * stride
        cy, cx = np.meshgrid(ys, xs, indexing="ij")
        anchors = np.zeros((h, w, len(ASPECT_RATIOS), 4))
        for k, r in enumerate(ASPECT_RATIOS):
            aw = base / np.sqrt(r)
            ah = base * np.sqrt(r)
            anchors[..., k, 0] = cx
            anchors[..., k, 1] = cy
            anchors[..., k, 2] = aw
            anchors[..., k, 3] = ah
        out.append(anchors.reshape(-1, 4))
    return np.concatenate(out, axis=0)


def levels_for_boxes(boxes_xywh):
    """Scale-to-level heuristic per (K, 4) xywh row:
    clamp(floor(log2(sqrt(area)/16)) + 1, 1, 3)."""
    b = np.asarray(boxes_xywh, dtype=np.float64).reshape(-1, 4)
    area = np.maximum(b[:, 2] * b[:, 3], 1e-6)
    lvl = np.floor(np.log2(np.sqrt(area) / 16.0)).astype(np.int64) + 1
    return np.clip(lvl, 1, 3)


# candidates whose IoU rows one numpy pass computes: larger blocks waste
# rows on candidates an earlier one suppresses, smaller ones pay more
# per-call overhead (16 was fastest on 400-box inference NMS)
NMS_BLOCK = 16


def nms(boxes, scores, iou_thresh, max_keep=None):
    """Greedy NMS; returns kept indices in descending score order.

    With ``max_keep`` the pass stops once that many boxes are kept; the
    result is the same prefix the full pass would return.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("nms: non-finite scores")
    # tie-break on (-score, x, y, w, h) for order independence
    order = np.lexsort(
        (boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0], -scores))
    corners = _corners(boxes[order])
    n = len(order)
    limit = n if max_keep is None else max_keep
    alive = np.ones(n, dtype=bool)
    keep = []
    start = 0   # sorted positions before ``start`` are decided
    while len(keep) < limit:
        # the next alive boxes in score order, and their IoU rows against
        # every box from the first of them on
        cand = np.flatnonzero(alive[start:])[
            :min(NMS_BLOCK, limit - len(keep))] + start
        if not len(cand):
            break
        c0 = cand[0]
        spared = ~(_pairwise_iou([v[cand] for v in corners],
                                 [v[c0:] for v in corners]) > iou_thresh)
        # greedy within the block: a candidate an earlier one suppressed is
        # skipped, a kept one suppresses the alive boxes after it
        for row, pos in enumerate(cand.tolist()):
            if alive[pos]:
                keep.append(pos)
                alive[pos + 1:] &= spared[row, pos + 1 - c0:]
        start = cand[-1] + 1
    return order[np.array(keep, dtype=np.int64)]


# ---------------------------------------------------------------------------
# parameters


def init_detect_params(num_classes, rng):
    """Learnable tensors for the RPN and ROI heads, keyed by name."""
    t = {}
    t["rpn.conv.w"], t["rpn.conv.b"] = _conv_init(rng, FPN_WIDTH, FPN_WIDTH, 3)
    t["rpn.obj.w"], t["rpn.obj.b"] = _conv_init(rng, len(ASPECT_RATIOS), FPN_WIDTH, 1)
    t["rpn.reg.w"], t["rpn.reg.b"] = _conv_init(
        rng, 4 * len(ASPECT_RATIOS), FPN_WIDTH, 1
    )
    feat_dim = FPN_WIDTH * ROI_POOL * ROI_POOL
    std = np.sqrt(2.0 / feat_dim)
    t["roi.fc.w"] = Tensor(
        rng.normal(0, std, size=(feat_dim, ROI_HIDDEN)), requires_grad=True
    )
    t["roi.fc.b"] = Tensor(np.zeros(ROI_HIDDEN), requires_grad=True)
    std2 = np.sqrt(2.0 / ROI_HIDDEN)
    t["roi.cls.w"] = Tensor(
        rng.normal(0, std2, size=(ROI_HIDDEN, num_classes + 1)), requires_grad=True
    )
    t["roi.cls.b"] = Tensor(np.zeros(num_classes + 1), requires_grad=True)
    t["roi.reg.w"] = Tensor(
        rng.normal(0, std2, size=(ROI_HIDDEN, 4 * num_classes)), requires_grad=True
    )
    t["roi.reg.b"] = Tensor(np.zeros(4 * num_classes), requires_grad=True)
    return t


# ---------------------------------------------------------------------------
# RPN


def rpn_forward(fpn_levels, params):
    """Objectness logits and box deltas for every anchor of every level.

    Returns (logits, deltas): (N, A) and (N, A, 4) tensors whose anchor
    order matches :func:`generate_anchors`.
    """
    if len(fpn_levels) != 3:
        raise ad.ShapeError("rpn_forward: expected 3 pyramid levels")
    logits, deltas = [], []
    a = len(ASPECT_RATIOS)
    for lvl in fpn_levels:
        x = ad.relu(ad.conv2d(lvl, params["rpn.conv.w"], params["rpn.conv.b"],
                              padding=1))
        n, _, h, w = x.shape
        obj = ad.conv2d(x, params["rpn.obj.w"], params["rpn.obj.b"])
        reg = ad.conv2d(x, params["rpn.reg.w"], params["rpn.reg.b"])
        # (N, A, H, W) -> (N, H, W, A) -> flat, matching anchor layout
        obj = ad.reshape(ad.transpose(obj, (0, 2, 3, 1)), (n, h * w * a))
        reg = ad.reshape(
            ad.transpose(ad.reshape(reg, (n, a, 4, h, w)), (0, 3, 4, 1, 2)),
            (n, h * w * a, 4),
        )
        logits.append(obj)
        deltas.append(reg)
    return ad.concat(logits, axis=1), ad.concat(deltas, axis=1)


def assign_anchors(anchors_cxcywh, gt_xywh, pos_iou=0.7, neg_iou=0.3):
    """Anchor labels: 1 positive, 0 negative, -1 ignore; plus matched gt index."""
    n = len(anchors_cxcywh)
    labels = np.zeros(n, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    if len(gt_xywh) == 0:
        return labels, matched
    ious = iou_xywh(cxcywh_to_xywh(anchors_cxcywh), gt_xywh)  # (A, G)
    best_gt = ious.argmax(axis=1)
    best_iou = ious[np.arange(n), best_gt]
    labels[:] = -1
    labels[best_iou <= neg_iou] = 0
    labels[best_iou >= pos_iou] = 1
    # best anchor per gt is always positive
    for g in range(ious.shape[1]):
        top = ious[:, g].max()
        if top > 0:
            labels[ious[:, g] >= top - 1e-9] = 1
    matched[labels == 1] = best_gt[labels == 1]
    return labels, matched


def rpn_loss(logits_flat, deltas_flat, anchors_cxcywh, gt_xywh, rng,
             num_samples=32, pos_fraction=0.5, pos_iou=0.7, neg_iou=0.3):
    """Sampled binary objectness + smooth-L1 box loss for one image.

    ``logits_flat``/``deltas_flat`` are (A,) and (A, 4) tensors, one row
    of :func:`rpn_forward`'s outputs.
    """
    a = len(anchors_cxcywh)
    labels, matched = assign_anchors(anchors_cxcywh, gt_xywh, pos_iou, neg_iou)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    n_pos = min(len(pos), int(num_samples * pos_fraction))
    if len(pos) > n_pos:
        pos = rng.choice(pos, size=n_pos, replace=False)
    n_neg = min(len(neg), num_samples - len(pos))
    if len(neg) > n_neg:
        neg = rng.choice(neg, size=n_neg, replace=False)
    sampled = np.concatenate([pos, neg])
    n_sampled = max(len(sampled), 1)

    cls_mask = np.zeros(a, dtype=np.float32)
    cls_mask[sampled] = 1.0
    targets = np.zeros(a, dtype=np.float32)
    targets[pos] = 1.0
    bce = ad.bce_with_logits(logits_flat, targets)
    cls_term = ad.scale(ad.tsum(ad.mul(bce, Tensor(cls_mask))), 1.0 / n_sampled)

    if len(pos):
        reg_targets = np.zeros((a, 4), dtype=np.float32)
        reg_targets[pos] = encode_deltas(
            np.asarray(gt_xywh)[matched[pos]], anchors_cxcywh[pos]
        )
        reg_mask = np.zeros((a, 4), dtype=np.float32)
        reg_mask[pos] = 1.0
        sl1 = ad.smooth_l1(deltas_flat, reg_targets)
        # per-coordinate mean over positives so the box signal stays strong
        # even when negatives dominate the sample
        reg_term = ad.scale(ad.tsum(ad.mul(sl1, Tensor(reg_mask))),
                            1.0 / (4.0 * len(pos)))
        return ad.add(cls_term, reg_term)
    return cls_term


def rpn_proposals(logits, deltas, anchors, image_shape, pre_nms=200,
                  post_nms=32, nms_thresh=0.7, min_size=2.0):
    """Decode RPN outputs into per-image proposal boxes (xywh).

    ``logits``/``deltas`` are the rpn_forward outputs; ``image_shape`` is
    the (H, W) the boxes are clipped to. Plain numpy path.
    """
    height, width = image_shape
    out = []
    for scores, dts in zip(logits.data, deltas.data):
        boxes = decode_deltas(dts, anchors)
        # clip to image
        x2 = np.clip(boxes[:, 0] + boxes[:, 2], 0, width)
        y2 = np.clip(boxes[:, 1] + boxes[:, 3], 0, height)
        x1 = np.clip(boxes[:, 0], 0, width)
        y1 = np.clip(boxes[:, 1], 0, height)
        boxes = np.stack([x1, y1, x2 - x1, y2 - y1], axis=1)
        valid = (boxes[:, 2] >= min_size) & (boxes[:, 3] >= min_size)
        boxes, scores = boxes[valid], scores[valid]
        if len(boxes) > pre_nms:
            top = np.argpartition(-scores, pre_nms)[:pre_nms]
            boxes, scores = boxes[top], scores[top]
        keep = nms(boxes, scores, nms_thresh, max_keep=post_nms)
        out.append((boxes[keep], scores[keep]))
    return out


# ---------------------------------------------------------------------------
# ROI head


def _roi_features(fpn_levels, proposals_per_image):
    """Pool 4x4 features for every proposal.

    Returns (features, images, boxes): row i of the (R, C*16) features
    pools ``boxes[i]`` (xywh, float64) of image ``images[i]``. Rows are
    grouped by pyramid level, and keep the (image, proposal) order within
    a level.
    """
    per_image = [np.asarray(p, dtype=np.float64).reshape(-1, 4)
                 for p in proposals_per_image]
    images = np.repeat(np.arange(len(per_image)), [len(p) for p in per_image])
    boxes = np.concatenate(per_image, axis=0)
    levels = levels_for_boxes(boxes)
    order = np.argsort(levels, kind="stable")
    images, boxes, levels = images[order], boxes[order], levels[order]
    feats = []
    for lvl in (1, 2, 3):
        sel = levels == lvl
        if not sel.any():
            continue
        stride = STRIDES[lvl - 1]
        b = boxes[sel]
        rois = np.stack([images[sel], b[:, 0] / stride, b[:, 1] / stride,
                         (b[:, 0] + b[:, 2]) / stride,
                         (b[:, 1] + b[:, 3]) / stride], axis=1)
        pooled = ad.roi_pool_bilinear(fpn_levels[lvl - 1],
                                      rois.astype(np.float32), ROI_POOL)
        feats.append(ad.reshape(pooled, (len(rois), -1)))
    features = feats[0] if len(feats) == 1 else ad.concat(feats, axis=0)
    return features, images, boxes


def _roi_mlp(features, params):
    h = ad.relu(ad.add(ad.matmul(features, params["roi.fc.w"]), params["roi.fc.b"]))
    cls = ad.add(ad.matmul(h, params["roi.cls.w"]), params["roi.cls.b"])
    reg = ad.add(ad.matmul(h, params["roi.reg.w"]), params["roi.reg.b"])
    return cls, reg


def roi_loss(fpn_levels, proposals_per_image, gt_per_image, params,
             fg_iou=0.5):
    """Classification + box-refinement loss over all proposals in a batch.

    ``gt_per_image`` is a list of (boxes_xywh, classes) pairs; classes are
    1-based. Proposals should include the gt boxes during training so
    positives exist.
    """
    if all(len(p) == 0 for p in proposals_per_image):
        raise ValueError("roi_loss: no proposals")
    if len(gt_per_image) != len(proposals_per_image):
        raise ValueError(
            f"roi_loss: {len(proposals_per_image)} proposal lists but "
            f"{len(gt_per_image)} ground-truth entries")
    features, images, boxes = _roi_features(fpn_levels, proposals_per_image)
    cls_logits, reg = _roi_mlp(features, params)
    r = len(images)

    labels = np.zeros(r, dtype=np.int64)
    reg_mask = np.zeros((r, reg.shape[1] // 4, 4), dtype=np.float32)
    full_targets = np.zeros((r, reg.shape[1] // 4, 4), dtype=np.float32)
    for img, (gt_boxes, gt_classes) in enumerate(gt_per_image):
        rows = np.flatnonzero(images == img)
        if len(gt_boxes) == 0 or len(rows) == 0:
            continue
        gt_boxes = np.asarray(gt_boxes).reshape(-1, 4)
        ious = iou_xywh(boxes[rows], gt_boxes)
        g = ious.argmax(axis=1)
        fg = ious.max(axis=1) >= fg_iou
        rows, g = rows[fg], g[fg]
        cls = np.asarray(gt_classes, dtype=np.int64)[g]
        labels[rows] = cls
        full_targets[rows, cls - 1] = encode_deltas(
            gt_boxes[g], xywh_to_cxcywh(boxes[rows]))
        reg_mask[rows, cls - 1] = 1.0

    ce = ad.cross_entropy_logits(cls_logits, labels)
    cls_term = ad.tmean(ce)
    sl1 = ad.smooth_l1(reg, full_targets.reshape(r, -1))
    # normalize by foreground count, not total rows, so the refinement
    # signal does not vanish when most proposals are background
    n_fg = max(int((labels > 0).sum()), 1)
    reg_term = ad.scale(ad.tsum(ad.mul(sl1, Tensor(reg_mask.reshape(r, -1)))),
                        1.0 / (4.0 * n_fg))
    return ad.add(cls_term, reg_term)


def _no_detections():
    return DetectionSet(np.zeros((0, 4)), np.zeros(0), np.zeros(0, np.int64))


def roi_predict(fpn_levels, proposals_per_image, params, num_classes,
                score_floor=0.05, nms_thresh=0.5, max_dets=100):
    """Score and refine proposals into final per-image detections.

    A proposal is emitted only when a foreground class strictly beats the
    background score, so an untrained zero head yields no detections.
    """
    n_images = len(proposals_per_image)
    if all(len(p) == 0 for p in proposals_per_image):
        return [_no_detections() for _ in range(n_images)]
    features, images, boxes = _roi_features(fpn_levels, proposals_per_image)
    cls_logits, reg = _roi_mlp(features, params)
    logits = cls_logits.data.astype(np.float64)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)

    fg = probs[:, 1:num_classes + 1]
    # (row, class) pairs in row-major order, as a loop over rows then
    # classes would emit them
    rows, cols = np.nonzero(~((fg <= probs[:, :1]) | (fg < score_floor)))
    deltas = reg.data.reshape(len(images), -1, 4)[rows, cols]
    all_boxes = decode_deltas(deltas, xywh_to_cxcywh(boxes[rows]))
    all_scores = fg[rows, cols]
    all_classes = cols + 1
    det_images = images[rows]

    out = []
    for img in range(n_images):
        sel = det_images == img
        if not sel.any():
            out.append(_no_detections())
            continue
        boxes_i, scores_i = all_boxes[sel], all_scores[sel]
        classes_i = all_classes[sel]
        kept_all = []
        for c in np.unique(classes_i):
            idx = np.flatnonzero(classes_i == c)
            keep = nms(boxes_i[idx], scores_i[idx], nms_thresh)
            kept_all.extend(idx[keep])
        kept_all = np.array(kept_all, dtype=np.int64)
        order = np.argsort(-scores_i[kept_all], kind="stable")[:max_dets]
        kept = kept_all[order]
        out.append(DetectionSet(boxes_i[kept], scores_i[kept], classes_i[kept]))
    return out
