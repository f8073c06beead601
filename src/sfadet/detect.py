"""Anchor-based detection heads: a light RPN over the three pyramid levels
and a small ROI head with bilinear 4x4 pooling. Boxes are (x, y, w, h) in
pixels with a top-left origin unless noted; anchors are (cx, cy, w, h).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .ssam import FPN_WIDTH, STRIDES, init_params

BASE_SIZES = (16, 32, 64)
ASPECT_RATIOS = (0.5, 1.0, 2.0)
ROI_POOL = 4
ROI_HIDDEN = 64
RPN_POS_IOU = 0.7         # an anchor this close to a gt box is positive,
RPN_NEG_IOU = 0.3         # one at most this close to every gt box negative
RPN_SAMPLES = 32          # anchors sampled per image for the RPN loss
RPN_POS_FRACTION = 0.5    # largest share of positives in that sample
PROPOSAL_NMS_IOU = 0.7
PROPOSAL_MIN_SIZE = 2.0   # px, each side of a clipped proposal
ROI_FG_IOU = 0.5          # a proposal this close to a gt box learns its class
SCORE_FLOOR = 0.05        # lowest class score of a detection
DET_NMS_IOU = 0.5         # class-wise NMS of the detections
MAX_DETS = 100            # detections kept per image


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


@functools.cache
def anchors_for(h, w):
    """The (A, 4) anchors of an H x W image, built once per shape.

    Every caller gets the same array, so it is read-only.
    """
    anchors = generate_anchors([(h // s, w // s) for s in STRIDES])
    anchors.flags.writeable = False
    return anchors


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


def nms(boxes, scores, iou_thresh, max_keep=None, groups=None):
    """Greedy NMS; returns kept indices in descending score order.

    With ``max_keep`` the pass stops once that many boxes are kept; the
    result is the same prefix the full pass would return. With ``groups``
    (one integer per box) a box suppresses only boxes of its own group, so
    each group's kept boxes are those a separate pass over it would keep.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("nms: non-finite scores")
    # tie-break on (-score, [group,] x, y, w, h) for order independence
    keys = (boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0])
    if groups is not None:
        keys += (np.asarray(groups),)
    order = np.lexsort(keys + (-scores,))
    if groups is not None:
        groups = np.asarray(groups)[order]
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
        if groups is not None:
            spared |= groups[cand][:, None] != groups[None, c0:]
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


def layer_shapes(num_classes):
    """The weight shape of each head layer, in draw order: the RPN's convs
    (out, in, k, k), then the ROI head's dense layers (in, out)."""
    return {"rpn.conv": (FPN_WIDTH, FPN_WIDTH, 3, 3),
            "rpn.obj": (len(ASPECT_RATIOS), FPN_WIDTH, 1, 1),
            "rpn.reg": (4 * len(ASPECT_RATIOS), FPN_WIDTH, 1, 1),
            "roi.fc": (FPN_WIDTH * ROI_POOL * ROI_POOL, ROI_HIDDEN),
            "roi.cls": (ROI_HIDDEN, num_classes + 1),
            "roi.reg": (ROI_HIDDEN, 4 * num_classes)}


def init_detect_params(num_classes, rng):
    """Learnable tensors for the RPN and ROI heads, keyed by name."""
    return init_params(layer_shapes(num_classes), rng)


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


def assign_anchors(anchors_cxcywh, gt_xywh):
    """Anchor labels: 1 positive, 0 negative, -1 ignore; plus matched gt index."""
    n = len(anchors_cxcywh)
    labels = np.zeros(n, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    if len(gt_xywh) == 0:
        return labels, matched
    ious = iou_xywh(gt_xywh, cxcywh_to_xywh(anchors_cxcywh))  # (G, A)
    best_gt = ious.argmax(axis=0)
    best_iou = ious.max(axis=0)
    labels[:] = -1
    labels[best_iou <= RPN_NEG_IOU] = 0
    labels[best_iou >= RPN_POS_IOU] = 1
    # the best anchors of each gt box that overlaps any are positive
    top = ious.max(axis=1, keepdims=True)
    labels[((ious >= top - 1e-9) & (top > 0)).any(axis=0)] = 1
    matched[labels == 1] = best_gt[labels == 1]
    return labels, matched


def rpn_loss(logits, deltas, anchors_cxcywh, gt_per_image, rng):
    """Mean over a flow's images of the sampled objectness BCE plus the
    smooth-L1 box loss.

    ``logits``/``deltas`` are :func:`rpn_forward`'s (N, A) and (N, A, 4)
    outputs, with one list of xywh gt boxes per image (empty: background);
    an (A,) and (A, 4) pair with one gt list is one image. Anchors are
    labelled and sampled image by image, in order, so ``rng`` makes the
    draws of N one-image calls.
    """
    if logits.data.ndim == 1:
        logits = ad.reshape(logits, (1, -1))
        deltas = ad.reshape(deltas, (1, -1, 4))
        gt_per_image = [gt_per_image]
    n, a = logits.shape
    if len(gt_per_image) != n:
        raise ValueError(f"rpn_loss: {n} images but {len(gt_per_image)} "
                         "ground-truth lists")
    cls_mask = np.zeros((n, a), dtype=np.float32)
    targets = np.zeros((n, a), dtype=np.float32)
    reg_mask = np.zeros((n, a, 1), dtype=np.float32)
    reg_targets = np.zeros((n, a, 4), dtype=np.float32)
    cls_scale, reg_scale = np.zeros((2, n), dtype=np.float32)
    for i, gt in enumerate(gt_per_image):
        labels, matched = assign_anchors(anchors_cxcywh, gt)
        pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
        n_pos = min(len(pos), int(RPN_SAMPLES * RPN_POS_FRACTION))
        if len(pos) > n_pos:
            pos = rng.choice(pos, size=n_pos, replace=False)
        n_neg = min(len(neg), RPN_SAMPLES - len(pos))
        if len(neg) > n_neg:
            neg = rng.choice(neg, size=n_neg, replace=False)
        cls_mask[i, pos] = cls_mask[i, neg] = 1.0
        targets[i, pos] = 1.0
        cls_scale[i] = 1.0 / max(len(pos) + len(neg), 1)   # sampled mean
        if len(pos):
            reg_mask[i, pos] = 1.0
            reg_targets[i, pos] = encode_deltas(
                np.asarray(gt)[matched[pos]], anchors_cxcywh[pos])
            # per-coordinate mean over positives so the box signal stays
            # strong even when negatives dominate the sample
            reg_scale[i] = 1.0 / (4.0 * len(pos))

    bce = ad.mul(ad.bce_with_logits(logits, targets), Tensor(cls_mask))
    per_image = ad.mul(ad.tsum(bce, axis=1), Tensor(cls_scale))
    if reg_scale.any():   # a flow of background images has no box term
        sl1 = ad.mul(ad.smooth_l1(deltas, reg_targets), Tensor(reg_mask))
        per_image = ad.add(per_image, ad.mul(ad.tsum(sl1, axis=(1, 2)),
                                             Tensor(reg_scale)))
    return ad.scale(ad.tsum(per_image), 1.0 / n)


def rpn_proposals(logits, deltas, anchors, image_shape, pre_nms=200,
                  post_nms=32):
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
        valid = ((boxes[:, 2] >= PROPOSAL_MIN_SIZE)
                 & (boxes[:, 3] >= PROPOSAL_MIN_SIZE))
        boxes, scores = boxes[valid], scores[valid]
        if len(boxes) > pre_nms:
            top = np.argpartition(-scores, pre_nms)[:pre_nms]
            boxes, scores = boxes[top], scores[top]
        keep = nms(boxes, scores, PROPOSAL_NMS_IOU, max_keep=post_nms)
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


def roi_loss(fpn_levels, proposals_per_image, gt_per_image, params):
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
        fg = ious.max(axis=1) >= ROI_FG_IOU
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


def roi_predict(fpn_levels, proposals_per_image, params):
    """Score and refine proposals into final per-image detections.

    A proposal is emitted only when a foreground class strictly beats the
    background score, so an untrained zero head yields no detections.
    """
    n_images = len(proposals_per_image)
    if all(len(p) == 0 for p in proposals_per_image):
        return [DetectionSet(np.zeros((0, 4)), np.zeros(0),
                             np.zeros(0, np.int64)) for _ in range(n_images)]
    features, images, boxes = _roi_features(fpn_levels, proposals_per_image)
    cls_logits, reg = _roi_mlp(features, params)
    logits = cls_logits.data.astype(np.float64)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)

    fg = probs[:, 1:]   # the foreground classes, one column each
    # (row, class) pairs in row-major order, as a loop over rows then
    # classes would emit them
    rows, cols = np.nonzero(~((fg <= probs[:, :1]) | (fg < SCORE_FLOOR)))
    deltas = reg.data.reshape(len(images), -1, 4)[rows, cols]
    all_boxes = decode_deltas(deltas, xywh_to_cxcywh(boxes[rows]))
    all_scores = fg[rows, cols]
    all_classes = cols + 1
    det_images = images[rows]

    # one class-wise NMS over every image: a group per (image, class), so an
    # image's kept boxes come out by (-score, class, x, y, w, h)
    keep = nms(all_boxes, all_scores, DET_NMS_IOU,
               groups=det_images * probs.shape[1] + all_classes)
    out = []
    for img in range(n_images):
        kept = keep[det_images[keep] == img][:MAX_DETS]
        out.append(DetectionSet(all_boxes[kept], all_scores[kept],
                                all_classes[kept]))
    return out
