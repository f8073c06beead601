"""COCO-style AP/AR evaluation with 10 IoU thresholds, 101-point
interpolated precision, a 100-detection cap and the three area buckets
(small < 32^2 <= medium < 96^2 <= large).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectionSet, iou_xywh
from .hsi import (eval_annotation_access, int64_problem, is_finite_number,
                  is_xywh)

IOU_THRESHOLDS = tuple(np.round(np.arange(0.5, 0.96, 0.05), 2))
RECALL_POINTS = np.arange(101) / 100.0
MAX_DETS = 100
AREA_SMALL_MAX = 32 * 32          # exclusive upper edge of "small"
AREA_MEDIUM_MAX = 96 * 96         # exclusive upper edge of "medium"
BUCKETS = {
    "all": (0.0, float("inf")),
    "small": (0.0, AREA_SMALL_MAX),
    "medium": (AREA_SMALL_MAX, AREA_MEDIUM_MAX),
    "large": (AREA_MEDIUM_MAX, float("inf")),
}


# the report's columns, in order: (report key, EvalReport field)
REPORT_COLUMNS = (("AP@0.5", "ap50"), ("AP", "ap"), ("AP_small", "ap_small"),
                  ("AP_medium", "ap_medium"), ("AP_large", "ap_large"),
                  ("AR", "ar"), ("AR_small", "ar_small"),
                  ("AR_medium", "ar_medium"), ("AR_large", "ar_large"))


@dataclass
class EvalReport:
    ap50: float
    ap: float
    ap_small: float
    ap_medium: float
    ap_large: float
    ar: float
    ar_small: float
    ar_medium: float
    ar_large: float
    per_class: dict = field(default_factory=dict)

    def to_json(self):
        cols = {key: getattr(self, name) for key, name in REPORT_COLUMNS}
        return json.dumps({**cols, "per_class": self.per_class}, indent=1)

    def to_table(self, label="result"):
        head = f"{'':20s}" + "".join(f"{key:>11s}" for key, _ in REPORT_COLUMNS)
        row = f"{label:20s}" + "".join(f"{100 * getattr(self, name):10.2f}%"
                                       for _, name in REPORT_COLUMNS)
        return head + "\n" + row


def _detection_problem(r):
    """Why detection record ``r`` cannot be scored, or None if it can."""
    if not isinstance(r, dict):
        return "not a JSON object"
    for key in ("image_id", "bbox", "score", "category_id"):
        if key not in r:
            return f"no {key!r} key"
    for key in ("image_id", "category_id"):
        if problem := int64_problem(key, r[key]):
            return problem
    if "id" in r and type(r["id"]) not in (int, str):
        return f"id must be an integer or a string, got {r['id']!r}"
    if not is_xywh(r["bbox"]):
        return f"bbox must be 4 finite numbers, got {r['bbox']!r}"
    if not is_finite_number(r["score"]):
        return f"score must be a finite number, got {r['score']!r}"
    return None


def group_detections(records, known_image_ids):
    """Group JSON detection records into per-image DetectionSets.

    Records may carry an optional unique "id", an integer or a string;
    duplicates are rejected. A record without image_id, bbox, score or
    category_id, with an image_id or category_id that is not a 64-bit
    integer, a bbox that is not 4 finite numbers or a score that is not a
    finite number, is rejected with its "id" (or its index) named.
    """
    if not isinstance(records, list):
        raise ValueError("detections must be a JSON list of records")
    seen_ids = set()
    per_image = {i: [] for i in known_image_ids}
    for index, r in enumerate(records):
        problem = _detection_problem(r)
        if problem:
            name = (r["id"] if isinstance(r, dict)
                    and type(r.get("id")) in (int, str) else f"#{index}")
            raise ValueError(f"detection {name}: {problem}")
        if "id" in r:
            if r["id"] in seen_ids:
                raise ValueError(f"duplicate detection id {r['id']}")
            seen_ids.add(r["id"])
        img = r["image_id"]
        if img not in per_image:
            raise ValueError(f"detection references unknown image id {img}")
        per_image[img].append((r["bbox"], r["score"], r["category_id"]))
    out = []
    for i in known_image_ids:
        recs = per_image[i]
        if recs:
            out.append(DetectionSet(
                np.array([r[0] for r in recs], dtype=np.float64),
                np.array([r[1] for r in recs], dtype=np.float64),
                np.array([r[2] for r in recs], dtype=np.int64),
            ))
        else:
            out.append(DetectionSet(np.zeros((0, 4)), np.zeros(0),
                                    np.zeros(0, np.int64)))
    return out


def _match_image(ious, gt_ignore):
    """Greedy matching of one image's detections of one class, at every
    IoU threshold.

    ``ious`` is the (detections, gts) IoU matrix, its rows in descending
    score order. Each detection takes the highest-IoU unmatched valid gt;
    if only an ignored gt overlaps, the detection is ignored. Returns a
    (thresholds, detections) status array: 1 TP, 0 FP, -1 ignored.
    """
    status = np.zeros((len(IOU_THRESHOLDS), len(ious)), dtype=np.int64)
    ignore = [bool(v) for v in gt_ignore]
    for k, thresh in enumerate(IOU_THRESHOLDS):
        floor = thresh - 1e-12
        # a detection with no IoU above the floor is a false positive and
        # takes no gt, so the greedy pass only visits the others
        cand = np.flatnonzero((ious > floor).any(axis=1))
        taken = [False] * len(ignore)
        for d, row in zip(cand.tolist(), ious[cand].tolist()):
            best_g, best_iou = -1, floor
            best_ign_g, best_ign_iou = -1, floor
            for g, v in enumerate(row):
                if taken[g]:
                    continue
                if ignore[g]:
                    if v > best_ign_iou:
                        best_ign_g, best_ign_iou = g, v
                elif v > best_iou:
                    best_g, best_iou = g, v
            if best_g >= 0:
                taken[best_g] = True
                status[k, d] = 1
            elif best_ign_g >= 0:
                taken[best_ign_g] = True
                status[k, d] = -1
    return status


def _ap_from_matches(statuses, n_gt):
    """101-point interpolated AP and the highest recall at one threshold,
    from the statuses of pooled detections in descending score order."""
    st = statuses[statuses >= 0]  # drop ignored detections
    if len(st) == 0:
        return 0.0, 0.0
    tp = np.cumsum(st == 1)
    fp = np.cumsum(st == 0)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope (monotone non-increasing from the right)
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_POINTS, side="left")
    prec_at = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    ap = float(prec_at.mean())
    max_recall = float(recall[-1])
    return ap, max_recall


def _mean(values):
    """Mean of the non-NaN entries in C order, 0 if there are none."""
    values = values[~np.isnan(values)]
    return float(np.mean(values)) if values.size else 0.0


def evaluate(dets, gt_samples) -> EvalReport:
    """Score per-image DetectionSets against ground truth: one object per
    image with ``boxes`` (x, y, w, h) and ``classes``, such as an
    AnnotatedSample or an ImageAnnotations record from load_annotations.

    One pass per class: in each image, the class's MAX_DETS best
    detections in score order are matched against its gts once per
    gt-ignore pattern (buckets that ignore the same gts share the
    statuses), the pooled scores are ranked once, and each bucket with a
    gt of the class records AP and highest recall per threshold.
    """
    if len(dets) != len(gt_samples):
        raise ValueError("detections and ground truth differ in image count")
    with eval_annotation_access():
        gt_boxes = [np.asarray(s.boxes, dtype=np.float64).reshape(-1, 4)
                    for s in gt_samples]
        gt_classes = [np.asarray(s.classes, dtype=np.int64) for s in gt_samples]
    class_ids = sorted(
        set(int(c) for cs in gt_classes for c in cs)
        | set(int(c) for d in dets for c in d.classes)
    )
    n_thresh = len(IOU_THRESHOLDS)
    # (bucket, threshold, class); NaN where the bucket has no gt of the class
    ap = np.full((len(BUCKETS), n_thresh, len(class_ids)), np.nan)
    ar = ap.copy()
    for ci, c in enumerate(class_ids):
        scores, n_gt = [], [0] * len(BUCKETS)
        statuses = [[] for _ in BUCKETS]
        for d, boxes, classes in zip(dets, gt_boxes, gt_classes):
            g = boxes[classes == c]
            idx = np.flatnonzero(d.classes == c)
            idx = idx[np.argsort(-d.scores[idx], kind="stable")][:MAX_DETS]
            ious = iou_xywh(d.boxes[idx], g) if len(g) and len(idx) else None
            areas, by_ignore = g[:, 2] * g[:, 3], {}
            for b, (lo, hi) in enumerate(BUCKETS.values()):
                ignore = ~((areas >= lo) & (areas < hi))
                n_gt[b] += int((~ignore).sum())
                key = ignore.tobytes()
                if key not in by_ignore:
                    by_ignore[key] = (
                        _match_image(ious, ignore) if ious is not None
                        else np.zeros((n_thresh, len(idx)), np.int64))
                statuses[b].append(by_ignore[key])
            scores.append(d.scores[idx])
        # descending score; pooled position breaks ties
        rank = np.argsort(-np.concatenate(scores), kind="stable")
        for b in range(len(BUCKETS)):
            if n_gt[b]:
                st = np.concatenate(statuses[b], axis=1)[:, rank]
                for k in range(n_thresh):
                    ap[b, k, ci], ar[b, k, ci] = _ap_from_matches(st[k], n_gt[b])
    per_class = {c: {"AP@0.5": float(ap[0, 0, ci]),
                     "AP": float(np.mean(ap[0, :, ci]))}
                 for ci, c in enumerate(class_ids) if not np.isnan(ap[0, 0, ci])}
    return EvalReport(_mean(ap[0, 0]), *map(_mean, ap), *map(_mean, ar),
                      per_class=per_class)
