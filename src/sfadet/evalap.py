"""COCO-style AP/AR evaluation with 10 IoU thresholds, 101-point
interpolated precision, a 100-detection cap and the three area buckets
(small < 32^2 <= medium < 96^2 <= large).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectionSet, iou_xywh
from .hsi import eval_annotation_access, is_finite_number, is_xywh

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


def size_bucket(box):
    """small / medium / large by box area with edges at 32^2 and 96^2."""
    area = float(box[2]) * float(box[3])
    if area < AREA_SMALL_MAX:
        return "small"
    if area < AREA_MEDIUM_MAX:
        return "medium"
    return "large"


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
    if not is_xywh(r["bbox"]):
        return f"bbox must be 4 finite numbers, got {r['bbox']!r}"
    if not is_finite_number(r["score"]):
        return f"score must be a finite number, got {r['score']!r}"
    return None


def group_detections(records, known_image_ids):
    """Group JSON detection records into per-image DetectionSets.

    Records may carry an optional unique "id"; duplicates are rejected.
    A record without image_id, bbox, score or category_id, or with a bbox
    that is not 4 finite numbers or a score that is not a finite number,
    is rejected with its "id" (or its index) named.
    """
    if not isinstance(records, list):
        raise ValueError("detections must be a JSON list of records")
    seen_ids = set()
    per_image = {i: [] for i in known_image_ids}
    for index, r in enumerate(records):
        problem = _detection_problem(r)
        if problem:
            name = (r.get("id", f"#{index}") if isinstance(r, dict)
                    else f"#{index}")
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


def _match_image(ious, order, gt_ignore):
    """Greedy matching of one image's detections of one class, at every
    IoU threshold.

    ``ious`` is the (detections, gts) IoU matrix and ``order`` the
    detections in descending score order. Each detection takes the
    highest-IoU unmatched valid gt; if only an ignored gt overlaps, the
    detection is ignored. Returns a (thresholds, detections) status array:
    1 TP, 0 FP, -1 ignored.
    """
    status = np.zeros((len(IOU_THRESHOLDS), len(ious)), dtype=np.int64)
    ignore = [bool(v) for v in gt_ignore]
    for k, thresh in enumerate(IOU_THRESHOLDS):
        floor = thresh - 1e-12
        # a detection with no IoU above the floor is a false positive and
        # takes no gt, so the greedy pass only visits the others
        cand = order[(ious[order] > floor).any(axis=1)]
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


def evaluate(dets, gt_samples) -> EvalReport:
    """Score per-image DetectionSets against annotated samples."""
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

    # cap detections per image per class
    capped = []
    for d in dets:
        keep = []
        for c in class_ids:
            idx = np.flatnonzero(d.classes == c)
            idx = idx[np.argsort(-d.scores[idx], kind="stable")][:MAX_DETS]
            keep.extend(idx.tolist())
        keep = np.array(sorted(keep), dtype=np.int64)
        capped.append((d.boxes[keep], d.scores[keep], d.classes[keep]))

    # per (image, class): gt areas, detection scores, and the statuses of
    # the detections for each gt-ignore pattern. The IoU matrix is computed
    # once and shared by every bucket and threshold; buckets that ignore
    # the same gts share the statuses.
    pairs = {}
    for c in class_ids:
        for img in range(len(dets)):
            g = gt_boxes[img][gt_classes[img] == c]
            db, ds, dc = capped[img]
            dsel = dc == c
            ious = iou_xywh(db[dsel], g) if len(g) and dsel.any() else None
            order = np.argsort(-ds[dsel], kind="stable")
            pairs[img, c] = (g[:, 2] * g[:, 3], ds[dsel], ious, order, {})

    bucket_ap = {}
    bucket_ar = {}
    per_class = {}
    for bname, (lo, hi) in BUCKETS.items():
        aps = {t: [] for t in IOU_THRESHOLDS}
        recalls = {t: [] for t in IOU_THRESHOLDS}
        for c in class_ids:
            scores, statuses = [], []
            n_gt_valid = 0
            for img in range(len(dets)):
                areas, ds, ious, order, by_ignore = pairs[img, c]
                ignore = ~((areas >= lo) & (areas < hi))
                n_gt_valid += int((~ignore).sum())
                key = ignore.tobytes()
                if key not in by_ignore:
                    by_ignore[key] = (
                        _match_image(ious, order, ignore) if ious is not None
                        else np.zeros((len(IOU_THRESHOLDS), len(ds)), np.int64))
                scores.append(ds)
                statuses.append(by_ignore[key])
            if n_gt_valid == 0:
                continue
            scores = np.concatenate(scores)
            # descending score; pooled position breaks ties
            rank = np.lexsort((np.arange(len(scores)), -scores))
            statuses = np.concatenate(statuses, axis=1)[:, rank]
            for t, st in zip(IOU_THRESHOLDS, statuses):
                ap, mrec = _ap_from_matches(st, n_gt_valid)
                aps[t].append(ap)
                recalls[t].append(mrec)
            if bname == "all":
                per_class[c] = {
                    "AP@0.5": aps[IOU_THRESHOLDS[0]][-1],
                    "AP": float(np.mean([aps[t][-1] for t in IOU_THRESHOLDS])),
                }
        flat_aps = [v for t in IOU_THRESHOLDS for v in aps[t]]
        flat_recalls = [v for t in IOU_THRESHOLDS for v in recalls[t]]
        bucket_ap[bname] = float(np.mean(flat_aps)) if flat_aps else 0.0
        bucket_ar[bname] = float(np.mean(flat_recalls)) if flat_recalls else 0.0
        if bname == "all":
            ap50s = aps[IOU_THRESHOLDS[0]]
            ap50 = float(np.mean(ap50s)) if ap50s else 0.0

    return EvalReport(
        ap50=ap50,
        ap=bucket_ap["all"],
        ap_small=bucket_ap["small"],
        ap_medium=bucket_ap["medium"],
        ap_large=bucket_ap["large"],
        ar=bucket_ar["all"],
        ar_small=bucket_ar["small"],
        ar_medium=bucket_ar["medium"],
        ar_large=bucket_ar["large"],
        per_class=per_class,
    )
