import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfadet import evalap
from sfadet.detect import DetectionSet, iou_xywh
from sfadet.hsi import AnnotatedSample, HyperCube, eval_annotation_access

from oracles import DROPPED, evaluate_slow, mutate_field


def sample(boxes, classes, size=64, held_out=False):
    cube = HyperCube(np.zeros((1, size, size), dtype=np.float32))
    return AnnotatedSample(cube, [tuple(map(float, b)) for b in boxes],
                           list(classes), held_out=held_out)


def size_buckets(w, h):
    """The size buckets whose half-open area interval in evalap.BUCKETS,
    the one evaluate reads, holds a w x h box."""
    return [name for name, (lo, hi) in evalap.BUCKETS.items()
            if name != "all" and lo <= w * h < hi]


def dset(boxes, scores, classes):
    return DetectionSet(
        np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
        np.asarray(scores, dtype=np.float64),
        np.asarray(classes, dtype=np.int64),
    )


class TestBasics:
    def test_perfect_detector_scores_one(self):
        gts = [sample([(5, 5, 10, 10), (30, 30, 20, 12)], [1, 2])]
        dets = [dset([(5, 5, 10, 10), (30, 30, 20, 12)], [0.9, 0.8], [1, 2])]
        rep = evalap.evaluate(dets, gts)
        assert rep.ap50 == pytest.approx(1.0)
        assert rep.ap == pytest.approx(1.0)
        assert rep.ar == pytest.approx(1.0)

    def test_no_detections_scores_zero(self):
        gts = [sample([(5, 5, 10, 10)], [1])]
        dets = [dset(np.zeros((0, 4)), [], [])]
        rep = evalap.evaluate(dets, gts)
        assert rep.ap50 == 0.0 and rep.ap == 0.0 and rep.ar == 0.0

    def test_wrong_class_is_false_positive(self):
        gts = [sample([(5, 5, 10, 10)], [1])]
        dets = [dset([(5, 5, 10, 10)], [0.9], [2])]
        rep = evalap.evaluate(dets, gts)
        assert rep.ap50 == 0.0

    def test_half_precision_at_iou50(self):
        # one TP (exact) + one higher-scored FP far away
        gts = [sample([(5, 5, 10, 10)], [1])]
        dets = [dset([(40, 40, 10, 10), (5, 5, 10, 10)], [0.9, 0.8], [1, 1])]
        rep = evalap.evaluate(dets, gts)
        # precision 0.5 at recall 1.0; interpolated AP = 0.5
        assert rep.ap50 == pytest.approx(0.5)

    def test_localization_quality_splits_thresholds(self):
        # IoU 0.8 with the gt: TP at thresholds 0.5..0.8, FP at 0.85+
        gts = [sample([(0, 0, 10, 10)], [1])]
        dets = [dset([(0, 0, 10, 8)], [0.9], [1])]
        rep = evalap.evaluate(dets, gts)
        assert rep.ap50 == pytest.approx(1.0)
        assert rep.ap == pytest.approx(7 / 10)

    def test_image_count_mismatch(self):
        with pytest.raises(ValueError):
            evalap.evaluate([], [sample([], [])])

    def test_evaluate_reads_held_out_annotations(self):
        gts = [sample([(5, 5, 10, 10)], [1], held_out=True)]
        dets = [dset([(5, 5, 10, 10)], [0.9], [1])]
        assert evalap.evaluate(dets, gts).ap50 == pytest.approx(1.0)


class TestSizeBuckets:
    @pytest.mark.parametrize(
        "wh,bucket",
        [((31, 31), "small"),      # 961
         ((32, 31.99), "small"),   # just under 1024
         ((32, 32), "medium"),     # 1024 exactly
         ((95, 96), "medium"),     # 9120
         ((96, 96), "large"),      # 9216 exactly
         ((200, 200), "large")],
    )
    def test_boundaries(self, wh, bucket):
        assert size_buckets(*wh) == [bucket]

    def test_out_of_bucket_gt_is_ignored_not_fp(self):
        # small-bucket pass: the only gt is medium-sized, the matching
        # detection must be absorbed (ignored), not counted as FP
        gts = [sample([(5, 5, 40, 40)], [1])]
        dets = [dset([(5, 5, 40, 40)], [0.9], [1])]
        rep = evalap.evaluate(dets, gts)
        assert rep.ap_small == 0.0    # no small gt at all
        assert rep.ap_medium == pytest.approx(1.0)
        assert rep.ap == pytest.approx(1.0)


VALID_DETECTIONS = [
    {"id": 3, "image_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5,
     "category_id": 1},
    {"image_id": 2, "bbox": [1.5, 1, 4, 4], "score": 0.9, "category_id": 2},
    {"id": "d7", "image_id": 1, "bbox": [2, 2, 3, 3], "score": 0.4,
     "category_id": 2},
]


class TestGrouping:
    def test_groups_by_image(self):
        recs = [
            {"image_id": 2, "bbox": [0, 0, 5, 5], "score": 0.5, "category_id": 1},
            {"image_id": 1, "bbox": [1, 1, 4, 4], "score": 0.9, "category_id": 2},
            {"image_id": 1, "bbox": [2, 2, 3, 3], "score": 0.4, "category_id": 1},
        ]
        out = evalap.group_detections(recs, [1, 2])
        assert len(out) == 2 and len(out[0]) == 2 and len(out[1]) == 1
        assert out[1].classes.tolist() == [1]

    def test_duplicate_id_rejected(self):
        recs = [
            {"id": 7, "image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5,
             "category_id": 1},
            {"id": 7, "image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.4,
             "category_id": 1},
        ]
        with pytest.raises(ValueError, match="duplicate"):
            evalap.group_detections(recs, [1])

    def test_unknown_image_rejected(self):
        recs = [{"image_id": 9, "bbox": [0, 0, 1, 1], "score": 0.5,
                 "category_id": 1}]
        with pytest.raises(ValueError, match="unknown image"):
            evalap.group_detections(recs, [1])

    def test_empty_images_get_empty_sets(self):
        out = evalap.group_detections([], [1, 2, 3])
        assert len(out) == 3 and all(len(d) == 0 for d in out)

    @pytest.mark.parametrize("change, cause", [
        ({"image_id": DROPPED}, "no 'image_id' key"),
        ({"bbox": DROPPED}, "no 'bbox' key"),
        ({"score": DROPPED}, "no 'score' key"),
        ({"category_id": DROPPED}, "no 'category_id' key"),
        ({"bbox": [0, 0, 1]}, "bbox must be 4 finite numbers, got [0, 0, 1]"),
        ({"bbox": [0, 0, 1, 1, 1]}, "bbox must be 4 finite numbers"),
        ({"bbox": [0, 0, "1", 1]}, "bbox must be 4 finite numbers"),
        ({"bbox": [0, 0, float("nan"), 1]}, "bbox must be 4 finite numbers"),
        ({"bbox": 4}, "bbox must be 4 finite numbers, got 4"),
        ({"score": "high"}, "score must be a finite number, got 'high'"),
        ({"score": True}, "score must be a finite number, got True"),
        ({"score": float("inf")}, "score must be a finite number"),
        ({"category_id": 1.5}, "category_id must be an integer, got 1.5"),
        ({"category_id": "1"}, "category_id must be an integer, got '1'"),
        ({"image_id": True}, "image_id must be an integer, got True"),
        ({"category_id": None}, "category_id must be an integer, got None"),
        ({"image_id": None}, "image_id must be an integer, got None"),
        ({"category_id": [1]}, "category_id must be an integer, got [1]"),
        ({"image_id": [1]}, "image_id must be an integer, got [1]"),
        ({"category_id": 2**63},
         f"category_id must be a 64-bit integer, got {2**63}"),
    ])
    def test_bad_record_named(self, change, cause):
        good = {"image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5,
                "category_id": 1}
        bad = {k: v for k, v in {**good, **change}.items() if v is not DROPPED}
        with pytest.raises(ValueError) as err:
            evalap.group_detections([good, bad], [1])
        assert str(err.value).startswith(f"detection #1: {cause}")
        with pytest.raises(ValueError, match=r"^detection 12: "):
            evalap.group_detections([good, {**bad, "id": 12}], [1])

    @pytest.mark.parametrize("bad_id", [None, 1.5, True, [1], {"a": 1}])
    def test_bad_id_named_by_index(self, bad_id):
        good = {"image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5,
                "category_id": 1}
        with pytest.raises(ValueError) as err:
            evalap.group_detections([good, {**good, "id": bad_id}], [1])
        assert str(err.value) == ("detection #1: id must be an integer or a "
                                  f"string, got {bad_id!r}")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_field_fails_named_or_parses_the_same(self, data):
        records = json.loads(json.dumps(VALID_DETECTIONS))
        i = data.draw(st.integers(0, len(records) - 1))
        key, value = mutate_field(data, records[i])
        other_ids = [r["id"] for r in records[:i] + records[i + 1:] if "id" in r]
        accepted = (
            (key == "id" and (value is DROPPED or type(value) in (int, str))
             and value not in other_ids)
            or (key == "score" and type(value) in (int, float)
                and math.isfinite(value)))
        if not accepted:
            with pytest.raises(ValueError) as err:
                evalap.group_detections(records, [1, 2])
            msg = str(err.value)
            assert type(err.value) is ValueError and "\n" not in msg
            assert msg.startswith(("detection ", "duplicate detection id "))
            return
        got = evalap.group_detections(records, [1, 2])
        # scores are read as float64, so an integer score past 2**53 rounds
        assert [list(zip(d.boxes.tolist(), d.scores.tolist(),
                         d.classes.tolist())) for d in got] == [
            [(r["bbox"], float(r["score"]), r["category_id"]) for r in records
             if r["image_id"] == img] for img in (1, 2)]

    def test_non_record_rejected(self):
        with pytest.raises(ValueError, match=r"^detection #0: not a JSON object"):
            evalap.group_detections([[1, 0, 0, 1, 1]], [1])
        with pytest.raises(ValueError, match="JSON list"):
            evalap.group_detections({"image_id": 1}, [1])


class TestReport:
    def test_json_round_trip(self):
        import json

        rep = evalap.EvalReport(0.5, 0.4, 0.1, 0.2, 0.3, 0.6, 0.1, 0.2, 0.3,
                                per_class={1: {"AP@0.5": 0.5, "AP": 0.4}})
        data = json.loads(rep.to_json())
        assert data["AP@0.5"] == 0.5 and data["AR"] == 0.6

    def test_table_has_percentages(self):
        rep = evalap.EvalReport(0.5, 0.4, 0.1, 0.2, 0.3, 0.6, 0.1, 0.2, 0.3)
        table = rep.to_table("full")
        assert "50.00%" in table and "AP@0.5" in table and "full" in table


def random_case(rng, size=64, n_det=(0, 6)):
    """1-3 images of ``size`` px with 0-5 gts of classes 1-2 each and a
    detection count drawn from ``n_det`` (low, exclusive high). Box sides
    and offsets scale with ``size``; scores are quantized so ties occur."""
    s = size / 64
    n_images = int(rng.integers(1, 4))
    gts, dets = [], []
    for _ in range(n_images):
        n_gt = int(rng.integers(0, 6))
        boxes = []
        for _ in range(n_gt):
            w = float(rng.integers(2, int(30 * s)))
            h = float(rng.integers(2, int(30 * s)))
            x = float(rng.integers(0, size - int(w)))
            y = float(rng.integers(0, size - int(h)))
            boxes.append((x, y, w, h))
        classes = rng.integers(1, 3, size=n_gt).tolist()
        gts.append(sample(boxes, classes, size=size))

        dboxes, dscores, dclasses = [], [], []
        for _ in range(int(rng.integers(*n_det))):
            if boxes and rng.random() < 0.6:
                # jittered copy of a gt box so interesting IoUs appear
                bx, by, bw, bh = boxes[int(rng.integers(0, len(boxes)))]
                dboxes.append((bx + rng.normal(0, 3 * s), by + rng.normal(0, 3 * s),
                               max(1.0, bw + rng.normal(0, 4 * s)),
                               max(1.0, bh + rng.normal(0, 4 * s))))
            else:
                dboxes.append((float(rng.uniform(0, 50 * s)),
                               float(rng.uniform(0, 50 * s)),
                               float(rng.uniform(1, 30 * s)),
                               float(rng.uniform(1, 30 * s))))
            # quantized scores so ties occur
            dscores.append(round(float(rng.uniform(0.1, 1.0)), 1))
            dclasses.append(int(rng.integers(1, 3)))
        dets.append(dset(np.array(dboxes).reshape(-1, 4), dscores, dclasses))
    return dets, gts


def slow_inputs(dets, gts, cls=None):
    """``evaluate_slow``'s per-image inputs, only class ``cls`` if given."""
    from sfadet.hsi import eval_annotation_access
    with eval_annotation_access():
        gts = [(np.asarray(g.boxes, dtype=np.float64).reshape(-1, 4),
                np.asarray(g.classes, dtype=np.int64)) for g in gts]
    dets = [(d.boxes, d.scores, d.classes) for d in dets]
    if cls is not None:
        gts = [(b[c == cls], c[c == cls]) for b, c in gts]
        dets = [(b[c == cls], sc[c == cls], c[c == cls]) for b, sc, c in dets]
    return dets, [(b, list(c)) for b, c in gts]


class TestOracle:
    @pytest.mark.parametrize("chunk", range(10))
    def test_matches_brute_force_exactly(self, chunk):
        for seed in range(chunk * 20, (chunk + 1) * 20):
            rng = np.random.default_rng(seed)
            dets, gts = random_case(rng)
            rep = evalap.evaluate(dets, gts)
            slow_in_dets, slow_in_gts = slow_inputs(dets, gts)
            slow = evaluate_slow(slow_in_dets, slow_in_gts)
            assert rep.ap50 == slow["ap50"], f"seed {seed}"
            assert rep.ap == slow["ap"], f"seed {seed}"
            assert rep.ar == slow["ar"], f"seed {seed}"

    def test_bucket_ap_matches_brute_force(self):
        for seed in range(40):
            rng = np.random.default_rng(10_000 + seed)
            dets, gts = random_case(rng)
            rep = evalap.evaluate(dets, gts)
            slow_in_dets, slow_in_gts = slow_inputs(dets, gts)
            small = evaluate_slow(slow_in_dets, slow_in_gts, 0.0, 1024.0)
            med = evaluate_slow(slow_in_dets, slow_in_gts, 1024.0, 9216.0)
            assert rep.ap_small == small["ap"], f"seed {seed}"
            assert rep.ap_medium == med["ap"], f"seed {seed}"
            assert rep.ar_small == small["ar"], f"seed {seed}"

    @pytest.mark.parametrize("chunk", range(3))
    def test_capped_crowded_images_match_brute_force(self, chunk):
        # 256-px images with 90-260 detections each: more than MAX_DETS of
        # one class in an image, tied scores at the cap, large boxes; every
        # bucket the cap can move, and each class's AP on its own
        capped = large = 0
        for seed in range(chunk * 20, (chunk + 1) * 20):
            rng = np.random.default_rng(20_000 + seed)
            dets, gts = random_case(rng, size=256, n_det=(90, 261))
            rep = evalap.evaluate(dets, gts)
            slow_dets, slow_gts = slow_inputs(dets, gts)
            full = evaluate_slow(slow_dets, slow_gts)
            big = evaluate_slow(slow_dets, slow_gts, 9216.0)
            med = evaluate_slow(slow_dets, slow_gts, 1024.0, 9216.0)
            assert (rep.ap50, rep.ap, rep.ar) == (
                full["ap50"], full["ap"], full["ar"]), f"seed {seed}"
            assert (rep.ap_large, rep.ar_large, rep.ar_medium) == (
                big["ap"], big["ar"], med["ar"]), f"seed {seed}"
            with_gt = sorted({int(c) for _, cs in slow_gts for c in cs})
            assert sorted(rep.per_class) == with_gt, f"seed {seed}"
            for c in with_gt:
                one = evaluate_slow(*slow_inputs(dets, gts, c))
                assert rep.per_class[c] == {"AP@0.5": one["ap50"],
                                            "AP": one["ap"]}, f"seed {seed}"
            capped += any(np.bincount(d.classes).max() > evalap.MAX_DETS
                          for d in dets)
            large += any(w * h >= 9216.0 for boxes, _ in slow_gts
                         for _, _, w, h in boxes)
        assert capped and large


def gt_lists(gts):
    with eval_annotation_access():
        return [(list(g.boxes), list(g.classes)) for g in gts]


class TestMetamorphic:
    # each relation held on 2,000 random_case seeds before it was pinned here
    @pytest.mark.parametrize("chunk", range(2))
    def test_image_order_does_not_matter_with_distinct_scores(self, chunk):
        for seed in range(chunk * 100, (chunk + 1) * 100):
            rng = np.random.default_rng(30_000 + seed)
            dets, gts = random_case(rng)
            n = sum(len(d) for d in dets)
            scores = iter((rng.permutation(n) + 1) / (n + 1))
            dets = [dset(d.boxes, [next(scores) for _ in d.scores], d.classes)
                    for d in dets]
            perm = rng.permutation(len(dets))
            moved = evalap.evaluate([dets[i] for i in perm],
                                    [gts[i] for i in perm])
            assert moved.to_json() == evalap.evaluate(dets, gts).to_json(), \
                f"seed {seed}"

    def test_doubled_geometry_keeps_ap_and_ar(self):
        # IoU is scale-free, and doubling is exact in floating point; the
        # size buckets move, so only the all-area numbers are compared
        for seed in range(200):
            rng = np.random.default_rng(40_000 + seed)
            dets, gts = random_case(rng)
            big_dets = [dset(2 * d.boxes, d.scores, d.classes) for d in dets]
            big_gts = [sample(2 * np.asarray(boxes).reshape(-1, 4), classes,
                              size=128) for boxes, classes in gt_lists(gts)]
            rep, big = evalap.evaluate(dets, gts), evalap.evaluate(big_dets,
                                                                   big_gts)
            assert (big.ap50, big.ap, big.ar) == (rep.ap50, rep.ap, rep.ar), \
                f"seed {seed}"

    def test_lowest_scored_miss_keeps_ap_and_ar(self):
        for seed in range(200):
            rng = np.random.default_rng(50_000 + seed)
            dets, gts = random_case(rng)
            k = int(rng.integers(len(dets)))
            boxes = np.asarray(gt_lists(gts)[k][0]).reshape(-1, 4)
            for _ in range(100):   # a box in the image that overlaps no gt
                box = np.concatenate([rng.uniform(0, 56, 2),
                                      rng.uniform(1, 8, 2)])
                if not len(boxes) or iou_xywh(box, boxes).max() == 0:
                    break
            else:
                continue
            more = list(dets)
            more[k] = dset(np.vstack([dets[k].boxes, box]),
                           np.append(dets[k].scores, 0.05),
                           np.append(dets[k].classes, rng.integers(1, 3)))
            rep, got = evalap.evaluate(dets, gts), evalap.evaluate(more, gts)
            assert (got.ap50, got.ap, got.ar) == (rep.ap50, rep.ap, rep.ar), \
                f"seed {seed}"
