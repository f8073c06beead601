import numpy as np
import pytest

from sfadet import evalap
from sfadet.detect import DetectionSet
from sfadet.hsi import AnnotatedSample, HyperCube

from oracles import evaluate_slow


def sample(boxes, classes, size=64, held_out=False):
    cube = HyperCube(np.zeros((1, size, size), dtype=np.float32))
    return AnnotatedSample(cube, [tuple(map(float, b)) for b in boxes],
                           list(classes), held_out=held_out)


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
        assert evalap.size_bucket((0, 0, wh[0], wh[1])) == bucket

    def test_out_of_bucket_gt_is_ignored_not_fp(self):
        # small-bucket pass: the only gt is medium-sized, the matching
        # detection must be absorbed (ignored), not counted as FP
        gts = [sample([(5, 5, 40, 40)], [1])]
        dets = [dset([(5, 5, 40, 40)], [0.9], [1])]
        rep = evalap.evaluate(dets, gts)
        assert rep.ap_small == 0.0    # no small gt at all
        assert rep.ap_medium == pytest.approx(1.0)
        assert rep.ap == pytest.approx(1.0)


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
        ({"image_id": None}, "no 'image_id' key"),
        ({"bbox": None}, "no 'bbox' key"),
        ({"score": None}, "no 'score' key"),
        ({"category_id": None}, "no 'category_id' key"),
        ({"bbox": [0, 0, 1]}, "bbox must be 4 finite numbers, got [0, 0, 1]"),
        ({"bbox": [0, 0, 1, 1, 1]}, "bbox must be 4 finite numbers"),
        ({"bbox": [0, 0, "1", 1]}, "bbox must be 4 finite numbers"),
        ({"bbox": [0, 0, float("nan"), 1]}, "bbox must be 4 finite numbers"),
        ({"bbox": 4}, "bbox must be 4 finite numbers, got 4"),
        ({"score": "high"}, "score must be a finite number, got 'high'"),
        ({"score": True}, "score must be a finite number, got True"),
        ({"score": float("inf")}, "score must be a finite number"),
    ])
    def test_bad_record_named(self, change, cause):
        good = {"image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5,
                "category_id": 1}
        bad = {k: v for k, v in {**good, **change}.items() if v is not None}
        with pytest.raises(ValueError) as err:
            evalap.group_detections([good, bad], [1])
        assert str(err.value).startswith(f"detection #1: {cause}")
        with pytest.raises(ValueError, match=r"^detection 12: "):
            evalap.group_detections([good, {**bad, "id": 12}], [1])

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


def random_case(rng):
    n_images = int(rng.integers(1, 4))
    gts, dets = [], []
    for _ in range(n_images):
        n_gt = int(rng.integers(0, 6))
        boxes = []
        for _ in range(n_gt):
            w = float(rng.integers(2, 30))
            h = float(rng.integers(2, 30))
            x = float(rng.integers(0, 64 - int(w)))
            y = float(rng.integers(0, 64 - int(h)))
            boxes.append((x, y, w, h))
        classes = rng.integers(1, 3, size=n_gt).tolist()
        gts.append(sample(boxes, classes))

        n_det = int(rng.integers(0, 6))
        dboxes, dscores, dclasses = [], [], []
        for _ in range(n_det):
            if boxes and rng.random() < 0.6:
                # jittered copy of a gt box so interesting IoUs appear
                bx, by, bw, bh = boxes[int(rng.integers(0, len(boxes)))]
                dboxes.append((bx + rng.normal(0, 3), by + rng.normal(0, 3),
                               max(1.0, bw + rng.normal(0, 4)),
                               max(1.0, bh + rng.normal(0, 4))))
            else:
                dboxes.append((float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                               float(rng.uniform(1, 30)), float(rng.uniform(1, 30))))
            # quantized scores so ties occur
            dscores.append(round(float(rng.uniform(0.1, 1.0)), 1))
            dclasses.append(int(rng.integers(1, 3)))
        dets.append(dset(np.array(dboxes).reshape(-1, 4), dscores, dclasses))
    return dets, gts


class TestOracle:
    @pytest.mark.parametrize("chunk", range(10))
    def test_matches_brute_force_exactly(self, chunk):
        for seed in range(chunk * 20, (chunk + 1) * 20):
            rng = np.random.default_rng(seed)
            dets, gts = random_case(rng)
            rep = evalap.evaluate(dets, gts)
            slow_in_dets = [(d.boxes, d.scores, d.classes) for d in dets]
            from sfadet.hsi import eval_annotation_access
            with eval_annotation_access():
                slow_in_gts = [(np.asarray(g.boxes, dtype=np.float64).reshape(-1, 4),
                                list(g.classes)) for g in gts]
            slow = evaluate_slow(slow_in_dets, slow_in_gts)
            assert rep.ap50 == slow["ap50"], f"seed {seed}"
            assert rep.ap == slow["ap"], f"seed {seed}"
            assert rep.ar == slow["ar"], f"seed {seed}"

    def test_bucket_ap_matches_brute_force(self):
        for seed in range(40):
            rng = np.random.default_rng(10_000 + seed)
            dets, gts = random_case(rng)
            rep = evalap.evaluate(dets, gts)
            slow_in_dets = [(d.boxes, d.scores, d.classes) for d in dets]
            from sfadet.hsi import eval_annotation_access
            with eval_annotation_access():
                slow_in_gts = [(np.asarray(g.boxes, dtype=np.float64).reshape(-1, 4),
                                list(g.classes)) for g in gts]
            small = evaluate_slow(slow_in_dets, slow_in_gts, 0.0, 1024.0)
            med = evaluate_slow(slow_in_dets, slow_in_gts, 1024.0, 9216.0)
            assert rep.ap_small == small["ap"], f"seed {seed}"
            assert rep.ap_medium == med["ap"], f"seed {seed}"
            assert rep.ar_small == small["ar"], f"seed {seed}"
