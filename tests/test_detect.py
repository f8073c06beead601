import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sfadet import autodiff as ad
from sfadet import detect
from sfadet.autodiff import Tensor
from sfadet.ssam import FPN_WIDTH

from oracles import check_grad, nms_loops


class TestIou:
    def test_identical_is_one(self):
        assert detect.iou_xywh([(1, 2, 3, 4)], [(1, 2, 3, 4)])[0, 0] == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert detect.iou_xywh([(0, 0, 2, 2)], [(10, 10, 2, 2)])[0, 0] == 0.0

    def test_hand_value_one_seventh(self):
        v = detect.iou_xywh([(0, 0, 10, 10)], [(5, 5, 10, 10)])[0, 0]
        assert v == pytest.approx(25.0 / 175.0)

    @given(st.lists(st.floats(0, 50), min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, vals):
        a = (vals[0], vals[1], vals[2] + 1, vals[3] + 1)
        b = (vals[4], vals[5], vals[6] + 1, vals[7] + 1)
        ab = detect.iou_xywh([a], [b])[0, 0]
        ba = detect.iou_xywh([b], [a])[0, 0]
        assert ab == pytest.approx(ba)
        assert 0.0 <= ab <= 1.0

    def test_pairwise_shape(self):
        m = detect.iou_xywh(np.zeros((3, 4)) + [0, 0, 1, 1], np.zeros((5, 4)) + [0, 0, 1, 1])
        assert m.shape == (3, 5)


class TestDeltas:
    def test_decode_zero_deltas_returns_anchor(self):
        anchors = np.array([[10.0, 12.0, 8.0, 6.0]])
        out = detect.decode_deltas(np.zeros((1, 4)), anchors)
        np.testing.assert_allclose(out, detect.cxcywh_to_xywh(anchors), atol=1e-9)

    @given(
        st.tuples(
            st.floats(0, 60), st.floats(0, 60),
            st.floats(1, 40), st.floats(1, 40),
            st.floats(0, 60), st.floats(0, 60),
            st.floats(1, 40), st.floats(1, 40),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_round_trip(self, vals):
        gt = np.array([vals[:4]])
        anchor = detect.xywh_to_cxcywh(np.array([vals[4:]]))
        d = detect.encode_deltas(gt, anchor)
        back = detect.decode_deltas(d, anchor)
        np.testing.assert_allclose(back, gt, atol=1e-4)

    def test_xywh_cxcywh_inverse(self):
        b = np.array([[3.0, 4.0, 10.0, 6.0]])
        np.testing.assert_allclose(
            detect.cxcywh_to_xywh(detect.xywh_to_cxcywh(b)), b
        )


class TestAnchors:
    def test_count_4x4_level(self):
        anchors = detect.generate_anchors([(4, 4), (2, 2), (1, 1)])
        assert anchors.shape == (48 + 12 + 3, 4)
        # rows run level by level: 48 of the 4x4 level, then 12, then 3
        areas = anchors[:, 2] * anchors[:, 3]
        np.testing.assert_allclose(
            areas, np.repeat([b * b for b in detect.BASE_SIZES], [48, 12, 3]))

    def test_equal_area_family(self):
        anchors = detect.generate_anchors([(1, 1), (1, 1), (1, 1)])
        areas = (anchors[:, 2] * anchors[:, 3]).reshape(3, 3)
        for lvl, base in zip(areas, detect.BASE_SIZES):
            np.testing.assert_allclose(lvl, base * base, rtol=1e-9)

    def test_centers_on_stride_grid(self):
        anchors = detect.generate_anchors([(2, 2), (1, 1), (1, 1)])
        lvl0 = anchors[:12].reshape(2, 2, 3, 4)
        np.testing.assert_allclose(lvl0[0, 0, :, 0], 1.0)  # (0.5)*stride2
        np.testing.assert_allclose(lvl0[1, 1, :, 1], 3.0)

    @pytest.mark.parametrize(
        "wh,lvl",
        [((16, 16), 1), ((8, 8), 1), ((32, 32), 2), ((40, 40), 2),
         ((64, 64), 3), ((200, 200), 3), ((1, 1), 1)],
    )
    def test_level_heuristic(self, wh, lvl):
        assert detect.levels_for_boxes([(0, 0, wh[0], wh[1])]).tolist() == [lvl]


class TestNms:
    def test_identical_boxes_keeps_higher_score(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]], dtype=float)
        keep = detect.nms(boxes, np.array([0.8, 0.9]), 0.5)
        assert keep.tolist() == [1]

    def test_disjoint_all_kept(self):
        boxes = np.array([[0, 0, 5, 5], [20, 20, 5, 5], [40, 0, 5, 5]], dtype=float)
        keep = detect.nms(boxes, np.array([0.9, 0.8, 0.7]), 0.5)
        assert sorted(keep.tolist()) == [0, 1, 2]

    def test_one_seventh_overlap_both_kept(self):
        boxes = np.array([[0, 0, 10, 10], [5, 5, 10, 10]], dtype=float)
        keep = detect.nms(boxes, np.array([0.9, 0.8]), 0.5)
        assert sorted(keep.tolist()) == [0, 1]

    def test_suppression_chain(self):
        # b suppressed by a; c overlaps b but not a -> c survives
        boxes = np.array(
            [[0, 0, 10, 10], [4, 0, 10, 10], [9, 0, 10, 10]], dtype=float
        )
        keep = detect.nms(boxes, np.array([0.9, 0.8, 0.7]), 0.4)
        assert sorted(keep.tolist()) == [0, 2]

    def test_order_independence(self):
        rng = np.random.default_rng(0)
        boxes = np.stack(
            [rng.uniform(0, 40, 20), rng.uniform(0, 40, 20),
             rng.uniform(2, 20, 20), rng.uniform(2, 20, 20)], axis=1
        )
        scores = rng.uniform(0.1, 1.0, 20)
        ref = set(map(tuple, boxes[detect.nms(boxes, scores, 0.5)]))
        for _ in range(5):
            perm = rng.permutation(20)
            got = set(map(tuple, boxes[perm][detect.nms(boxes[perm], scores[perm], 0.5)]))
            assert got == ref

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            detect.nms(np.zeros((1, 4)), np.array([np.nan]), 0.5)

    def test_empty_input(self):
        assert len(detect.nms(np.zeros((0, 4)), np.zeros(0), 0.5)) == 0

    # boxes on a coarse grid, so duplicates, zero sizes and score ties are
    # common; more boxes than one NMS block
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                           st.integers(0, 8), st.integers(0, 8),
                           st.sampled_from([0.2, 0.5, 0.9])),
                 max_size=60),
        st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
        st.one_of(st.none(), st.integers(0, 12)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_oracle_on_grid_boxes(self, rows, thresh, max_keep):
        boxes = np.array([r[:4] for r in rows], dtype=float).reshape(-1, 4)
        scores = np.array([r[4] for r in rows])
        keep = detect.nms(boxes, scores, thresh, max_keep=max_keep)
        assert keep.tolist() == nms_loops(boxes, scores, thresh, max_keep)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 120),
           st.floats(0.05, 0.95), st.one_of(st.none(), st.integers(1, 60)))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_oracle_on_random_boxes(self, seed, n, thresh,
                                                    max_keep):
        rng = np.random.default_rng(seed)
        boxes = np.stack([rng.uniform(0, 60, n), rng.uniform(0, 60, n),
                          rng.uniform(0, 30, n), rng.uniform(0, 30, n)], axis=1)
        scores = rng.uniform(0, 1, n)
        keep = detect.nms(boxes, scores, thresh, max_keep=max_keep)
        assert keep.tolist() == nms_loops(boxes, scores, thresh, max_keep)
        # the early stop returns the prefix of the full pass
        full = detect.nms(boxes, scores, thresh)
        assert keep.tolist() == full[:max_keep].tolist()


@pytest.fixture
def params():
    return detect.init_detect_params(2, np.random.default_rng(0))


def tiny_fpn(rng, n=1, size=8):
    return [
        Tensor(rng.normal(size=(n, FPN_WIDTH, size // s, size // s))
               .astype(np.float32) * 0.5)
        for s in detect.STRIDES
    ]


class TestRpnForward:
    def test_shapes_match_anchor_layout(self, params):
        rng = np.random.default_rng(1)
        fpn = tiny_fpn(rng, n=2, size=16)
        logits, deltas = detect.rpn_forward(fpn, params)
        a = len(detect.generate_anchors([(16 // s, 16 // s)
                                         for s in detect.STRIDES]))
        assert a == sum((16 // s) ** 2 * 3 for s in detect.STRIDES)
        assert logits.shape == (2, a)
        assert deltas.shape == (2, a, 4)

    def test_zero_head_all_zero(self, params):
        for k in ("rpn.obj.w", "rpn.obj.b", "rpn.reg.w", "rpn.reg.b"):
            params[k].data[:] = 0
        rng = np.random.default_rng(2)
        logits, deltas = detect.rpn_forward(tiny_fpn(rng), params)
        np.testing.assert_array_equal(logits.data, 0)
        np.testing.assert_array_equal(deltas.data, 0)

    def test_wrong_level_count(self, params):
        with pytest.raises(ad.ShapeError):
            detect.rpn_forward([Tensor(np.zeros((1, FPN_WIDTH, 4, 4)))] * 2, params)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 2),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_flat_layout_on_non_square_inputs(self, hk, wk, n, seed):
        assume(hk != wk)
        h, w = 8 * hk, 8 * wk
        shapes = [(h // s, w // s) for s in detect.STRIDES]
        anchors = detect.generate_anchors(shapes)
        assert len(anchors) == 3 * sum(a * b for a, b in shapes)
        rng = np.random.default_rng(seed)
        fpn = [Tensor(rng.normal(size=(n, FPN_WIDTH) + hw).astype(np.float32))
               for hw in shapes]
        logits, deltas = detect.rpn_forward(
            fpn, detect.init_detect_params(2, rng))
        assert logits.shape == (n, len(anchors))
        assert deltas.shape == (n, len(anchors), 4)
        # each level's centres run from half a stride in to half a stride
        # short of the far edge, on both axes
        areas = anchors[:, 2] * anchors[:, 3]
        for stride, base in zip(detect.STRIDES, detect.BASE_SIZES):
            lvl = anchors[np.isclose(areas, base * base)]
            assert lvl[:, 0].min() == lvl[:, 1].min() == stride / 2
            assert lvl[:, 0].max() == w - stride / 2
            assert lvl[:, 1].max() == h - stride / 2


class TestAssignAnchors:
    def test_no_gt_all_negative(self):
        anchors = detect.xywh_to_cxcywh(np.array([[0, 0, 10, 10], [20, 20, 4, 4]]))
        labels, matched = detect.assign_anchors(anchors, np.zeros((0, 4)))
        assert labels.tolist() == [0, 0]
        assert matched.tolist() == [-1, -1]

    def test_exact_match_positive_far_negative(self):
        anchors = detect.xywh_to_cxcywh(
            np.array([[0.0, 0.0, 10.0, 10.0], [100.0, 100.0, 10.0, 10.0]])
        )
        labels, matched = detect.assign_anchors(anchors, [(0.0, 0.0, 10.0, 10.0)])
        assert labels.tolist() == [1, 0]
        assert matched.tolist() == [0, -1]

    def test_best_anchor_per_gt_positive_even_below_threshold(self):
        # single anchor with IoU ~0.45: below 0.7 but best for its gt
        anchors = detect.xywh_to_cxcywh(np.array([[0.0, 0.0, 10.0, 10.0]]))
        labels, _ = detect.assign_anchors(anchors, [(3.0, 0.0, 10.0, 10.0)])
        assert labels.tolist() == [1]

    def test_intermediate_iou_ignored(self):
        # two anchors: one exact (positive), one at IoU ~0.45 (ignored band)
        anchors = detect.xywh_to_cxcywh(
            np.array([[0.0, 0.0, 10.0, 10.0], [3.5, 0.0, 10.0, 10.0]])
        )
        labels, _ = detect.assign_anchors(anchors, [(0.0, 0.0, 10.0, 10.0)])
        assert labels.tolist() == [1, -1]


class TestRpnLoss:
    def test_single_anchor_on_gt_logit_zero_is_ln2(self):
        anchors = detect.xywh_to_cxcywh(np.array([[2.0, 2.0, 10.0, 10.0]]))
        loss = detect.rpn_loss(
            Tensor([0.0]), Tensor(np.zeros((1, 4))), anchors,
            [(2.0, 2.0, 10.0, 10.0)], np.random.default_rng(0)
        )
        assert float(loss.data) == pytest.approx(math.log(2), rel=1e-6)

    def test_no_gt_pure_negative_bce(self):
        anchors = detect.xywh_to_cxcywh(
            np.stack([np.arange(4) * 30.0, np.zeros(4),
                      np.full(4, 8.0), np.full(4, 8.0)], axis=1)
        )
        loss = detect.rpn_loss(
            Tensor(np.zeros(4)), Tensor(np.zeros((4, 4))), anchors,
            np.zeros((0, 4)), np.random.default_rng(0)
        )
        # all negatives at logit 0: mean BCE = ln2, no regression term
        assert float(loss.data) == pytest.approx(math.log(2), rel=1e-6)

    def test_saturated_correct_case_near_zero(self):
        anchors = detect.xywh_to_cxcywh(
            np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 10.0, 10.0]])
        )
        loss = detect.rpn_loss(
            Tensor([30.0, -30.0]), Tensor(np.zeros((2, 4))), anchors,
            [(0.0, 0.0, 10.0, 10.0)], np.random.default_rng(0)
        )
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_regression_term_counts(self):
        # positive anchor offset from gt: loss = ln2 (cls) + smooth-l1 of the
        # true deltas, averaged per coordinate over the single positive
        anchors = detect.xywh_to_cxcywh(
            np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 10.0, 10.0]])
        )
        gt = [(1.0, 0.0, 10.0, 10.0)]
        t = detect.encode_deltas(np.array(gt), anchors[:1])[0]
        expect_reg = np.where(
            np.abs(t) < 1, 0.5 * t**2, np.abs(t) - 0.5
        ).sum() / 4.0
        loss = detect.rpn_loss(
            Tensor([0.0, 0.0]), Tensor(np.zeros((2, 4))), anchors, gt,
            np.random.default_rng(0)
        )
        assert float(loss.data) == pytest.approx(
            math.log(2) + expect_reg, rel=1e-5
        )

    @pytest.mark.parametrize("which", [0, 1])
    def test_gradients(self, which):
        anchors = detect.xywh_to_cxcywh(
            np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 10.0, 10.0],
                      [0.0, 40.0, 12.0, 12.0]])
        )
        gt = [(1.0, 1.0, 10.0, 10.0)]
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.normal(size=3).astype(np.float32)
            deltas = rng.normal(size=(3, 4)).astype(np.float32) * 0.3
            check_grad(
                lambda lg, dl: detect.rpn_loss(
                    lg, dl, anchors, gt, np.random.default_rng(0)
                ),
                [logits, deltas],
                which=which,
            )


class TestRpnProposals:
    def test_zero_head_returns_anchor_like_boxes(self, params):
        rng = np.random.default_rng(4)
        fpn = tiny_fpn(rng, size=16)
        logits, deltas = detect.rpn_forward(fpn, params)
        props = detect.rpn_proposals(
            logits, deltas, detect.generate_anchors([(8, 8), (4, 4), (2, 2)]),
            image_shape=(16, 16),
        )
        assert len(props) == 1
        boxes, scores = props[0]
        assert len(boxes) <= 32
        assert np.all(boxes[:, 2] >= 2.0) and np.all(boxes[:, 3] >= 2.0)
        assert np.all(boxes[:, :2] >= 0)
        # clipped to the image
        assert np.all(boxes[:, 0] + boxes[:, 2] <= 16 + 1e-6)

    def test_scores_descend_after_nms(self, params):
        rng = np.random.default_rng(5)
        fpn = tiny_fpn(rng, size=16)
        logits, deltas = detect.rpn_forward(fpn, params)
        props = detect.rpn_proposals(
            logits, deltas, detect.generate_anchors([(8, 8), (4, 4), (2, 2)]),
            image_shape=(16, 16),
        )
        _, scores = props[0]
        assert np.all(np.diff(scores) <= 1e-9)

    def test_non_square_image_clips_each_axis_to_its_own_size(self, params):
        # 32 rows, 96 columns: proposals span the whole width and stay
        # inside the height
        rng = np.random.default_rng(11)
        h, w = 32, 96
        shapes = [(h // s, w // s) for s in detect.STRIDES]
        fpn = [Tensor(rng.normal(size=(1, FPN_WIDTH) + hw).astype(np.float32)
                      * 0.5) for hw in shapes]
        logits, deltas = detect.rpn_forward(fpn, params)
        [(boxes, _)] = detect.rpn_proposals(
            logits, deltas, detect.generate_anchors(shapes), (h, w),
            pre_nms=400, post_nms=200)
        assert np.all(boxes[:, :2] >= 0)
        assert np.all(boxes[:, 1] + boxes[:, 3] <= h)
        assert np.all(boxes[:, 0] + boxes[:, 2] <= w)
        assert (boxes[:, 0] + boxes[:, 2]).max() > 32


class TestRoiHead:
    def test_uniform_logits_give_ln2_and_zero_reg_on_exact_proposal(self):
        params = detect.init_detect_params(1, np.random.default_rng(0))
        for k in params:
            if k.startswith("roi."):
                params[k].data[:] = 0
        rng = np.random.default_rng(6)
        fpn = tiny_fpn(rng, size=16)
        gt = [(np.array([[2.0, 2.0, 8.0, 8.0]]), np.array([1]))]
        proposals = [np.array([[2.0, 2.0, 8.0, 8.0]])]
        loss = detect.roi_loss(fpn, proposals, gt, params)
        # 2-way uniform classification -> ln2; exact proposal -> zero deltas
        assert float(loss.data) == pytest.approx(math.log(2), rel=1e-5)

    def test_all_background_has_no_regression(self):
        params = detect.init_detect_params(1, np.random.default_rng(0))
        for k in params:
            if k.startswith("roi."):
                params[k].data[:] = 0
        rng = np.random.default_rng(7)
        fpn = tiny_fpn(rng, size=16)
        gt = [(np.array([[0.0, 0.0, 4.0, 4.0]]), np.array([1]))]
        proposals = [np.array([[10.0, 10.0, 4.0, 4.0]])]  # IoU 0 with gt
        loss = detect.roi_loss(fpn, proposals, gt, params)
        assert float(loss.data) == pytest.approx(math.log(2), rel=1e-5)

    def test_no_proposals_rejected(self):
        params = detect.init_detect_params(1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            detect.roi_loss([], [np.zeros((0, 4))], [], params)

    def test_gradient_wrt_fpn_and_cls_weight(self):
        params = detect.init_detect_params(1, np.random.default_rng(0))
        rng = np.random.default_rng(8)
        lvl1 = rng.normal(size=(1, FPN_WIDTH, 4, 4)).astype(np.float32) * 0.5
        lvl2 = rng.normal(size=(1, FPN_WIDTH, 2, 2)).astype(np.float32) * 0.5
        lvl3 = rng.normal(size=(1, FPN_WIDTH, 1, 1)).astype(np.float32) * 0.5
        gt = [(np.array([[1.0, 1.0, 5.0, 5.0]]), np.array([1]))]
        proposals = [np.array([[1.0, 1.0, 5.0, 5.0], [0.0, 3.0, 4.0, 4.0]])]

        def build(a, b, c):
            for t in params.values():
                t.zero_grad()
            return detect.roi_loss([a, b, c], proposals, gt, params)

        check_grad(build, [lvl1, lvl2, lvl3], which=0)

        cw = params["roi.cls.w"].data.copy()

        def build_w(wt):
            for t in params.values():
                t.zero_grad()
            saved = params["roi.cls.w"]
            params["roi.cls.w"] = wt
            try:
                return detect.roi_loss(
                    [Tensor(lvl1), Tensor(lvl2), Tensor(lvl3)], proposals, gt,
                    params,
                )
            finally:
                params["roi.cls.w"] = saved

        check_grad(build_w, [cw])

    def test_zero_head_yields_no_detections(self):
        params = detect.init_detect_params(2, np.random.default_rng(0))
        for k in params:
            if k.startswith("roi."):
                params[k].data[:] = 0
        rng = np.random.default_rng(9)
        fpn = tiny_fpn(rng, size=16)
        dets = detect.roi_predict(
            fpn, [np.array([[2.0, 2.0, 8.0, 8.0]])], params, num_classes=2
        )
        assert len(dets) == 1 and len(dets[0]) == 0

    def test_predict_scores_sorted_and_capped(self):
        params = detect.init_detect_params(2, np.random.default_rng(1))
        rng = np.random.default_rng(10)
        fpn = tiny_fpn(rng, size=16)
        props = [np.stack([rng.uniform(0, 8, 30), rng.uniform(0, 8, 30),
                           rng.uniform(2, 8, 30), rng.uniform(2, 8, 30)], axis=1)]
        dets = detect.roi_predict(fpn, props, params, num_classes=2,
                                  score_floor=0.0, max_dets=5)
        assert len(dets[0]) <= 5
        assert np.all(np.diff(dets[0].scores) <= 1e-12)

    def test_empty_proposals_give_empty_sets(self):
        params = detect.init_detect_params(1, np.random.default_rng(0))
        dets = detect.roi_predict([], [np.zeros((0, 4))] * 2, params, 1)
        assert len(dets) == 2 and all(len(d) == 0 for d in dets)


class TestJson:
    def test_serialization_fields(self):
        ds = detect.DetectionSet(
            np.array([[1.0, 2.0, 3.0, 4.0]]), np.array([0.75]),
            np.array([2], dtype=np.int64),
        )
        [rec] = detect.detections_to_json([ds], [7])
        assert rec == {"image_id": 7, "bbox": [1.0, 2.0, 3.0, 4.0],
                       "score": 0.75, "category_id": 2}
