import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfadet import hsi
from sfadet.hsi import (
    AnnotatedSample,
    HyperCube,
    SynthConfig,
    eval_annotation_access,
    match_bands,
    read_cube,
    spectral_angle,
    write_cube,
)

from oracles import mutate_field


def small_cube():
    return HyperCube(np.arange(12, dtype=np.float32).reshape(3, 2, 2),
                     spectral_resolution=4.5)


class TestCubeIO:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "c.hsic"
        cube = small_cube()
        write_cube(cube, path)
        back = read_cube(path)
        np.testing.assert_array_equal(back.values, cube.values)
        assert back.spectral_resolution == pytest.approx(4.5)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cube = HyperCube(rng.normal(size=(7, 5, 4)).astype(np.float32))
        p1, p2 = tmp_path / "a.hsic", tmp_path / "b.hsic"
        write_cube(cube, p1)
        write_cube(read_cube(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hsic"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(hsi.CubeFormatError):
            read_cube(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.hsic"
        write_cube(small_cube(), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(hsi.CubeTruncationError):
            read_cube(path)

    # header: magic (4), version (2), width, height and bands (4 each),
    # spectral resolution (4); small_cube() is 3 bands of 2 x 2
    @pytest.mark.parametrize("edit,cause", [
        (lambda raw: raw[:6] + b"\x00" * 4 + raw[10:],
         "cube dims must be >= 1, got (3, 2, 0)"),
        (lambda raw: raw + b"\x00" * 8, "8 trailing bytes after the payload"),
    ], ids=["zero_width", "trailing_bytes"])
    def test_malformed_cube_names_path(self, tmp_path, edit, cause):
        path = tmp_path / "c.hsic"
        write_cube(small_cube(), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(hsi.CubeFormatError,
                           match=f"^{re.escape(str(path))}: {re.escape(cause)}$"):
            read_cube(path)

    # magic (4 bytes), version (2), then width, height and bands (4 each)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_header_byte_or_cut_fails_named(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.hsic")
            write_cube(small_cube(), path)
            with open(path, "rb") as f:
                raw = bytearray(f.read())
            if data.draw(st.booleans()):
                raw[data.draw(st.integers(0, 17))] ^= data.draw(
                    st.integers(1, 255))
            else:
                del raw[data.draw(st.integers(0, len(raw) - 1)):]
            with open(path, "wb") as f:
                f.write(raw)
            with pytest.raises((hsi.CubeFormatError,
                                hsi.CubeTruncationError)) as err:
                read_cube(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "\n" not in str(err.value)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "c.hsic"
        write_cube(small_cube(), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(hsi.CubeValueError):
            read_cube(path)


class TestMatchBands:
    def test_expand_4_to_8(self):
        cube = HyperCube(np.arange(4, dtype=np.float32).reshape(4, 1, 1) + 1)
        out = match_bands(cube, 8)
        np.testing.assert_array_equal(
            out.values.ravel(), [1, 1, 1, 2, 3, 4, 4, 4]
        )

    def test_downsample_5_to_3(self):
        cube = HyperCube(np.arange(5, dtype=np.float32).reshape(5, 1, 1) * 10)
        out = match_bands(cube, 3)
        np.testing.assert_array_equal(out.values.ravel(), [0, 20, 40])

    def test_identity(self):
        cube = small_cube()
        out = match_bands(cube, cube.bands)
        np.testing.assert_array_equal(out.values, cube.values)

    def test_single_band_target(self):
        cube = HyperCube(np.arange(5, dtype=np.float32).reshape(5, 1, 1))
        assert match_bands(cube, 1).values.ravel().tolist() == [0.0]

    @given(l=st.integers(1, 40), t=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_at_fixed_point(self, l, t):
        cube = HyperCube(np.arange(l, dtype=np.float32).reshape(l, 1, 1))
        once = match_bands(cube, t)
        twice = match_bands(once, t)
        assert once.bands == t
        np.testing.assert_array_equal(once.values, twice.values)

    @given(l=st.integers(1, 30), extra=st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_expansion_keeps_original_contiguously(self, l, extra):
        cube = HyperCube(np.arange(l, dtype=np.float32).reshape(l, 1, 1))
        out = match_bands(cube, l + extra)
        front = (l + extra - l) // 2
        seq = out.values.ravel()
        np.testing.assert_array_equal(seq[front : front + l], np.arange(l))
        assert np.all(seq[:front] == 0)
        assert np.all(seq[front + l :] == l - 1)

    @given(l=st.integers(2, 40), t=st.integers(2, 40))
    @settings(max_examples=200, deadline=None)
    def test_downsample_selects_rounded_indices(self, l, t):
        if t >= l:
            return
        cube = HyperCube(np.arange(l, dtype=np.float32).reshape(l, 1, 1))
        out = match_bands(cube, t)
        expected = np.floor(np.arange(t) * (l - 1) / (t - 1) + 0.5)
        np.testing.assert_array_equal(out.values.ravel(), expected)


VALID_ANNOTATIONS = {
    "images": [{"id": 0, "file": "a.hsic", "width": 40, "height": 30,
                "bands": 2},
               {"id": 7, "file": "b.hsic", "width": 20, "height": 20,
                "bands": 2}],
    "annotations": [
        {"id": 1, "image_id": 0, "bbox": [1, 2, 5, 6], "category_id": 1},
        {"id": 2, "image_id": 7, "bbox": [3.5, 3, 4, 4], "category_id": 2},
        {"image_id": 0, "bbox": [10, 0, 20, 20], "category_id": 2}],
    "categories": [{"id": 1, "name": "class_1"}, {"id": 2, "name": "class_2"}],
}
VALID_ANNOTATIONS_PARSE = [([(1.0, 2.0, 5.0, 6.0), (10.0, 0.0, 20.0, 20.0)],
                            [1, 2]),
                           ([(3.5, 3.0, 4.0, 4.0)], [2])]
# fields load_annotations does not read: any value, or none, parses the same
UNREAD_FIELDS = {("images", "bands"), ("annotations", "id")}


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        cube = HyperCube(np.zeros((2, 20, 30), dtype=np.float32))
        s = AnnotatedSample(cube, [(1.0, 2.0, 5.0, 6.0), (10.0, 3.0, 4.0, 4.0)],
                           [1, 2], image_id=7)
        path = tmp_path / "ann.json"
        hsi.save_annotations([s], path)
        [(img, boxes, classes)] = hsi.load_annotations(path)
        assert img["id"] == 7 and img["bands"] == 2
        assert boxes == [(1.0, 2.0, 5.0, 6.0), (10.0, 3.0, 4.0, 4.0)]
        assert classes == [1, 2]

    def test_empty_annotation_list_is_valid(self, tmp_path):
        cube = HyperCube(np.zeros((1, 4, 4), dtype=np.float32))
        path = tmp_path / "ann.json"
        hsi.save_annotations([AnnotatedSample(cube, [], [])], path)
        [(img, boxes, classes)] = hsi.load_annotations(path)
        assert boxes == [] and classes == []

    def test_out_of_bounds_box_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"images": [{"id": 0, "file": "x", "width": 10, "height": 10,'
            ' "bands": 1}], "annotations": [{"image_id": 0,'
            ' "bbox": [8, 1, 5, 2], "category_id": 1}], "categories": []}'
        )
        with pytest.raises(hsi.AnnotationError):
            hsi.load_annotations(path)

    @pytest.mark.parametrize("key", ["image_id", "bbox", "category_id"])
    def test_missing_key_named(self, tmp_path, key):
        ann = {"id": 5, "image_id": 0, "bbox": [1, 1, 2, 2], "category_id": 1}
        del ann[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [
            {"id": 0, "file": "x", "width": 10, "height": 10, "bands": 1}],
            "annotations": [ann]}))
        with pytest.raises(hsi.AnnotationError,
                           match=f"annotation 5 has no '{key}' key"):
            hsi.load_annotations(path)

    @pytest.mark.parametrize("key", ["id", "width", "height", "file"])
    def test_image_record_missing_key_named(self, tmp_path, key):
        images = [{"id": i, "file": "x", "width": 10, "height": 10, "bands": 1}
                  for i in range(2)]
        del images[1][key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": images, "annotations": []}))
        with pytest.raises(hsi.AnnotationError) as err:
            hsi.load_annotations(path)
        assert str(err.value) == f"{path}: image #1 has no '{key}' key"

    @pytest.mark.parametrize("record, cause", [
        (5, "image #1 is not a JSON object"),
        ({"id": "1"}, "image #1: id must be an integer, got '1'"),
        ({"id": True}, "image #1: id must be an integer, got True"),
        ({"id": 0}, "image #1: duplicate id 0"),
        ({"file": 5}, "image #1: file must be a string, got 5"),
        ({"width": "64"}, "image #1: width must be an integer >= 1, got '64'"),
        ({"width": 0}, "image #1: width must be an integer >= 1, got 0"),
        ({"height": 10.0},
         "image #1: height must be an integer >= 1, got 10.0"),
        ({"height": -3}, "image #1: height must be an integer >= 1, got -3"),
        ({"id": -2**63 - 1},
         f"image #1: id must be a 64-bit integer, got {-2**63 - 1}"),
        ({"width": 2**63},
         f"image #1: width must be a 64-bit integer, got {2**63}"),
    ])
    def test_unusable_image_record_named(self, tmp_path, record, cause):
        # at the parent of this check: a duplicate id scored one image
        # twice, and the others failed with a bare TypeError
        good = {"id": 0, "file": "x", "width": 10, "height": 10, "bands": 1}
        bad = {**good, "id": 1, **record} if isinstance(record, dict) else record
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [good, bad], "annotations": []}))
        with pytest.raises(hsi.AnnotationError) as err:
            hsi.load_annotations(path)
        assert str(err.value) == f"{path}: {cause}"

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_field_fails_named_or_parses_the_same(self, data):
        doc = json.loads(json.dumps(VALID_ANNOTATIONS))
        part = data.draw(st.sampled_from(["images", "annotations"]))
        i = data.draw(st.integers(0, len(doc[part]) - 1))
        key, value = mutate_field(data, doc[part][i])
        accepted = ((part, key) in UNREAD_FIELDS
                    or (key == "file" and type(value) is str))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ann.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            if not accepted:
                with pytest.raises(hsi.AnnotationError) as err:
                    hsi.load_annotations(path)
                where = f"image #{i}" if part == "images" else "annotation "
                assert str(err.value).startswith(f"{path}: {where}")
                assert "\n" not in str(err.value)
                return
            got = hsi.load_annotations(path)
        # each image record comes back as read; boxes and classes unmoved.
        # Compared as JSON text, since a NaN field is unequal to itself
        want = [(img, boxes, classes) for img, (boxes, classes)
                in zip(doc["images"], VALID_ANNOTATIONS_PARSE)]
        assert json.dumps(got) == json.dumps(want)

    def test_unknown_image_id_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [
            {"id": 0, "file": "x", "width": 10, "height": 10, "bands": 1}],
            "annotations": [{"id": 3, "image_id": 5, "bbox": [1, 1, 2, 2],
                             "category_id": 1}]}))
        with pytest.raises(hsi.AnnotationError) as err:
            hsi.load_annotations(path)
        assert str(err.value) == f"{path}: annotation 3: unknown image_id 5"

    @pytest.mark.parametrize("change, cause", [
        ({"bbox": [1, 1, 2]}, "bbox must be 4 finite numbers, got [1, 1, 2]"),
        ({"bbox": [1, 1, 2, 2, 2]},
         "bbox must be 4 finite numbers, got [1, 1, 2, 2, 2]"),
        ({"bbox": [1, "1", 2, 2]},
         "bbox must be 4 finite numbers, got [1, '1', 2, 2]"),
        ({"bbox": "1 1 2 2"}, "bbox must be 4 finite numbers, got '1 1 2 2'"),
        ({"category_id": "a"}, "category_id must be an integer, got 'a'"),
        ({"category_id": 1.5}, "category_id must be an integer, got 1.5"),
        ({"category_id": True}, "category_id must be an integer, got True"),
        ({"image_id": True}, "image_id must be an integer, got True"),
        ({"image_id": "0"}, "image_id must be an integer, got '0'"),
        ({"category_id": 2**63},
         f"category_id must be a 64-bit integer, got {2**63}"),
    ])
    def test_bad_bbox_or_category_named(self, tmp_path, change, cause):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [
            {"id": 0, "file": "x", "width": 10, "height": 10, "bands": 1}],
            "annotations": [{"image_id": 0, "bbox": [1, 1, 2, 2],
                             "category_id": 1},
                            {"id": 4, "image_id": 0, "bbox": [1, 1, 2, 2],
                             "category_id": 1, **change}]}))
        with pytest.raises(hsi.AnnotationError) as err:
            hsi.load_annotations(path)
        assert str(err.value) == f"{path}: annotation 4: {cause}"

    def test_non_finite_bbox_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [
            {"id": 0, "file": "x", "width": 10, "height": 10, "bands": 1}],
            "annotations": [{"image_id": 0, "bbox": [1, 1, float("nan"), 2],
                             "category_id": 1}]}))
        with pytest.raises(hsi.AnnotationError) as err:
            hsi.load_annotations(path)
        assert str(err.value) == (f"{path}: annotation #0: bbox must be 4 "
                                  f"finite numbers, got [1, 1, nan, 2]")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(hsi.AnnotationError):
            hsi.load_annotations(path)

    def test_out_of_bounds_box_rejected_on_build(self):
        cube = HyperCube(np.zeros((1, 10, 10), dtype=np.float32))
        with pytest.raises(hsi.AnnotationError):
            AnnotatedSample(cube, [(8.0, 1.0, 5.0, 2.0)], [1])

    def test_length_mismatch(self):
        cube = HyperCube(np.zeros((1, 10, 10), dtype=np.float32))
        with pytest.raises(hsi.AnnotationError):
            AnnotatedSample(cube, [(1.0, 1.0, 2.0, 2.0)], [1, 2])


class TestHeldOutGuard:
    def test_held_out_boxes_raise(self):
        cube = HyperCube(np.zeros((1, 10, 10), dtype=np.float32))
        s = AnnotatedSample(cube, [(1.0, 1.0, 2.0, 2.0)], [1], held_out=True)
        with pytest.raises(hsi.HeldOutAnnotationError):
            _ = s.boxes
        with eval_annotation_access():
            assert len(s.boxes) == 1

    def test_non_held_out_always_readable(self):
        cube = HyperCube(np.zeros((1, 10, 10), dtype=np.float32))
        s = AnnotatedSample(cube, [(1.0, 1.0, 2.0, 2.0)], [1])
        assert len(s.boxes) == 1


@pytest.fixture(scope="module")
def pair():
    cfg = SynthConfig(num_source=4, num_target=4, seed=42)
    return cfg, hsi.generate_domain_pair(cfg)


class TestGenerator:

    def test_determinism(self, pair):
        cfg, (src1, tgt1) = pair
        src2, tgt2 = hsi.generate_domain_pair(cfg)
        for a, b in zip(src1 + tgt1, src2 + tgt2):
            np.testing.assert_array_equal(a.cube.values, b.cube.values)
            with eval_annotation_access():
                assert a.boxes == b.boxes and a.classes == b.classes

    def test_band_counts(self, pair):
        cfg, (src, tgt) = pair
        assert all(s.cube.bands == cfg.source_bands for s in src)
        assert all(t.cube.bands == cfg.target_bands for t in tgt)

    def test_target_annotations_flagged_held_out(self, pair):
        _, (src, tgt) = pair
        assert all(not s.held_out for s in src)
        assert all(t.held_out for t in tgt)

    def test_object_background_spectral_margin(self, pair):
        cfg, (src, _) = pair
        checked = 0
        with eval_annotation_access():
            for s in src:
                for (x, y, w, h) in s.boxes:
                    x, y, w, h = int(x), int(y), int(w), int(h)
                    cx, cy = x + w // 2, y + h // 2
                    obj = s.cube.values[:, cy, cx]
                    # adjacent background just outside the box
                    bx = x - 2 if x >= 2 else min(x + w + 1, s.cube.width - 1)
                    bg = s.cube.values[:, cy, bx]
                    angle = spectral_angle(obj, bg)
                    assert angle >= cfg.margin_deg * 0.6
                    checked += 1
        assert checked > 0

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError):
            hsi.generate_domain_pair(
                SynthConfig(min_objects=2, max_objects=0, num_source=1,
                            num_target=1)
            )

    def test_different_seed_differs(self):
        a, _ = hsi.generate_domain_pair(SynthConfig(num_source=1, num_target=1,
                                                    seed=1))
        b, _ = hsi.generate_domain_pair(SynthConfig(num_source=1, num_target=1,
                                                    seed=2))
        assert not np.array_equal(a[0].cube.values, b[0].cube.values)
