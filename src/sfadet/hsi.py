"""Hypercube storage, annotations, band-count matching and the synthetic
domain-shifted scene generator.

Cube file layout (little-endian): magic ``HSIC``, version u16, W/H/L u32,
spectral resolution f32 (nm, 0 if unknown), then W*H*L float32 values in
band-sequential order (band-major, row-major within a band).
"""

from __future__ import annotations

import copy
import json
import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

import numpy as np

MAGIC = b"HSIC"
VERSION = 1


class CubeFormatError(ValueError):
    """Bad magic or malformed header."""


class CubeTruncationError(ValueError):
    """Payload shorter than the header promises."""


class CubeValueError(ValueError):
    """Non-finite values in a cube."""


class AnnotationError(ValueError):
    """Malformed or out-of-bounds annotation."""


class HeldOutAnnotationError(RuntimeError):
    """Training code touched annotations that are reserved for evaluation."""


@dataclass
class HyperCube:
    """W x H x L hyperspectral image over a (L0, H, W) float32 array.

    Band b is ``array[index[b]]``, or ``array[b]`` when ``index`` is None.
    :func:`match_bands` returns such a view, which shares ``array`` with
    its source, so a source must not be mutated after it is matched.
    """

    array: np.ndarray  # (L0, H, W), band-sequential
    spectral_resolution: float = 0.0  # nm, metadata only
    index: np.ndarray = None  # (L,) bands of ``array``, in [0, L0)

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=np.float32)
        if self.array.ndim != 3:
            raise CubeFormatError(f"cube must be 3-d (L,H,W), got {self.array.shape}")
        if min(self.array.shape) < 1:
            raise CubeFormatError(f"cube dims must be >= 1, got {self.array.shape}")
        if not np.all(np.isfinite(self.array)):
            raise CubeValueError("cube contains non-finite values")
        if self.index is not None:
            self.index = np.asarray(self.index, dtype=np.intp)
            if (self.index.ndim != 1 or len(self.index) < 1
                    or not np.all((self.index >= 0)
                                  & (self.index < len(self.array)))):
                raise CubeFormatError(
                    f"band index must be 1-d in [0, {len(self.array)}), "
                    f"got {self.index}")

    @property
    def values(self):
        """The (L, H, W) cube: ``array`` itself, or a read-only copy of the
        bands ``index`` shows, built on each read."""
        if self.index is None:
            return self.array
        v = self.array[self.index]
        v.flags.writeable = False
        return v

    @property
    def bands(self):
        return len(self.array) if self.index is None else len(self.index)

    @property
    def height(self):
        return self.array.shape[1]

    @property
    def width(self):
        return self.array.shape[2]


_HELDOUT_READS_ALLOWED = [False]


class eval_annotation_access:
    """Context manager that unlocks held-out annotations for the evaluator."""

    def __enter__(self):
        _HELDOUT_READS_ALLOWED[0] = True
        return self

    def __exit__(self, *exc):
        _HELDOUT_READS_ALLOWED[0] = False
        return False


@dataclass
class AnnotatedSample:
    """A cube plus its bounding boxes (x, y, w, h) and 1-based class indices.

    ``held_out=True`` marks target-domain annotations: reading ``boxes`` or
    ``classes`` then raises unless inside :class:`eval_annotation_access`.
    """

    cube: HyperCube
    _boxes: list = field(default_factory=list)
    _classes: list = field(default_factory=list)
    held_out: bool = False
    image_id: int = 0

    def __post_init__(self):
        if len(self._boxes) != len(self._classes):
            raise AnnotationError("boxes and classes differ in length")
        for (x, y, w, h) in self._boxes:
            if w <= 0 or h <= 0:
                raise AnnotationError(f"degenerate box ({x},{y},{w},{h})")
            if x < 0 or y < 0 or x + w > self.cube.width or y + h > self.cube.height:
                raise AnnotationError(
                    f"box ({x},{y},{w},{h}) exceeds cube "
                    f"{self.cube.width}x{self.cube.height}"
                )

    def _check_access(self):
        if self.held_out and not _HELDOUT_READS_ALLOWED[0]:
            raise HeldOutAnnotationError(
                "held-out target annotations were read outside the evaluator"
            )

    @property
    def boxes(self):
        self._check_access()
        return self._boxes

    @property
    def classes(self):
        self._check_access()
        return self._classes


# ---------------------------------------------------------------------------
# cube io


def write_cube(cube: HyperCube, path):
    v = np.ascontiguousarray(cube.values, dtype="<f4")
    header = MAGIC + struct.pack(
        "<HIIIf", VERSION, cube.width, cube.height, cube.bands,
        float(cube.spectral_resolution),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(v.data)


_HEADER = 4 + struct.calcsize("<HIIIf")


def read_cube(path) -> HyperCube:
    """The cube in ``path``; every error is one line that names the path.
    The payload is read straight into the cube's array."""
    with open(path, "rb") as f:
        raw = f.read(_HEADER)
        if raw[:4] != MAGIC:
            raise CubeFormatError(f"{path}: bad magic {raw[:4]!r}")
        if len(raw) < _HEADER:
            raise CubeTruncationError(f"{path}: truncated header")
        version, w, h, l, res = struct.unpack_from("<HIIIf", raw, 4)
        if version != VERSION:
            raise CubeFormatError(f"{path}: unsupported version {version}")
        if min(w, h, l) < 1:
            raise CubeFormatError(f"{path}: cube dims must be >= 1, got {(l, h, w)}")
        have, need = os.fstat(f.fileno()).st_size - _HEADER, w * h * l * 4
        if have < need:
            raise CubeTruncationError(
                f"{path}: payload has {have} bytes, need {need}")
        if have > need:
            raise CubeFormatError(
                f"{path}: {have - need} trailing bytes after the payload")
        vals = np.empty((l, h, w), dtype="<f4")
        if f.readinto(vals) != need:
            raise CubeTruncationError(f"{path}: payload ended while read")
    try:
        return HyperCube(vals, spectral_resolution=res)
    except CubeValueError:
        raise CubeValueError(f"{path}: non-finite values in payload") from None


# ---------------------------------------------------------------------------
# band matching


def match_bands(cube: HyperCube, target_bands: int) -> HyperCube:
    """Equalize the band count to ``target_bands``, as a view of ``cube``'s
    array: nothing is copied or checked again.

    Fewer bands: replicate the first band at the front (floor(d/2) copies)
    and the last band at the back (remainder). More bands: pick indices
    round(i*(L-1)/(t-1)) without interpolation. Matching a matched cube
    composes the two band indices.
    """
    if target_bands < 1:
        raise ValueError("target_bands must be >= 1")
    l = cube.bands
    if l == target_bands:
        return cube
    if l < target_bands:
        front = (target_bands - l) // 2
        idx = np.clip(np.arange(target_bands) - front, 0, l - 1)
    elif target_bands == 1:
        idx = np.zeros(1, dtype=np.intp)
    else:
        # half-up rounding, deterministic across platforms
        idx = np.floor(
            np.arange(target_bands) * (l - 1) / (target_bands - 1) + 0.5
        ).astype(np.intp)
    view = copy.copy(cube)
    view.index = idx if cube.index is None else cube.index[idx]
    view.index.flags.writeable = False
    return view


# ---------------------------------------------------------------------------
# annotation io (COCO-like JSON)


def save_annotations(samples, path, files=None):
    images, anns, cats = [], [], {}
    ann_id = 1
    with eval_annotation_access():
        for i, s in enumerate(samples):
            images.append({
                "id": s.image_id,
                "file": files[i] if files else f"{s.image_id:06d}.hsic",
                "width": s.cube.width,
                "height": s.cube.height,
                "bands": s.cube.bands,
            })
            for box, c in zip(s.boxes, s.classes):
                anns.append({
                    "id": ann_id,
                    "image_id": s.image_id,
                    "bbox": [float(v) for v in box],
                    "category_id": int(c),
                })
                cats[int(c)] = f"class_{int(c)}"
                ann_id += 1
    doc = {
        "images": images,
        "annotations": anns,
        "categories": [{"id": k, "name": v} for k, v in sorted(cats.items())],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def is_finite_number(v):
    """True for a finite JSON number: an int or a float, not a bool."""
    return type(v) in (int, float) and math.isfinite(v)


def int64_problem(key, v):
    """Why JSON field ``key`` = ``v`` is not an integer that int64 holds
    (a bool is not one), or None."""
    if type(v) is not int:
        return f"{key} must be an integer, got {v!r}"
    if not -2**63 <= v < 2**63:
        return f"{key} must be a 64-bit integer, got {v}"
    return None


def is_xywh(v):
    """True for a JSON box: a list (or tuple) of 4 finite numbers."""
    return (type(v) in (list, tuple) and len(v) == 4
            and all(map(is_finite_number, v)))


ImageAnnotations = namedtuple("ImageAnnotations", "image boxes classes")


def load_annotations(path):
    """Return one ImageAnnotations per image: its JSON record, its (x, y, w,
    h) boxes and their class ids, which the evaluator scores as ground
    truth. A record that cannot be used fails with one AnnotationError line
    naming the path and the record."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise AnnotationError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(doc, dict) or "images" not in doc:
        raise AnnotationError(f"{path}: missing 'images' key")
    images, anns = doc["images"], doc.get("annotations", [])
    if type(images) is not list or type(anns) is not list:
        raise AnnotationError(f"{path}: 'images' and 'annotations' must be lists")
    by_img = {}
    for i, img in enumerate(images):
        where = f"{path}: image #{i}"
        if not isinstance(img, dict):
            raise AnnotationError(f"{where} is not a JSON object")
        for key in ("id", "file", "width", "height"):
            if key not in img:
                raise AnnotationError(f"{where} has no {key!r} key")
        if problem := int64_problem("id", img["id"]):
            raise AnnotationError(f"{where}: {problem}")
        if img["id"] in by_img:
            raise AnnotationError(f"{where}: duplicate id {img['id']}")
        if type(img["file"]) is not str:
            raise AnnotationError(
                f"{where}: file must be a string, got {img['file']!r}")
        for key in ("width", "height"):
            if type(img[key]) is not int or img[key] < 1:
                raise AnnotationError(
                    f"{where}: {key} must be an integer >= 1, got {img[key]!r}")
            if problem := int64_problem(key, img[key]):
                raise AnnotationError(f"{where}: {problem}")
        by_img[img["id"]] = ImageAnnotations(img, [], [])
    for i, a in enumerate(anns):
        if not isinstance(a, dict):
            raise AnnotationError(f"{path}: annotation #{i} is not a JSON object")
        where = f"{path}: annotation {a.get('id', f'#{i}')}"
        for key in ("image_id", "bbox", "category_id"):
            if key not in a:
                raise AnnotationError(f"{where} has no {key!r} key")
        if problem := int64_problem("image_id", a["image_id"]):
            raise AnnotationError(f"{where}: {problem}")
        if a["image_id"] not in by_img:
            raise AnnotationError(f"{where}: unknown image_id {a['image_id']!r}")
        bbox, cat = a["bbox"], a["category_id"]
        if not is_xywh(bbox):
            raise AnnotationError(
                f"{where}: bbox must be 4 finite numbers, got {bbox!r}")
        if problem := int64_problem("category_id", cat):
            raise AnnotationError(f"{where}: {problem}")
        img, boxes, classes = by_img[a["image_id"]]
        x, y, w, h = bbox
        if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > img["width"] or y + h > img["height"]:
            raise AnnotationError(
                f"{path}: box {a['bbox']} out of bounds for image {a['image_id']}"
            )
        boxes.append((float(x), float(y), float(w), float(h)))
        classes.append(cat)
    return list(by_img.values())


# ---------------------------------------------------------------------------
# synthetic domain pair generator


# Largest magnitude of a float setting. It keeps every rendered value
# (gain x a level of at most 1.1, plus offset, plus noise) finite in
# float32, and every object side (fraction x image_size x scale pixels)
# inside int64 for any image that fits in memory.
_MAX_SETTING = 1e6


@dataclass
class SynthConfig:
    """Fully-seeded description of a synthetic cross-domain scene set."""

    source_bands: int = 30
    target_bands: int = 60
    source_scale: float = 1.0   # spatial object-size multiplier
    target_scale: float = 1.4
    image_size: int = 64
    num_source: int = 24
    num_target: int = 24
    num_materials: int = 2      # object spectral signatures
    num_backgrounds: int = 3    # background signature pool per domain
    noise_source: float = 0.02
    noise_target: float = 0.04
    min_objects: int = 1
    max_objects: int = 2
    min_object_frac: float = 0.15  # object side as fraction of image size
    max_object_frac: float = 0.45
    margin_deg: float = 12.0    # minimum object/background spectral angle
    target_gain: float = 1.3    # illumination shift on target cubes
    target_offset: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, low in (("source_bands", 1), ("target_bands", 1),
                          ("image_size", 3), ("num_source", 1),
                          ("num_target", 1), ("num_materials", 1),
                          ("num_backgrounds", 1), ("min_objects", 0),
                          ("max_objects", max(1, self.min_objects)),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, "
                                 f"got {getattr(self, name)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if type(f.default) is float and abs(value) > _MAX_SETTING:
                raise ValueError(f"{f.name} must be at most {_MAX_SETTING:g} "
                                 f"in absolute value, got {value}")
        for name in ("source_scale", "target_scale", "min_object_frac",
                     "max_object_frac", "noise_source", "noise_target"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, "
                                 f"got {getattr(self, name)}")


def _smooth_curve(rng):
    """Random smooth spectral curve on [0, 1] wavelength units."""
    ctrl = rng.uniform(0.2, 1.0, size=6)
    xs = np.linspace(0.0, 1.0, ctrl.size)

    def f(wl):
        return np.interp(wl, xs, ctrl)

    return f


def spectral_angle(a, b):
    """Angle (degrees) between two spectra."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cosv = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)
    return math.degrees(math.acos(np.clip(cosv, -1.0, 1.0)))


def _sample_signatures(cfg, rng):
    """Draw material and background curves honoring the angle margin."""
    wl_s = np.linspace(0.0, 1.0, cfg.source_bands)
    for _ in range(200):
        mats = [_smooth_curve(rng) for _ in range(cfg.num_materials)]
        bgs = [_smooth_curve(rng) for _ in range(cfg.num_backgrounds)]
        ok = all(
            spectral_angle(m(wl_s), b(wl_s)) >= cfg.margin_deg
            for m in mats
            for b in bgs
        )
        if ok:
            return mats, bgs
    raise ValueError(
        "generator config is degenerate: could not draw signatures with the "
        f"required {cfg.margin_deg} degree margin"
    )


def _render_scene(cfg, rng, mats, bgs, domain):
    size = cfg.image_size
    bands = cfg.source_bands if domain == "source" else cfg.target_bands
    scale = cfg.source_scale if domain == "source" else cfg.target_scale
    noise = cfg.noise_source if domain == "source" else cfg.noise_target
    wl = np.linspace(0.0, 1.0, bands)

    bg = bgs[rng.integers(len(bgs))](wl).astype(np.float32)
    cube = np.broadcast_to(bg[:, None, None], (bands, size, size)).copy()
    # low-frequency illumination ramp so backgrounds are not perfectly flat
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
            mask = np.ones((h, w), dtype=bool)  # rectangle
        else:  # ellipse
            mask = ((yy - (h - 1) / 2) / (h / 2)) ** 2 + (
                (xx - (w - 1) / 2) / (w / 2)
            ) ** 2 <= 1.0
        region = cube[:, y : y + h, x : x + w]
        region[:, mask] = sig[:, None]
        boxes.append((float(x), float(y), float(w), float(h)))
        classes.append(mi + 1)

    if domain == "target":
        cube *= cfg.target_gain
        cube += cfg.target_offset
    # one band at a time: the same normals as one (L, H, W) draw
    for band in cube:
        band += rng.normal(0.0, noise, size=band.shape).astype(np.float32)
    res = 4.5 if domain == "source" else 2.2
    return HyperCube(cube, spectral_resolution=res), boxes, classes


def generate_domain_pair(cfg: SynthConfig):
    """Build matched source (labeled) and target (held-out labels) scene sets.

    Both domains share object material curves; they differ in band count,
    object size distribution, background statistics, illumination and noise.
    """
    rng = np.random.default_rng(cfg.seed)
    mats, bgs_src = _sample_signatures(cfg, rng)
    # independent background pool for the target domain
    wl_t = np.linspace(0.0, 1.0, cfg.target_bands)
    bgs_tgt = []
    for _ in range(200 * cfg.num_backgrounds):
        if len(bgs_tgt) == cfg.num_backgrounds:
            break
        b = _smooth_curve(rng)
        if all(spectral_angle(m(wl_t), b(wl_t)) >= cfg.margin_deg for m in mats):
            bgs_tgt.append(b)
    if len(bgs_tgt) < cfg.num_backgrounds:
        # e.g. one target band: every spectral angle is 0 degrees
        raise ValueError(
            "generator config is degenerate: could not draw target "
            f"backgrounds with the required {cfg.margin_deg} degree margin"
        )

    source, target = [], []
    for i in range(cfg.num_source):
        cube, boxes, classes = _render_scene(cfg, rng, mats, bgs_src, "source")
        source.append(AnnotatedSample(cube, boxes, classes, held_out=False, image_id=i))
    for i in range(cfg.num_target):
        cube, boxes, classes = _render_scene(cfg, rng, mats, bgs_tgt, "target")
        target.append(
            AnnotatedSample(cube, boxes, classes, held_out=True, image_id=i)
        )
    return source, target
