import json
import os

import numpy as np
import pytest

from sfadet import cli, hsi, ssam
from sfadet.autodiff import Tensor


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def synth_cfg(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text(
        "num_source=3\nnum_target=3\nimage_size=32\n"
        "source_bands=4\ntarget_bands=8\nseed=5\n"
    )
    return str(path)


@pytest.fixture
def dataset(tmp_path, synth_cfg):
    out = tmp_path / "data"
    assert run("gen-synth", "--config", synth_cfg, "--out", str(out)) == 0
    return str(out)


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestGenSynth:
    def test_deterministic_output(self, tmp_path, synth_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-synth", "--config", synth_cfg, "--out", str(a)) == 0
        assert run("gen-synth", "--config", synth_cfg, "--out", str(b)) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_seed_changes_cubes(self, tmp_path, synth_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        run("gen-synth", "--config", synth_cfg, "--out", str(a))
        run("gen-synth", "--config", synth_cfg, "--seed", "6", "--out", str(b))
        assert dir_bytes(a) != dir_bytes(b)

    def test_refuses_nonempty_dir_without_force(self, tmp_path, synth_cfg,
                                                capsys):
        out = tmp_path / "a"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run("gen-synth", "--config", synth_cfg, "--out", str(out)) == 1
        assert "error:" in capsys.readouterr().err
        assert run("gen-synth", "--config", synth_cfg, "--out", str(out),
                   "--force") == 0

    def test_band_counts_in_headers(self, dataset):
        src = hsi.read_cube(os.path.join(dataset, "source", "000000.hsic"))
        tgt = sorted(os.listdir(os.path.join(dataset, "target")))
        tgt_cube = hsi.read_cube(os.path.join(dataset, "target",
                                              [f for f in tgt if f.endswith(".hsic")][0]))
        assert src.bands == 4 and tgt_cube.bands == 8

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength=550\n")
        assert run("gen-synth", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1
        assert "unknown synth config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,cause", [
        ("just some words", "expected key=value"),
        ("image_size=64.5", "image_size must be int"),
        ("noise_source=loud", "noise_source must be float"),
        ("num_source=4", "num_source was already set on line 2")])
    def test_bad_config_line_names_path_and_line(self, tmp_path, capsys, line,
                                                 cause):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# synthetic scenes\nnum_source=3\n{line}\n")
        assert run("gen-synth", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: ") and cause in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line,cause", [
        ("seed=-1", "seed must be at least 0, got -1"),
        ("num_target=-2", "num_target must be at least 1, got -2"),
        ("noise_source=nan", "noise_source must be finite, got nan"),
        ("image_size=2", "image_size must be at least 3, got 2"),
        ("target_gain=1e39",
         "target_gain must be at most 1e+06 in absolute value, got 1e+39"),
        ("min_object_frac=1e300", "min_object_frac must be at most 1e+06 "
         "in absolute value, got 1e+300")])
    def test_unusable_config_value_names_path_and_field(self, tmp_path, capsys,
                                                        line, cause):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "o"
        cfg.write_text(line + "\n")
        assert run("gen-synth", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {cause}\n"
        assert not out.exists()

    def test_unusable_flag_value_names_field(self, tmp_path, capsys):
        assert run("gen-synth", "--seed", "-1",
                   "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"


class TestBandMatch:
    def test_identity_keeps_payload(self, tmp_path):
        rng = np.random.default_rng(0)
        cube = hsi.HyperCube(rng.normal(size=(5, 4, 4)).astype(np.float32))
        src, dst = tmp_path / "a.hsic", tmp_path / "b.hsic"
        hsi.write_cube(cube, src)
        assert run("band-match", "--in", str(src), "--bands", "5",
                   "--out", str(dst)) == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_expand_header_band_count(self, tmp_path):
        cube = hsi.HyperCube(np.zeros((3, 4, 4), dtype=np.float32))
        src, dst = tmp_path / "a.hsic", tmp_path / "b.hsic"
        hsi.write_cube(cube, src)
        assert run("band-match", "--in", str(src), "--bands", "7",
                   "--out", str(dst)) == 0
        assert hsi.read_cube(dst).bands == 7

    def test_downsample_selects_rule_indices(self, tmp_path):
        cube = hsi.HyperCube(
            np.arange(5, dtype=np.float32).reshape(5, 1, 1).repeat(4, 1).repeat(4, 2)
        )
        src, dst = tmp_path / "a.hsic", tmp_path / "b.hsic"
        hsi.write_cube(cube, src)
        run("band-match", "--in", str(src), "--bands", "3", "--out", str(dst))
        np.testing.assert_array_equal(
            hsi.read_cube(dst).values[:, 0, 0], [0, 2, 4]
        )

    def test_missing_input_is_single_line_error(self, tmp_path, capsys):
        assert run("band-match", "--in", str(tmp_path / "no.hsic"),
                   "--bands", "3", "--out", str(tmp_path / "o.hsic")) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    cfgp = tmp / "synth.cfg"
    cfgp.write_text(
        "num_source=3\nnum_target=3\nimage_size=32\n"
        "source_bands=4\ntarget_bands=8\nseed=5\n"
    )
    data = tmp / "data"
    assert run("gen-synth", "--config", str(cfgp), "--out", str(data)) == 0
    tcfg = tmp / "train.cfg"
    tcfg.write_text("iterations=3\nbatch_size=1\nproposals_train=4\n")
    out = tmp / "run"
    assert run("train", "--config", str(tcfg), "--dataset", str(data),
               "--out", str(out)) == 0
    return tmp, str(data), str(out)


class TestTrainInferEval:
    def test_train_writes_checkpoint_and_csv(self, trained):
        _, _, out = trained
        assert os.path.exists(os.path.join(out, "model.sfaw"))
        csv = open(os.path.join(out, "losses.csv")).read().splitlines()
        assert csv[0].startswith("step,") and len(csv) == 4

    def test_infer_writes_detection_json(self, trained, tmp_path):
        _, data, out = trained
        dets = tmp_path / "dets.json"
        assert run("infer", "--checkpoint", os.path.join(out, "model.sfaw"),
                   "--dataset", os.path.join(data, "target"),
                   "--out", str(dets)) == 0
        records = json.loads(dets.read_text())
        for r in records:
            assert set(r) == {"image_id", "bbox", "score", "category_id"}

    def test_eval_of_gt_as_detections_is_perfect(self, trained, tmp_path,
                                                 capsys):
        _, data, _ = trained
        ann = os.path.join(data, "target", "annotations.json")
        meta = hsi.load_annotations(ann)
        records = []
        for img, boxes, classes in meta:
            for b, c in zip(boxes, classes):
                records.append({"image_id": img["id"], "bbox": list(b),
                                "score": 0.9, "category_id": int(c)})
        detp = tmp_path / "gt_dets.json"
        detp.write_text(json.dumps(records))
        outp = tmp_path / "report.json"
        assert run("eval", "--detections", str(detp), "--annotations", ann,
                   "--out", str(outp)) == 0
        assert "100.00%" in capsys.readouterr().out
        assert json.loads(outp.read_text())["AP@0.5"] == pytest.approx(1.0)

    def test_eval_scores_an_image_too_large_for_memory(self, tmp_path,
                                                      capsys):
        # the evaluator once built a zero cube of each record's size, and
        # this failed with "array is too big", naming no file
        side = 2**40
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({
            "images": [{"id": 0, "file": "x", "width": side, "height": side}],
            "annotations": [{"image_id": 0, "bbox": [0, 0, side / 2, side / 4],
                             "category_id": 1}]}))
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([{"image_id": 0, "score": 0.9,
                                     "bbox": [0, 0, side / 2, side / 4],
                                     "category_id": 1}]))
        outp = tmp_path / "report.json"
        assert run("eval", "--detections", str(dets), "--annotations",
                   str(ann), "--out", str(outp)) == 0
        assert "100.00%" in capsys.readouterr().out
        assert json.loads(outp.read_text())["AP@0.5"] == 1.0

    def test_eval_missing_file_errors(self, trained, tmp_path, capsys):
        _, data, _ = trained
        assert run("eval", "--detections", str(tmp_path / "none.json"),
                   "--annotations",
                   os.path.join(data, "target", "annotations.json")) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_image_record_without_id_is_one_line_error(self, tmp_path,
                                                            capsys):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({"images": [
            {"file": "x", "width": 10, "height": 10, "bands": 1}]}))
        dets = tmp_path / "dets.json"
        dets.write_text("[]")
        assert run("eval", "--detections", str(dets),
                   "--annotations", str(ann)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ann}: image #0 has no 'id' key\n"

    @pytest.mark.parametrize("change, cause", [
        ({"score": None}, "no 'score' key"),
        ({"bbox": [1, 1, 2]}, "bbox must be 4 finite numbers, got [1, 1, 2]"),
        ({"score": "0.9"}, "score must be a finite number, got '0.9'"),
        ({"category_id": 1.5}, "category_id must be an integer, got 1.5"),
        ({"image_id": [0]}, "image_id must be an integer, got [0]"),
        # these once failed in numpy with no path: "Python int too large
        # to convert to C long"
        ({"category_id": 10**30},
         f"category_id must be a 64-bit integer, got {10**30}"),
        ({"image_id": -2**63 - 1},
         f"image_id must be a 64-bit integer, got {-2**63 - 1}"),
    ])
    def test_eval_bad_detection_record_is_one_line_error(self, tmp_path,
                                                          capsys, change,
                                                          cause):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({"images": [
            {"id": 0, "file": "x", "width": 10, "height": 10, "bands": 1}]}))
        good = {"image_id": 0, "bbox": [1, 1, 2, 2], "score": 0.9,
                "category_id": 1}
        bad = {k: v for k, v in {**good, **change}.items() if v is not None}
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([good, bad]))
        assert run("eval", "--detections", str(dets),
                   "--annotations", str(ann)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {dets}: detection #1: {cause}\n"

    def test_eval_malformed_detections_file_is_named(self, tmp_path, capsys):
        # the JSON error once came without the file's path
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({"images": [
            {"id": 0, "file": "x", "width": 10, "height": 10, "bands": 1}]}))
        dets = tmp_path / "dets.json"
        dets.write_text('[{"image_id": 0,')
        assert run("eval", "--detections", str(dets),
                   "--annotations", str(ann)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dets}: Expecting property name")
        assert err.count("\n") == 1


    def test_infer_image_record_without_file_is_one_line_error(
            self, trained, tmp_path, capsys):
        _, data, out = trained
        doc = json.loads(open(os.path.join(data, "target",
                                           "annotations.json")).read())
        del doc["images"][0]["file"]
        (tmp_path / "annotations.json").write_text(json.dumps(doc))
        assert run("infer", "--checkpoint", os.path.join(out, "model.sfaw"),
                   "--dataset", str(tmp_path),
                   "--out", str(tmp_path / "dets.json")) == 1
        err = capsys.readouterr().err
        ann = tmp_path / "annotations.json"
        assert err == f"error: {ann}: image #0 has no 'file' key\n"


class TestDatasetErrors:
    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_cube_unlike_its_record_is_named(self, trained, dataset, tmp_path,
                                             capsys, command):
        # both once ran on the cube without a word; a cube too small for
        # its boxes failed with "box ... exceeds cube", naming no file
        tmp, _, out = trained
        domain = "source" if command == "train" else "target"
        cube = os.path.join(dataset, domain, "000001.hsic")
        hsi.write_cube(hsi.HyperCube(np.zeros((8, 24, 16), np.float32)), cube)
        argv = {"train": ["--config", str(tmp / "train.cfg"),
                          "--dataset", dataset],
                "infer": ["--checkpoint", os.path.join(out, "model.sfaw"),
                          "--dataset", os.path.join(dataset, domain)]}
        assert run(command, *argv[command],
                   "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"error: {cube}: cube is 16x24, its image record says 32x32\n")


class TestTrainConfigValues:
    @pytest.mark.parametrize("line,cause", [
        ("epsilon=nan", "epsilon must be non-negative and finite, got nan"),
        ("tau=inf", "tau must be non-negative and finite, got inf"),
        ("beta=0", "beta must be positive, got 0.0"),
        ("beta=-1", "beta must be positive, got -1.0"),
        ("alpha=-1", "alpha must be non-negative and finite, got -1.0"),
        ("alpha=inf", "alpha must be non-negative and finite, got inf"),
        ("grl_scale=nan", "grl_scale must be finite, got nan"),
        ("proposals_train=-3", "proposals_train must be at least 1, got -3"),
        ("proposals_infer=0", "proposals_infer must be at least 1, got 0")])
    def test_value_no_step_can_use_fails_at_load(self, tmp_path, capsys,
                                                 line, cause):
        # these once loaded: beta <= 0 failed at the first domain loss, a
        # NaN weight made the first step's total and the parameters NaN, and
        # proposals_infer=0 made inference return no detections
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"iterations=3\n{line}\n")
        assert run("train", "--config", str(cfg), "--dataset",
                   str(tmp_path / "data"), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {cause}\n"


class TestInferCheckpointErrors:
    def _infer(self, data, ckpt, tmp_path):
        return run("infer", "--checkpoint", str(ckpt),
                   "--dataset", os.path.join(data, "target"),
                   "--out", str(tmp_path / "dets.json"))

    @pytest.mark.parametrize("layer", ["enc1.w", "roi.cls.w"])
    def test_missing_layer_is_one_line_error(self, trained, tmp_path, capsys,
                                             layer):
        _, data, out = trained
        params = ssam.load_params(os.path.join(out, "model.sfaw"))
        del params[layer]
        ckpt = tmp_path / "cut.sfaw"
        ssam.save_params(params, ckpt)
        assert self._infer(data, ckpt, tmp_path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: missing layer {layer!r}\n"

    @pytest.mark.parametrize("layer,shape,want", [
        ("enc1.w", (16, 60, 9), "4-d"),
        ("roi.cls.w", (5,), "2-d with at least 2 columns"),
        ("roi.cls.w", (128, 1), "2-d with at least 2 columns"),
    ])
    def test_layer_of_wrong_rank_is_one_line_error(self, trained, tmp_path,
                                                    capsys, layer, shape, want):
        _, data, out = trained
        params = ssam.load_params(os.path.join(out, "model.sfaw"))
        params[layer] = Tensor(np.zeros(shape, dtype=np.float32))
        ckpt = tmp_path / "bad.sfaw"
        ssam.save_params(params, ckpt)
        assert self._infer(data, ckpt, tmp_path) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {ckpt}: layer {layer!r} must be {want}, "
                       f"got shape {shape}\n")

    @pytest.mark.parametrize("edit,want", [
        (lambda p: p.pop("dec2.b"), "missing layer 'dec2.b'"),
        (lambda p: p.__setitem__("extra.w", Tensor(np.ones(3))),
         "unknown layer 'extra.w'"),
        (lambda p: p.__setitem__("rpn.obj.w", Tensor(np.ones((3, 32, 3, 3)))),
         "layer 'rpn.obj.w' has shape (3, 32, 3, 3), the model's is "
         "(3, 32, 1, 1)"),
        (lambda p: p.__setitem__("roi.reg.b", Tensor(np.ones(4))),
         "layer 'roi.reg.b' has shape (4,), the model's is (8,)"),
        (lambda p: p["enc1.w"].data.fill(np.nan),
         "layer 'enc1.w' has non-finite values"),
        (lambda p: p["roi.fc.b"].data.__setitem__(5, np.inf),
         "layer 'roi.fc.b' has non-finite values"),
    ], ids=["missing", "unknown", "kernel_size", "class_count", "nan", "inf"])
    def test_checkpoint_unlike_the_model_is_one_line_error(
            self, trained, tmp_path, capsys, edit, want):
        # before validation, a NaN enc1.w gave "wrote 0 detections", exit 0
        _, data, out = trained
        params = ssam.load_params(os.path.join(out, "model.sfaw"))
        edit(params)
        ckpt = tmp_path / "bad.sfaw"
        ssam.save_params(params, ckpt)
        assert self._infer(data, ckpt, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: {want}\n"
        assert not (tmp_path / "dets.json").exists()

    def test_version_1_checkpoint_is_one_line_error(self, trained, tmp_path,
                                                    capsys):
        _, data, out = trained
        raw = open(os.path.join(out, "model.sfaw"), "rb").read()
        ckpt = tmp_path / "v1.sfaw"
        ckpt.write_bytes(raw[:4] + b"\x01\x00" + raw[6:])
        assert self._infer(data, ckpt, tmp_path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: unsupported version 1\n"


class TestGram:
    def test_zero_cube_gives_zero_csv(self, tmp_path):
        cube = hsi.HyperCube(np.zeros((3, 4, 4), dtype=np.float32))
        src, out = tmp_path / "z.hsic", tmp_path / "g.csv"
        hsi.write_cube(cube, src)
        assert run("gram", "--in", str(src), "--out", str(out)) == 0
        g = np.loadtxt(out, delimiter=",")
        assert g.shape == (3, 3)
        np.testing.assert_array_equal(g, 0)


class TestAblate:
    def test_table_rows_present(self, tmp_path, capsys):
        cfgp = tmp_path / "synth.cfg"
        cfgp.write_text(
            "num_source=2\nnum_target=2\nimage_size=16\n"
            "source_bands=3\ntarget_bands=4\nseed=1\n"
            "min_object_frac=0.3\nmax_object_frac=0.5\n"
        )
        data = tmp_path / "data"
        assert run("gen-synth", "--config", str(cfgp), "--out", str(data)) == 0
        tcfg = tmp_path / "train.cfg"
        tcfg.write_text("iterations=2\nbatch_size=1\nproposals_train=4\n")
        assert run("ablate", "--config", str(tcfg), "--dataset", str(data),
                   "--out", str(tmp_path / "runs")) == 0
        out = capsys.readouterr().out
        for row in ("SFA w/o SSAM+SACM", "SFA w/o SACM", "SFA"):
            assert row in out


class TestParser:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", "--bogus", "x"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_resolved_config_printed(self, tmp_path, synth_cfg, capsys):
        run("gen-synth", "--config", synth_cfg, "--out", str(tmp_path / "o"))
        out = capsys.readouterr().out
        assert "resolved config:" in out and "seed=5" in out
