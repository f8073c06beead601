import functools
import math
import os
import re
import struct
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfadet import autodiff as ad, detect, hsi, ssam, trainer
from sfadet.hsi import AnnotatedSample, HyperCube, HeldOutAnnotationError
from sfadet.trainer import ConfigError, LOSS_FIELDS, LossBreakdown, TrainConfig

from oracles import (backward_whole_tape, init_detect_by_hand,
                     init_ssam_by_hand, jitter_loops, same_bits,
                     standardize_cube_two_pass)


def make_sample(rng, bands=6, size=16, image_id=0, held_out=False):
    values = rng.normal(0, 1, size=(bands, size, size)).astype(np.float32)
    # paint an object blob so there is some structure
    values[:, 4:12, 4:12] += np.linspace(1, 2, bands)[:, None, None]
    cube = HyperCube(values)
    return AnnotatedSample(cube, [(4.0, 4.0, 8.0, 8.0)], [1],
                           held_out=held_out, image_id=image_id)


@pytest.fixture
def datasets():
    rng = np.random.default_rng(0)
    src = [make_sample(rng, image_id=i) for i in range(3)]
    tgt = [make_sample(rng, bands=6, image_id=10 + i, held_out=True)
           for i in range(3)]
    return src, tgt


def quick_cfg(**kw):
    kw.setdefault("iterations", 3)
    kw.setdefault("proposals_train", 4)
    return TrainConfig(**kw)


# a config file as a user writes one: a comment, a blank line, and a
# key=value line for every field, with "lambda" for lam
VALID_CONFIG = ("# reference run", "", "epsilon=0.5", "eta=0.4", "tau=0.2",
                "beta=2.0", "lambda=0.25", "grl_scale=-0.5", "alpha=0.01",
                "lr=1e-3", "iterations=20", "batch_size=2", "ablation=no_sacm",
                "seed=3", "sacm_normalize=yes", "target_rpn=off",
                "proposals_train=12", "proposals_infer=50")
CONFIG_CHAR = (st.characters(min_codepoint=32, max_codepoint=126)
               | st.sampled_from("\t=#"))


def mutate_line(data, line):
    """``line`` replaced by drawn text, or with one character inserted,
    replaced or deleted."""
    if data.draw(st.booleans()):
        return data.draw(st.text(CONFIG_CHAR, max_size=24))
    at = data.draw(st.integers(0, len(line)))
    new = data.draw(st.text(CONFIG_CHAR, max_size=1))
    return line[:at] + new + line[at + data.draw(st.integers(0, 1)):]


class TestConfig:
    def test_defaults_match_reference_values(self):
        cfg = TrainConfig()
        assert (cfg.epsilon, cfg.eta, cfg.tau) == (0.5, 0.5, 0.2)
        assert (cfg.beta, cfg.lam, cfg.grl_scale) == (2.0, 0.25, -0.5)
        assert cfg.lr == 3e-4 and cfg.batch_size == 2

    def test_lambda_alias_in_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lambda=0.4\n")
        assert trainer.load_config(path).lam == 0.4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("learning_rate=0.1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            trainer.load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            trainer.load_config(path)

    def test_errors_name_path_and_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        for text, cause in (("tau=0.1\nbatch_size=two\n", "batch_size must be int"),
                            ("# c\n\nlr=fast\n", "lr must be float"),
                            ("tau=0.1\nlam=0.3\n", "unknown config key 'lam'"),
                            ("tau=0.1\njust some words\n", "expected key=value")):
            path.write_text(text)
            with pytest.raises(ConfigError) as err:
                trainer.load_config(path)
            line = f"{path}:{text.count(chr(10))}: "
            assert str(err.value).startswith(line) and cause in str(err.value)

    @pytest.mark.parametrize("field,value,cause", [
        ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ("batch_size", -1, "batch_size must be at least 1, got -1"),
        ("iterations", -1, "iterations must be non-negative, got -1"),
        ("seed", -1, "seed must be non-negative, got -1"),
        ("lr", -1.0, "lr must be non-negative and finite, got -1.0"),
        ("lr", float("nan"), "lr must be non-negative and finite, got nan"),
        ("lr", float("inf"), "lr must be non-negative and finite, got inf")])
    def test_impossible_values_rejected(self, field, value, cause):
        # these once failed deep inside train(), or trained without a word
        with pytest.raises(ConfigError, match=re.escape(cause)):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", ["maybe", "on", "", "2"])
    def test_bad_bool_rejected(self, tmp_path, value):
        # these once parsed as False without a word
        path = tmp_path / "cfg.txt"
        path.write_text(f"sacm_normalize={value}\n")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}:1: sacm_normalize")):
            trainer.load_config(path)

    def test_negative_seed_named_with_the_file(self, tmp_path):
        # a negative seed once loaded and then failed in numpy's seeding
        path = tmp_path / "cfg.txt"
        path.write_text("seed=-1\n")
        with pytest.raises(ConfigError) as err:
            trainer.load_config(path)
        assert str(err.value) == f"{path}: seed must be non-negative, got -1"

    @pytest.mark.parametrize("value,want", [
        ("true", True), ("True", True), ("1", True), ("YES", True),
        ("false", False), ("0", False), ("no", False)])
    def test_bool_spellings(self, tmp_path, value, want):
        path = tmp_path / "cfg.txt"
        path.write_text(f"sacm_normalize={value}\n")
        assert trainer.load_config(path).sacm_normalize is want

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\n\ntau=0.1\n")
        assert trainer.load_config(path).tau == 0.1

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(ablation="bogus")
        with pytest.raises(ConfigError):
            TrainConfig(tau=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(lam=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(target_rpn="mystery")

    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed=3\ntau=0.3\n")
        cfg = trainer.load_config(path, seed=99)
        assert (cfg.seed, cfg.tau) == (99, 0.3)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_line_fails_named_or_parses_the_same(self, data):
        lines = list(VALID_CONFIG)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = mutate_line(data, lines[i])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.txt")
            one = os.path.join(tmp, "one_line.txt")
            # the file parses as its lines do one at a time, a later line of
            # a key winning; the first line that fails alone fails the file
            want, where, cause = {}, path, None
            for ln, line in enumerate(lines, 1):
                with open(one, "w") as f:
                    f.write(line + "\n")
                try:
                    want.update(trainer.parse_config(
                        one, TrainConfig, keys={"lam": "lambda"}))
                except ConfigError as e:
                    where = f"{path}:{ln}"
                    cause = str(e).removeprefix(f"{one}:1: ")
                    break
            if cause is None:
                try:
                    want = TrainConfig(**want)
                except ConfigError as e:
                    cause = str(e)
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            if cause is None:
                assert trainer.load_config(path) == want
                return
            with pytest.raises(ConfigError) as err:
                trainer.load_config(path)
        assert str(err.value) == f"{where}: {cause}"


class TestStandardize:
    def test_per_band_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        v = rng.normal(3, 7, size=(4, 8, 8)).astype(np.float32)
        out = trainer.standardize_cube(v)
        np.testing.assert_allclose(out.mean(axis=(1, 2)), 0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=(1, 2)), 1, atol=1e-3)

    def test_constant_band_stays_finite(self):
        out = trainer.standardize_cube(np.full((2, 4, 4), 5.0, np.float32))
        assert np.all(np.isfinite(out))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 40),
           st.integers(1, 40), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_matches_two_pass_oracle(self, seed, bands, h, w, loc, scale):
        rng = np.random.default_rng(seed)
        v = rng.normal(loc, scale, size=(bands, h, w)).astype(np.float32)
        v[rng.integers(bands)] = np.float32(loc)   # one constant band
        assert same_bits(trainer.standardize_cube(v), standardize_cube_two_pass(v))

    @pytest.mark.parametrize("bands", [1, 7, 8, 9, 60])
    def test_band_blocks_match_two_pass_oracle(self, bands):
        # blocks of 8 bands: fewer, exactly one, one and a part, many; on
        # an H != W cube with a constant band, and offset by 1e4
        rng = np.random.default_rng(bands)
        v = rng.normal(3, 7, size=(bands, 24, 40)).astype(np.float32)
        v[bands // 2] = np.float32(2.5)
        for cube in (v, v + np.float32(1e4)):
            want = standardize_cube_two_pass(cube)
            assert same_bits(trainer.standardize_cube(cube), want)
            batch = np.full((2,) + cube.shape, np.nan, dtype=np.float32)
            assert trainer.standardize_cube(cube, out=batch[1]).base is batch
            assert same_bits(batch[1], want)

    def test_batch_of_mixed_shapes_rejected(self):
        cubes = [HyperCube(np.ones((3, 8, 8), np.float32)),
                 HyperCube(np.ones((3, 1, 8), np.float32))]
        with pytest.raises(ValueError, match=r"\(3, 1, 8\) does not match"):
            trainer._batch_tensor(cubes)


class TestJitter:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_draw_loop(self, seed, k):
        rng = np.random.default_rng(seed)
        gt = np.concatenate([rng.uniform(0, 50, (k, 2)),
                             rng.uniform(0.5, 30, (k, 2))], axis=1)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert same_bits(trainer._jittered(gt, a), jitter_loops(gt, b))
        # the same draws were taken, so the streams stay in step
        assert a.uniform() == b.uniform()


class TestTrainStep:
    def test_aggregation_identity(self, datasets):
        src, tgt = datasets
        cfg = quick_cfg()
        state = trainer.init_state(cfg, 6, 1)
        for _ in range(3):
            bd = trainer.train_step(state, src[:2], [t.cube for t in tgt[:2]])
            recomb = bd.recombined(cfg)
            assert abs(bd.total - recomb) <= 1e-5 * max(1.0, abs(bd.total))

    def test_no_sacm_zeroes_alignment_term(self, datasets):
        src, tgt = datasets
        cfg = quick_cfg(ablation="no_sacm")
        state = trainer.init_state(cfg, 6, 1)
        bd = trainer.train_step(state, src[:2], [t.cube for t in tgt[:2]])
        assert bd.l_sacm == 0.0
        assert bd.l_s_r > 0.0  # autoencoder still active

    def test_no_ssam_sacm_drops_reconstruction_and_domain(self, datasets):
        src, tgt = datasets
        cfg = quick_cfg(ablation="no_ssam_sacm")
        state = trainer.init_state(cfg, 6, 1)
        bd = trainer.train_step(state, src[:2], [t.cube for t in tgt[:2]])
        assert bd.l_s_r == 0.0 and bd.l_t_r == 0.0
        assert bd.l_s_d == 0.0 and bd.l_t_d == 0.0 and bd.l_sacm == 0.0
        assert bd.l_s_rpn > 0.0 and bd.l_roi > 0.0

    def test_same_batch_both_domains_gives_zero_sacm(self, datasets):
        src, _ = datasets
        cfg = quick_cfg()
        state = trainer.init_state(cfg, 6, 1)
        bd = trainer.train_step(state, src[:2], [s.cube for s in src[:2]])
        assert bd.l_sacm == 0.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_loss_names_term(self, datasets):
        src, tgt = datasets
        cfg = quick_cfg()
        state = trainer.init_state(cfg, 6, 1)
        state.params["enc1.w"].data[:] = 1e30
        with pytest.raises(trainer.NonFiniteLossError, match="l_s_r"):
            trainer.train_step(state, src[:2], [t.cube for t in tgt[:2]])


class TestTrainLoop:
    def test_determinism_same_seed(self, datasets, tmp_path):
        src, tgt = datasets
        cfg = quick_cfg(seed=3)
        runs = []
        for name in ("a", "b"):
            csvp = tmp_path / f"{name}.csv"
            ckpt = tmp_path / f"{name}.sfaw"
            trainer.train(cfg, src, tgt, checkpoint_path=ckpt,
                          loss_csv_path=csvp)
            runs.append((csvp.read_bytes(), ckpt.read_bytes()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_lr_zero_constant_loss_and_params(self, datasets):
        src, tgt = datasets
        cfg = quick_cfg(lr=0.0, iterations=3, batch_size=1)
        state, history = trainer.train(cfg, src[:1], tgt[:1])
        ref = trainer.init_state(cfg, 6, 1)
        for k in ref.params:
            np.testing.assert_array_equal(state.params[k].data,
                                          ref.params[k].data)
        totals = [bd.total for bd in history]
        assert max(totals) - min(totals) <= 1e-6 * max(1.0, abs(totals[0]))

    def test_band_matching_applied_to_source(self, datasets):
        rng = np.random.default_rng(5)
        src = [make_sample(rng, bands=3, image_id=i) for i in range(2)]
        tgt = [make_sample(rng, bands=6, image_id=9, held_out=True)]
        cfg = quick_cfg(iterations=2, batch_size=1)
        state, history = trainer.train(cfg, src, tgt)
        assert state.in_bands == 6
        assert len(history) == 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            trainer.train(quick_cfg(), [], [])

    def test_loss_csv_format(self, datasets, tmp_path):
        src, tgt = datasets
        path = tmp_path / "loss.csv"
        trainer.train(quick_cfg(iterations=2), src, tgt, loss_csv_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,l_s_r,l_s_d,l_sacm,l_s_rpn,l_roi,l_t_r,l_t_d,l_t_rpn,total"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"


class TestConsumedTape:
    @pytest.mark.parametrize("ablation,target_rpn", [
        pytest.param("full", "off", id="full"),
        pytest.param("no_ssam_sacm", "off", id="no_ssam_sacm"),
        pytest.param("full", "background", id="full-background"),
        pytest.param("no_sacm", "off", id="no_sacm"),
    ])
    def test_training_matches_whole_tape_backward(self, ablation, target_rpn,
                                                  monkeypatch):
        # criterion 9's train settings on small scenes: a step that frees
        # each buffer at its last use must give the bits of a sweep that
        # keeps the whole tape
        src, tgt = hsi.generate_domain_pair(hsi.SynthConfig(
            seed=1, image_size=32, num_source=8, num_target=8))
        cfg = TrainConfig(ablation=ablation, iterations=4, batch_size=6,
                          lr=1e-3, target_rpn=target_rpn, seed=2)

        def run():
            state, history = trainer.train(cfg, src, tgt)
            return ({k: t.data for k, t in state.params.items()},
                    [np.array([getattr(bd, k) for k in LOSS_FIELDS + ("total",)])
                     for bd in history])

        params, history = run()
        monkeypatch.setattr(trainer.Tensor, "backward", backward_whole_tape)
        want_params, want_history = run()
        assert params.keys() == want_params.keys()
        assert all(same_bits(params[k], want_params[k]) for k in params)
        assert all(same_bits(a, b) for a, b in zip(history, want_history))
        assert len(history) == len(want_history) == 4

    def test_dead_forward_buffers_gone_before_roi_stage(self, monkeypatch):
        # the step's memory peaks in the RPN and ROI stage: by then the
        # input batches' tensors and the target flow's unread FPN level 1
        # are freed, the batches' arrays are kept by enc1 in place of its
        # columns, and no decoder conv keeps its columns
        src, tgt = hsi.generate_domain_pair(hsi.SynthConfig(
            seed=1, image_size=32, num_source=4, num_target=4))
        cfg = TrainConfig(iterations=1, batch_size=4, target_rpn="off")
        batches, arrays, levels1, alive = [], [], [], []
        batch_tensor, forward, roi_loss = (trainer._batch_tensor,
                                           ssam.ssam_forward, detect.roi_loss)

        def spy_batch(cubes):
            batch = batch_tensor(cubes)
            batches.append(weakref.ref(batch))
            arrays.append(weakref.ref(batch.data))
            return batch

        def spy_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            levels1.append(weakref.ref(out.fpn_levels[0]))
            bw = out.reconstruction._bw
            cells = dict(zip(bw.__code__.co_freevars,
                             (c.cell_contents for c in bw.__closure__)))
            biggest_input = max(t.data.nbytes
                                for t in out.reconstruction._prev)
            assert "cols" not in cells
            assert all(v.nbytes <= biggest_input for v in cells.values()
                       if isinstance(v, np.ndarray))
            return out

        def spy_roi_loss(*args, **kwargs):
            alive.extend(ref() is not None
                         for ref in batches + levels1[1:] + arrays)
            return roi_loss(*args, **kwargs)

        monkeypatch.setattr(trainer, "_batch_tensor", spy_batch)
        monkeypatch.setattr(ssam, "ssam_forward", spy_forward)
        monkeypatch.setattr(detect, "roi_loss", spy_roi_loss)
        trainer.train(cfg, src, tgt)
        assert len(batches) == len(levels1) == 2
        assert alive == [False, False, False, True, True]

    @pytest.mark.parametrize("ablation,target_rpn", [
        ("full", "off"), ("no_sacm", "background")])
    def test_reconstructions_freed_before_roi_stage(self, ablation,
                                                    target_rpn, monkeypatch):
        # no backward reads a reconstruction, so both are gone once both
        # reconstruction losses exist
        src, tgt = hsi.generate_domain_pair(hsi.SynthConfig(
            seed=1, image_size=32, num_source=4, num_target=4))
        cfg = TrainConfig(ablation=ablation, target_rpn=target_rpn,
                          iterations=1, batch_size=4)
        recons, alive = [], []
        forward, roi_loss = ssam.ssam_forward, detect.roi_loss

        def spy_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            recons.append(weakref.ref(out.reconstruction.data))
            return out

        def spy_roi_loss(*args, **kwargs):
            alive.extend(ref() is not None for ref in recons)
            return roi_loss(*args, **kwargs)

        monkeypatch.setattr(ssam, "ssam_forward", spy_forward)
        monkeypatch.setattr(detect, "roi_loss", spy_roi_loss)
        trainer.train(cfg, src, tgt)
        assert alive == [False, False]

    @pytest.mark.parametrize("ablation,target_rpn", [
        ("full", "off"), ("no_ssam_sacm", "background")])
    def test_no_conv_keeps_columns(self, ablation, target_rpn, monkeypatch):
        # before backward, a conv keeps its input and its weight, and
        # builds its columns again in backward; enc1 keeps the batch
        src, tgt = hsi.generate_domain_pair(hsi.SynthConfig(
            seed=1, image_size=32, num_source=4, num_target=4))
        cfg = TrainConfig(ablation=ablation, target_rpn=target_rpn,
                          iterations=1, batch_size=4)
        batches, convs, on_batch = [], [], []
        batch_tensor, backward = trainer._batch_tensor, trainer.Tensor.backward

        def spy_batch(cubes):
            batch = batch_tensor(cubes)
            batches.append(batch.data)
            return batch

        def spy_backward(root, grad=None):
            for t in ad._reachable(root):
                if t._bw is None or t._bw.__qualname__ != "conv2d.<locals>.bw":
                    continue
                cells = dict(zip(t._bw.__code__.co_freevars,
                                 (c.cell_contents for c in t._bw.__closure__)))
                held = [v for v in cells.values() if isinstance(v, np.ndarray)]
                xd, tw = cells["xd"], cells["tw"]
                inputs = [p.data for p in t._prev] + batches
                assert len(held) == 2
                assert any(xd is a for a in inputs)
                assert any(a is not xd and np.shares_memory(a, tw.data)
                           for a in held)
                convs.append(t)
                if any(xd is a for a in batches):
                    on_batch.append(tw)
            return backward(root, grad)

        monkeypatch.setattr(trainer, "_batch_tensor", spy_batch)
        monkeypatch.setattr(trainer.Tensor, "backward", spy_backward)
        state, _ = trainer.train(cfg, src, tgt)
        assert len(convs) > 10
        assert len(on_batch) == 2
        assert all(w is state.params["enc1.w"] for w in on_batch)


class TestFirewall:
    def test_target_annotations_never_read_during_training(self, datasets):
        src, tgt = datasets
        reads = []

        class Tripwire(AnnotatedSample):
            @property
            def boxes(self):
                reads.append("boxes")
                return super().boxes

            @property
            def classes(self):
                reads.append("classes")
                return super().classes

        wired = [Tripwire(t.cube, list(t._boxes), list(t._classes),
                          held_out=True, image_id=t.image_id) for t in tgt]
        trainer.train(quick_cfg(iterations=10), src, wired)
        assert reads == []

    def test_held_out_target_would_raise_if_read(self, datasets):
        _, tgt = datasets
        with pytest.raises(HeldOutAnnotationError):
            _ = tgt[0].boxes


class TestCheckpointAndInfer:
    def test_checkpoint_round_trip(self, datasets, tmp_path):
        src, tgt = datasets
        path = tmp_path / "m.sfaw"
        state, _ = trainer.train(quick_cfg(iterations=2), src, tgt,
                                 checkpoint_path=path)
        params, in_bands, num_classes = trainer.load_checkpoint(path)
        assert in_bands == 6 and num_classes == 1
        for k, t in state.params.items():
            np.testing.assert_array_equal(params[k].data, t.data)
        # the file holds the parameters and nothing else, as SFAW version 2
        assert set(ssam.load_params(path)) == set(state.params)
        assert path.read_bytes()[:6] == ssam.CKPT_MAGIC + b"\x02\x00"

    def test_load_returns_the_counts_the_model_was_built_with(self, tmp_path):
        path = tmp_path / "m.sfaw"
        trainer.save_checkpoint(trainer.init_state(quick_cfg(), 7, 3), path)
        _, in_bands, num_classes = trainer.load_checkpoint(path)
        assert (in_bands, num_classes) == (7, 3)

    def test_infer_deterministic_and_band_checked(self, datasets):
        src, tgt = datasets
        state, _ = trainer.train(quick_cfg(iterations=2), src, tgt)
        cube = tgt[0].cube
        d1 = trainer.infer(state.params, 6, 1, [cube])
        d2 = trainer.infer(state.params, 6, 1, [cube])
        assert len(d1) == len(d2) == 1
        np.testing.assert_array_equal(d1[0].boxes, d2[0].boxes)
        np.testing.assert_array_equal(d1[0].scores, d2[0].scores)
        bad = HyperCube(np.zeros((4, 16, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="band"):
            trainer.infer(state.params, 6, 1, [bad])

    def test_untrained_zero_head_detects_nothing(self):
        rng = np.random.default_rng(7)
        state = trainer.init_state(quick_cfg(), 6, 1)
        for k, t in state.params.items():
            if k.startswith("roi."):
                t.data[:] = 0
        cube = HyperCube(rng.normal(size=(6, 16, 16)).astype(np.float32))
        dets = trainer.infer(state.params, 6, 1, [cube])
        assert len(dets[0]) == 0

    @pytest.mark.parametrize("in_bands,num_classes", [(6, 1), (6, 7), (5, 3)])
    def test_counts_that_disagree_with_the_parameters_rejected(
            self, in_bands, num_classes):
        state = trainer.init_state(quick_cfg(), 6, 3)
        cube = HyperCube(np.zeros((in_bands, 32, 32), dtype=np.float32))
        with pytest.raises(ValueError, match=(
                f"in_bands={in_bands}, num_classes={num_classes}, but the "
                "model takes 6 bands and has 3 classes")):
            trainer.infer(state.params, in_bands, num_classes, [cube])

    def test_one_call_over_mixed_shapes_matches_per_cube_calls(self, monkeypatch):
        rng = np.random.default_rng(5)
        state = trainer.init_state(quick_cfg(), 6, 1)
        cubes = [HyperCube(rng.normal(size=(6, h, w)).astype(np.float32))
                 for h, w in ((64, 64), (32, 96), (64, 64))]
        alone = [trainer.infer(state.params, 6, 1, [c])[0] for c in cubes]
        shapes = []
        generate = detect.generate_anchors

        def counted(level_shapes):
            shapes.append(tuple(level_shapes))
            return generate(level_shapes)

        monkeypatch.setattr(detect, "generate_anchors", counted)
        detect.anchors_for.cache_clear()
        together = trainer.infer(state.params, 6, 1, cubes)
        assert len(shapes) == 2
        assert len(together) == len(cubes)
        for a, b in zip(alone, together):
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_array_equal(a.scores, b.scores)
            np.testing.assert_array_equal(a.classes, b.classes)


@functools.cache
def small_checkpoint():
    """The SFAW bytes of an untrained 2-band, 1-class model, and the offset
    of every byte outside its value payloads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.sfaw")
        trainer.save_checkpoint(trainer.init_state(quick_cfg(), 2, 1), path)
        with open(path, "rb") as f:
            raw = f.read()
    # 10 header bytes, then per record: name length (2), name, rank (1),
    # dims (4 each), float32 values
    off, header = 10, list(range(10))
    for _ in range(struct.unpack_from("<I", raw, 6)[0]):
        (nlen,) = struct.unpack_from("<H", raw, off)
        rank = raw[off + 2 + nlen]
        dims = struct.unpack_from(f"<{rank}I", raw, off + 3 + nlen)
        size = 3 + nlen + 4 * rank
        header += range(off, off + size)
        off += size + 4 * math.prod(dims)
    assert off == len(raw)
    return raw, header


class TestCheckpointFuzz:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_header_byte_or_cut_fails_named(self, data):
        # a changed value byte still loads: SFAW has no checksum
        raw, header = small_checkpoint()
        raw = bytearray(raw)
        if data.draw(st.booleans()):
            raw[data.draw(st.sampled_from(header))] ^= data.draw(
                st.integers(1, 255))
        else:
            del raw[data.draw(st.integers(0, len(raw) - 1)):]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.sfaw")
            with open(path, "wb") as f:
                f.write(raw)
            with pytest.raises(ssam.CheckpointError) as err:
                trainer.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "\n" not in str(err.value)


def assert_same_params(got, want):
    """Same names in the same order, each a float32 leaf that requires
    grad, with the bytes of ``want``'s array."""
    assert list(got) == list(want)
    for name, t in got.items():
        assert t.requires_grad and same_bits(t.data, want[name]), name


class TestInitialDraws:
    # the bytes of the hand-written layer-by-layer init, which every
    # training run starts from
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("bands,classes", [(60, 2), (6, 1), (3, 5)])
    def test_init_matches_hand_written_draws(self, seed, bands, classes):
        rng = np.random.default_rng(seed)
        want = init_ssam_by_hand(bands, rng)
        want.update(init_detect_by_hand(classes, rng))
        state = trainer.init_state(TrainConfig(seed=seed), bands, classes)
        assert_same_params(state.params, want)
        # the training loop's batch draws go on from the same state
        assert state.rng.random() == rng.random()
        assert_same_params(
            ssam.init_ssam(bands, np.random.default_rng(seed)),
            init_ssam_by_hand(bands, np.random.default_rng(seed)))
        assert_same_params(
            detect.init_detect_params(classes, np.random.default_rng(seed)),
            init_detect_by_hand(classes, np.random.default_rng(seed)))


class TestGrlDecoupling:
    def test_zero_grl_scale_blocks_domain_gradient_to_encoder(self, datasets):
        src, tgt = datasets

        def encoder_after_one_step(grl):
            cfg = quick_cfg(grl_scale=grl, seed=11, epsilon=0.0, tau=0.0,
                            target_rpn="off", lr=1e-2)
            state = trainer.init_state(cfg, 6, 1)
            # silence every loss except the domain terms so any encoder
            # movement can only come from the reversed gradient
            for k, t in state.params.items():
                if k.startswith(("rpn.", "roi.")):
                    t.data[:] = 0
            trainer.train_step(state, src[:1], [tgt[0].cube])
            return state.params["enc1.w"].data.copy()

        moved = encoder_after_one_step(-0.5)
        frozen = encoder_after_one_step(0.0)
        base = trainer.init_state(quick_cfg(seed=11), 6, 1)
        ref = base.params["enc1.w"].data
        assert not np.array_equal(moved, ref)
        np.testing.assert_array_equal(frozen, ref)


class TestAnchorCache:
    def test_batches_of_different_shapes_get_their_own_anchors(self):
        rng = np.random.default_rng(3)

        def sample(h, w, image_id, held_out=False):
            values = rng.normal(0, 1, size=(6, h, w)).astype(np.float32)
            values[:, 4:12, 4:12] += 1.5
            return AnnotatedSample(HyperCube(values), [(4.0, 4.0, 8.0, 8.0)],
                                   [1], held_out=held_out, image_id=image_id)

        state = trainer.init_state(quick_cfg(), in_bands=6, num_classes=1)
        for h, w in ((64, 64), (32, 96)):
            src = [sample(h, w, i) for i in range(2)]
            tgt = [sample(h, w, 10 + i, held_out=True).cube for i in range(2)]
            bd = trainer.train_step(state, src, tgt)
            assert np.isfinite(bd.total)
        per_location = len(detect.ASPECT_RATIOS)
        assert detect.anchors_for(32, 96).shape == (per_location * sum(
            (32 // s) * (96 // s) for s in detect.STRIDES), 4)
