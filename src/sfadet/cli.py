"""Command-line entry point.

Subcommands: gen-synth, band-match, train, infer, eval, gram, ablate.
Every command prints its resolved configuration, exits 0 on success and
nonzero with a single-line error otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np


def _load_synth_config(path, seed=None):
    from .hsi import SynthConfig
    from .trainer import parse_config

    cfg = SynthConfig(**parse_config(path, SynthConfig, "synth config")
                      if path else {})
    if seed is not None:
        cfg.seed = seed
    return cfg


def _print_config(obj):
    print("resolved config:")
    for k, v in sorted(dataclasses.asdict(obj).items()):
        print(f"  {k}={v}")


def cmd_gen_synth(args):
    from . import hsi

    cfg = _load_synth_config(args.config, args.seed)
    _print_config(cfg)
    out = args.out
    if os.path.isdir(out) and os.listdir(out) and not args.force:
        raise RuntimeError(f"output directory {out} is not empty (use --force)")
    source, target = hsi.generate_domain_pair(cfg)
    for domain, samples in (("source", source), ("target", target)):
        d = os.path.join(out, domain)
        os.makedirs(d, exist_ok=True)
        files = []
        for s in samples:
            fn = f"{s.image_id:06d}.hsic"
            hsi.write_cube(s.cube, os.path.join(d, fn))
            files.append(fn)
        hsi.save_annotations(samples, os.path.join(d, "annotations.json"),
                             files=files)
    print(f"wrote {len(source)} source and {len(target)} target cubes to {out}")


def cmd_band_match(args):
    from . import hsi

    cube = hsi.read_cube(args.infile)
    out = hsi.match_bands(cube, args.bands)
    hsi.write_cube(out, args.out)
    print(f"matched {cube.bands} -> {out.bands} bands: {args.out}")


def _load_dataset(dataset_dir, domain, held_out):
    from . import hsi

    d = os.path.join(dataset_dir, domain)
    meta = hsi.load_annotations(os.path.join(d, "annotations.json"))
    samples = []
    for img, boxes, classes in meta:
        cube = hsi.read_cube(os.path.join(d, img["file"]))
        samples.append(hsi.AnnotatedSample(cube, boxes, classes,
                                           held_out=held_out,
                                           image_id=img["id"]))
    return samples


def _train_config(args, **overrides):
    from . import trainer

    if args.config:
        cfg = trainer.load_config(args.config, **overrides)
    else:
        cfg = trainer.TrainConfig(**overrides)
    return cfg


def cmd_train(args):
    from . import trainer

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.ablation:
        overrides["ablation"] = args.ablation
    cfg = _train_config(args, **overrides)
    _print_config(cfg)
    source = _load_dataset(args.dataset, "source", held_out=False)
    target = _load_dataset(args.dataset, "target", held_out=True)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "model.sfaw")
    losses = os.path.join(args.out, "losses.csv")
    trainer.train(cfg, source, target, checkpoint_path=ckpt,
                  loss_csv_path=losses, log_every=50)
    print(f"checkpoint: {ckpt}\nloss curve: {losses}")


def cmd_infer(args):
    from . import detect, hsi, trainer

    params, in_bands, num_classes = trainer.load_checkpoint(args.checkpoint)
    meta = hsi.load_annotations(os.path.join(args.dataset, "annotations.json")) \
        if os.path.isdir(args.dataset) else None
    if meta:
        cubes, ids = [], []
        for img, _, _ in meta:
            cubes.append(hsi.read_cube(os.path.join(args.dataset, img["file"])))
            ids.append(img["id"])
    else:
        cubes, ids = [hsi.read_cube(args.dataset)], [0]
    cubes = [hsi.match_bands(c, in_bands) for c in cubes]
    dets = trainer.infer(params, in_bands, num_classes, cubes)
    records = detect.detections_to_json(dets, ids)
    with open(args.out, "w") as f:
        json.dump(records, f, indent=1)
    print(f"wrote {len(records)} detections to {args.out}")


def cmd_eval(args):
    from . import evalap, hsi

    samples = []
    meta = hsi.load_annotations(args.annotations)
    for img, boxes, classes in meta:
        # geometry-only evaluation: cubes are not needed, only sizes
        cube = hsi.HyperCube(np.zeros((1, img["height"], img["width"]),
                                      dtype=np.float32))
        samples.append(hsi.AnnotatedSample(cube, boxes, classes,
                                           image_id=img["id"]))
    try:
        with open(args.detections) as f:
            records = json.load(f)
        dets = evalap.group_detections(records, [s.image_id for s in samples])
    except ValueError as e:
        raise ValueError(f"{args.detections}: {e}") from None
    report = evalap.evaluate(dets, samples)
    print(report.to_table())
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_json())


def cmd_gram(args):
    from . import hsi, sacm, ssam, trainer

    cube = hsi.read_cube(args.infile)
    if args.checkpoint:
        params, in_bands, _ = trainer.load_checkpoint(args.checkpoint)
        cube = hsi.match_bands(cube, in_bands)
        from .autodiff import Tensor
        batch = Tensor(trainer.standardize_cube(cube.values)[None])
        fwd = ssam.ssam_forward(batch, params, with_decoder=False,
                                with_classifier=False)
        g = sacm.gram_values(fwd.bottleneck.data)
    else:
        g = sacm.gram_values(cube.values[None])
    np.savetxt(args.out, g, delimiter=",", fmt="%.6g")
    print(f"wrote {g.shape[0]}x{g.shape[1]} Gram matrix to {args.out}")


def cmd_ablate(args):
    from . import evalap, trainer

    source = _load_dataset(args.dataset, "source", held_out=False)
    target = _load_dataset(args.dataset, "target", held_out=True)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    labels = {"no_ssam_sacm": "SFA w/o SSAM+SACM",
              "no_sacm": "SFA w/o SACM",
              "full": "SFA"}
    for mode in ("no_ssam_sacm", "no_sacm", "full"):
        overrides = {"ablation": mode}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = _train_config(args, **overrides)
        _print_config(cfg)
        state, _ = trainer.train(cfg, source, target)
        dets = trainer.infer(state.params, state.in_bands, state.num_classes,
                             [s.cube for s in target], cfg)
        report = evalap.evaluate(dets, target)
        rows.append((labels[mode], report))
        trainer.save_checkpoint(state,
                                os.path.join(args.out, f"model_{mode}.sfaw"))
    print(f"{'':20s}{'AP@0.5':>11s}")
    for label, report in rows:
        print(f"{label:20s}{100 * report.ap50:10.2f}%")


def build_parser():
    from .trainer import ABLATIONS

    p = argparse.ArgumentParser(
        prog="sfa",
        description="cross-domain hyperspectral object detection experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic domain pair")
    g.add_argument("--config")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen_synth)

    b = sub.add_parser("band-match", help="equalize a cube's band count")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--bands", type=int, required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_band_match)

    t = sub.add_parser("train", help="run the two-flow training loop")
    t.add_argument("--config")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--ablation", choices=ABLATIONS)
    t.set_defaults(fn=cmd_train)

    i = sub.add_parser("infer", help="detect objects with a checkpoint")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--dataset", required=True,
                   help="a cube file or a generated domain directory")
    i.add_argument("--out", required=True)
    i.set_defaults(fn=cmd_infer)

    e = sub.add_parser("eval", help="score detections against annotations")
    e.add_argument("--detections", required=True)
    e.add_argument("--annotations", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_eval)

    gr = sub.add_parser("gram", help="dump a spectral autocorrelation matrix")
    gr.add_argument("--in", dest="infile", required=True)
    gr.add_argument("--checkpoint")
    gr.add_argument("--out", required=True)
    gr.set_defaults(fn=cmd_gram)

    a = sub.add_parser("ablate", help="train and score the three configurations")
    a.add_argument("--config")
    a.add_argument("--dataset", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--seed", type=int)
    a.set_defaults(fn=cmd_ablate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except Exception as e:  # single-line error, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
