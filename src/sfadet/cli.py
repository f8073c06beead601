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


def _config(path, cls, **flags):
    """A ``cls`` read from the --config file at ``path`` (its defaults when
    there is none), with each flag that is not None put in."""
    from . import trainer

    flags = {k: v for k, v in flags.items() if v is not None}
    if not path:
        return cls(**flags)
    what = "config" if cls is trainer.TrainConfig else "synth config"
    return trainer.load_config(path, cls, what, **flags)


def _print_config(obj):
    print("resolved config:")
    for k, v in sorted(dataclasses.asdict(obj).items()):
        print(f"  {k}={v}")


def cmd_gen_synth(args):
    from . import hsi

    cfg = _config(args.config, hsi.SynthConfig, seed=args.seed)
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


def _load_dataset(directory, held_out):
    """The samples of a domain directory: its annotations.json and the cube
    file of each image record, which must have the record's size."""
    from . import hsi

    samples = []
    for img, boxes, classes in hsi.load_annotations(
            os.path.join(directory, "annotations.json")):
        path = os.path.join(directory, img["file"])
        cube = hsi.read_cube(path)
        if (cube.width, cube.height) != (img["width"], img["height"]):
            raise hsi.AnnotationError(
                f"{path}: cube is {cube.width}x{cube.height}, its image "
                f"record says {img['width']}x{img['height']}")
        samples.append(hsi.AnnotatedSample(cube, boxes, classes,
                                           held_out=held_out,
                                           image_id=img["id"]))
    return samples


def cmd_train(args):
    from . import trainer

    cfg = _config(args.config, trainer.TrainConfig, seed=args.seed,
                  ablation=args.ablation)
    _print_config(cfg)
    source = _load_dataset(os.path.join(args.dataset, "source"), held_out=False)
    target = _load_dataset(os.path.join(args.dataset, "target"), held_out=True)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "model.sfaw")
    losses = os.path.join(args.out, "losses.csv")
    trainer.train(cfg, source, target, checkpoint_path=ckpt,
                  loss_csv_path=losses, log_every=50)
    print(f"checkpoint: {ckpt}\nloss curve: {losses}")


def cmd_infer(args):
    from . import detect, hsi, trainer

    params, in_bands, num_classes = trainer.load_checkpoint(args.checkpoint)
    if os.path.isdir(args.dataset):
        samples = _load_dataset(args.dataset, held_out=True)
        cubes, ids = [s.cube for s in samples], [s.image_id for s in samples]
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

    gt = hsi.load_annotations(args.annotations)
    try:
        with open(args.detections) as f:
            records = json.load(f)
        dets = evalap.group_detections(records, [a.image["id"] for a in gt])
    except ValueError as e:
        raise ValueError(f"{args.detections}: {e}") from None
    report = evalap.evaluate(dets, gt)
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
    from . import trainer

    source = _load_dataset(os.path.join(args.dataset, "source"), held_out=False)
    target = _load_dataset(os.path.join(args.dataset, "target"), held_out=True)
    os.makedirs(args.out, exist_ok=True)
    cfg = _config(args.config, trainer.TrainConfig, seed=args.seed)
    labels = {"no_ssam_sacm": "SFA w/o SSAM+SACM",
              "no_sacm": "SFA w/o SACM",
              "full": "SFA"}
    for mode in labels:
        _print_config(dataclasses.replace(cfg, ablation=mode))
    results = trainer.ablate(cfg, source, target)
    print(f"{'':20s}{'AP@0.5':>11s}")
    for mode, label in labels.items():
        state, _, report = results[mode]
        trainer.save_checkpoint(state,
                                os.path.join(args.out, f"model_{mode}.sfaw"))
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
