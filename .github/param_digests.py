"""Print the digests that a byte-identical change must keep.

For each training workload of perfbench (train_ref, train_dense) and each
seed, this runs the workload's set-up (2 warm-up steps) and 6 more steps,
then prints two sha256 digests: ``loss_csv``, the warm-up loss CSV's digest
that perfbench/run.py reports, and ``params``, the hash of every
parameter's name and float32 bytes in name order. For infer_eval and each
seed it prints the digests of the set-up pass's ``detections`` JSON and
eval ``report``. For ``sfa ablate`` and each seed, it generates a tiny
dataset with ``sfa gen-synth --seed`` and runs ``sfa ablate --seed`` on it
for a few iterations, both through ``cli.main``, then prints the digest of
each ``model_<mode>.sfaw`` checkpoint and of the command's ``stdout``. For
``synth`` and each seed it prints ``scenes``, the sha256 over every cube's
shape and bytes, boxes and classes that ``generate_domain_pair`` draws
from ``SynthConfig(seed=...)``. Two checkouts that print the same digests
generated, trained and detected bit for bit alike on this machine's BLAS.

    python .github/param_digests.py TREE [SEED ...]

TREE is the checkout whose src/ and perfbench/ are imported (default
seed: 0). perfbench/ is only read. One line per digest:
``<workload> <seed> <digest name> <sha256>``.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

STEPS = 6
# a dataset and a run like tests/test_cli.py's TestAblate, a few seconds each
ABLATE_SYNTH = ("num_source=2\nnum_target=2\nimage_size=16\n"
                "source_bands=3\ntarget_bands=4\n"
                "min_object_frac=0.3\nmax_object_frac=0.5\n")
ABLATE_TRAIN = "iterations=5\nbatch_size=1\nproposals_train=4\n"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def ablate_digests(seed):
    """(name, sha256) of each checkpoint that ``sfa ablate`` writes on a
    tiny generated dataset, then of the command's stdout."""
    from sfadet import cli

    with tempfile.TemporaryDirectory() as workdir:
        synth, train, data, runs = (os.path.join(workdir, n) for n in
                                    ("synth.cfg", "train.cfg", "data", "runs"))
        for path, text in ((synth, ABLATE_SYNTH), (train, ABLATE_TRAIN)):
            with open(path, "w") as f:
                f.write(text)
        for argv in (["gen-synth", "--config", synth, "--out", data],
                     ["ablate", "--config", train, "--dataset", data,
                      "--out", runs]):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + ["--seed", str(seed)])
            if code:
                sys.exit(f"sfa {argv[0]} failed at seed {seed}")
        digests = []
        for fn in sorted(os.listdir(runs)):
            with open(os.path.join(runs, fn), "rb") as f:
                digests.append((os.path.splitext(fn)[0], _sha256(f.read())))
    return digests + [("stdout", _sha256(stdout.getvalue().encode()))]


def synth_digest(seed):
    """sha256 over the generator's default scenes at ``seed``."""
    from sfadet import hsi

    h = hashlib.sha256()
    source, target = hsi.generate_domain_pair(hsi.SynthConfig(seed=seed))
    with hsi.eval_annotation_access():
        for s in source + target:
            values = s.cube.values
            h.update(repr((values.shape, s.boxes, s.classes)).encode())
            h.update(values.tobytes())
    return h.hexdigest()


def main(argv):
    tree, seeds = argv[0], [int(s) for s in argv[1:]] or [0]
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads

    for name in ("train_ref", "train_dense", "infer_eval"):
        w = workloads.WORKLOADS[name]
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                ctx = w.setup(w.inputs(seed), workdir)
            if name == "infer_eval":
                digests = sorted(ctx["digest"].items())
            else:
                for i in range(STEPS):
                    w.op(ctx, i)
                h = hashlib.sha256()
                for key, t in sorted(ctx["state"].params.items()):
                    h.update(key.encode())
                    h.update(t.data.tobytes())
                digests = [("loss_csv", ctx["digest"]),
                           ("params", h.hexdigest())]
            for kind, digest in digests:
                print(name, seed, kind, digest, flush=True)
    for seed in seeds:
        for kind, digest in ablate_digests(seed):
            print("ablate", seed, kind, digest, flush=True)
    for seed in seeds:
        print("synth", seed, "scenes", synth_digest(seed), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
