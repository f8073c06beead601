"""Print the digests that a byte-identical change must keep.

For each training workload of perfbench (train_ref, train_dense) and each
seed, this runs the workload's set-up (2 warm-up steps) and 6 more steps,
then prints two sha256 digests: ``loss_csv``, the warm-up loss CSV's digest
that perfbench/run.py reports, and ``params``, the hash of every
parameter's name and float32 bytes in name order. For infer_eval and each
seed it prints the digests of the set-up pass's ``detections`` JSON and
eval ``report``. Two checkouts that print the same digests trained and
detected bit for bit alike on this machine's BLAS.

    python .github/param_digests.py TREE [SEED ...]

TREE is the checkout whose src/ and perfbench/ are imported (default
seed: 0). perfbench/ is only read. One line per digest:
``<workload> <seed> <digest name> <sha256>``.
"""

import hashlib
import os
import sys
import tempfile

STEPS = 6


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


if __name__ == "__main__":
    main(sys.argv[1:])
