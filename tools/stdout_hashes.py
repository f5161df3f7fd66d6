"""Print one sha256 per benchmark workload, seed and command over its ops' argv, exit and stdout.

    python3 tools/stdout_hashes.py [--seeds 0 1 2] [--directory DIR]

Run from the root of a checkout. The ops are the ones perfbench runs, built by
`perfbench.workloads.build` into DIR, and each runs once in-process through
`nonfree.cli.main`, imported from the checkout's src/. BLAS and OpenMP are
pinned to one thread before numpy loads, as perfbench pins them. The input
paths appear in the reports, so two checkouts compare equal only with the same
DIR; the default is one fixed directory under the system's temporary directory.

One more group, `path_free`, hashes reports the benchmark does not print:
every spelling of `certify-nonfree --named`, and `certify-nonfree --family N`
and `family --n N --verify` at sizes the benchmark skips, n = 2 included, and
n = 45 past its largest, 32; and `family --n 101`, the largest size the CLI
takes. These ops read no file and draw nothing, so the group is hashed once,
with no seed.

Another, `input_errors`, hashes error documents: one op or more per family of
input errors (bad tensor documents, bad halfspace and refutation documents,
bad flags, sizes and paths), with the files they read written into
DIR/input_errors. It is hashed once, with no seed.

And for each seed, the group `refute_samples` hashes every `polytope --refute`
op of polytope_refute again at `--samples 0` and at `--samples 20`, where the
benchmark draws one sample: the sample 0 alone, and refutations that go on
drawing lower triples.

The group `flow_shapes` hashes, for each seed, `flow` on seeded dense tensors
of shapes the benchmark skips, at its `--step 1.0`: 7^3, 13^3 (the largest
cube the moment kernels stack), 14^3 (the first they take axis by axis),
(2, 5, 7), and 16^3 and 20^3 (per-axis moment kernels with stacked Newton-CG
vectors); and 13^3 again at the default step. Their files are written into
DIR/flow_shapes-SEED.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

PATH_FREE = "path_free"
PATH_FREE_OPS = [("certify-nonfree", "--named", name) for name in ("T2", "T5", "t2", "t5")] + [
    argv
    for n in ("2", "5", "7", "9", "10", "17", "20", "45")
    for argv in (("certify-nonfree", "--family", n), ("family", "--n", n, "--verify"))
] + [("family", "--n", "101")]

INPUT_ERRORS = "input_errors"
_ENTRY = {"i": 1, "j": 1, "k": 1, "re": 1.0}
INPUT_ERROR_FILES = {
    "tensor.json": {"dims": [2, 2, 2], "entries": [_ENTRY, {"i": 2, "j": 2, "k": 2, "re": 1.0}]},
    "nan.json": {"dims": [2, 2, 2], "entries": [{**_ENTRY, "re": float("nan")}]},
    "duplicate.json": {"dims": [2, 2, 2], "entries": [_ENTRY, _ENTRY]},
    "outside.json": {"dims": [2, 2, 2], "entries": [{**_ENTRY, "i": 3}]},
    "bool_dims.json": {"dims": [True, 2, 2], "entries": []},
    "non_cubic.json": {"dims": [2, 2, 3], "entries": [_ENTRY]},
    "one_over_zero.json": {"h1": ["1/0", 0], "h2": [0, 0], "h3": [0, 0], "c": 0},
    "no_c.json": {"h1": [0, 0], "h2": [0, 0], "h3": [0, 0]},
    "short_h.json": {"h1": [0], "h2": [0, 0], "h3": [0, 0], "c": 0},
    "increasing.json": {"p1": [0.25, 0.75], "p2": [0.5, 0.5], "p3": [0.5, 0.5]},
}


def input_error_ops(directory: str) -> list[tuple[str, ...]]:
    """Ops that each answer with a JSON error and exit 2; their files are written into directory."""
    os.makedirs(directory, exist_ok=True)
    for name, doc in INPUT_ERROR_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    path = {name: os.path.join(directory, name) for name in [*INPUT_ERROR_FILES, "missing.json"]}
    tensor = path["tensor.json"]
    return [
        *(("moment-map", "--input", path[name])
          for name in ("nan.json", "duplicate.json", "outside.json", "bool_dims.json", "missing.json")),
        ("moment-map", "--input", tensor, "--bogus"),
        *(("polytope", "--input", tensor, "--halfspace", path[name])
          for name in ("one_over_zero.json", "no_c.json", "short_h.json")),
        ("polytope", "--input", tensor, "--refute", path["increasing.json"]),
        ("flow", "--input", tensor, "--step", "0"),
        ("certify-nonfree", "--family", "2"),
        ("certify-nonfree", "--family", "102"),
        ("certify-nonfree",),
        ("certify-nonfree", "--family", "3", "--tol", "nan"),
        ("free-support", "--input", tensor, "--tol", "nan"),
        ("family", "--n", "2", "--verify"),
        ("reduce-s0", "--input", path["non_cubic.json"]),
    ]


FLOW_SHAPES = "flow_shapes"
# Appended shapes keep the inputs of the earlier ones: each draws from its index.
FLOW_SHAPE_DIMS = ((7, 7, 7), (13, 13, 13), (14, 14, 14), (2, 5, 7), (16, 16, 16), (20, 20, 20))


def flow_shape_ops(directory: str, seed: int) -> list[tuple[str, ...]]:
    """The flow_shapes ops for one seed; their tensor files are written into directory."""
    from perfbench.workloads import Inputs

    inputs = Inputs(directory, seed)
    paths = {}
    for index, dims in enumerate(FLOW_SHAPE_DIMS):
        gen = inputs.rng(3, index)
        arr = gen.standard_normal(dims) + 1j * gen.standard_normal(dims)
        paths[dims] = inputs.tensor("dense" + "x".join(map(str, dims)), arr)
    ops = [("flow", "--input", path, "--step", "1.0") for path in paths.values()]
    return ops + [("flow", "--input", paths[(13, 13, 13)])]


REFUTE_GROUP = "refute_samples"
REFUTE_SAMPLES = ("0", "20")


def with_samples(argv: tuple[str, ...], samples: str) -> tuple[str, ...]:
    """argv with the value of its --samples option replaced."""
    at = argv.index("--samples") + 1
    return argv[:at] + (samples,) + argv[at + 1 :]


def print_digests(cli, label: str, ops: list[tuple[str, ...]]) -> None:
    """One line per command: the sha256 of its ops' argv, exit code and stdout, in order."""
    records = {}
    for argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        records.setdefault(argv[0], []).append(repr((list(argv), code, out.getvalue())))
    for command, reprs in records.items():
        digest = hashlib.sha256("".join(reprs).encode("utf-8")).hexdigest()
        print(f"{label}\t{command}\t{len(reprs)} ops\t{digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--directory", default=os.path.join(tempfile.gettempdir(), "nonfree-stdout-hashes")
    )
    args = parser.parse_args(argv)

    from perfbench.bench import load_cli
    from perfbench.workloads import BUILDERS, build

    cli = load_cli()
    for workload in BUILDERS:
        for seed in args.seeds:
            ops = build(workload, os.path.join(args.directory, f"{workload}-{seed}"), seed)
            print_digests(cli, f"{workload}\tseed {seed}", [op.argv for op in ops])
            if workload == "polytope_refute":
                refutes = [with_samples(op.argv, samples) for samples in REFUTE_SAMPLES
                           for op in ops if op.kind == "refute"]
                print_digests(cli, f"{REFUTE_GROUP}\tseed {seed}", refutes)
    for seed in args.seeds:
        ops = flow_shape_ops(os.path.join(args.directory, f"{FLOW_SHAPES}-{seed}"), seed)
        print_digests(cli, f"{FLOW_SHAPES}\tseed {seed}", ops)
    print_digests(cli, f"{PATH_FREE}\tno seed", PATH_FREE_OPS)
    ops = input_error_ops(os.path.join(args.directory, INPUT_ERRORS))
    print_digests(cli, f"{INPUT_ERRORS}\tno seed", ops)
    return 0


if __name__ == "__main__":
    # The checkout root replaces this script's directory on the path.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from perfbench import THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.exit(main())
