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

The group `halfspace_ranges` hashes `polytope --halfspace` on the family
tensor at n = 5, with its h and c scaled by 10**20 and written as integer
strings, rounded over the denominator 3**40, and scaled to integers whose
pairings sit just under and just over the 2**62 bound below which
exactlp._pairings sums in int64. All but the third take the object-array path,
which no benchmark op reaches. Its files are written into
DIR/halfspace_ranges, and it is hashed once, with no seed.

Another, `input_errors`, hashes error documents: one op or more per family of
input errors (bad tensor documents, bad halfspace and refutation documents,
bad flags, sizes and paths), with the files they read written into
DIR/input_errors. Its bad tensor entries cover every kind the reader names:
a missing index, a string index, a boolean value, an integer too large for a
float, an entry that is not an object, an index of 0 and a duplicate after
1 000 good entries. It is hashed once, with no seed.

And for each seed, the group `refute_samples` hashes every `polytope --refute`
op of polytope_refute again at `--samples 0` and at `--samples 20`, where the
benchmark draws one sample: the sample 0 alone, and refutations that go on
drawing lower triples.

The group `refute_shapes` hashes, for each seed, `polytope --refute` at
`--samples 0` and `--samples 20` on boxes with unequal sides, which the
benchmark's cubes leave out, at their uniform points. Each of the shapes
(2, 5, 7) and (3, 4, 5) has a seeded dense tensor, and the same entries kept
only at the 0-based triples with i/(n1 - 1) + j/(n2 - 1) + k/(n3 - 1) <= b.
The whole box is b = 3: a full support, answered by the product witness, so
that only the draws reach the report. At b = 1 the LP refutes the uniform
point at sample 0, and at b = 2 it finds the point in the hull of sample 0.
Their files are written into DIR/refute_shapes-SEED.

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
import math
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
    "no_k.json": {"dims": [2, 2, 2], "entries": [{"i": 1, "j": 1, "re": 1.0}]},
    "string_index.json": {"dims": [2, 2, 2], "entries": [{**_ENTRY, "j": "1"}]},
    "bool_re.json": {"dims": [2, 2, 2], "entries": [{**_ENTRY, "re": True}]},
    "huge_re.json": {"dims": [2, 2, 2], "entries": [{**_ENTRY, "re": 10**400}]},
    "list_entry.json": {"dims": [2, 2, 2], "entries": [[1, 1, 1, 1.0]]},
    "index_zero.json": {"dims": [2, 2, 2], "entries": [{**_ENTRY, "k": 0}]},
    "late_duplicate.json": {"dims": [10, 10, 10], "entries": [
        {"i": i, "j": j, "k": k, "re": 1.0} for i in range(1, 11) for j in range(1, 11)
        for k in range(1, 11)
    ] + [{"i": 7, "j": 3, "k": 9, "im": -1.0}]},
    "one_over_zero.json": {"h1": ["1/0", 0], "h2": [0, 0], "h3": [0, 0], "c": 0},
    "no_c.json": {"h1": [0, 0], "h2": [0, 0], "h3": [0, 0]},
    "short_h.json": {"h1": [0], "h2": [0, 0], "h3": [0, 0], "c": 0},
    "increasing.json": {"p1": [0.25, 0.75], "p2": [0.5, 0.5], "p3": [0.5, 0.5]},
}


# Bad entries in an otherwise well-formed document, one of each kind: each
# must get the message of the first bad entry.
BAD_ENTRY_FILES = ("no_k.json", "string_index.json", "bool_re.json", "huge_re.json",
                   "list_entry.json", "index_zero.json", "late_duplicate.json")


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
        *(("moment-map", "--input", path[name]) for name in BAD_ENTRY_FILES),
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


REFUTE_SHAPES = "refute_shapes"
REFUTE_SHAPE_DIMS = ((2, 5, 7), (3, 4, 5))
REFUTE_SHAPE_BOUNDS = (3, 1, 2)  # 3 keeps the whole box


def refute_shape_ops(directory: str, seed: int) -> list[tuple[str, ...]]:
    """The refute_shapes ops for one seed; their files are written into directory."""
    import numpy as np
    from perfbench.workloads import Inputs

    inputs = Inputs(directory, seed)
    ops = []
    for index, dims in enumerate(REFUTE_SHAPE_DIMS):
        gen = inputs.rng(5, index)
        dense = gen.standard_normal(dims) + 1j * gen.standard_normal(dims)
        # D times i/(n1 - 1) + j/(n2 - 1) + k/(n3 - 1), with D the product of the n - 1.
        scale = math.prod(n - 1 for n in dims)
        i, j, k = (np.arange(n) * (scale // (n - 1)) for n in dims)
        level = i[:, None, None] + j[:, None] + k
        name = "x".join(map(str, dims))
        point = inputs.point("uniform" + name, [[1 / n] * n for n in dims])
        for bound in REFUTE_SHAPE_BOUNDS:
            tensor = inputs.tensor(f"below{bound}_{name}", np.where(level <= bound * scale, dense, 0))
            ops += [("polytope", "--input", tensor, "--refute", point, "--samples", samples,
                     "--seed", str(seed)) for samples in REFUTE_SAMPLES]
    return ops


HALFSPACE_RANGES = "halfspace_ranges"
HALFSPACE_RANGES_N = 5
# Integral h and c at n = 5 have a largest |h_L| sum of 48 (20 + 20 + 8) per unit
# of this scale, and pairings are summed in int64 below 2**62.
_SWITCH_SCALE = 10 * ((2**62 - 1) // 48)


def halfspace_range_ops(directory: str) -> list[tuple[str, ...]]:
    """The halfspace_ranges ops; their files are written into directory."""
    from fractions import Fraction

    from perfbench.workloads import Inputs, family_array, family_closed_form

    inputs = Inputs(directory, 0)
    n = HALFSPACE_RANGES_N
    form = family_closed_form(n)
    tensor = inputs.tensor(f"family{n}", family_array(n))
    over_3_40 = Fraction(1, 3**40)
    writers = {
        "times_1e20": lambda x: str(int(x * 10**20)),
        "over_3_40": lambda x: f"{round(x / over_3_40)}/{3**40}",
        "under_switch": lambda x: int(x * _SWITCH_SCALE),  # JSON integers
        "over_switch": lambda x: int(x * (_SWITCH_SCALE + 10)),
    }
    ops = []
    for name, write in writers.items():
        doc = {f"h{i + 1}": [write(x) for x in hi] for i, hi in enumerate(form.h)}
        doc["c"] = write(form.c)
        ops.append(("polytope", "--input", tensor, "--halfspace", inputs.write(name, doc)))
    return ops


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
    for seed in args.seeds:
        ops = refute_shape_ops(os.path.join(args.directory, f"{REFUTE_SHAPES}-{seed}"), seed)
        print_digests(cli, f"{REFUTE_SHAPES}\tseed {seed}", ops)
    print_digests(cli, f"{PATH_FREE}\tno seed", PATH_FREE_OPS)
    ops = halfspace_range_ops(os.path.join(args.directory, HALFSPACE_RANGES))
    print_digests(cli, f"{HALFSPACE_RANGES}\tno seed", ops)
    ops = input_error_ops(os.path.join(args.directory, INPUT_ERRORS))
    print_digests(cli, f"{INPUT_ERRORS}\tno seed", ops)
    return 0


if __name__ == "__main__":
    # The checkout root replaces this script's directory on the path.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from perfbench import THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.exit(main())
