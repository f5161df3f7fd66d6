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
and `family --n N --verify` at sizes the benchmark skips, n = 2 included. These
ops read no file and draw nothing, so the group is hashed once, with no seed.

And for each seed, the group `refute_samples` hashes every `polytope --refute`
op of polytope_refute again at `--samples 0` and at `--samples 20`, where the
benchmark draws one sample: the sample 0 alone, and refutations that go on
drawing lower triples.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

PATH_FREE = "path_free"
PATH_FREE_OPS = [("certify-nonfree", "--named", name) for name in ("T2", "T5", "t2", "t5")] + [
    argv
    for n in ("2", "5", "7", "9", "10", "17", "20")
    for argv in (("certify-nonfree", "--family", n), ("family", "--n", n, "--verify"))
]

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
    print_digests(cli, f"{PATH_FREE}\tno seed", PATH_FREE_OPS)
    return 0


if __name__ == "__main__":
    # The checkout root replaces this script's directory on the path.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from perfbench import THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.exit(main())
