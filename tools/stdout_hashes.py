"""Print one sha256 per benchmark workload, seed and command over its ops' argv, exit and stdout.

    python3 tools/stdout_hashes.py [--seeds 0 1 2] [--directory DIR]

Run from the root of a checkout. The ops are the ones perfbench runs, built by
`perfbench.workloads.build` into DIR, and each runs once in-process through
`nonfree.cli.main`, imported from the checkout's src/. BLAS and OpenMP are
pinned to one thread before numpy loads, as perfbench pins them. The input
paths appear in the reports, so two checkouts compare equal only with the same
DIR; the default is one fixed directory under the system's temporary directory.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile


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
            records = {}
            for op in ops:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(op.argv))
                record = repr((list(op.argv), code, out.getvalue()))
                records.setdefault(op.argv[0], []).append(record)
            for command, reprs in records.items():
                digest = hashlib.sha256("".join(reprs).encode("utf-8")).hexdigest()
                print(f"{workload}\tseed {seed}\t{command}\t{len(reprs)} ops\t{digest}")
    return 0


if __name__ == "__main__":
    # The checkout root replaces this script's directory on the path.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from perfbench import THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.exit(main())
