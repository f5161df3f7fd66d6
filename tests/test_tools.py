from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from perfbench.workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent


def test_stdout_hashes_prints_one_digest_per_workload_seed_and_command(tmp_path):
    # Plus the path_free group, once: the named certificates and the family sizes
    # the benchmark skips; and per seed the refute_samples group: the 38 refute ops
    # of polytope_refute at --samples 0 and 20.
    result = subprocess.run(
        [sys.executable, "tools/stdout_hashes.py", "--seeds", "0", "--directory", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines
    workloads = set()
    path_free, refute_samples = {}, {}
    for line in lines:
        workload, seed, command, ops, digest = line.split("\t")
        assert seed == ("no seed" if workload == "path_free" else "seed 0")
        assert re.fullmatch(r"\d+ ops", ops)
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        workloads.add(workload)
        if workload == "path_free":
            path_free[command] = ops
        if workload == "refute_samples":
            refute_samples[command] = ops
    assert workloads == {*BUILDERS, "path_free", "refute_samples"}
    assert path_free == {"certify-nonfree": "11 ops", "family": "7 ops"}
    assert refute_samples == {"polytope": "76 ops"}
