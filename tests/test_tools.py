from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from perfbench.workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent


def test_stdout_hashes_prints_one_digest_per_workload_seed_and_command(tmp_path):
    result = subprocess.run(
        [sys.executable, "tools/stdout_hashes.py", "--seeds", "0", "--directory", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines
    workloads = set()
    for line in lines:
        workload, seed, _command, ops, digest = line.split("\t")
        assert seed == "seed 0" and re.fullmatch(r"\d+ ops", ops)
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        workloads.add(workload)
    assert workloads == set(BUILDERS)
