from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from nonfree.cli import main
from perfbench.workloads import BUILDERS
from tools.stdout_hashes import flow_shape_ops, input_error_ops

ROOT = Path(__file__).resolve().parent.parent


def test_stdout_hashes_prints_one_digest_per_workload_seed_and_command(tmp_path):
    # Plus, once each, the path_free group, the named certificates and the family
    # sizes the benchmark skips or passes (n = 45 and 101), and the input_errors group; and per seed the
    # refute_samples group, the 38 refute ops of polytope_refute at --samples 0
    # and 20, and the flow_shapes group, seven flows at shapes the benchmark skips.
    result = subprocess.run(
        [sys.executable, "tools/stdout_hashes.py", "--seeds", "0", "--directory", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines
    workloads = set()
    path_free, refute_samples, input_errors, flow_shapes = {}, {}, {}, {}
    for line in lines:
        workload, seed, command, ops, digest = line.split("\t")
        assert seed == ("no seed" if workload in ("path_free", "input_errors") else "seed 0")
        assert re.fullmatch(r"\d+ ops", ops)
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        workloads.add(workload)
        if workload == "path_free":
            path_free[command] = ops
        if workload == "refute_samples":
            refute_samples[command] = ops
        if workload == "input_errors":
            input_errors[command] = ops
        if workload == "flow_shapes":
            flow_shapes[command] = ops
    assert workloads == {*BUILDERS, "path_free", "refute_samples", "input_errors", "flow_shapes"}
    assert path_free == {"certify-nonfree": "12 ops", "family": "9 ops"}
    assert refute_samples == {"polytope": "76 ops"}
    assert flow_shapes == {"flow": "7 ops"}
    assert input_errors == {
        "moment-map": "6 ops", "polytope": "4 ops", "flow": "1 ops",
        "certify-nonfree": "4 ops", "free-support": "1 ops", "family": "1 ops",
        "reduce-s0": "1 ops",
    }


def test_every_input_errors_op_answers_with_a_json_input_error(tmp_path, capsys):
    for argv in input_error_ops(str(tmp_path)):
        code = main(list(argv))
        assert code == 2, argv
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "input", argv


def test_every_flow_shapes_op_converges(tmp_path, capsys):
    for argv in flow_shape_ops(str(tmp_path), 0):
        code = main(list(argv))
        assert code == 0, argv
        assert json.loads(capsys.readouterr().out)["result"]["converged"] is True, argv
