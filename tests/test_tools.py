from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import nonfree.polytope as polytope
from conftest import recording_pairings
from nonfree.cli import main
from nonfree.family import gamma_support
from nonfree.supports import downward_closure
from perfbench.workloads import BUILDERS
from tools.stdout_hashes import (
    HALFSPACE_RANGES_N,
    flow_shape_ops,
    halfspace_range_ops,
    input_error_ops,
    refute_shape_ops,
)

ROOT = Path(__file__).resolve().parent.parent


def test_stdout_hashes_prints_one_digest_per_workload_seed_and_command(tmp_path):
    # Plus, once each, the path_free group, the named certificates and the family
    # sizes the benchmark skips or passes (n = 45 and 101), the halfspace_ranges group, and the
    # input_errors group; and per seed the
    # refute_samples group, the 38 refute ops of polytope_refute at --samples 0
    # and 20, the refute_shapes group, six tensors with unequal sides at --samples
    # 0 and 20, and the flow_shapes group, seven flows at shapes the benchmark skips.
    result = subprocess.run(
        [sys.executable, "tools/stdout_hashes.py", "--seeds", "0", "--directory", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines
    workloads = set()
    path_free, refute_samples, input_errors, flow_shapes, refute_shapes = {}, {}, {}, {}, {}
    halfspace_ranges = {}
    for line in lines:
        workload, seed, command, ops, digest = line.split("\t")
        no_seed = ("path_free", "input_errors", "halfspace_ranges")
        assert seed == ("no seed" if workload in no_seed else "seed 0")
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
        if workload == "refute_shapes":
            refute_shapes[command] = ops
        if workload == "halfspace_ranges":
            halfspace_ranges[command] = ops
    assert workloads == {
        *BUILDERS, "path_free", "refute_samples", "input_errors", "flow_shapes", "refute_shapes",
        "halfspace_ranges",
    }
    assert path_free == {"certify-nonfree": "12 ops", "family": "9 ops"}
    assert refute_samples == {"polytope": "76 ops"}
    assert flow_shapes == {"flow": "7 ops"}
    assert refute_shapes == {"polytope": "12 ops"}
    assert halfspace_ranges == {"polytope": "4 ops"}
    assert input_errors == {
        "moment-map": "13 ops", "polytope": "4 ops", "flow": "1 ops",
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


def test_every_refute_shapes_op_answers_as_its_support_says(tmp_path, capsys):
    # The whole box (below3) is answered without an LP; below 1 the LP refutes
    # the uniform point at sample 0, and below 2 it finds the point in the hull.
    want = {"below3": ("inconclusive", None, True), "below1": ("refuted", 0, False),
            "below2": ("inconclusive", None, False)}
    ops = refute_shape_ops(str(tmp_path), 0)
    assert len(ops) == 12
    for argv in ops:
        assert main(list(argv)) == 0, argv
        r = json.loads(capsys.readouterr().out)["refutation"]
        kind, shape = Path(argv[2]).stem.split("_")
        full = math.prod(map(int, shape.split("x")))
        assert (r["outcome"], r["refuting_sample"], r["support_sizes"][0] == full) == want[kind], argv


def test_every_halfspace_ranges_op_reports_the_fraction_minimum(tmp_path, capsys, monkeypatch):
    # Each halfspace is the family's, scaled or rounded, so the reference minimum is the
    # Fraction minimum of its pairings over the downward closure of the family support.
    # All but the one just under the int64 switch take the object-array pairings.
    dtypes = recording_pairings(monkeypatch, polytope)
    closure = list(downward_closure(gamma_support(HALFSPACE_RANGES_N)))
    for argv in halfspace_range_ops(str(tmp_path)):
        with open(argv[-1], encoding="utf-8") as handle:
            doc = json.load(handle)
        h1, h2, h3 = ([Fraction(x) for x in doc[key]] for key in ("h1", "h2", "h3"))
        low = min(h1[i - 1] + h2[j - 1] + h3[k - 1] for i, j, k in closure)
        code = main(list(argv))
        result = json.loads(capsys.readouterr().out)["halfspace"]
        minimum = result["min_support_value"]
        assert Fraction(int(minimum["num"]), int(minimum["den"])) == low, argv
        assert (code, result["valid"]) == ((0, True) if low >= Fraction(doc["c"]) else (1, False))
        assert result["vertices_checked"] == len(closure)
    assert dtypes == [object, object, np.int64, object]
