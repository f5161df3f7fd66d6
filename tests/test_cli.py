from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import nonfree

from nonfree.cli import main
from nonfree.construct import build_family_tensor, s0_tensor
from nonfree.family import family_data
from nonfree.tensor import save_tensor, tensor_to_doc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_w_state(path):
    doc = {
        "dims": [2, 2, 2],
        "entries": [
            {"i": 1, "j": 1, "k": 2, "re": 1.0, "im": 0.0},
            {"i": 1, "j": 2, "k": 1, "re": 1.0, "im": 0.0},
            {"i": 2, "j": 1, "k": 1, "re": 1.0, "im": 0.0},
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_named_t2_exit_zero(capsys):
    code, out = run(capsys, "certify-nonfree", "--named", "T2")
    report = json.loads(out)
    assert code == 0
    assert report["report"]["verdict"] is True
    assert report["report"]["ness"]["lambda"] == pytest.approx(43 / 42)


def test_certify_family_n2_is_input_error(capsys):
    code, out = run(capsys, "certify-nonfree", "--family", "2")
    assert code == 2
    assert "error" in json.loads(out)


def test_family_verify_reports_rationals(capsys):
    code, out = run(capsys, "family", "--n", "3", "--verify")
    doc = json.loads(out)
    assert code == 0
    assert doc["family_data"]["q"][0][0] == {"num": "17", "den": "42"}
    assert doc["verification"]["halfspace_equality_is_gamma"] is True


def test_free_support_w_state(tmp_path, capsys):
    path = write_w_state(tmp_path / "w_state.json")
    code, out = run(capsys, "free-support", "--input", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["free"] is True


def test_free_support_staircase_is_exit_one(tmp_path, capsys):
    path = tmp_path / "tw.json"
    save_tensor(build_family_tensor(3).tensor, path)
    code, out = run(capsys, "free-support", "--input", str(path))
    doc = json.loads(out)
    assert code == 1
    assert doc["free"] is False
    assert doc["offending_pair"] is not None


def test_moment_map_command(tmp_path, capsys):
    path = write_w_state(tmp_path / "w_state.json")
    code, out = run(capsys, "moment-map", "--input", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["spec_point"][0][0] == pytest.approx(2 / 3)


def test_flow_command(tmp_path, capsys):
    path = tmp_path / "t.json"
    save_tensor(build_family_tensor(3).tensor, path)
    code, out = run(capsys, "flow", "--input", str(path), "--max-steps", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["converged"] is True
    assert doc["result"]["lambda"] == pytest.approx(43 / 42)


def test_reduce_s0_command(tmp_path, capsys):
    path = tmp_path / "t.json"
    save_tensor(build_family_tensor(4).tensor, path)
    code, out = run(capsys, "reduce-s0", "--input", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["success"] is True
    assert doc["residual"] <= 1e-8


def test_reduce_s0_rejects_bad_support(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "dims": [3, 3, 3],
        "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 0.0}],
    }))
    code, out = run(capsys, "reduce-s0", "--input", str(path))
    assert code == 1
    assert json.loads(out)["success"] is False


def test_polytope_halfspace_command(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    save_tensor(build_family_tensor(3).tensor, t_path)
    data = family_data(3)
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps({
        "h1": [str(x) for x in data.h[0]],
        "h2": [str(x) for x in data.h[1]],
        "h3": [str(x) for x in data.h[2]],
        "c": str(data.c),
    }))
    code, out = run(capsys, "polytope", "--input", str(t_path), "--halfspace", str(h_path))
    doc = json.loads(out)
    assert code == 0
    assert doc["halfspace"]["valid"] is True
    assert doc["halfspace"]["min_support_value"] == {"num": "1", "den": "3"}


def test_polytope_refute_command(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    save_tensor(build_family_tensor(3).tensor, t_path)
    p_path = tmp_path / "p.json"
    third = 1 / 3
    p_path.write_text(json.dumps({"p1": [third] * 3, "p2": [third] * 3, "p3": [third] * 3}))
    code, out = run(
        capsys, "polytope", "--input", str(t_path), "--refute", str(p_path), "--samples", "3"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["refutation"]["outcome"] == "refuted"
    assert "upper_triple" in doc["refutation"]


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, "moment-map", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_duplicate_entry_is_input_error(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "dims": [2, 2, 2],
        "entries": [
            {"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 0.0},
            {"i": 1, "j": 1, "k": 1, "re": 2.0, "im": 0.0},
        ],
    }))
    code, out = run(capsys, "free-support", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("flow", "--input", "{input}", "--residual-tol", "nan"),
        ("certify-nonfree", "--named", "T2", "--tol", "nan"),
        ("certify-nonfree", "--family", "3", "--tol", "inf"),
        ("free-support", "--input", "{input}", "--tol", "nan"),
    ],
)
def test_non_finite_float_flag_is_input_error(tmp_path, capsys, argv):
    path = write_w_state(tmp_path / "w_state.json")
    code, out = run(capsys, *(arg.format(input=path) for arg in argv))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_oversized_tensor_is_input_error(tmp_path, capsys):
    # Rejected from the declared dims, before any array is allocated.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [100000, 100000, 100000], "entries": []}))
    code, out = run(capsys, "moment-map", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    save_tensor(s0_tensor(3), t_path)
    p_path = tmp_path / "p.json"
    p_path.write_text(json.dumps({
        "p1": [0.5, 0.3, 0.2], "p2": [0.5, 0.3, 0.2], "p3": [0.5, 0.3, 0.2],
    }))
    args = ("polytope", "--input", str(t_path), "--refute", str(p_path),
            "--samples", "5", "--seed", "7")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    # Version and resolved configuration are embedded for provenance.
    doc = json.loads(first)
    assert doc["tool"] == "nonfree" and doc["config"]["seed"] == 7


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes about 0.35 s to import; only hull refutation needs it.
    src = os.path.dirname(os.path.dirname(nonfree.__file__))
    code = "import sys, nonfree.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "False"
