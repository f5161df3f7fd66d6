from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tensor, rng
import nonfree
import nonfree.family

from nonfree.certify import DEFAULT_TOL as DEFAULT_CERTIFY_TOL, certify_family
from nonfree.cli import _decimate, main
from nonfree.construct import build_family_tensor, s0_tensor
from nonfree.family import family_data, staircase_index
from nonfree.flow import DEFAULT_RESIDUAL_TOL, DEFAULT_STEP
from nonfree.named import named_tensor
from nonfree.polytope import MAX_SAMPLES
from nonfree.reduction import DEFAULT_TOL as DEFAULT_REDUCTION_TOL
from nonfree.tensor import Tensor3, tensor_to_doc


def write_tensor(t, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(tensor_to_doc(t)))


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


# The named certificates' stdout, pinned so that neither the tables of named nor
# their shared coefficient prelude can move either report unnoticed.
T2_REPORT = (
    '{"tool":"nonfree","version":"0.1.0","command":"certify-nonfree","config":{"named":"T2",'
    '"tol":1e-10},"report":{"input":"T2","verdict":true,"failed_stage":null,'
    '"details":{"tol":1e-10,"value_tol":9.9999999999999998e-13,'
    '"s2_coefficient_defect":1.5700924586837752e-16,"mu_defect":9.618890705737148e-17,'
    '"lambda":1.0238095238095237,"lambda_expected":1.0238095238095237,'
    '"ness_residual":1.3878157797980524e-16,"blocks":[[[1],[2],[3]],[[1],[2],[3]],[[1,2],[3]]],'
    '"obstruction_vectors":[[{"re":0.0,"im":0.0},{"re":0.51176631571915898,"im":0.0}],'
    '[{"re":0.36037498507822358,"im":0.0},{"re":0.24618298195866548,"im":0.0}],'
    '[{"re":0.47673129462279618,"im":0.0},{"re":-0.18609684207969418,"im":0.0}]]},'
    '"ness":{"lambda":1.0238095238095237,"residual":1.3878157797980524e-16},'
    '"stabilizer_blocks":[[[1],[2],[3]],[[1],[2],[3]],[[1,2],[3]]],'
    '"obstruction":{"kind":"pairwise-nonparallel-triple","data":{"vectors":[[{"re":0.0,'
    '"im":0.0},{"re":0.51176631571915898,"im":0.0}],[{"re":0.36037498507822358,"im":0.0},'
    '{"re":0.24618298195866548,"im":0.0}],[{"re":0.47673129462279618,"im":0.0},'
    '{"re":-0.18609684207969418,"im":0.0}]]}}}}\n'
)
T5_REPORT = (
    '{"tool":"nonfree","version":"0.1.0","command":"certify-nonfree","config":{"named":"T5",'
    '"tol":1e-10},"report":{"input":"T5","verdict":true,"failed_stage":null,'
    '"details":{"tol":1e-10,"value_tol":9.9999999999999998e-13,'
    '"s5_coefficient_defect":8.3266726846886741e-17,"mu_defect":1.1445349638603793e-16,'
    '"lambda":1.0666666666666667,"lambda_expected":1.0666666666666667,'
    '"ness_residual":1.7554276312358743e-16,"blocks":[[[1],[2],[3]],[[1],[2],[3]],[[1,2],[3]]],'
    '"obstruction_vectors":[[{"re":0.33806170189140661,"im":0.0},{"re":0.34503277967117713,'
    '"im":0.0}],[{"re":0.53452248382484879,"im":0.0},{"re":-0.21821789023599236,"im":0.0}],'
    '[{"re":0.0,"im":0.0},{"re":0.48304589153964794,"im":0.0}]]},'
    '"ness":{"lambda":1.0666666666666667,"residual":1.7554276312358743e-16},'
    '"stabilizer_blocks":[[[1],[2],[3]],[[1],[2],[3]],[[1,2],[3]]],'
    '"obstruction":{"kind":"pairwise-nonparallel-triple",'
    '"data":{"vectors":[[{"re":0.33806170189140661,"im":0.0},{"re":0.34503277967117713,'
    '"im":0.0}],[{"re":0.53452248382484879,"im":0.0},{"re":-0.21821789023599236,"im":0.0}],'
    '[{"re":0.0,"im":0.0},{"re":0.48304589153964794,"im":0.0}]]}}}}\n'
)


def test_named_certificates_print_pinned_bytes(capsys):
    assert run(capsys, "certify-nonfree", "--named", "T2") == (0, T2_REPORT)
    assert run(capsys, "certify-nonfree", "--named", "T5") == (0, T5_REPORT)


def test_certify_family_n2_is_input_error(capsys):
    code, out = run(capsys, "certify-nonfree", "--family", "2")
    assert code == 2
    assert "error" in json.loads(out)


def test_family_below_n_2_is_input_error(capsys):
    code, out = run(capsys, "family", "--n", "1")
    assert code == 2
    assert out == '{"error":{"kind":"input","message":"family_data requires n >= 2"}}\n'


def test_family_verify_needs_n_at_least_3(capsys):
    code, out = run(capsys, "family", "--n", "2", "--verify")
    assert code == 2
    assert json.loads(out)["error"]["message"] == "--verify needs n >= 3"


def test_family_verify_reports_rationals(capsys):
    code, out = run(capsys, "family", "--n", "3", "--verify")
    doc = json.loads(out)
    assert code == 0
    assert doc["family_data"]["q"][0][0] == {"num": "17", "den": "42"}
    assert doc["verification"]["halfspace_equality_is_gamma"] is True


def test_family_verify_evaluates_one_moment_map(monkeypatch, capsys):
    flow_module, calls = importlib.import_module("nonfree.flow"), []
    original = flow_module.moment_map
    monkeypatch.setattr(flow_module, "moment_map", lambda t: calls.append(t.dims) or original(t))
    code, _ = run(capsys, "family", "--n", "5", "--verify")
    assert code == 0
    assert calls == [(5, 5, 5)]


@pytest.mark.parametrize("n", [5, 13, 14, 17])
def test_family_verify_prints_the_certificate_evidence(capsys, n):
    code, out = run(capsys, "family", "--n", str(n), "--verify")
    assert code == 0
    verification = json.loads(out)["verification"]
    details = certify_family(n).details
    assert verification["mu_defect"] == details["mu_defect"]
    assert verification["ness_lambda"] == details["lambda"]
    assert verification["ness_residual"] == details["ness_residual"]


def test_free_support_w_state(tmp_path, capsys):
    path = write_w_state(tmp_path / "w_state.json")
    code, out = run(capsys, "free-support", "--input", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["free"] is True


def test_free_support_staircase_is_exit_one(tmp_path, capsys):
    path = tmp_path / "tw.json"
    write_tensor(build_family_tensor(family_data(3)), path)
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
    write_tensor(build_family_tensor(family_data(3)), path)
    code, out = run(capsys, "flow", "--input", str(path), "--max-steps", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["converged"] is True
    assert doc["result"]["lambda"] == pytest.approx(43 / 42)


@pytest.mark.parametrize("step", ["1e20", "1e40"])
def test_a_flow_no_halving_can_save_stops_unconverged(tmp_path, capsys, step):
    # Every Newton step from this tensor raises |mu|, down to 1e20 / 2**60 and 1e40 / 2**60.
    path = tmp_path / "t.json"
    write_tensor(random_tensor(rng(7), (2, 2, 2)), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, "flow", "--input", str(path), "--step", step, "--max-steps", "5")
    result = json.loads(out)["result"]
    assert code == 1
    assert result["converged"] is False and result["steps"] == 0
    assert len(result["mu_norm_trajectory"]) == 1


def test_flow_passes_a_flat_stretch_that_monotonicity_alone_accepts(tmp_path, capsys):
    # W3 = e112 + e121 + e211 + e333 / 2 admits steps of 1.0 that keep |mu|
    # exactly flat at |mu|^2 = 1.30378 (RK4 took them for all 200 000 steps);
    # the flow must reach the minimum, 15/14, instead.
    path = tmp_path / "w3.json"
    entries = [((1, 1, 2), 1.0), ((1, 2, 1), 1.0), ((2, 1, 1), 1.0), ((3, 3, 3), 0.5)]
    path.write_text(json.dumps({"dims": [3, 3, 3], "entries": [
        {"i": i, "j": j, "k": k, "re": re, "im": 0.0} for (i, j, k), re in entries
    ]}))
    code, out = run(capsys, "flow", "--input", str(path), "--step", "1.0")
    result = json.loads(out)["result"]
    assert code == 0 and result["converged"] is True
    assert result["lambda"] == pytest.approx(15 / 14, abs=1e-6)


def test_an_overflowing_flow_step_leaves_stderr_empty(tmp_path, capsys):
    # The last eigenvalue of mu_3 of the rng(0) 2x2x5 tensor rounds to -3e-17,
    # so neither the Hessian nor the preconditioner damps the Newton step along
    # its eigenvector, and e^X overflows or underflows at every halving of a
    # 1e40 step; the flow rejects the step by its norm. From the rng(12) tensor
    # at 1e300, the CG solve of every try gives a non-finite X, and the flow
    # rejects the step before any e^X. numpy must not report either on stderr.
    src = os.path.dirname(os.path.dirname(nonfree.__file__))
    code = "import sys; from nonfree.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=src)
    for seed, step, max_steps in [(0, "1e40", "5"), (12, "1e300", "20")]:
        path = tmp_path / f"t{seed}.json"
        write_tensor(random_tensor(rng(seed), (2, 2, 5)), path)
        argv = ["flow", "--input", str(path), "--step", step, "--max-steps", max_steps]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stderr == ""
        assert (done.returncode, done.stdout) == run(capsys, *argv)
        assert done.returncode == 1 and json.loads(done.stdout)["result"]["steps"] == 0


def test_a_flow_from_a_tiny_step_converges(tmp_path, capsys):
    # From --step 1e-16 the flow stopped unconverged at step 0; it now starts from flow.MIN_STEP.
    gen = np.random.default_rng([79, 0, 5, 5, 5])
    path = tmp_path / "dense5.json"
    write_tensor(Tensor3(gen.standard_normal((5, 5, 5)) + 1j * gen.standard_normal((5, 5, 5))), path)
    code, out = run(capsys, "flow", "--input", str(path), "--step", "1e-16")
    result = json.loads(out)["result"]
    assert code == 0 and result["converged"] is True
    assert result["lambda"] == pytest.approx(3 / 5, abs=1e-9)


def test_a_reader_closing_stdout_early_gets_no_traceback():
    # The family report at n = 48 is 154 KB, more than twice a 64 KiB pipe
    # buffer, so the CLI is still writing when the reader closes the pipe after
    # one unbuffered read of 100 bytes.
    src = os.path.dirname(os.path.dirname(nonfree.__file__))
    code = "import sys; from nonfree.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-c", code, "family", "--n", "48"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    ) as process:
        head = process.stdout.read(100)
        process.stdout.close()
        stderr = process.stderr.read()
        returncode = process.wait(timeout=60)
    assert head.startswith(b'{"tool":"nonfree"')
    assert (returncode, stderr) == (0, b"")


def test_reduce_s0_command(tmp_path, capsys):
    path = tmp_path / "t.json"
    write_tensor(build_family_tensor(family_data(4)), path)
    code, out = run(capsys, "reduce-s0", "--input", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["success"] is True
    assert doc["residual"] <= 1e-8


@pytest.mark.parametrize("scale", [1e13, 1e-13, 1e100, 1e-100])
@pytest.mark.parametrize("name", ["s0-4", "family-5"])
def test_reduce_s0_accepts_a_scaled_tensor(tmp_path, capsys, name, scale):
    t = s0_tensor(4) if name == "s0-4" else build_family_tensor(family_data(5))
    path = tmp_path / "t.json"
    write_tensor(Tensor3(t.entries * scale), path)
    code, out = run(capsys, "reduce-s0", "--input", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["success"] is True
    assert doc["residual"] <= 1e-12


def test_reduce_s0_reports_an_ill_conditioned_reduction_as_failed(tmp_path, capsys):
    # The a-entries pass the vanish guard, but the element that scales them back
    # to one is too ill-conditioned: a failed reduction, not an input error.
    arr = np.array(build_family_tensor(family_data(5)).entries)
    arr[staircase_index(5)[1]] *= 1e-13
    path = tmp_path / "t.json"
    write_tensor(Tensor3(arr), path)
    code, out = run(capsys, "reduce-s0", "--input", str(path))
    doc = json.loads(out)
    assert code == 1 and doc["success"] is False
    assert "factor" in doc["reason"] and "ill-conditioned" in doc["reason"]


def test_reduce_s0_reports_an_ill_conditioned_straightening_as_failed(tmp_path, capsys):
    # The W-part passes the relative rank check but is so small against the
    # peak that the third factor of g is too ill-conditioned: exit 1, not 2.
    arr = np.array(build_family_tensor(family_data(3)).entries)
    arr[staircase_index(3)[0]] *= 1e-12
    path = tmp_path / "t.json"
    write_tensor(Tensor3(arr), path)
    code, out = run(capsys, "reduce-s0", "--input", str(path))
    doc = json.loads(out)
    assert code == 1 and doc["success"] is False
    assert "ill-conditioned: factor c" in doc["reason"]


@pytest.mark.parametrize("size", [0, 1, 1000, 1001, 1002, 2500])
def test_decimate_keeps_every_stride_th_value_and_the_last(size):
    values = [0.5 * i for i in range(size)]
    out = _decimate(values)
    if size <= 1000:
        assert out == values
        return
    stride = -(-size // 1000)
    strided = values[::stride]
    assert out[: len(strided)] == strided
    assert out[len(strided):] == ([] if strided[-1] == values[-1] else [values[-1]])
    assert len(out) <= 1001 and out[0] == values[0] and out[-1] == values[-1]


def test_reduce_s0_of_a_subnormal_peak_prints_one_json_document(tmp_path):
    # LAPACK writes its complaints to stdout from C, so the command runs in a process of its own.
    path = tmp_path / "t.json"
    write_tensor(Tensor3(s0_tensor(4).entries * 1e-310), path)
    src = os.path.dirname(os.path.dirname(nonfree.__file__))
    code = "import sys; from nonfree.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "reduce-s0", "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.stderr == "" and done.stdout.count("\n") == 1
    assert done.returncode == 0 and json.loads(done.stdout)["success"] is True


@pytest.mark.parametrize(
    "point, outcome",
    [
        ({key: [1 / 3] * 3 for key in ("p1", "p2", "p3")}, "refuted"),
        # The sorted marginals of the uniform distribution on the support of T2.
        ({"p1": [1 / 2, 1 / 3, 1 / 6], "p2": [1 / 2, 1 / 3, 1 / 6], "p3": [1 / 3] * 3}, "inconclusive"),
    ],
)
def test_the_hull_lp_leaves_stdout_to_the_report(tmp_path, capsys, monkeypatch, point, outcome):
    # HiGHS writes its banner and log to stdout from C unless its output flag is
    # off, so the command runs in a process of its own.
    import nonfree.polytope as polytope

    t_path, p_path = tmp_path / "t.json", tmp_path / "p.json"
    write_tensor(named_tensor("T2"), t_path)
    p_path.write_text(json.dumps(point))
    argv = ["polytope", "--input", str(t_path), "--refute", str(p_path), "--samples", "3"]
    src = os.path.dirname(os.path.dirname(nonfree.__file__))
    code = "import sys; from nonfree.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.stderr == "" and done.stdout.count("\n") == 1
    assert done.returncode == 0 and json.loads(done.stdout)["refutation"]["outcome"] == outcome
    # In-process, the same report comes from exactly one LP: infeasible, then feasible.
    answers, lp = [], polytope.in_convex_hull

    def recording(supp, p):
        answers.append(lp(supp, p))
        return answers[-1]

    monkeypatch.setattr(polytope, "in_convex_hull", recording)
    assert run(capsys, *argv) == (0, done.stdout)
    assert answers == [outcome == "inconclusive"]


@pytest.mark.parametrize("scale", [1e-155, 1e-170])
@pytest.mark.parametrize("command", ["moment-map", "flow"])
def test_a_tensor_whose_squared_norm_underflows_gets_its_report(tmp_path, capfd, command, scale):
    path = tmp_path / "t.json"
    write_tensor(Tensor3(build_family_tensor(family_data(5)).entries * scale), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", str(path)])
    out, err = capfd.readouterr()
    assert code == 0 and err == "" and not caught
    assert "error" not in json.loads(out)


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
    write_tensor(build_family_tensor(family_data(3)), t_path)
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
    write_tensor(build_family_tensor(family_data(3)), t_path)
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


@pytest.mark.parametrize("value", [{"re": float("nan")}, {"im": float("-inf")}], ids=["nan", "minus-infinity"])
def test_a_non_finite_tensor_entry_is_input_error(tmp_path, capsys, value):
    # json.dumps writes NaN and -Infinity, and json.load reads them back as floats.
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [{"i": 1, "j": 1, "k": 1, **value}]}))
    assert "NaN" in path.read_text() or "-Infinity" in path.read_text()
    code, out = run(capsys, "moment-map", "--input", str(path))
    assert code == 2
    assert json.loads(out) == {"error": {"kind": "input", "message": "tensor entries must be finite"}}


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
    write_tensor(s0_tensor(3), t_path)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("flow", "--input", "{tensor}", "--step", "0", "--max-steps", "5"),
        ("flow", "--input", "{tensor}", "--step", "-1.0", "--max-steps", "5"),
        ("flow", "--input", "{tensor}", "--residual-tol", "-1", "--max-steps", "5"),
        ("flow", "--input", "{tensor}", "--max-steps", "-1"),
        ("polytope", "--input", "{tensor}", "--refute", "{point}", "--samples", "-1"),
    ],
)
def test_out_of_range_flow_and_refute_flags_are_input_errors(tmp_path, capsys, argv):
    tensor = write_w_state(tmp_path / "w_state.json")
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"p1": [0.5, 0.5], "p2": [0.5, 0.5], "p3": [0.5, 0.5]}))
    code, out = run(capsys, *(arg.format(tensor=tensor, point=point) for arg in argv))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_a_negative_seed_is_named(tmp_path, capsys):
    code, out = run(capsys, *_polytope_argv(tmp_path, "--refute", POINT_3), "--seed", "-1")
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "seed must be nonnegative, got -1" in error["message"]


@pytest.mark.parametrize("seed, expected", [(0, 0), (3, 2)])
def test_an_ill_conditioned_refutation_draw_names_the_seed(tmp_path, capsys, seed, expected):
    # A unit-triangular change has determinant 1, but at side 50 the upper one of
    # seed 3 has a condition number past 1/INVERTIBILITY_TOL; the one of seed 0 does not.
    n = 50
    tensor, point = tmp_path / "diagonal.json", tmp_path / "uniform.json"
    tensor.write_text(json.dumps({"dims": [n] * 3, "entries": [
        {"i": i, "j": i, "k": i, "re": 1.0, "im": 0.0} for i in range(1, n + 1)]}))
    point.write_text(json.dumps({key: [1 / n] * n for key in ("p1", "p2", "p3")}))
    code, out = run(capsys, "polytope", "--input", str(tensor), "--refute", str(point),
                    "--samples", "0", "--seed", str(seed))
    doc = json.loads(out)
    assert code == expected
    if code == 0:
        assert doc["refutation"]["outcome"] == "inconclusive"
    else:
        message = doc["error"]["message"]
        assert "sample 0 at seed 3" in message and "(50, 50, 50)" in message
        assert "another seed may draw a usable change" in message


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**12])
def test_samples_above_the_limit_are_input_error(tmp_path, capsys, monkeypatch, samples):
    import nonfree.polytope as polytope

    def no_work(*args):
        raise AssertionError("no sample should be drawn")

    monkeypatch.setattr(polytope, "apply", no_work)  # the answer comes before any work starts
    tensor = write_w_state(tmp_path / "w_state.json")
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"p1": [0.5, 0.5], "p2": [0.5, 0.5], "p3": [0.5, 0.5]}))
    code, out = run(capsys, "polytope", "--input", str(tensor), "--refute", str(point),
                    "--samples", str(samples))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert error["message"] == f"samples = {samples} is above the limit of {MAX_SAMPLES}"


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--n", "102"),
        ("family", "--n", "5000", "--verify"),
        ("certify-nonfree", "--family", "102"),
        ("certify-nonfree", "--family", "5000"),
    ],
)
def test_family_size_above_the_entry_limit_is_input_error(capsys, argv):
    # 102^3 is the first cube above MAX_ENTRIES; the answer comes before any work starts.
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("bogus-command",),
        ("family",),
        ("family", "--n", "abc"),
        ("family", "--n", "3", "--unknown-flag"),
        ("certify-nonfree", "--named", "T7"),
    ],
)
def test_usage_errors_print_a_json_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_the_named_choices_print_as_they_always_did(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal width
    code = main(["certify-nonfree", "--named", "T3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "usage: nonfree certify-nonfree [-h] [--family FAMILY] [--named {T2,T5,t2,t5}]\n"
        "                               [--tol TOL]\n"
    )
    assert json.loads(captured.out)["error"]["message"] == (
        "argument --named: invalid choice: 'T3' (choose from 'T2', 'T5', 't2', 't5')"
    )
    code, out = run(capsys, "certify-nonfree")
    assert code == 2
    assert json.loads(out)["error"]["message"] == "choose exactly one of --family N or --named T2|T5"


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("family", "--help")])
def test_help_and_version_still_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(("usage:", "nonfree"))


def test_a_usage_error_leaves_no_state_behind(capsys):
    argv = ("certify-nonfree", "--family", "3")
    _, alone = run(capsys, *argv)
    for error in (("family", "--n", "abc"), ("certify-nonfree", "--named", "T7")):
        assert run(capsys, *error)[0] == 2
        assert run(capsys, *argv) == (0, alone)


@pytest.mark.parametrize(
    "argv",
    [
        ("certify-nonfree", "--named", "T2", "--tol", "-1"),
        ("certify-nonfree", "--family", "3", "--tol", "-1"),
        ("reduce-s0", "--input", "{tensor}", "--tol", "-1"),
    ],
)
def test_negative_tol_is_input_error(tmp_path, capsys, argv):
    tensor = tmp_path / "t.json"
    write_tensor(build_family_tensor(family_data(4)), tensor)
    code, out = run(capsys, *(arg.format(tensor=tensor) for arg in argv))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "input", "message": "tol must be nonnegative"}


@pytest.mark.parametrize("command", ["moment-map", "flow"])
def test_overflowing_squared_norm_is_named(tmp_path, capsys, command):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [
        {"i": 1, "j": 1, "k": 1, "re": 1e200, "im": 0.0},
        {"i": 2, "j": 2, "k": 2, "re": 1.0, "im": 0.0},
    ]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(capsys, command, "--input", str(path))
    assert code == 2
    assert "overflows" in json.loads(out)["error"]["message"]
    assert not caught


@pytest.mark.parametrize(
    "argv", [("family", "--n", "8", "--verify"), ("certify-nonfree", "--family", "8")]
)
def test_a_family_command_validates_its_data_once(monkeypatch, capsys, argv):
    validate, sizes = nonfree.family._validate, []
    monkeypatch.setattr(nonfree.family, "_validate", lambda data: sizes.append(data.n) or validate(data))
    code, _ = run(capsys, *argv)
    assert code == 0
    assert sizes == [8]


def _polytope_argv(tmp_path, flag, doc):
    t_path = tmp_path / "t.json"
    write_tensor(build_family_tensor(family_data(3)), t_path)
    d_path = tmp_path / "doc.json"
    d_path.write_text(json.dumps(doc))
    return ("polytope", "--input", str(t_path), flag, str(d_path), "--samples", "0")


HALFSPACE_3 = {"h1": [1, 0, -1], "h2": [1, 0, -1], "h3": ["1/3", "1/3", "-2/3"], "c": 0}
POINT_3 = {"p1": [0.5, 0.3, 0.2], "p2": [0.5, 0.3, 0.2], "p3": [0.5, 0.3, 0.2]}


@pytest.mark.parametrize(
    "flag, doc",
    [
        ("--halfspace", [HALFSPACE_3]),
        ("--halfspace", dict(HALFSPACE_3, h2=[1, 0])),
        ("--halfspace", dict(HALFSPACE_3, h3=7)),
        ("--refute", dict(POINT_3, p2=None)),
        ("--refute", dict(POINT_3, p1=[0.5, 0.5])),
        ("--refute", dict(POINT_3, p1=["0.5", 0.3, 0.2])),
    ],
    ids=["halfspace-list", "halfspace-short", "halfspace-scalar", "point-null", "point-short",
         "point-string"],
)
def test_malformed_polytope_document_is_input_error(tmp_path, capsys, flag, doc):
    code, out = run(capsys, *_polytope_argv(tmp_path, flag, doc))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


@pytest.mark.parametrize(
    "flag, doc",
    [
        ("--halfspace", dict(HALFSPACE_3, h1=[True, 0, -1])),
        ("--halfspace", dict(HALFSPACE_3, c=False)),
        ("--refute", dict(POINT_3, p1=[True, False, False])),
    ],
    ids=["halfspace-h1", "halfspace-c", "point-p1"],
)
def test_boolean_polytope_value_is_input_error(tmp_path, capsys, flag, doc):
    code, out = run(capsys, *_polytope_argv(tmp_path, flag, doc))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


@pytest.mark.parametrize(
    "doc",
    [
        {"dims": [2, 2, 2], "entries": [{"i": True, "j": 1, "k": 1, "re": 1.0}]},
        {"dims": [2, 2, 2], "entries": [{"i": 1, "j": 1, "k": 1, "re": True}]},
        {"dims": [2, 2, 2], "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0, "im": False}]},
        {"dims": [True, 2, 2], "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0}]},
    ],
    ids=["index", "re", "im", "dims"],
)
def test_boolean_tensor_value_is_input_error(tmp_path, capsys, doc):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "moment-map", "--input", str(path))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "not numbers" in error["message"]


@pytest.mark.parametrize(
    "doc",
    [
        {"dims": [2, 2, 2], "entries": [{"i": 1.9, "j": 1, "k": 1, "re": 1.0}]},
        {"dims": [2, 2, 2], "entries": [{"i": "2", "j": 1, "k": 1, "re": 1.0}]},
        {"dims": [2, 2, 2], "entries": [{"i": 1, "j": 1, "k": 1, "re": "1.0"}]},
        {"dims": [2.0, 2, 2], "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0}]},
    ],
    ids=["index-float", "index-string", "re-string", "dims-float"],
)
def test_tensor_value_of_the_wrong_json_type_is_input_error(tmp_path, capsys, doc):
    # Indices and dims are JSON integers, values JSON numbers: nothing is truncated or parsed.
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "free-support", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_refuting_a_point_for_the_zero_tensor_is_input_error(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps({"dims": [2, 2, 2], "entries": []}))
    p_path = tmp_path / "p.json"
    p_path.write_text(json.dumps({"p1": [0.5, 0.5], "p2": [0.5, 0.5], "p3": [0.5, 0.5]}))
    code, out = run(capsys, "polytope", "--input", str(t_path), "--refute", str(p_path))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "zero tensor" in error["message"]


@pytest.mark.parametrize(
    "p1, message",
    [
        ([0.25, 0.75, 0.0], "component p1 is not non-increasing: (0.25, 0.75, 0.0)"),
        ([0.5, 0.3, 0.1], "component p1 sums to 0.9, expected 1"),
        ([1.0, 0.5, -0.5], "component p1 has a negative entry: (1.0, 0.5, -0.5)"),
        ([10**400, 0, 0], "int too large to convert to float"),
    ],
    ids=["increasing", "sum", "negative", "overflow"],
)
def test_a_point_the_weyl_chamber_refuses_is_input_error(tmp_path, capsys, p1, message):
    t_path, p_path = tmp_path / "t.json", tmp_path / "p.json"
    write_tensor(named_tensor("T2"), t_path)
    p_path.write_text(json.dumps({"p1": p1, "p2": [1 / 3] * 3, "p3": [1 / 3] * 3}))
    code, out = run(capsys, "polytope", "--input", str(t_path), "--refute", str(p_path))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "input", "message": f"invalid Weyl point: {message}"}


def test_a_halfspace_without_a_bound_is_named(tmp_path, capsys):
    doc = {key: value for key, value in HALFSPACE_3.items() if key != "c"}
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", doc))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "missing the bound c" in error["message"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["h1", "c"])
def test_non_finite_halfspace_value_is_input_error(tmp_path, capsys, key, value):
    doc = dict(HALFSPACE_3, c=value) if key == "c" else dict(HALFSPACE_3, h1=[1, 0, value])
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", doc))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "halfspace values must be finite" in error["message"]
    assert ("for c" if key == "c" else "at position 3 of h1") in error["message"]


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("h1", [None, 0, -1], "position 1 of h1"),
        ("h3", ["1/3", True, "-2/3"], "position 2 of h3"),
        ("h2", [1, "1/0", -1], "position 2 of h2"),
        ("c", None, "for c"),
        ("c", True, "for c"),
    ],
    ids=["h1-null", "h3-true", "h2-zero-denominator", "c-null", "c-true"],
)
def test_a_bad_halfspace_value_names_its_key_and_position(tmp_path, capsys, key, value, named):
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", dict(HALFSPACE_3, **{key: value})))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and named in error["message"]


@pytest.mark.parametrize(
    "doc, minimum",
    [
        (dict(HALFSPACE_3, h1=[1e308] * 3, h2=[1e308] * 3, h3=[0, 0, 0]), 2 * int(1e308)),
        (dict(HALFSPACE_3, h1=[0.5, 0.25, 0.0], h2=[0, 0, 0], h3=[0, 0, 0], c="-1e400"), 0),
    ],
    ids=["float-pairing-overflows", "float-h-with-huge-rational-c"],
)
def test_halfspaces_beyond_the_float_range_are_compared_exactly(tmp_path, capsys, doc, minimum):
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", doc))
    half = json.loads(out)["halfspace"]
    assert code == 0 and half["valid"] is True
    assert half["min_support_value"] == {"num": str(minimum), "den": "1"}


def _primes_above_a_million(count: int) -> list[int]:
    sieve = np.ones(1_200_000, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1096):
        if sieve[p]:
            sieve[p * p :: p] = False
    return (np.nonzero(sieve[10**6 :])[0][:count] + 10**6).tolist()


@pytest.mark.parametrize("case", ["exponent", "exponents", "prime-denominators"])
def test_an_oversized_exact_halfspace_is_input_error_at_once(tmp_path, capsys, case):
    if case == "prime-denominators":
        # Their common denominator passes 4300 digits after about 615 of them.
        h1 = [f"1/{p}" for p in _primes_above_a_million(8000)]
        doc = {"h1": h1[2:], "h2": h1[:1], "h3": h1[1:2], "c": 0}
        t_path, d_path = tmp_path / "t.json", tmp_path / "doc.json"
        t_path.write_text(json.dumps({"dims": [len(h1) - 2, 1, 1], "entries": [
            {"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 0.0}]}))
        d_path.write_text(json.dumps(doc))
        argv = ("polytope", "--input", str(t_path), "--halfspace", str(d_path))
    else:
        doc = (dict(HALFSPACE_3, c="1e-10000000") if case == "exponent" else
               dict(HALFSPACE_3, h3=["1e-3000000", "1e-2999999", 0], c="1e-2999998"))
        argv = _polytope_argv(tmp_path, "--halfspace", doc)
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and json.loads(out)["error"]["kind"] == "input"


def test_a_halfspace_within_the_digit_limit_is_compared_exactly(tmp_path, capsys):
    doc = {"h1": ["1e-4000"] * 3, "h2": [0, 0, 0], "h3": [0, 0, 0], "c": "1e-4000"}
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", doc))
    half = json.loads(out)["halfspace"]
    assert code == 0 and half["valid"] is True
    assert half["min_support_value"] == {"num": "1", "den": str(10**4000)}


@pytest.mark.parametrize(
    "doc",
    [
        dict(HALFSPACE_3, c="-1e4300"),
        {"h1": ["1e4000"] * 3, "h2": ["1e-4000"] * 3, "h3": [0, 0, 0], "c": 0},
    ],
    ids=["c-numerator", "minimum-numerator"],
)
def test_a_halfspace_value_past_the_digit_limit_is_named(tmp_path, capsys, doc):
    # Each exponent is within the limit, but -10^4300 and the minimum 10^4000 + 10^-4000
    # have numerators of 4 301 and 8 001 digits, which no JSON integer may have.
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", doc))
    message = json.loads(out)["error"]["message"]
    assert code == 2
    assert "4300 digits" in message and "set_int_max_str_digits" not in message


def test_halfspace_on_an_empty_support_is_input_error(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps({"dims": [2, 2, 2], "entries": []}))
    d_path = tmp_path / "doc.json"
    d_path.write_text(json.dumps({"h1": [0, 0], "h2": [0, 0], "h3": [0, 0], "c": 0}))
    code, out = run(capsys, "polytope", "--input", str(t_path), "--halfspace", str(d_path))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "support is empty" in error["message"]


def test_tensor_entries_that_are_not_a_list_is_input_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "entries": 5}))
    code, out = run(capsys, "moment-map", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_too_deeply_nested_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out = run(capsys, "moment-map", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_input_naming_a_directory_is_input_error(tmp_path, capsys):
    code, out = run(capsys, "moment-map", "--input", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


# --- any JSON document in, one JSON document out -----------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
ODD_VALUES = JSON_VALUES | st.sampled_from([10**400, "1/0", "1e400", "x", float("nan"), 1e308, [1]])
SMALL_FLOATS = st.floats(-2, 2)
NUMBERS = st.integers(-3, 3) | SMALL_FLOATS | st.fractions(max_denominator=6).map(str)


@st.composite
def corrupted(draw, doc):
    """doc, or doc with one value anywhere in it removed or replaced by an odd one."""
    if draw(st.booleans()):
        return doc
    slots = [(None, None)]
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = draw(st.sampled_from(slots))
    if node is None:
        return draw(ODD_VALUES)
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(ODD_VALUES)
    return doc


@st.composite
def tensor_docs(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    cells = draw(st.sets(st.tuples(*(st.integers(1, n) for n in dims)), max_size=6))
    entries = [
        {"i": i, "j": j, "k": k, "re": draw(SMALL_FLOATS), "im": draw(SMALL_FLOATS)}
        for i, j, k in sorted(cells)
    ]
    return draw(corrupted({"dims": dims, "entries": entries}))


@st.composite
def halfspace_docs(draw):
    doc = {key: draw(st.lists(NUMBERS, min_size=3, max_size=3)) for key in ("h1", "h2", "h3")}
    doc["c"] = draw(NUMBERS)
    return draw(corrupted(doc))


@st.composite
def point_docs(draw):
    doc = {}
    for key in ("p1", "p2", "p3"):
        weights = sorted(draw(st.lists(st.floats(0, 1), min_size=3, max_size=3)), reverse=True)
        total = sum(weights)
        doc[key] = [w / total for w in weights] if total > 0 else [1.0, 0.0, 0.0]
    return draw(corrupted(doc))


TENSOR_COMMANDS = st.sampled_from(
    [("moment-map",), ("free-support",), ("reduce-s0",), ("flow", "--max-steps", "3")]
)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _assert_one_json_answer(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    out = buffer.getvalue()
    assert out.count("\n") == 1 and out.endswith("\n")
    doc = json.loads(out)
    assert code in (0, 1, 2)
    assert (code == 2) == ("error" in doc)
    return code, doc


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("docs")
    write_tensor(build_family_tensor(family_data(3)), directory / "family3.json")
    return directory


def _write(directory, doc):
    path = directory / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@PROPERTY_SETTINGS
@given(doc=tensor_docs(), command=TENSOR_COMMANDS)
def test_any_tensor_document_gets_one_json_answer(doc_dir, doc, command):
    _assert_one_json_answer((command[0], "--input", _write(doc_dir, doc)) + command[1:])


@PROPERTY_SETTINGS
@given(doc=halfspace_docs())
def test_any_halfspace_document_gets_one_json_answer(doc_dir, doc):
    tensor = str(doc_dir / "family3.json")
    _assert_one_json_answer(("polytope", "--input", tensor, "--halfspace", _write(doc_dir, doc)))


@PROPERTY_SETTINGS
@given(doc=point_docs())
def test_any_point_document_gets_one_json_answer(doc_dir, doc):
    tensor = str(doc_dir / "family3.json")
    argv = ("polytope", "--input", tensor, "--refute", _write(doc_dir, doc), "--samples", "0")
    _assert_one_json_answer(argv)


@pytest.fixture(scope="module")
def branch_docs(tmp_path_factory):
    """The input files of the report branches below, by name."""
    directory = tmp_path_factory.mktemp("branches")
    data = family_data(3)
    docs = {
        "family3": tensor_to_doc(build_family_tensor(data)),
        "family4": tensor_to_doc(build_family_tensor(family_data(4))),
        "dense": tensor_to_doc(random_tensor(rng(7), (3, 3, 3))),
        "exact_h": {**{f"h{a}": [str(x) for x in data.h[a - 1]] for a in (1, 2, 3)},
                    "c": str(data.c)},
        "float_h": {"h1": [1.0, 0.5, 0.0], "h2": [0.0] * 3, "h3": [0.0] * 3, "c": 2.0},
        "uniform": {key: [1 / 3] * 3 for key in ("p1", "p2", "p3")},
        "w_point": {key: [2 / 3, 1 / 3] for key in ("p1", "p2", "p3")},
    }
    paths = {name: directory / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    paths["w"] = directory / "w.json"
    write_w_state(paths["w"])
    return {name: str(path) for name, path in paths.items()}


# Every subcommand and every branch of its report, with the exit code and the
# field that shows the branch was taken; {name} is a file of branch_docs.
REPORT_BRANCHES = {
    "family-n2": (("family", "--n", "2"), 0, "s0"),
    "family-verify": (("family", "--n", "3", "--verify"), 0, "verification"),
    "moment-map": (("moment-map", "--input", "{w}"), 0, "spec_point"),
    "flow-converged": (("flow", "--input", "{family3}", "--max-steps", "10"), 0, "result"),
    "flow-unconverged": (("flow", "--input", "{dense}", "--max-steps", "1"), 1, "result"),
    "free-support-free": (("free-support", "--input", "{w}"), 0, "free"),
    "free-support-pair": (("free-support", "--input", "{family3}"), 1, "offending_pair"),
    "certify-family": (("certify-nonfree", "--family", "3"), 0, "report"),
    "certify-t2": (("certify-nonfree", "--named", "T2"), 0, "report"),
    "certify-t5": (("certify-nonfree", "--named", "T5"), 0, "report"),
    "certify-fails-moment-map": (("certify-nonfree", "--family", "3", "--tol", "0"), 1, "report"),
    "certify-fails-ness": (("certify-nonfree", "--named", "T5", "--tol", "0"), 1, "report"),
    "reduce-s0": (("reduce-s0", "--input", "{family4}"), 0, "g"),
    "reduce-s0-escapes": (("reduce-s0", "--input", "{dense}"), 1, "reason"),
    "reduce-s0-above-tol": (("reduce-s0", "--input", "{family4}", "--tol", "0"), 1, "residual"),
    "halfspace-exact": (("polytope", "--input", "{family3}", "--halfspace", "{exact_h}"),
                        0, "halfspace"),
    "halfspace-float-invalid": (("polytope", "--input", "{family3}", "--halfspace", "{float_h}"),
                                1, "halfspace"),
    "refute-refuted": (("polytope", "--input", "{family3}", "--refute", "{uniform}", "--samples", "3"),
                       0, "refutation"),
    "refute-inconclusive": (("polytope", "--input", "{w}", "--refute", "{w_point}", "--samples", "2"),
                            0, "refutation"),
    "usage-error": (("polytope", "--input", "{w}"), 2, "error"),
}


@pytest.mark.parametrize("branch", list(REPORT_BRANCHES))
def test_every_report_branch_prints_one_json_document(branch_docs, branch):
    # dumps refuses numpy values, so a report that leaks one fails here with a TypeError.
    argv, expected_code, field = REPORT_BRANCHES[branch]
    code, doc = _assert_one_json_answer([arg.format(**branch_docs) for arg in argv])
    assert code == expected_code and field in doc


def test_a_failed_obstruction_stage_prints_one_json_document(monkeypatch):
    # Every pair of block vectors counts as parallel, so the family obstruction fails.
    monkeypatch.setattr(nonfree.certify, "PARALLEL_TOL", 1.0)
    code, doc = _assert_one_json_answer(["certify-nonfree", "--family", "3"])
    assert code == 1 and doc["report"]["failed_stage"] == "obstruction"


# The envelope of each report mode: the parsed options in flag order, unset ones
# omitted. A halfspace check draws nothing, so it omits --samples and --seed.
ENVELOPES = {
    "family": (("family", "--n", "3"), {"n": 3, "verify": False}),
    "family-verify": (("family", "--n", "3", "--verify"), {"n": 3, "verify": True}),
    "moment-map": (("moment-map", "--input", "{w}"), {"input": "{w}"}),
    "flow": (("flow", "--input", "{family3}", "--max-steps", "10"),
             {"input": "{family3}", "step": DEFAULT_STEP, "residual_tol": DEFAULT_RESIDUAL_TOL,
              "max_steps": 10}),
    "free-support": (("free-support", "--input", "{w}", "--tol", "0.001"),
                     {"input": "{w}", "tol": 0.001}),
    "certify-family": (("certify-nonfree", "--family", "3"),
                       {"family": 3, "tol": DEFAULT_CERTIFY_TOL}),
    "certify-named": (("certify-nonfree", "--tol", "1e-9", "--named", "t2"),
                      {"named": "t2", "tol": 1e-9}),
    "reduce-s0": (("reduce-s0", "--input", "{family4}"),
                  {"input": "{family4}", "tol": DEFAULT_REDUCTION_TOL}),
    "halfspace": (("polytope", "--seed", "5", "--input", "{family3}", "--halfspace", "{exact_h}"),
                  {"input": "{family3}", "halfspace": "{exact_h}"}),
    "refute": (("polytope", "--input", "{family3}", "--refute", "{uniform}", "--samples", "3"),
               {"input": "{family3}", "refute": "{uniform}", "samples": 3, "seed": 0}),
}


@pytest.mark.parametrize("mode", list(ENVELOPES))
def test_every_report_opens_with_one_envelope(branch_docs, mode):
    argv, config = ENVELOPES[mode]
    _, doc = _assert_one_json_answer([arg.format(**branch_docs) for arg in argv])
    assert list(doc)[:4] == ["tool", "version", "command", "config"]
    assert (doc["tool"], doc["version"], doc["command"]) == ("nonfree", nonfree.__version__, argv[0])
    assert list(doc["config"].items()) == [
        (key, value.format(**branch_docs) if isinstance(value, str) else value)
        for key, value in config.items()
    ]
