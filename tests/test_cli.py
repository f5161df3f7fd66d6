from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tensor, rng
import nonfree
import nonfree.family

from nonfree.cli import main
from nonfree.construct import build_family_tensor, s0_tensor
from nonfree.family import family_data
from nonfree.polytope import MAX_SAMPLES
from nonfree.tensor import tensor_to_doc


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


# The named certificates' stdout, pinned so that their shared coefficient prelude
# cannot move either report unnoticed; T5 pins all but its details values.
T2_REPORT = (
    '{"tool":"nonfree","version":"0.1.0","command":"certify-nonfree","config":{"named":"T2",'
    '"tol":1e-10},"report":{"input":"T2","verdict":true,"failed_stage":null,'
    '"details":{"tol":1e-10,"value_tol":9.9999999999999998e-13,'
    '"s2_coefficient_defect":1.5700924586837752e-16,"mu_defect":1.6653345369377348e-16,'
    '"lambda":1.0238095238095242,"lambda_expected":1.0238095238095237,'
    '"ness_residual":1.94944108925813e-16,"blocks":[[[1],[2],[3]],[[1],[2],[3]],[[1,2],[3]]],'
    '"obstruction_vectors":[[{"re":0.0,"im":0.0},{"re":0.51176631571915898,"im":0.0}],'
    '[{"re":0.36037498507822358,"im":0.0},{"re":0.24618298195866542,"im":0.0}],'
    '[{"re":0.47673129462279623,"im":0.0},{"re":-0.18609684207969424,"im":0.0}]]},'
    '"ness":{"lambda":1.0238095238095242,"residual":1.94944108925813e-16},'
    '"stabilizer_blocks":[[[1],[2],[3]],[[1],[2],[3]],[[1,2],[3]]],'
    '"obstruction":{"kind":"pairwise-nonparallel-triple","data":{"vectors":[[{"re":0.0,'
    '"im":0.0},{"re":0.51176631571915898,"im":0.0}],[{"re":0.36037498507822358,"im":0.0},'
    '{"re":0.24618298195866542,"im":0.0}],[{"re":0.47673129462279623,"im":0.0},'
    '{"re":-0.18609684207969424,"im":0.0}]]}}}}\n'
)
T5_REPORT_TAIL = (
    '"ness":{"lambda":1.0666666666666667,"residual":1.7554276312358743e-16},'
    '"stabilizer_blocks":[[[1],[2],[3]],[[1],[2],[3]],[[1,2],[3]]],'
    '"obstruction":{"kind":"pairwise-nonparallel-triple",'
    '"data":{"vectors":[[{"re":0.33806170189140661,"im":0.0},{"re":0.34503277967117713,'
    '"im":0.0}],[{"re":0.53452248382484879,"im":0.0},{"re":-0.21821789023599236,"im":0.0}],'
    '[{"re":0.0,"im":0.0},{"re":0.48304589153964794,"im":0.0}]]}}}}\n'
)
T5_DETAILS = [
    "tol", "value_tol", "s5_coefficient_defect", "mu_defect", "lambda", "lambda_expected",
    "ness_residual", "blocks", "obstruction_vectors",
]


def test_named_certificates_print_pinned_bytes(capsys):
    assert run(capsys, "certify-nonfree", "--named", "T2") == (0, T2_REPORT)
    code, out = run(capsys, "certify-nonfree", "--named", "T5")
    assert code == 0 and out.endswith("," + T5_REPORT_TAIL)
    assert list(json.loads(out)["report"]["details"]) == T5_DETAILS


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
    write_tensor(build_family_tensor(family_data(3)).tensor, path)
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
    write_tensor(build_family_tensor(family_data(3)).tensor, path)
    code, out = run(capsys, "flow", "--input", str(path), "--max-steps", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["converged"] is True
    assert doc["result"]["lambda"] == pytest.approx(43 / 42)


@pytest.mark.parametrize("step", ["1e20", "1e40"])
def test_a_flow_no_halving_can_save_stops_unconverged(tmp_path, capsys, step):
    # Every halving of 1e20 still raises |mu|; a step of 1e40 leaves the float range.
    path = tmp_path / "t.json"
    write_tensor(random_tensor(rng(7), (2, 2, 2)), path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out = run(capsys, "flow", "--input", str(path), "--step", step, "--max-steps", "5")
    result = json.loads(out)["result"]
    assert code == 1
    assert result["converged"] is False and result["steps"] == 0
    assert len(result["mu_norm_trajectory"]) == 1


def test_reduce_s0_command(tmp_path, capsys):
    path = tmp_path / "t.json"
    write_tensor(build_family_tensor(family_data(4)).tensor, path)
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
    write_tensor(build_family_tensor(family_data(3)).tensor, t_path)
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
    write_tensor(build_family_tensor(family_data(3)).tensor, t_path)
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
    write_tensor(build_family_tensor(family_data(4)).tensor, tensor)
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
    write_tensor(build_family_tensor(family_data(3)).tensor, t_path)
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["h1", "c"])
def test_non_finite_halfspace_value_is_input_error(tmp_path, capsys, key, value):
    doc = dict(HALFSPACE_3, c=value) if key == "c" else dict(HALFSPACE_3, h1=[1, 0, value])
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", doc))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "halfspace values must be finite" in error["message"]


def test_overflowing_float_halfspace_pairing_is_input_error(tmp_path, capsys):
    doc = dict(HALFSPACE_3, h1=[1e308] * 3, h2=[1e308] * 3, h3=[0, 0, 0])
    code, out = run(capsys, *_polytope_argv(tmp_path, "--halfspace", doc))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "input" and "overflows the float range" in error["message"]


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


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("docs")
    write_tensor(build_family_tensor(family_data(3)).tensor, directory / "family3.json")
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
