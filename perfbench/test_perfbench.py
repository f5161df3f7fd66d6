"""Tests of the benchmark itself, on the tiny op lists (`--tiny`)."""

import dataclasses
import importlib
import json
import os
from fractions import Fraction

import pytest

from perfbench import bench, layers, workloads

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(scope="module")
def results():
    """Last stdout line of one tiny run per (workload, trace), parsed."""
    return {}


def tiny_run(results, capsys, workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in results:
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny"]
        assert bench.main(argv) == 0
        results[key] = json.loads(capsys.readouterr().out.splitlines()[-1])
    return results[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(results, capsys, workload, trace):
    result = tiny_run(results, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_current_code_has_no_failures(results, capsys, workload, trace):
    result = tiny_run(results, capsys, workload, trace)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"] is True


def test_wrong_expected_values_count_as_failures(tmp_path):
    ops = workloads.build("flow_converge", str(tmp_path), seed=3, tiny=True)
    named, flow = ops[0], ops[1]
    assert (named.kind, flow.kind) == ("named", "flow")
    wrong = [
        dataclasses.replace(named, expect={"lam": Fraction(44, 42)}),
        dataclasses.replace(flow, expect={"lam": flow.expect["lam"] + 1e-3}),
    ]
    runner = bench.Runner(bench.load_cli(), wrong + ops[2:])
    runner.one_pass()
    assert runner.attempted == len(ops)
    assert len(runner.failures) == 2


def test_refuting_an_inside_point_is_reported_unsound(tmp_path):
    ops = workloads.build("polytope_refute", str(tmp_path), seed=3, tiny=True)
    inside = next(op for op in ops
                  if op.kind == "refute" and op.expect["outcome"] == "inconclusive")
    runner = bench.Runner(bench.load_cli(), [inside])
    code, stdout, error = runner.invoke(inside)
    forged = json.loads(stdout)
    forged["refutation"]["outcome"] = "refuted"
    assert "unsound" in workloads.check(inside, code, json.dumps(forged))


def test_changed_stdout_of_a_repeated_op_is_a_failure(tmp_path):
    ops = workloads.build("family_exact", str(tmp_path), seed=3, tiny=True)
    runner = bench.Runner(bench.load_cli(), ops[:1])
    runner.reference[0] = "an earlier, different report"
    runner.warm_up()
    assert len(runner.failures) == 1 and "differs" in runner.failures[0]


def test_every_wrapped_span_is_expected_on_some_workload():
    expected = {name for names in layers.EXPECTED.values() for name in names}
    assert expected == set(layers.span_names())
    assert layers.check_spans([], "flow_converge") == sorted(
        f"{name} never fired" for name in layers.EXPECTED["flow_converge"]
    )


def test_tracer_restores_the_library():
    # The package re-exports `flow`, shadowing the submodule of that name.
    certify, flow, tensor = (
        importlib.import_module(f"nonfree.{name}") for name in ("certify", "flow", "tensor")
    )
    before = (flow.moment_map, certify.flow, tensor.Tensor3.__init__)
    with layers.Tracer() as tracer:
        assert flow.moment_map is not before[0]
        tensor.Tensor3([[[1.0]]])
    assert (flow.moment_map, certify.flow, tensor.Tensor3.__init__) == before
    assert [span[0] for span in tracer.spans] == [layers.TENSOR_CLASS]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    for samples in (48, 52, 56, 100, 1000):
        p = bench.tail_percentile(samples)
        assert samples * (100 - p) / 100 >= bench.TAIL_BEYOND
        assert samples * (100 - p - 1) / 100 < bench.TAIL_BEYOND or p == 99
