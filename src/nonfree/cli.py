"""Command-line front end: JSON reports on stdout, logs on stderr.

Exit codes: 0 for a true verdict or successful computation, 1 for a false
verdict or failed reduction/flow, 2 for input errors, usage errors included,
which print a JSON error on stdout. Identical arguments (and seed) produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .certify import DEFAULT_TOL as DEFAULT_CERTIFY_TOL
from .certify import NonFreenessReport, certify_family, certify_named, mu_defect
from .construct import build_family_tensor, gram_defects, s0_tensor
from .family import family_data, family_to_doc, gamma_support, halfspace_check
from .flow import DEFAULT_MAX_STEPS, DEFAULT_RESIDUAL_TOL, DEFAULT_STEP, flow, ness_minimality
from .jsonio import dumps
from .moment import WeylPoint, moment_map, spec_point
from .named import NAMED
from .polytope import DEFAULT_SAMPLES, hull_refute, outer_halfspace, rational
from .reduction import DEFAULT_TOL as DEFAULT_REDUCTION_TOL
from .reduction import ReductionError, reduce_to_s0
from .supports import is_free_support
from .tensor import MAX_ENTRIES, SUPPORT_TOL, support, tensor_from_doc, tensor_to_doc


class _Parser(argparse.ArgumentParser):
    """Turns usage errors into ValueErrors, so they also answer with a JSON error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _load_tensor(path: str):
    return tensor_from_doc(_load_json(path))


def _parse_number(value, where: str) -> Fraction | float:
    """A halfspace value; `where` names its key, and position, in errors."""
    if isinstance(value, str):
        try:
            return rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational {value!r} {where}: {exc}") from exc
    if type(value) is int:  # json.load reads true and false as bools, which are ints
        return Fraction(value)
    if isinstance(value, float):  # json.load also reads NaN, Infinity and -Infinity
        if not math.isfinite(value):
            raise ValueError(f"halfspace values must be finite, got {value} {where}")
        return value
    raise ValueError(f"expected a number or 'p/q' string {where}, got {value!r}")


def _vectors(doc, keys: tuple[str, str, str], dims) -> list[list]:
    """The fields `keys` of a JSON object: lists with one entry per index of each factor."""
    if not isinstance(doc, dict) or not all(isinstance(doc.get(key), list) for key in keys):
        raise ValueError(f"expected a JSON object with lists {', '.join(keys)}")
    vectors = [doc[key] for key in keys]
    if tuple(map(len, vectors)) != dims:
        raise ValueError(f"lengths of {', '.join(keys)} do not match the tensor dims {dims}")
    return vectors


def _family_size(n: int) -> int:
    if n**3 > MAX_ENTRIES:
        raise ValueError(f"n = {n} needs {n**3} tensor entries, above the limit of {MAX_ENTRIES}")
    return n


def _matrix_triple_doc(names: tuple[str, str, str], matrices) -> dict:
    return {name: {"re": m.real.tolist(), "im": m.imag.tolist()} for name, m in zip(names, matrices)}


def _decimate(values: list[float]) -> list[float]:
    if len(values) <= 1000:
        return values
    stride = (len(values) + 999) // 1000
    sampled = values[::stride]
    if sampled[-1] != values[-1]:
        sampled.append(values[-1])
    return sampled


def cmd_family(args) -> tuple[dict, int]:
    data = family_data(_family_size(args.n))
    if args.verify and args.n < 3:  # the n = 2 support is free: nothing to verify
        raise ValueError("--verify needs n >= 3")
    doc = {"family_data": family_to_doc(data), "s0": tensor_to_doc(s0_tensor(args.n))}
    if args.n >= 3:
        t = build_family_tensor(data)
        doc["family_tensor"] = tensor_to_doc(t)
        if args.verify:
            left, right = gram_defects(t, data)
            ness = ness_minimality(t)
            half = halfspace_check(data)
            doc["verification"] = {
                "gram_defect_wsw": left,
                "gram_defect_wws": right,
                "mu_defect": mu_defect(ness.mu, data.q),
                "ness_lambda": ness.lam,
                "ness_residual": ness.residual,
                "halfspace_valid": half.valid,
                "halfspace_equality_is_gamma": half.equality_set == gamma_support(args.n),
            }
    return doc, 0


def cmd_moment_map(args) -> tuple[dict, int]:
    mu = moment_map(_load_tensor(args.input))
    return {
        "mu": _matrix_triple_doc(("h1", "h2", "h3"), mu.components),
        "spec_point": [list(c) for c in spec_point(mu).components],
    }, 0


def cmd_flow(args) -> tuple[dict, int]:
    t = _load_tensor(args.input)
    result = flow(
        t,
        step_size=args.step,
        residual_tol=args.residual_tol,
        max_steps=args.max_steps,
    )
    doc = {
        "converged": result.converged,
        "steps": result.steps,
        "final_residual": result.final_residual,
        "lambda": result.lam,
        "mu_norm_trajectory": _decimate(result.mu_norm_trajectory),
        "limit": tensor_to_doc(result.limit),
    }
    return {"result": doc}, 0 if result.converged else 1


def cmd_free_support(args) -> tuple[dict, int]:
    t = _load_tensor(args.input)
    witness = is_free_support(support(t, args.tol))
    pair = [list(x) for x in witness.offending_pair] if witness.offending_pair else None
    return {"free": witness.verdict, "offending_pair": pair}, 0 if witness.verdict else 1


def _report_doc(report: NonFreenessReport) -> dict:
    doc = {
        "input": report.input_id,
        "verdict": report.verdict,
        "failed_stage": report.failed_stage,
        "details": report.details,
    }
    if report.ness is not None:
        doc["ness"] = {"lambda": report.ness.lam, "residual": report.ness.residual}
    if report.blocks is not None:
        doc["stabilizer_blocks"] = [list(map(list, f)) for f in report.blocks]
    if report.obstruction is not None:
        doc["obstruction"] = {"kind": report.obstruction.kind, "data": report.obstruction.data}
    return doc


def cmd_certify(args) -> tuple[dict, int]:
    if (args.family is None) == (args.named is None):
        raise ValueError(f"choose exactly one of --family N or --named {'|'.join(NAMED)}")
    if args.family is not None:
        report = certify_family(_family_size(args.family), tol=args.tol)
    else:
        report = certify_named(args.named, tol=args.tol)
    return {"report": _report_doc(report)}, 0 if report.verdict else 1


def cmd_reduce_s0(args) -> tuple[dict, int]:
    t = _load_tensor(args.input)
    try:
        result = reduce_to_s0(t, tol=args.tol)
    except ReductionError as exc:
        return {"success": False, "reason": str(exc)}, 1
    return {
        "success": result.success,
        "residual": result.residual,
        "steps": result.log,
        "g": _matrix_triple_doc(("a", "b", "c"), result.g.factors),
    }, 0 if result.success else 1


def cmd_polytope(args) -> tuple[dict, int]:
    t = _load_tensor(args.input)
    if (args.halfspace is None) == (args.refute is None):
        raise ValueError("choose exactly one of --halfspace or --refute")
    if args.halfspace is not None:
        del args.samples, args.seed  # a halfspace check draws nothing
        halfspace_doc = _load_json(args.halfspace)
        vectors = _vectors(halfspace_doc, ("h1", "h2", "h3"), t.dims)
        h = tuple(
            tuple(_parse_number(x, f"at position {i} of h{factor}") for i, x in enumerate(vec, 1))
            for factor, vec in enumerate(vectors, 1)
        )
        if "c" not in halfspace_doc:
            raise ValueError(f"{args.halfspace} is missing the bound c")
        c = _parse_number(halfspace_doc["c"], "for c")
        cert = outer_halfspace(support(t), h, c)
        doc = {
            "valid": cert.valid,
            "c": c,
            "min_support_value": cert.min_support_value,
            "vertices_checked": cert.vertex_count,
        }
        return {"halfspace": doc}, 0 if cert.valid else 1
    vectors = _vectors(_load_json(args.refute), ("p1", "p2", "p3"), t.dims)
    if not all(type(x) in (int, float) for vec in vectors for x in vec):  # bool is an int subclass
        raise ValueError("invalid Weyl point: values must be JSON numbers, not strings or booleans")
    try:
        point = WeylPoint(*(tuple(float(x) for x in vec) for vec in vectors))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"invalid Weyl point: {exc}") from exc
    result = hull_refute(t, point, samples=args.samples, seed=args.seed)
    doc = {
        "outcome": result.outcome,
        "refuting_sample": result.refuting_sample,
        "samples_checked": result.samples_checked,
        "support_sizes": result.support_sizes,
        "upper_triple": _matrix_triple_doc(("a", "b", "c"), result.upper_triple.factors),
    }
    return {"refutation": doc}, 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonfree",
        description="Constructions and certificates around explicit non-free tensors.",
    )
    parser.add_argument("--version", action="version", version=f"nonfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="family constants, tensor and 0/1 representative")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("moment-map", help="moment map image of a tensor")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_moment_map)

    p = sub.add_parser("flow", help="move to the minimum of |mu| over the orbit by damped Newton steps")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--step", type=float, default=DEFAULT_STEP,
        help="initial step dt, which sets the Newton damping 2/dt; then adaptive",
    )
    p.add_argument("--residual-tol", type=float, default=DEFAULT_RESIDUAL_TOL)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("free-support", help="check whether the support is free")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=SUPPORT_TOL)
    p.set_defaults(func=cmd_free_support)

    p = sub.add_parser("certify-nonfree", help="emit a non-freeness certificate")
    p.add_argument("--family", type=int)
    p.add_argument("--named", choices=[*NAMED, *map(str.lower, NAMED)])
    p.add_argument("--tol", type=float, default=DEFAULT_CERTIFY_TOL)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reduce-s0", help="reduce a staircase tensor to the 0/1 form")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_REDUCTION_TOL)
    p.set_defaults(func=cmd_reduce_s0)

    p = sub.add_parser("polytope", help="one-sided moment polytope certificates")
    p.add_argument("--input", required=True)
    p.add_argument("--halfspace")
    p.add_argument("--refute")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_polytope)

    return parser


# Built once per process: parsing leaves no state behind in the parser.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        body, code = args.func(args)
        # The options as parsed, in flag order; a command may delete those it did not use.
        config = {
            name: value for name, value in vars(args).items()
            if name not in ("command", "func") and value is not None
        }
        envelope = {
            "tool": "nonfree", "version": __version__, "command": args.command, "config": config
        }
        text = dumps({**envelope, **body})
    except ValueError as exc:  # every input error, whichever layer raised it
        text, code = dumps({"error": {"kind": "input", "message": str(exc)}}), 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early. Point it at the null device, so that
        # the flush at exit stays silent too, and keep the command's exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
