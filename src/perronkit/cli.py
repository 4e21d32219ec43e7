"""Command-line front end: partition, radii, classification and Perron vectors."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .examples import FOUR_BLOCKS_REFERENCE, four_blocks_tensor
from .generator import GeneratorSpec, generate
from .graph import majorization
from .partition import canonical_partition
from .perron import (
    FixedPointConfig,
    NotStronglyNonnegative,
    classify,
    positive_perron_vector,
)
from .spectral import NotConverged, PowerMethodConfig, ZeroIterate, block_spectra
from .tensor import read_tensor, write_tensor

USAGE_ERROR = 64
# Power-method tolerance of the commands that classify (classify, perron, repro-example).
_CLASSIFY_POWER_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _emit(payload, args) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        args.plain(payload)


def _emit_plain(payload, indent: str = "") -> None:
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _emit_plain(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for number, value in enumerate(payload, start=1):
            if isinstance(value, dict):
                print(f"{indent}[{number}]")
                _emit_plain(value, indent + "  ")
            elif isinstance(value, list):
                print(indent + " ".join(str(v) for v in value))
            else:
                print(f"{indent}{value}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="perronkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"perronkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, plain=_emit_plain)
        return p

    p = command("partition", _cmd_partition, "canonical nonnegative partition")
    p.add_argument("file")

    p = command("majorization", _cmd_majorization, "majorization matrix as a dense JSON array")
    p.add_argument("file")

    p = command("radius", _cmd_radius, "spectral radius and per-block radii")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=10000)

    p = command("classify", _cmd_classify, "strong-nonnegativity classification")
    p.add_argument("file")
    p.add_argument("--rho-tol", type=float, default=1e-6)

    p = command("perron", _cmd_perron, "positive Perron vector via fixed-point iteration")
    p.add_argument("file")
    p.add_argument("--gamma", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--rho-tol", type=float, default=1e-6)
    p.add_argument("--trace", metavar="CSV", help="write per-iteration residuals to CSV")

    p = command("gen", _cmd_gen, "generate a random strongly nonnegative instance")
    p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 8,9,10,10")
    p.add_argument("--rt", type=float, required=True)
    p.add_argument("--den", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    command("verify", _cmd_verify, "run the brute-force oracle equivalence suite")

    p = command("repro-example", _cmd_repro, "compare the bundled example against its reference values")
    p.add_argument("--gamma", type=float, default=FOUR_BLOCKS_REFERENCE["gamma"])
    p.add_argument("--tol", type=float, default=FOUR_BLOCKS_REFERENCE["tolerance"])
    p.set_defaults(plain=_print_repro)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "plain"), default="json")
    return parser


def _cmd_partition(args) -> tuple[int, dict]:
    P = canonical_partition(read_tensor(args.file))
    return 0, {"blocks": [list(b) for b in P.blocks], "genuine": list(P.genuine), "s": P.s}


def _cmd_majorization(args) -> tuple[int, list]:
    return 0, majorization(read_tensor(args.file)).tolist()


def _cmd_radius(args) -> tuple[int, dict]:
    cfg = PowerMethodConfig(tolerance=args.tol, max_iterations=args.max_iter)
    P, spectra = block_spectra(read_tensor(args.file), cfg)
    return 0, {
        "rho": max(sp.rho for sp in spectra),
        "blocks": [list(b) for b in P.blocks],
        "block_radii": [sp.rho for sp in spectra],
    }


def _cmd_classify(args) -> tuple[int, dict]:
    cfg = FixedPointConfig(rho_equality_tol=args.rho_tol)
    cls = classify(read_tensor(args.file), cfg, PowerMethodConfig(tolerance=_CLASSIFY_POWER_TOL))
    return 0 if cls.is_strong else 2, {
        "status": cls.outcome.value,
        "lambda": cls.lam,
        "blocks": [list(b) for b in cls.partition.blocks],
        "genuine": list(cls.partition.genuine),
        "block_radii": [sp.rho for sp in cls.block_spectra],
    }


def _cmd_perron(args) -> tuple[int, dict]:
    cfg = FixedPointConfig(
        gamma=args.gamma,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        rho_equality_tol=args.rho_tol,
    )
    power_cfg = PowerMethodConfig(tolerance=min(_CLASSIFY_POWER_TOL, args.tol))
    try:
        result = positive_perron_vector(read_tensor(args.file), cfg, power_cfg)
    except NotStronglyNonnegative as exc:
        cls = exc.classification
        unsolved = {"vector": None, "residual": None, "iterations": None}
        return 2, {"status": cls.outcome.value, "lambda": cls.lam, **unsolved}
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "step_norm", "residual"])
            for rec in result.trace:
                writer.writerow([rec.iteration, repr(rec.step_norm), repr(rec.residual)])
    return 0, {
        "status": "strong",
        "lambda": result.lam,
        "vector": [float(v) for v in result.z],
        "residual": result.residual,
        "iterations": result.iterations,
    }


def _cmd_gen(args) -> tuple[int, dict]:
    sizes = tuple(int(tok) for tok in args.blocks.split(","))
    A = generate(GeneratorSpec(block_sizes=sizes, rt=args.rt, den=args.den, seed=args.seed))
    write_tensor(A, args.out)
    return 0, {"path": args.out, "order": A.order, "dim": A.dim, "nnz": A.nnz}


def _cmd_verify(args) -> tuple[int, dict]:
    from .selfcheck import run_selfcheck

    report = run_selfcheck()
    return 0 if report["passed"] else 1, report


def _cmd_repro(args) -> tuple[int, dict]:
    ref = FOUR_BLOCKS_REFERENCE
    A = four_blocks_tensor()
    cfg = FixedPointConfig(gamma=args.gamma, tolerance=args.tol)
    result = positive_perron_vector(A, cfg, PowerMethodConfig(tolerance=_CLASSIFY_POWER_TOL))
    spectra = result.classification.block_spectra
    rows = []
    for j, (expected, sp) in enumerate(zip(ref["block_radii"], spectra), start=1):
        rows.append(_repro_row(f"block {j} radius", expected, sp.rho, ref["block_radii_tol"]))
    rows.append(_repro_row("lambda", ref["rho"], result.lam, ref["rho_tol"]))
    for i, expected in enumerate(ref["perron_vector"], start=1):
        rows.append(
            _repro_row(f"vector[{i}]", expected, float(result.z[i - 1]), ref["perron_vector_tol"])
        )
    rows.append(
        {
            "quantity": "residual",
            "expected": f"< {ref['residual_bound']}",
            "computed": result.residual,
            "ok": result.residual < ref["residual_bound"],
        }
    )
    lo, hi = ref["iteration_range"]
    rows.append(
        {
            "quantity": "iterations",
            "expected": f"[{lo}, {hi}]",
            "computed": result.iterations,
            "ok": lo <= result.iterations <= hi,
        }
    )
    passed = all(row["ok"] for row in rows)
    return 0 if passed else 1, {"passed": passed, "rows": rows}


def _repro_row(quantity: str, expected: float, computed: float, tol: float) -> dict:
    return {
        "quantity": quantity,
        "expected": expected,
        "computed": computed,
        "tolerance": tol,
        "ok": bool(abs(computed - expected) <= tol),
    }


def _print_repro(payload: dict) -> None:
    # The plain form of repro-example: one aligned line per quantity, then a verdict.
    rows = payload["rows"]
    width = max(len(r["quantity"]) for r in rows)
    for r in rows:
        mark = "ok" if r["ok"] else "MISMATCH"
        print(f"{r['quantity']:<{width}}  expected {r['expected']!s:>12}  got {r['computed']:<22}  {mark}")
    print("all values reproduced" if payload["passed"] else "some values did not reproduce")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload = args.run(args)
        _emit(payload, args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `head` does.  As the signal
        # module's docs advise, point stdout at devnull so that the flush at
        # exit fails no more, and exit 1 without a message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError, NotConverged, ZeroIterate) as exc:
        print(f"perronkit: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"perronkit: out of memory: {str(exc) or 'input too large'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
