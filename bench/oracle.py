"""Correctness gate of the benchmark.

Shares no code with the library paths it checks: tensors are parsed from
the ``.tns`` text with numpy and contracted densely, and the expected
partition and outcome come from the generator recipe in the manifest.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import MISMATCH, STRONG

RESIDUAL_TOL = 1e-6
# lam is the midpoint of a power-method bracket at most 1e-10 wide, so it may
# sit that far outside the Collatz-Wielandt bracket taken at z.
BRACKET_SLACK = 1e-9


def load_dense(path) -> np.ndarray:
    """The tensor stored in a ``.tns`` file as a dense ndarray of shape (n,) * m."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    m, n = int(lines[0][0]), int(lines[0][1])
    rows = np.array(lines[1:], dtype=np.float64).reshape(-1, m + 1)
    T = np.zeros((n,) * m)
    T[tuple(rows[:, :m].astype(np.intp).T - 1)] = rows[:, m]
    return T


def contract(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(T x^{m-1})_i: contract every index but the first with x."""
    y = T
    for _ in range(T.ndim - 1):
        y = y @ x
    return y


def check_strong(T: np.ndarray, z, lam: float) -> list[str]:
    """A positive Perron pair: z > 0, small relative residual, lam in the CW bracket at z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != T.shape[:1]:
        return [f"z has shape {z.shape}, expected {T.shape[:1]}"]
    if not np.all(z > 0):
        return [f"z has {int(np.sum(z <= 0))} non-positive components"]
    problems = []
    y = contract(T, z)
    zp = z ** (T.ndim - 1)
    rel = float(np.linalg.norm(y - lam * zp) / np.linalg.norm(lam * zp))
    if not rel <= RESIDUAL_TOL:
        problems.append(f"relative residual {rel:.3e} above {RESIDUAL_TOL:.0e}")
    ratios = y / zp
    lo, hi = float(ratios.min()), float(ratios.max())
    slack = BRACKET_SLACK * abs(lam)
    if not lo - slack <= lam <= hi + slack:
        problems.append(f"lam {lam!r} outside the Collatz-Wielandt bracket [{lo!r}, {hi!r}]")
    return problems


def expected_partition(block_sizes, kind: str) -> tuple[list[list[int]], list[bool]]:
    """Blocks and genuine flags the generator's construction implies.

    Generator blocks are consecutive index ranges and only the last is
    genuine.  A genuine-mismatch instance has its first block's couplings
    stripped, which makes that block genuine too, so it moves behind the
    non-genuine ones.
    """
    bounds = np.cumsum((0,) + tuple(block_sizes))
    ranges = [list(range(a + 1, b + 1)) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    if kind == MISMATCH:
        blocks = ranges[1:-1] + [ranges[0], ranges[-1]]
        return blocks, [False] * (len(ranges) - 2) + [True, True]
    return ranges, [False] * (len(ranges) - 1) + [True]


def check_partition(blocks, genuine, block_sizes, kind: str) -> list[str]:
    want_blocks, want_genuine = expected_partition(block_sizes, kind)
    got_blocks = [list(map(int, b)) for b in blocks]
    if got_blocks != want_blocks or list(genuine) != want_genuine:
        return [f"partition {got_blocks} genuine {list(genuine)} differs from the generator's "
                f"{want_blocks} genuine {want_genuine}"]
    return []


def check_outcome(kind: str, outcome: str) -> list[str]:
    if outcome != kind:
        return [f"outcome {outcome!r}, expected {kind!r}"]
    return []


def perron_schema_validator(schema_path):
    """Validator for the ``perron`` command's stdout, from the CLI output schema."""
    from jsonschema import Draft202012Validator

    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    return Draft202012Validator({"$defs": schema["$defs"], "$ref": "#/$defs/perron"})


def check_cli(validator, kind: str, returncode: int, stdout: str) -> list[str]:
    want_code = 0 if kind == STRONG else 2
    problems = []
    if returncode != want_code:
        problems.append(f"exit code {returncode}, expected {want_code}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + [f"stdout is not JSON: {stdout[:200]!r}"]
    problems += [f"schema: {err.message}" for err in validator.iter_errors(payload)]
    if isinstance(payload, dict) and payload.get("status") != kind:
        problems.append(f"status {payload.get('status')!r}, expected {kind!r}")
    return problems
