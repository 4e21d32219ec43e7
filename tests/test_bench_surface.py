"""The names the benchmark looks up in the library still exist.

``bench/spans.py`` wraps library functions by module and attribute name and
counts work from their results, ``bench/run.py`` and ``bench/inputs.py`` import
names from the package, and ``bench/run.py`` reads a solve's result or the
classification of a rejected input.  A rename or deletion here would only show
when a benchmark run crashes, so tier-1 checks those names and attributes.  The
scripts are loaded by path or parsed; nothing under ``bench/`` is changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from perronkit import (
    FixedPointConfig,
    GeneratorSpec,
    NotStronglyNonnegative,
    canonical_partition,
    generate_not_strong,
    positive_perron_vector,
    power_method,
    principal_subtensor,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wraps = load_spans().WRAPS
    assert wraps
    for modname, attr, _, _ in wraps:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)


def test_every_unused_import_is_a_wrapped_name():
    # An import kept only for the tracer (marked "# noqa: F401") must name a
    # wrap; once the tracer stops wrapping it, the import is dead code.
    wrapped = {(modname, attr) for modname, attr, _, _ in load_spans().WRAPS}
    kept = []
    for path in sorted((BENCH.parent / "src" / "perronkit").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                kept += [(f"perronkit.{path.stem}", alias.asname or alias.name) for alias in node.names]
    assert kept
    for pair in kept:
        assert pair in wrapped, pair


def test_every_imported_name_resolves():
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "perronkit"
        for alias in node.names
    ]
    assert {filename for filename, _, _ in imports} >= {"inputs.py", "run.py"}
    for filename, modname, attr in imports:
        assert hasattr(importlib.import_module(modname), attr), (filename, modname, attr)


def test_result_gamma_is_the_default_start_scale(four_blocks):
    # bench/run.py counts restarts as log10(FixedPointConfig().gamma / res.gamma)
    assert positive_perron_vector(four_blocks).gamma == FixedPointConfig().gamma


def assert_recordable_partition(P, n):
    # bench/run.py keeps (blocks, genuine) of each input and compares later
    # solves of it with !=, so both must be plain tuples.
    assert all(type(b) is tuple and all(type(i) is int for i in b) for b in P.blocks)
    assert sorted(i for b in P.blocks for i in b) == list(range(1, n + 1))
    assert type(P.genuine) is tuple and len(P.genuine) == len(P.blocks)
    assert all(type(g) is bool for g in P.genuine)


def test_strong_solve_has_what_run_reads(four_blocks):
    res = positive_perron_vector(four_blocks)
    assert res.classification.outcome.value == "strong"
    assert isinstance(res.z, np.ndarray) and res.z.shape == (four_blocks.dim,)
    assert res.z.tobytes() == positive_perron_vector(four_blocks).z.tobytes()
    assert isinstance(res.lam, float) and res.lam > 0
    assert isinstance(res.gamma, float)
    assert isinstance(res.iterations, int) and res.iterations > 0
    assert_recordable_partition(res.classification.partition, four_blocks.dim)


@pytest.mark.parametrize("seed", [1, 2])
def test_rejected_solve_has_what_run_reads(seed):
    A = generate_not_strong(GeneratorSpec((3, 4), 1.3, 0.5, seed))
    with pytest.raises(NotStronglyNonnegative) as excinfo:
        positive_perron_vector(A)
    cls = excinfo.value.classification
    # generate_not_strong picks its construction by seed parity
    assert cls.outcome.value == {1: "genuine-mismatch", 2: "nongenuine-too-large"}[seed]
    assert cls.lam is None if seed == 1 else isinstance(cls.lam, float)
    assert_recordable_partition(cls.partition, A.dim)


def test_span_counts_read_the_results(four_blocks):
    counts = {attr: count for _, attr, _, count in load_spans().WRAPS if count}
    P = canonical_partition(four_blocks)
    assert counts["canonical_partition"]((four_blocks,), P) == len(P.blocks) > 1
    B = principal_subtensor(four_blocks, P.blocks[-1])
    sp = power_method(B)
    assert counts["power_method"]((B,), sp) == sp.iterations > 0
