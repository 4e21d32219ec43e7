"""The names the benchmark looks up in the library still exist.

``bench/spans.py`` wraps library functions by module and attribute name,
``bench/run.py`` and ``bench/inputs.py`` import names from the package, and
``bench/run.py`` reads the start scale back from ``PerronResult.gamma``.  A
rename or deletion here would only show when a benchmark run crashes, so
tier-1 checks those names.  The scripts are loaded by path or parsed; nothing
under ``bench/`` is changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from perronkit import FixedPointConfig, positive_perron_vector

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
