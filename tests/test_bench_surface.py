"""The names the benchmark looks up in the library still exist.

``bench/spans.py`` wraps library functions by module and attribute name, and
``bench/run.py`` reads the start scale back from ``PerronResult.gamma``.  A
rename here would only show when a traced benchmark run crashes, so tier-1
checks those names.  The module is loaded by path; nothing under ``bench/``
is changed.
"""

import importlib
import importlib.util
from pathlib import Path

from perronkit import FixedPointConfig, positive_perron_vector

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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


def test_result_gamma_is_the_default_start_scale(four_blocks):
    # bench/run.py counts restarts as log10(FixedPointConfig().gamma / res.gamma)
    assert positive_perron_vector(four_blocks).gamma == FixedPointConfig().gamma
