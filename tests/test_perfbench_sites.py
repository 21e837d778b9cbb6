"""The benchmark tracer's wrap sites must stay bound on the package.

perfbench/tracing.py wraps module attributes by name; a refactor that drops
one of those names would break traced benchmark runs, so every site is
checked here.  The tracer imports only the standard library.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = sorted({(site[0], site[1]) for site in _load_tracing().SITES})


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_site_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(f"sumdiam.{module}"), attr))


def test_big_induce_threshold_is_bound():
    # the tracer counts big inductions against this threshold
    from sumdiam import core

    assert isinstance(core._BIG_INDUCE_THRESHOLD, int)
