"""Every function the benchmark tracer wraps still exists in the package.

``bench/tracer.py`` names its targets as strings; a rename in ``nichols``
would otherwise surface only in the benchmark's own test run.  The tracer
module is loaded from its file and never modified.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
TRACER = runpy.run_path(str(TRACER_PATH))  # module globals; writes no bytecode


def _resolve(name: str):
    layer, _, attr = name.partition(".")
    obj = importlib.import_module(f"nichols.{layer}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", [
    f"{layer}.{attr}" for layer, attrs in TRACER["TARGETS"].items() for attr in attrs
])
def test_traced_target_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", TRACER["HIT_RATIOS"])
def test_hit_ratio_target_is_cached(name):
    assert callable(_resolve(name).cache_info)
