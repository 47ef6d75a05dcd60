"""The benchmark's span tracer (bench/layertrace.py) wraps library functions
at the module attributes their callers look up. Every attribute it names must
exist, or `python3 bench/run.py --trace 1` fails when it installs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
_SPEC = importlib.util.spec_from_file_location("layertrace", _PATH)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


@pytest.mark.parametrize(
    "module,attr", [t[:2] for t in layertrace.TARGETS], ids=lambda v: v
)
def test_target_resolves(module, attr):
    mod = importlib.import_module(f"igcomposite.{module}")
    assert callable(getattr(mod, attr, None)), f"igcomposite.{module}.{attr} is missing"
