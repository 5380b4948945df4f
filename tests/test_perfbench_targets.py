"""The benchmark's tracer wraps program functions by name; a rename or
deletion in the package must fail here, not only in traced benchmark runs."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing")


def test_every_trace_target_resolves(tracing):
    for span, module, attr in tracing.TARGETS:
        obj = importlib.import_module(f"skgedrive.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: skgedrive.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), span
