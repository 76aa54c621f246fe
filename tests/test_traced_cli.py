"""The benchmark tracer wraps package functions by name; those names must resolve.

``perfbench/traced_cli.py`` replaces attributes of the package's modules
with timed wrappers.  A rename in the package would otherwise surface only
as a failing ``perfbench/run.py --trace 1`` run.
"""

import dataclasses
import importlib.util
from pathlib import Path

from parabolica import model

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("traced_cli_contract", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the table; installs nothing
    return module


def test_every_traced_attribute_resolves():
    tracer = _load_tracer()
    assert tracer.TRACED
    for owner, attr, name, _ in tracer.TRACED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_traced_spec_builders_and_callables_exist():
    tracer = _load_tracer()
    assert callable(model.catalog_get) and callable(model.problem_from_dict)
    fields = {f.name for f in dataclasses.fields(model.ProblemSpec)}
    assert set(tracer.SPEC_CALLABLES) <= fields
