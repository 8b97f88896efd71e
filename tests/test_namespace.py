"""The package namespace: lazy, and the same names as an eager import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cftweave

SRC = str(Path(__file__).resolve().parent.parent / "src")
STAGE_MODULES = ("analyzer", "errors", "fixtures", "model", "oracle", "synthesizer",
                 "textfmt", "weaver")


def loaded_after(code: str) -> list[str]:
    """The cftweave modules a fresh interpreter holds after running *code*."""
    script = (f"import sys\n{code}\n"
              "print(*sorted(m for m in sys.modules if m.startswith('cftweave')))")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_every_public_name_resolves_and_is_listed():
    listed = dir(cftweave)
    for name in cftweave.__all__:
        value = getattr(cftweave, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in listed, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cftweave import *", namespace)
    assert {name: namespace[name] for name in cftweave.__all__} == {
        name: getattr(cftweave, name) for name in cftweave.__all__}


@pytest.mark.parametrize("module", STAGE_MODULES)
def test_stage_modules_are_attributes(module):
    assert getattr(cftweave, module) is sys.modules[f"cftweave.{module}"]
    assert module in dir(cftweave)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cftweave.no_such_name


def test_import_loads_no_stage():
    assert loaded_after("import cftweave") == ["cftweave"]
    assert loaded_after("import cftweave; cftweave.ParseError") == ["cftweave",
                                                                    "cftweave.errors"]


def test_reading_a_name_loads_its_module_and_what_that_imports():
    assert loaded_after("import cftweave; cftweave.oracle.TruthTable") == [
        "cftweave", *(f"cftweave.{m}" for m in
                      ("errors", "model", "oracle", "synthesizer", "weaver"))]
    assert loaded_after("from cftweave import parse") == [
        "cftweave", "cftweave.errors", "cftweave.model", "cftweave.textfmt"]
