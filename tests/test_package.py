"""The package surface: `import cqcalc` loads no module of its own, and each
public name is loaded on first use."""

import os
import subprocess
import sys
from pathlib import Path

import cqcalc

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("exactmath", "schubert", "quadrics", "matroid", "toric", "cells", "segre")


def _loaded_after(code):
    """The cqcalc modules in sys.modules after `code` runs in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    probe = "import sys; print(*sorted(m for m in sys.modules if m.startswith('cqcalc.')))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_loads_no_submodule():
    assert _loaded_after("import cqcalc; cqcalc.__version__; dir(cqcalc)") == []


def test_first_use_loads_only_what_it_needs():
    assert _loaded_after("import cqcalc; cqcalc.phi") == [
        "cqcalc.exactmath", "cqcalc.quadrics", "cqcalc.schubert"]
    assert _loaded_after("from cqcalc import segre") == [
        "cqcalc.exactmath", "cqcalc.segre"]
    assert _loaded_after("from cqcalc import Graph") == [
        "cqcalc.exactmath", "cqcalc.matroid"]


def test_public_names_are_the_submodules_objects():
    assert len(cqcalc.__all__) == len(set(cqcalc.__all__)) == 50
    listed = dir(cqcalc)
    for name in cqcalc.__all__:
        value = getattr(cqcalc, name)
        home = value.__module__
        assert home in {f"cqcalc.{m}" for m in MODULES}, name
        assert value is getattr(sys.modules[home], name), name
        assert name in listed
    for module in MODULES:
        assert getattr(cqcalc, module) is sys.modules[f"cqcalc.{module}"]
        assert module in listed
    assert cqcalc.phi(4, 3) == 9 and cqcalc.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cqcalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cqcalc.__all__)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(cqcalc, "nope")
    assert not hasattr(cqcalc, "cli_mod")
