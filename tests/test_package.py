"""The package root: public names load from their submodules on first access."""
import importlib
import inspect
import json
import subprocess
import sys

import pytest

import fracdim


def test_import_loads_no_submodule_and_leaves_environ():
    # a fresh interpreter: this one has numpy and every submodule loaded already
    script = (
        "import json, os, sys\n"
        "environ = dict(os.environ)\n"
        "import fracdim\n"
        "root = ['numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('fracdim.')),\n"
        "        dict(os.environ) == environ]\n"
        "home = fracdim.lowerdim.lower_dim_estimate is fracdim.lower_dim_estimate\n"
        "import fracdim.cli\n"
        "print(json.dumps([*root, home, dict(os.environ) == environ]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    numpy_loaded, submodules, environ_kept, home_module, environ_kept_by_cli = \
        json.loads(proc.stdout)
    assert not numpy_loaded
    assert submodules == []
    assert home_module   # a home module is an attribute of the package, as before
    assert environ_kept and environ_kept_by_cli


@pytest.mark.parametrize("module, absent", [
    ("io", ("covering", "lowerdim", "regular", "trees", "generators")),
    ("lowerdim", ("regular", "trees")),
    ("generators", ("regular", "trees")),
    ("cli", ()),
])
def test_imports_run_one_way(module, absent):
    # a fresh interpreter, which has loaded no fracdim module yet
    script = (f"import json, sys, fracdim.{module}\n"
              "print(json.dumps([m for m in sys.modules if m.startswith('fracdim.')]))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[2] for name in json.loads(proc.stdout)}
    assert not loaded & set(absent)
    if module == "cli":   # the command line loads every module
        assert loaded == {*fracdim._HOME.values(), "io", "cli"}


@pytest.mark.parametrize("name", [n for n in fracdim.__all__ if n != "__version__"])
def test_public_name_is_its_home_module_object(name):
    home = importlib.import_module(f"fracdim.{fracdim._HOME[name]}")
    obj = getattr(fracdim, name)
    assert obj is getattr(home, name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        assert obj.__module__ == home.__name__


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from fracdim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fracdim.__all__)
    assert all(namespace[name] is getattr(fracdim, name) for name in namespace)
    assert set(fracdim.__all__) <= set(dir(fracdim))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fracdim.no_such_name
    assert not hasattr(fracdim, "no_such_name")
