"""The package namespace and the names the benchmark tracer wraps."""
import importlib
import os
import pkgutil
import subprocess
import sys

import relwalk

from conftest import cli_env, config_path

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_every_export_resolves():
    missing = [name for name in relwalk.__all__ if not hasattr(relwalk, name)]
    assert missing == []


def test_submodule_names_resolve_to_their_modules():
    """No export shadows a submodule: relwalk.perron is the module, not a function."""
    names = [m.name for m in pkgutil.iter_modules(relwalk.__path__)
             if not m.name.startswith("_")]
    assert "perron" in names and "classify" in names
    modules = {name: importlib.import_module(f"relwalk.{name}") for name in names}
    shadowed = [name for name, module in modules.items()
                if getattr(relwalk, name) is not module]
    assert shadowed == []


def test_tracer_wraps_every_layer_name(tmp_path):
    """perfbench/child.py looks up each traced function by name; a rename breaks it."""
    child = os.path.join(REPO, "perfbench", "child.py")
    r = subprocess.run(
        [sys.executable, child, str(tmp_path / "spans.npz"), "trace", "--",
         "green", "--config", config_path("f2.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=cli_env(), timeout=120)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert (tmp_path / "spans.npz").exists()
