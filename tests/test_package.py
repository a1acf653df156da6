"""The package namespace, unused names, and the names the benchmark tracer wraps."""
import ast
import collections
import glob
import importlib
import json
import os
import pathlib
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
    """perfbench/child.py looks up each traced function by name; a rename breaks it.

    Every stage of f2_over_a ends ok, so each wrapped function runs under
    its wrapper with the arguments the stages pass it.
    """
    child = os.path.join(REPO, "perfbench", "child.py")
    r = subprocess.run(
        [sys.executable, child, str(tmp_path / "spans.npz"), "trace", "--",
         "all", "--config", config_path("f2_over_a.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=cli_env(), timeout=120)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert (tmp_path / "spans.npz").exists()
    with open(tmp_path / "out" / "run.json") as fh:
        stages = json.load(fh)["stages"]
    assert {e["status"] for e in stages.values()} == {"ok"}


def _mentions(tree: ast.AST) -> collections.Counter:
    """Identifiers a module names: definitions, loads, attributes, imports, and
    string constants (the benchmark tracer looks names up by string)."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] += 1
        elif isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found[node.value] += 1
    return found


def test_every_module_level_name_is_named_again():
    """Each function, class and constant of src/relwalk is read somewhere.

    The definition is one mention; a second must come from a module of the
    package other than __init__.py (an export alone is not a use) or from
    the benchmark harness in perfbench/.
    """
    src = os.path.join(REPO, "src", "relwalk")
    modules = [p for p in sorted(glob.glob(os.path.join(src, "*.py")))
               if os.path.basename(p) not in ("__init__.py", "__main__.py")]
    readers = modules + sorted(glob.glob(os.path.join(REPO, "perfbench", "*.py")))
    trees = {p: ast.parse(pathlib.Path(p).read_text(encoding="utf-8"), p) for p in readers}
    mentions = collections.Counter()
    for tree in trees.values():
        mentions.update(_mentions(tree))
    defined = []
    for path in modules:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
    unread = sorted(name for name in defined if mentions[name] < 2)
    assert unread == []
