"""The package namespace, unused names and defaults, and the names the benchmark tracer wraps."""
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


def test_cli_import_leaves_scipy_sparse_out(tmp_path):
    """The box solver is LAPACK band LU, so no process pays for scipy.sparse's import.

    Nor for scipy.linalg's: every LAPACK routine comes from its compiled
    module scipy.linalg._flapack alone, through a fresh import and through
    a full run of the z2 walk (band LU, Schur form, triangular solves).  A
    scipy.linalg imported after relwalk, or before it, shares that module.
    """
    loaded = "sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.linalg')))"
    shared = "import scipy.linalg, relwalk.lattice; " \
        "seen.append(relwalk.lattice.lapack is scipy.linalg.lapack._flapack)"
    run = ["all", "--config", config_path("z2_free_z.json"), "--out", str(tmp_path / "out")]
    scripts = [
        f"import json, sys, relwalk.cli; seen = [{loaded}]; "
        f"seen.append(relwalk.cli.main({run!r})); seen.append({loaded}); {shared}; "
        "print(json.dumps(seen))",
        f"import json; seen = []; {shared}; import relwalk.cli; {shared}; print(json.dumps(seen))",
    ]
    seen = []
    for script in scripts:
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, env=cli_env(), timeout=120)
        assert r.returncode == 0, r.stderr
        seen.append(json.loads(r.stdout.strip().splitlines()[-1]))
    flapack = ["scipy.linalg._flapack"]
    assert seen == [[flapack, 0, flapack, True], [True, True]]


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


def _signatures(src_trees: dict) -> dict:
    """Call signatures in src: (module, qualname) -> (params, defaulted, bound, is_fields).

    params are the parameters a call's arguments fill, in order, after self
    or cls; a bound method takes self from its receiver.  A dataclass's
    fields are its constructor's parameters, under Cls.__init__.
    """
    sigs = {}
    for mod, tree in src_trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                sigs[mod, node.name] = _signature(node, in_class=False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        sigs[mod, f"{node.name}.{item.name}"] = _signature(item, in_class=True)
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                              and not ast.unparse(item.annotation).startswith("ClassVar")]
                    sigs[mod, f"{node.name}.__init__"] = (
                        [f.target.id for f in fields],
                        [f.target.id for f in fields if f.value is not None], False, True)
    return sigs


def _signature(fn: ast.FunctionDef, in_class: bool) -> tuple:
    a = fn.args
    decorators = {ast.unparse(d) for d in fn.decorator_list}
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):] + \
        [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    drop = 1 if in_class and "staticmethod" not in decorators else 0
    bound = in_class and not decorators & {"staticmethod", "classmethod"}
    return positional[drop:] + [p.arg for p in a.kwonlyargs], defaulted, bound, False


def _src_bindings(tree: ast.AST, mod: str | None, src_trees: dict, owner: dict) -> dict:
    """Names a module binds to src: name -> ("module", m) or ("def", m, name).

    m is "" for the package itself.  A src module binds its own top-level
    definitions; any module binds what it imports from relwalk.
    """
    out = {}
    if mod is not None:
        out.update({node.name: ("def", mod, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and mod is not None:
                source = node.module or ""
            elif node.level == 0 and (node.module or "").split(".")[0] == "relwalk":
                source = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "" and alias.name in src_trees:
                    out[local] = ("module", alias.name)
                elif alias.name in owner:
                    out[local] = ("def", owner[alias.name], alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "relwalk" and alias.asname:
                    out[alias.asname] = ("module", ".".join(parts[1:]))
                elif parts[0] == "relwalk":
                    out["relwalk"] = ("module", "")
    return out


def _resolve(expr: ast.expr, bindings: dict, owner: dict, src_trees: dict):
    """The src module or definition a dotted name refers to, or None."""
    if isinstance(expr, ast.Name):
        return bindings.get(expr.id)
    if not isinstance(expr, ast.Attribute):
        return None
    base = _resolve(expr.value, bindings, owner, src_trees)
    if base is None:
        return None
    if base[0] == "def":
        return ("def", base[1], f"{base[2]}.{expr.attr}")
    if base[1] != "":
        return ("def", base[1], expr.attr)
    if expr.attr in src_trees:
        return ("module", expr.attr)
    return ("def", owner.get(expr.attr, ""), expr.attr)


def _default_misuse(repo: str) -> list[str]:
    """Defaults of src that no caller relies on, and defaulted parameters no caller sets.

    Calls are read in src/, scripts/ and perfbench/.  A call through a
    name bound to src, Cls.method(...) included, goes to that definition
    alone; obj.method(...) on any other receiver goes to every bound method
    of that name.  A call with *args or **kwargs may pass anything, so it
    clears both findings for its target.  A dataclass field may also be
    set after construction, so only its first finding applies.
    """
    src_trees = {os.path.splitext(os.path.basename(p))[0]:
                 ast.parse(pathlib.Path(p).read_text(encoding="utf-8"), p)
                 for p in sorted(glob.glob(os.path.join(repo, "src", "relwalk", "*.py")))}
    sigs = _signatures(src_trees)
    owner = {q.split(".")[0]: m for m, q in sigs}
    methods = collections.defaultdict(list)
    for (m, q), sig in sigs.items():
        if sig[2]:
            methods[q.split(".")[1]].append((m, q))
    readers = list(src_trees.items()) + [
        (None, ast.parse(pathlib.Path(p).read_text(encoding="utf-8"), p))
        for d in ("scripts", "perfbench") for p in sorted(glob.glob(os.path.join(repo, d, "*.py")))]
    passed = collections.defaultdict(list)  # key -> one set of set parameters per call
    for mod, tree in readers:
        bindings = _src_bindings(tree, mod, src_trees, owner)
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            target = _resolve(call.func, bindings, owner, src_trees)
            if target is not None and target[0] == "def":
                key = (target[1], target[2])
                # Cls.method(obj, ...) passes self as its first argument.
                skip = 1 if key in sigs and sigs[key][2] else 0
                targets = [(key if key in sigs else (key[0], f"{key[1]}.__init__"), skip)]
            elif isinstance(call.func, ast.Attribute):
                targets = [(key, 0) for key in methods[call.func.attr]]
            else:
                continue
            for key, skip in targets:
                if key not in sigs:
                    continue
                if any(isinstance(a, ast.Starred) for a in call.args) \
                        or any(k.arg is None for k in call.keywords):
                    passed[key].append(None)
                    continue
                passed[key].append(set(sigs[key][0][:max(0, len(call.args) - skip)])
                                   | {k.arg for k in call.keywords})
    found = []
    for (m, q), (_, defaulted, _, is_fields) in sigs.items():
        calls = passed[m, q]
        name = q.removesuffix(".__init__") if is_fields else q
        if None in calls:
            continue
        for p in defaulted:
            if calls and all(p in c for c in calls):
                found.append(f"{name}.{p}: every caller passes it")
            elif not is_fields and not any(p in c for c in calls):
                found.append(f"{name}.{p}: no caller passes it")
    return sorted(found)


def test_every_default_is_relied_on_and_every_defaulted_parameter_is_set():
    """A default that every caller overrides is a second source of the value,
    and a defaulted parameter that no caller sets is a knob nothing turns.

    Tests are not callers: a default only tests use belongs in the tests.
    """
    assert _default_misuse(REPO) == []


def test_default_guard_reads_calls_by_class(tmp_path):
    """The guard on a small package: Chain.build's calls do not count for
    Index.build, and each finding names its parameter."""
    src = tmp_path / "src" / "relwalk"
    src.mkdir(parents=True)
    (src / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "def f(x, y=1):\n    return x + y\n\n\n"
        "def g(x, k=2):\n    return x * k\n\n\n"
        "@dataclass\nclass Spec:\n    name: str\n    mode: str = 'single'\n\n\n"
        "class Chain:\n    @staticmethod\n    def build(n, cap=10):\n        return n\n\n\n"
        "class Index:\n    @staticmethod\n    def build(n, cap=10):\n        return n\n\n\n"
        "def use():\n    f(1, 2)\n    f(1, y=3)\n    g(1)\n    Spec('a', mode='x')\n"
        "    Chain.build(1)\n    Index.build(1, cap=5)\n")
    assert _default_misuse(str(tmp_path)) == [
        "Chain.build.cap: no caller passes it",
        "Index.build.cap: every caller passes it",
        "Spec.mode: every caller passes it",
        "f.y: every caller passes it",
        "g.k: no caller passes it"]
