"""Run one relwalk CLI invocation with outside-in instrumentation.

Usage: python3 perfbench/child.py RECORD.npz MODE -- <relwalk arguments>

The child behaves exactly like ``python -m relwalk <arguments>`` (it runs
the package's ``__main__`` through runpy) after wrapping functions of the
imported package from outside.  MODE ``stages`` wraps only the entries of
``relwalk.cli.STAGES``, which is what the untraced benchmark needs to time
set-up (launch to first stage entry).  MODE ``trace`` also wraps the public
functions of every layer and records one span per wrapped call.

Spans stay in memory and are written to RECORD.npz when the CLI exits:
name code, parent span index, start and end.  Timestamps come from
``time.monotonic`` (CLOCK_MONOTONIC, shared by every process on the host)
so the parent can relate them to its own launch time.
"""
from __future__ import annotations

import functools
import json
import os
import runpy
import sys
from time import monotonic


class Recorder:
    """Spans, call counters and observed values of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.counts: dict[str, list[int]] = {}
        self.values: dict[str, float] = {}

    def name_code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, value), value)

    def span(self, name: str, fn, choose=None, after=None):
        """Wrap fn so that each call records one span named name.

        choose(args) may return another name for a call; after(args,
        result) runs once the span is closed, to read values off the call.
        """
        code = self.name_code(name)
        codes = self.code
        parents = self.parent
        starts = self.start
        ends = self.end
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            codes.append(code if choose is None else self.name_code(choose(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(monotonic())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = monotonic()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def counter(self, name: str, fn):
        """Wrap fn so that calls are only counted (for very hot functions)."""
        box = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def save(self, path: str, extra: dict) -> None:
        import numpy as np  # relwalk imported it already; kept out of the boot path

        meta = dict(extra)
        meta["names"] = self.names
        meta["counts"] = {k: v[0] for k, v in self.counts.items()}
        meta["values"] = self.values
        np.savez(path,
                 code=np.asarray(self.code, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start, dtype=np.float64),
                 end=np.asarray(self.end, dtype=np.float64),
                 meta=np.asarray(json.dumps(meta)))


def _replace_everywhere(original, wrapped) -> None:
    """Rebind every module-level name in the package that holds original.

    cli, classify and induced import names with ``from .x import y``, and
    the package namespace binds ``relwalk.perron`` to the function, so
    wrapping only the defining module would miss most call sites.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "relwalk" or modname.startswith("relwalk.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _wrap_function(rec: Recorder, module: str, func: str, name: str, **kw) -> None:
    original = getattr(sys.modules[f"relwalk.{module}"], func)
    _replace_everywhere(original, rec.span(name, original, **kw))


def _wrap_method(rec: Recorder, module: str, cls: str, method: str, name: str, **kw) -> None:
    klass = getattr(sys.modules[f"relwalk.{module}"], cls)
    setattr(klass, method, rec.span(name, getattr(klass, method), **kw))


def install_stage_spans(rec: Recorder, first_entry: list) -> None:
    cli = sys.modules["relwalk.cli"]
    for stage, fn in list(cli.STAGES.items()):
        timed = rec.span(f"cli.stage.{stage}", fn)

        def entry(*args, _timed=timed, **kwargs):
            if not first_entry:
                first_entry.append(monotonic())
            return _timed(*args, **kwargs)

        cli.STAGES[stage] = entry


def install_layer_spans(rec: Recorder) -> None:
    perron_mod = sys.modules["relwalk.perron"]
    dense_max = perron_mod._DENSE_EIG_MAX

    def perron_kind(args):
        return "perron.power" if args[0].fiber_count > dense_max else "perron.dense"

    def engine_built(args, _result):
        rec.add("excursions.fixed_point_rounds", args[0].rounds_used)

    def taboo_built(args, _result):
        rec.maximum("excursions.taboo_block_max", len(args[0].elems))

    def box_built(args, _result):
        box = args[0]
        states = box._num_sites * box.chain.fiber_count
        rec.add("lattice.box_lu.states", states)
        rec.maximum("lattice.box_lu.states_max", states)

    def chain_induced(_args, chain):
        rec.maximum("induced.fibers_max", chain.fiber_count)

    def file_written(_args, path):
        rec.add("reports.files", 1)
        rec.add("reports.bytes", os.path.getsize(path))

    groups = sys.modules["relwalk.groups"]
    groups.GroupElement.__mul__ = rec.counter("groups.mul", groups.GroupElement.__mul__)

    _wrap_function(rec, "balls", "ball_elements", "balls.ball")
    _wrap_method(rec, "excursions", "FreeProductEngine", "__init__",
                 "excursions.engine_init", after=engine_built)
    _wrap_method(rec, "excursions", "FreeProductEngine", "green", "excursions.green")
    _wrap_method(rec, "excursions", "TabooContext", "__init__",
                 "excursions.taboo_build", after=taboo_built)
    _wrap_method(rec, "excursions", "TabooContext", "value", "excursions.taboo_value")
    _wrap_method(rec, "lattice", "BoxGreen", "__init__", "lattice.box_lu", after=box_built)
    _wrap_function(rec, "lattice", "absorption_distribution", "lattice.absorption")
    _wrap_function(rec, "induced", "induce_first_return", "induced.induce",
                   after=chain_induced)
    _wrap_function(rec, "induced", "verify_same_green", "induced.verify")
    _wrap_function(rec, "perron", "perron", "perron.dense", choose=perron_kind)
    _wrap_function(rec, "perron", "level_set_point", "perron.level_point")
    _wrap_function(rec, "perron", "minimize_lambda", "perron.minimize")
    _wrap_function(rec, "perron", "check_assumptions", "perron.check_assumptions")
    _wrap_function(rec, "floyd", "floyd_distance", "floyd.distance")
    _wrap_function(rec, "floyd", "transition_points", "floyd.transition")
    _wrap_function(rec, "classify", "ancona_ratio", "classify.ancona")
    _wrap_function(rec, "classify", "martin_convergence", "classify.martin")
    _wrap_function(rec, "classify", "separation_experiment", "classify.separation")
    _wrap_function(rec, "config", "load_config", "config.load")
    for writer in ("write_csv", "write_json", "svg_line_plot", "svg_heatmap"):
        _wrap_function(rec, "reports", writer, "reports.write", after=file_written)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("stages", "trace"):
        print("usage: child.py RECORD.npz {stages|trace} -- <relwalk arguments>",
              file=sys.stderr)
        return 1
    record_path, mode, cli_args = argv[0], argv[1], argv[3:]
    t_import = monotonic()
    import relwalk.cli  # noqa: F401  (imports every layer module)
    import_s = monotonic() - t_import

    rec = Recorder()
    first_entry: list[float] = []
    if mode == "trace":
        install_layer_spans(rec)
    install_stage_spans(rec, first_entry)

    sys.argv = ["relwalk", *cli_args]
    code: object = 0
    try:
        runpy.run_module("relwalk", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        rec.save(record_path, {"import_s": import_s,
                               "first_stage": first_entry[0] if first_entry else None})
    if code is None or isinstance(code, int):
        return code or 0
    print(code, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
