"""Command-line harness: one subcommand per experiment stage.

Every stage reads the same JSON config, writes CSV/JSON (and SVG plots)
into the output directory, and never touches the clock or unseeded
randomness, so identical configs reproduce identical CSV/JSON bytes.
Exit codes: 0 success, 1 invalid configuration or resources, 2 numerical
tolerance failure (a diagnostic JSON is written next to the outputs).
"""
from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys

import numpy as np

from .balls import ball_elements
from .classify import (Classification, SequenceSpec, ancona_ratio, classify,
                       martin_convergence, sample_ancona_pairs, separation_experiment)
from .config import ExperimentConfig, load_config
from .errors import (AssumptionError, BoundedSequenceError, ConfigError,
                     ConvergenceError, InvalidMeasureError, ParseError,
                     RelwalkError, StateCapError)
from .excursions import FreeProductEngine, TabooContext
from .floyd import TransitionParams, floyd_distance, transition_points, word_geodesic
from .induced import FiberIndex, induce_first_return, verify_same_green
from .lattice import ChainGreen, LatticeChain
from .perron import check_assumptions, direction_grid, level_set_point, perron_values
from .reports import fmt, svg_heatmap, svg_line_plot, write_csv, write_json

_SAME_GREEN_TOL = 1e-6  # induce: kappa-scaled first-step residual of the walk Green
_TRANSITIONS = TransitionParams(epsilon=1, window=4)  # floyd and ancona
_FLOYD_RADIUS = 6  # floyd: longer path points get a blank floyd.csv cell
_ANCONA_RMAX, _ANCONA_MONOTONE_SLACK = 4, 1e-9  # ancona: forbidden radii 0..RMAX
_MARTIN_TEST_RADIUS = 2  # martin-seq: radius of the kernel test points
_LAMBDA_HALFWIDTH = 2.5  # lambda-surface: grid half-width around u_min
_U_GAP_FLOOR = 1e-12  # boundary-map: level points closer than this coincide


class _ToleranceFailure(Exception):
    """A stage's tolerance check failed; payload is its diagnostic JSON."""

    def __init__(self, payload: dict):
        super().__init__(payload["reason"])
        self.payload = payload


class RunContext:
    """Shared lazily built objects for one config run."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.cfg = cfg
        self.out = out_dir
        # The engine, a chain that fails to induce and a classification each
        # keep their error, so each stage that needs one re-raises that error
        # instead of building it again.  The engine sits under the key None.
        self._engine: dict[None, FreeProductEngine | RelwalkError] = {}
        self._chains: dict[tuple[int, int], LatticeChain | RelwalkError] = {}
        self._classes: dict[SequenceSpec, Classification | RelwalkError] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def engine(self) -> FreeProductEngine:
        return _once(self._engine, None,
                     lambda: FreeProductEngine(self.cfg.group, self.cfg.measure,
                                               radius=self.cfg.radius),
                     (AssumptionError, ConvergenceError))

    def chain(self, factor: int, eta: int) -> LatticeChain:
        return _once(self._chains, (factor, eta),
                     lambda: induce_first_return(self.engine(), factor, eta,
                                                 self.cfg.state_cap),
                     (AssumptionError, ConvergenceError, StateCapError))

    def classification(self, seq: SequenceSpec) -> Classification:
        return _once(self._classes, seq,
                     lambda: classify(self.cfg.group, seq.elements(self.cfg.group),
                                      self.cfg.parabolic),
                     BoundedSequenceError)

    def chains(self) -> list[tuple[str, LatticeChain]]:
        """All lattice chains this config describes, with stable labels."""
        if self.cfg.is_synthetic:
            return [("chain", self.cfg.chain)]
        return [(f"f{fac}_eta{eta}", self.chain(fac, eta))
                for fac in self.cfg.parabolic for eta in self.cfg.eta_list]


def _once(store: dict, key, build, errors):
    """store[key], built on first use; an error in errors is kept and re-raised."""
    if key not in store:
        try:
            store[key] = build()
        except errors as exc:
            store[key] = exc
    found = store[key]
    if isinstance(found, RelwalkError):
        raise found
    return found


def _ok(files: list[str], **extra) -> dict:
    out = {"status": "ok", "files": sorted(os.path.basename(f) for f in files)}
    out.update(extra)
    return out


# -- stages ----------------------------------------------------------------

def stage_green(ctx: RunContext) -> dict:
    """Green's function tables and Martin kernels near the identity."""
    cfg = ctx.cfg
    table_radius = cfg.tolerances["green_table_radius"]
    if cfg.is_synthetic:
        chain = cfg.chain
        cg = ChainGreen(chain, radius=cfg.radius)
        zero = (0,) * chain.rank
        rows = []
        for z in _lattice_window(chain.rank, table_radius):
            for j1 in range(chain.fiber_count):
                for j2 in range(chain.fiber_count):
                    rows.append((z, j1, j2, cg.green(j1, z, j2)))
        files = [write_csv(ctx.path("green.csv"), ["z", "j_from", "j_to", "green"], rows),
                 write_json(ctx.path("green.json"), {
                     "green_00": cg.green(0, zero, 0),
                     "row_masses": chain.row_masses(),
                     "radius": cfg.radius})]
        return _ok(files)
    engine = ctx.engine()
    group = cfg.group
    e = group.identity
    eff_radius = min(table_radius, cfg.radius)
    ball = ball_elements(group, eff_radius, cfg.state_cap)
    table = engine.green_matrix([e], ball)[0].tolist()
    sphere = [x for x in ball if x.word_length == eff_radius]
    inner = ball_elements(group, 2, cfg.state_cap)
    kernel = (engine.green_matrix(inner, sphere) / engine.green_matrix([e], sphere)).T.tolist()
    # Balls list their elements layer by layer, so the smaller of the two is
    # a prefix of the larger and the sphere is the last layer of the ball.
    names = list(map(group.format, max(ball, inner, key=len)))
    rows = [(name, x.word_length, g) for name, x, g in zip(names, ball, table)]
    krows = [(y, x, k) for y, column in zip(names[len(ball) - len(sphere):len(ball)], kernel)
             for x, k in zip(names[:len(inner)], column)]
    files = [write_csv(ctx.path("green.csv"), ["x", "word_length", "green"], rows),
             write_csv(ctx.path("martin.csv"), ["y", "x", "martin_kernel"], krows),
             write_json(ctx.path("green.json"), {
                 "green_ee": engine.green_identity_value,
                 "factor_return_mass": list(engine.return_mass),
                 "fixed_point_rounds": engine.rounds_used,
                 "identity_spread": engine.identity_spread(),
                 "radius": cfg.radius,
                 "identity_mass": cfg.measure.identity_mass})]
    return _ok(files)


def _lattice_window(rank: int, radius: int) -> list[tuple[int, ...]]:
    """Lattice points of l1 norm <= radius, in lexicographic order."""
    return [z for z in itertools.product(range(-radius, radius + 1), repeat=rank)
            if sum(map(abs, z)) <= radius]


def stage_floyd(ctx: RunContext) -> dict:
    """Floyd lengths and transition annotations along sequence geodesics."""
    cfg = ctx.cfg
    group = cfg.group
    e = group.identity
    rows = []
    summary = {}
    for seq in cfg.sequences:
        target = seq.element(group, seq.stop)
        path = word_geodesic(e, target)
        transitions = set(transition_points(path, _TRANSITIONS, cfg.parabolic))
        for i, p in enumerate(path):
            reach = p.word_length <= _FLOYD_RADIUS
            dist = floyd_distance(cfg.floyd_ratio, p) if reach else ""
            rows.append((seq.name, i, group.format(p), p.word_length,
                         1 if i in transitions else 0, dist))
        summary[seq.name] = {
            "path_length": len(path) - 1,
            "transition_count": len(transitions),
            "transition_indices": sorted(transitions)}
    files = [write_csv(ctx.path("floyd.csv"),
                       ["sequence", "i", "word", "level", "transition", "floyd_from_e"],
                       rows),
             write_json(ctx.path("floyd.json"), {
                 "floyd_ratio": cfg.floyd_ratio,
                 "epsilon": _TRANSITIONS.epsilon,
                 "window": _TRANSITIONS.window,
                 "diameter_bound": 2.0 * (1.0 / (1.0 - cfg.floyd_ratio)),
                 "sequences": summary})]
    return _ok(files)


def stage_induce(ctx: RunContext) -> dict:
    """First-return chain dumps plus the same-Green consistency check."""
    cfg = ctx.cfg
    engine = ctx.engine()
    rows = []
    report = {}
    for fac in cfg.parabolic:
        for eta in cfg.eta_list:
            chain = ctx.chain(fac, eta)
            fibers = FiberIndex.build(cfg.group, fac, eta, cfg.state_cap)
            for j1, j2, dz, w in chain.entries:
                rows.append((fac, eta, j1, j2, dz, w))
            dev = verify_same_green(chain, engine, fibers)
            report[f"f{fac}_eta{eta}"] = {
                "factor": fac, "eta": eta,
                "fiber_count": chain.fiber_count,
                "entry_count": len(chain.entries),
                "row_mass_max": max(chain.row_masses()),
                "same_green_dev": dev,
                # Induced chains have finitely many kernel entries, so every
                # exponential moment converges.
                "moment_reach": "bounded-support"}
    files = [write_csv(ctx.path("induce.csv"),
                       ["factor", "eta", "j_from", "j_to", "dz", "weight"], rows),
             write_json(ctx.path("induce.json"), report)]
    worst = max(v["same_green_dev"] for v in report.values())
    if worst >= _SAME_GREEN_TOL:
        raise _ToleranceFailure({
            "reason": "induced chain Green deviates from the walk Green",
            "max_deviation": worst,
            "tolerance": _SAME_GREEN_TOL,
            "detail": report})
    return _ok(files, max_same_green_dev=worst)


def stage_lambda_surface(ctx: RunContext) -> dict:
    """Perron value grids and structural assumption reports per chain."""
    points = ctx.cfg.tolerances["lambda_grid_points"]
    rows = []
    report = {}
    files = []
    for label, chain in ctx.chains():
        assume = check_assumptions(chain)
        entry = {
            "strictly_submarkov": assume.submarkov,
            "strongly_irreducible": assume.strongly_irreducible,
            "lambda_min": assume.lambda_min,
            "u_min": list(assume.u_min),
            "level_set_compact": assume.level_set_compact,
            "messages": list(assume.messages),
            "ok": assume.ok}
        axes = [np.linspace(m - _LAMBDA_HALFWIDTH, m + _LAMBDA_HALFWIDTH, points)
                for m in assume.u_min]
        # u1 runs along each grid row; the rows step through the later axes.
        later = list(itertools.product(*axes[1:]))
        tilts = [(a,) + rest for rest in later for a in axes[0]]
        grid = perron_values(chain, tilts).reshape(len(later), len(axes[0])).tolist()
        for rest, row in zip(later, grid):
            u_rest = fmt(rest)  # rendered once for the whole grid row
            rows.extend((label, a, u_rest, v) for a, v in zip(axes[0], row))
        if chain.rank == 1:
            files.append(svg_line_plot(
                ctx.path(f"lambda_{label}.svg"),
                [("lambda(u)", list(axes[0]), grid[0])],
                f"Perron value, {label}", "u", "lambda", hline=1.0))
            if assume.ok:
                up = level_set_point(chain, (1.0,))
                un = level_set_point(chain, (-1.0,))
                entry["u_plus"] = up.u[0]
                entry["u_minus"] = un.u[0]
        elif chain.rank == 2:
            files.append(svg_heatmap(
                ctx.path(f"lambda_{label}.svg"), list(axes[0]), list(axes[1]), grid,
                f"Perron value, {label}", "u1", "u2", level=1.0))
        report[label] = entry
    files.append(write_csv(ctx.path("lambda_surface.csv"),
                           ["chain", "u1", "u2", "lambda"], rows))
    files.append(write_json(ctx.path("lambda_surface.json"), report))
    bad = {k: v for k, v in report.items() if not v["ok"]}
    if bad:
        raise _ToleranceFailure({
            "reason": "assumption checks failed", "detail": bad})
    return _ok(files)


def stage_boundary_map(ctx: RunContext) -> dict:
    """Direction-to-tilt table on the unit level set, with injectivity check."""
    rows = []
    report = {}
    files = []
    for label, chain in ctx.chains():
        points = []
        for th in direction_grid(chain.rank, ctx.cfg.theta_grid):
            bp = level_set_point(chain, th)
            points.append(bp)
            rows.append((label, th, bp.u, bp.lambda_residual, bp.angular_error))
        gaps = [float(np.linalg.norm(np.array(p.u) - np.array(q.u)))
                for i, p in enumerate(points) for q in points[i + 1:]]
        entry = {
            "count": len(points),
            "max_angular_error": max(p.angular_error for p in points),
            "max_lambda_residual": max(abs(p.lambda_residual) for p in points),
            "min_pairwise_u_gap": min(gaps) if gaps else None,
            "injective": bool(min(gaps) > _U_GAP_FLOOR) if gaps else True}
        report[label] = entry
        if chain.rank == 2 and len(points) >= 3:
            xs = [p.u[0] for p in points] + [points[0].u[0]]
            ys = [p.u[1] for p in points] + [points[0].u[1]]
            files.append(svg_line_plot(
                ctx.path(f"boundary_{label}.svg"), [("level set", xs, ys)],
                f"Unit level set, {label}", "u1", "u2"))
    files.append(write_csv(ctx.path("boundary_map.csv"),
                           ["chain", "theta", "u", "lambda_residual", "angular_error"],
                           rows))
    files.append(write_json(ctx.path("boundary_map.json"), report))
    not_injective = [k for k, v in report.items() if not v["injective"]]
    if not_injective:
        raise _ToleranceFailure({
            "reason": "boundary map not injective: two level points coincide",
            "min_pairwise_u_gap": min(report[k]["min_pairwise_u_gap"] for k in not_injective),
            "floor": _U_GAP_FLOOR,
            "non_injective": not_injective,
            "detail": report})
    return _ok(files, max_angular_error=max(v["max_angular_error"] for v in report.values()))


def stage_classify(ctx: RunContext) -> dict:
    """Boundary labels for every configured sequence."""
    cfg = ctx.cfg
    group = cfg.group
    rows = []
    report = {}
    for seq in cfg.sequences:
        try:
            cls = ctx.classification(seq)
        except BoundedSequenceError as exc:
            rows.append((seq.name, "Bounded", "", "", str(exc)))
            report[seq.name] = {"tag": "Bounded", "note": str(exc)}
            continue
        coset_txt = ""
        if cls.coset is not None:
            coset_txt = f"{group.format(cls.coset.rep)}*F{cls.coset.factor}"
        direction_txt = fmt(cls.direction) if cls.direction else ""
        detail = ""
        if cls.tag == "Parabolic":
            detail = "projection norm %.6g" % cls.projection_norms[-1]
        elif cls.tag == "Conical":
            detail = "gromov product %.6g" % cls.coned_gromov_products[-1]
        rows.append((seq.name, cls.tag, coset_txt, direction_txt, detail))
        report[seq.name] = {
            "tag": cls.tag, "coset": coset_txt, "direction": direction_txt,
            "word_lengths": cls.word_lengths,
            "coned_gromov_products": cls.coned_gromov_products,
            "projection_norms": cls.projection_norms}
    files = [write_csv(ctx.path("classify.csv"),
                       ["sequence", "tag", "coset", "direction", "detail"], rows),
             write_json(ctx.path("classify.json"), report)]
    return _ok(files)


def stage_ancona(ctx: RunContext) -> dict:
    """Relative Green ratio profiles rho_R around transition midpoints."""
    cfg = ctx.cfg
    engine = ctx.engine()
    group = cfg.group
    pairs = sample_ancona_pairs(group, cfg.parabolic, cfg.seed,
                                cfg.tolerances["ancona_samples"], _TRANSITIONS)
    # rho_R forbids the ball B_R(e) around the transition midpoint e.
    taboos = [TabooContext(engine, list(ball_elements(group, r, cfg.state_cap)))
              for r in range(_ANCONA_RMAX + 1)]
    profiles = ancona_ratio(taboos, pairs)
    rows = []
    for i, ((x, z), prof) in enumerate(zip(pairs, profiles)):
        xname, zname = group.format(x), group.format(z)
        rows.extend((i, xname, zname, r, rho) for r, rho in enumerate(prof))
    mean = [float(np.mean([p[r] for p in profiles])) for r in range(_ANCONA_RMAX + 1)]
    bad_monotone = [i for i, p in enumerate(profiles)
                    if any(b > a + _ANCONA_MONOTONE_SLACK for a, b in zip(p, p[1:]))]
    bad_drop = [i for i, p in enumerate(profiles)
                if p[0] > 0 and not p[-1] < p[0]]
    report = {
        "samples": len(profiles),
        "radius_max": _ANCONA_RMAX,
        "mean_profile": mean,
        "non_monotone_samples": bad_monotone,
        "no_strict_drop_samples": bad_drop,
        "zero_at_radius_0": sum(1 for p in profiles if p[0] == 0.0)}
    files = [write_csv(ctx.path("ancona.csv"),
                       ["sample", "x", "z", "radius", "rho"], rows),
             write_json(ctx.path("ancona.json"), report),
             svg_line_plot(ctx.path("ancona.svg"),
                           [("mean rho_R", list(range(_ANCONA_RMAX + 1)), mean)],
                           "Relative Green ratio vs forbidden radius",
                           "R", "rho", hline=1.0)]
    if bad_monotone or bad_drop:
        raise _ToleranceFailure({
            "reason": "rho_R profile not decaying as required",
            "non_monotone_samples": bad_monotone,
            "no_strict_drop_samples": bad_drop,
            "detail": report})
    return _ok(files)


def stage_martin_seq(ctx: RunContext) -> dict:
    """Martin kernel tables along sequences with Cauchy and limit checks."""
    cfg = ctx.cfg
    engine = ctx.engine()
    group = cfg.group
    rows = []
    report = {}
    for seq in cfg.sequences:
        elements = seq.elements(group)
        ns = list(range(seq.start, seq.stop + 1))
        try:
            cls = ctx.classification(seq)
        except BoundedSequenceError as exc:
            report[seq.name] = {"tag": "Bounded", "note": str(exc)}
            continue
        boundary = None
        coset = None
        if cls.tag == "Parabolic" and cfg.eta_list:
            coset = cls.coset
            chain = ctx.chain(coset.factor, cfg.eta_list[0])
            boundary = level_set_point(chain, cls.direction)
            test_points = [coset.member(zc) for zc in
                           _lattice_window(group.factors[coset.factor].rank,
                                           _MARTIN_TEST_RADIUS)]
        else:
            test_points = ball_elements(group, _MARTIN_TEST_RADIUS, cfg.state_cap)[:9]
        rep = martin_convergence(engine, elements, test_points, ns=ns,
                                 boundary=boundary, coset=coset)
        for n, kernels in zip(rep.ns, rep.kernels.tolist()):
            rows.extend((seq.name, n, group.format(x), k) for x, k in zip(test_points, kernels))
        entry = {"tag": cls.tag,
                 "cauchy_deltas": [[n, d] for n, d in rep.cauchy_deltas]}
        if rep.max_ratio_deviation is not None:
            entry["max_ratio_deviation"] = rep.max_ratio_deviation
            entry["boundary_u"] = list(boundary.u)
        elif cls.tag == "Parabolic":
            entry["note"] = "no limit check: eta_list is empty"
        report[seq.name] = entry
    files = [write_csv(ctx.path("martin_seq.csv"),
                       ["sequence", "n", "x", "martin_kernel"], rows),
             write_json(ctx.path("martin_seq.json"), report)]
    return _ok(files)


def stage_separate(ctx: RunContext) -> dict:
    """Two-direction separation experiment on the first available chain."""
    label, chain = ctx.chains()[0]
    rep = separation_experiment(chain)
    rows = [(label, n, d, g) for n, d, g in zip(rep.ns, rep.decay, rep.grid_min)]
    files = [write_csv(ctx.path("separate.csv"),
                       ["chain", "n", "kernel_theta0", "grid_min_kernel"], rows),
             write_json(ctx.path("separate.json"), {
                 "chain": label,
                 "theta0": list(rep.theta0), "theta1": list(rep.theta1),
                 "u0": list(rep.u0), "u1": list(rep.u1),
                 "grid_thetas": [list(t) for t in rep.grid_thetas],
                 "decay": rep.decay, "grid_min": rep.grid_min,
                 "certified": rep.certified}),
             svg_line_plot(ctx.path("separate.svg"),
                           [("K_theta0 (decays)", [float(n) for n in rep.ns], rep.decay),
                            ("min K over grid (grows)", [float(n) for n in rep.ns],
                             rep.grid_min)],
                           "Boundary separation along the theta1 ray", "n", "kernel",
                           logy=True)]
    if not rep.certified:
        raise _ToleranceFailure({
            "reason": "separation not certified",
            "decay": rep.decay, "grid_min": rep.grid_min})
    return _ok(files, certified=rep.certified)


# What a stage needs from the config, as (test, note when it fails).
_WALK = (lambda cfg: not cfg.is_synthetic, "synthetic chain config has no group walk")
_SEQUENCES = (lambda cfg: bool(cfg.sequences), "no sequences configured")
_CHAINS = (lambda cfg: cfg.is_synthetic or bool(cfg.parabolic and cfg.eta_list),
           "no chains: no parabolic factors or empty eta_list")
_JUNCTION = (lambda cfg: 0 < len(cfg.parabolic) < len(cfg.group.factors),
             "needs both a parabolic and a non-parabolic factor")

# Stage name -> (stage, needs), in the order ``relwalk all`` runs them; a
# stage whose needs are not all met is skipped with the first failing note.
_STAGE_TABLE = {
    "green": (stage_green, ()),
    "floyd": (stage_floyd, (_WALK, _SEQUENCES)),
    "induce": (stage_induce, (_WALK, _CHAINS)),
    "lambda-surface": (stage_lambda_surface, (_CHAINS,)),
    "boundary-map": (stage_boundary_map, (_CHAINS,)),
    "classify": (stage_classify, (_WALK, _SEQUENCES)),
    "ancona": (stage_ancona, (_WALK, _JUNCTION)),
    "martin-seq": (stage_martin_seq, (_WALK, _SEQUENCES)),
    "separate": (stage_separate, (_CHAINS,)),
}
# Stages are called through STAGES, so a wrapper put on an entry (as
# perfbench/child.py does) sees every call.
STAGES = {name: stage for name, (stage, _) in _STAGE_TABLE.items()}


def _run_stage(ctx: RunContext, name: str) -> tuple[int, dict]:
    _, needs = _STAGE_TABLE[name]
    for met, note in needs:
        if not met(ctx.cfg):
            return 0, {"status": "skipped", "note": note, "files": []}
    try:
        return 0, STAGES[name](ctx)
    except _ToleranceFailure as exc:
        status, payload = "tolerance-failure", exc.payload
    except (AssumptionError, ConvergenceError, OverflowError) as exc:
        status, payload = "numerical-failure", {"reason": str(exc), "stage": name}
    except (StateCapError, OSError) as exc:
        return 1, {"status": "resource-failure", "note": str(exc), "files": []}
    path = write_json(ctx.path(f"{name.replace('-', '_')}_diagnostic.json"), payload)
    return 2, {"status": status, "note": payload["reason"], "files": [os.path.basename(path)]}


def _print_status(name: str, summary: dict) -> None:
    print(f"{name}: {summary['status']}"
          + (f" ({summary['note']})" if summary.get("note") else ""))


def _run_all(ctx: RunContext) -> int:
    code = 0
    manifest = {}
    for name in STAGES:
        stage_code, summary = _run_stage(ctx, name)
        code = max(code, stage_code)
        manifest[name] = summary
        _print_status(name, summary)
    write_json(ctx.path("run.json"), {"config": ctx.cfg.name, "stages": manifest})
    return code


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The heap is frozen first: the tens of thousands of objects that
    importing numpy and scipy leaves behind move to the collector's
    permanent generation, so no collection during the stages, and none at
    interpreter exit, walks them again.  Objects the stages build are
    collected as before.  An in-process caller's existing objects are
    frozen too: the collector skips them until exit (gc.unfreeze() puts
    them back).
    """
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="relwalk",
        description="Random-walk boundary experiments on free products")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(STAGES) + ["all"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", default=None, help="output directory override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage errors
        # are invalid-arguments failures under this tool's exit contract.
        return 0 if not exc.code else 1

    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.output_dir
        ctx = RunContext(cfg, out_dir)
        if args.command == "all":
            return _run_all(ctx)
        code, summary = _run_stage(ctx, args.command)
        _print_status(args.command, summary)
        for fname in summary.get("files", []):
            print(f"  {os.path.join(out_dir, fname)}")
        if code == 1:
            print(f"error: {summary['note']}", file=sys.stderr)
        elif code:
            print(f"{args.command}: diagnostic written", file=sys.stderr)
        return code
    except (ConfigError, ParseError, InvalidMeasureError, OSError) as exc:
        # OSError: the output directory cannot be made or written to.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RelwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
