"""Output checks for one CLI invocation: statuses, gates, oracles, references.

Every check is attributed to the stage whose files it reads, so that a
failed check fails that stage execution.  Closed forms:

* F2 simple random walk: G(e,e) = 3/2 and G(e,x) = (3/2) 3^(-|x|);
* F2 over <a>: the level set of the induced chain sits at u = +/- ln 3;
* killed 1-D walk with step mass q each way: G_00 = 1/sqrt(1 - 4 q^2)
  and u* = acosh(1/(2q)).
"""
from __future__ import annotations

import csv
import glob
import json
import math
import os

from workloads import LATTICE_Q

ORACLE_TOL = 1e-8          # absolute; outputs carry 12 significant digits
REFERENCE_REL_TOL = 1e-9   # relative, with the absolute floor below
REFERENCE_ABS_TOL = 1e-12
# Gates as the stages apply them (relwalk.config defaults).
SAME_GREEN_TOL = 1e-6
LAMBDA_RESIDUAL_TOL = 1e-10
ANGULAR_TOL = 1e-8


def _json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _csv(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def stage_statuses(command: str, out_dir: str, stdout: str) -> dict[str, str]:
    """Status per stage: run.json for ``all``, the CLI's status line otherwise."""
    if command == "all":
        try:
            return {k: v["status"] for k, v in _json(out_dir, "run.json")["stages"].items()}
        except (OSError, ValueError, KeyError):
            return {}
    for line in stdout.splitlines():
        head, sep, rest = line.partition(": ")
        if sep and head == command:
            return {command: rest.split()[0]}
    return {}


def _close(got: float, want: float, tol: float = ORACLE_TOL) -> bool:
    return abs(got - want) <= tol


def _gate_checks(label: str, out_dir: str) -> list[tuple[str, str]]:
    """(stage, message) for each failed gate or oracle of one invocation."""
    bad: list[tuple[str, str]] = []

    def check(stage: str, ok: bool, message: str) -> None:
        if not ok:
            bad.append((stage, message))

    present = set(os.listdir(out_dir))
    if "induce.json" in present:
        for chain, entry in _json(out_dir, "induce.json").items():
            check("induce", entry["same_green_dev"] < SAME_GREEN_TOL,
                  f"{chain} same_green_dev {entry['same_green_dev']}")
    if "boundary_map.json" in present:
        for chain, entry in _json(out_dir, "boundary_map.json").items():
            check("boundary-map", entry["max_lambda_residual"] < LAMBDA_RESIDUAL_TOL,
                  f"{chain} max_lambda_residual {entry['max_lambda_residual']}")
            check("boundary-map", entry["max_angular_error"] < ANGULAR_TOL,
                  f"{chain} max_angular_error {entry['max_angular_error']}")
            check("boundary-map", entry["injective"], f"{chain} not injective")
    if "lambda_surface.json" in present:
        for chain, entry in _json(out_dir, "lambda_surface.json").items():
            check("lambda-surface", entry["ok"], f"{chain} assumption checks failed")
    if "separate.json" in present:
        check("separate", _json(out_dir, "separate.json")["certified"],
              "separation not certified")

    if label == "f2":
        green = _json(out_dir, "green.json")["green_ee"]
        check("green", _close(green, 1.5), f"F2 G(e,e) = {green}, want 3/2")
        worst = max(abs(float(r["green"]) - 1.5 * 3.0 ** (-int(r["word_length"])))
                    for r in _csv(out_dir, "green.csv"))
        check("green", worst <= ORACLE_TOL, f"F2 G(e,x) off the tree closed form by {worst}")
    elif label == "f2_over_a":
        entry = _json(out_dir, "lambda_surface.json")["f0_eta0"]
        ln3 = math.log(3.0)
        check("lambda-surface", _close(entry["u_plus"], ln3) and _close(entry["u_minus"], -ln3),
              f"f2_over_a level points {entry['u_minus']}, {entry['u_plus']}, want -/+ ln 3")
    elif label == "lattice_1d":
        q = float(LATTICE_Q)
        g00 = _json(out_dir, "green.json")["green_00"]
        want = 1.0 / math.sqrt(1.0 - 4.0 * q * q)
        check("green", _close(g00, want), f"lattice_1d G_00 = {g00}, want {want}")
        ustar = _json(out_dir, "lambda_surface.json")["chain"]["u_plus"]
        want = math.acosh(1.0 / (2.0 * q))
        check("lambda-surface", _close(ustar, want), f"lattice_1d u* = {ustar}, want {want}")
    return bad


def headline(label: str, out_dir: str) -> dict[str, object]:
    """Reference values of one invocation: numbers a regression would move."""
    vals: dict[str, object] = {}
    present = set(os.listdir(out_dir))
    if "green.json" in present:
        green = _json(out_dir, "green.json")
        for key in ("green_ee", "green_00"):
            if key in green:
                vals[f"green.{key}"] = green[key]
        for i, m in enumerate(green.get("factor_return_mass", [])):
            vals[f"green.return_mass.{i}"] = m
    if "induce.json" in present:
        for chain, entry in _json(out_dir, "induce.json").items():
            for key in ("fiber_count", "entry_count", "row_mass_max"):
                vals[f"induce.{chain}.{key}"] = entry[key]
    if "lambda_surface.json" in present:
        for chain, entry in _json(out_dir, "lambda_surface.json").items():
            vals[f"lambda.{chain}.lambda_min"] = entry["lambda_min"]
            for i, u in enumerate(entry["u_min"]):
                vals[f"lambda.{chain}.u_min.{i}"] = u
            for key in ("u_plus", "u_minus"):
                if key in entry:
                    vals[f"lambda.{chain}.{key}"] = entry[key]
        rows = _csv(out_dir, "lambda_surface.csv")
        for i in sorted({0, len(rows) // 2, len(rows) - 1}):
            vals[f"lambda.grid.{i}"] = float(rows[i]["lambda"])
    if "boundary_map.csv" in present:
        rows = _csv(out_dir, "boundary_map.csv")
        for i, row in enumerate(rows):
            if i % 8 == 0:
                for k, u in enumerate(row["u"].split()):
                    vals[f"boundary.{row['chain']}.{i}.u{k}"] = float(u)
    if "classify.json" in present:
        for seq, entry in _json(out_dir, "classify.json").items():
            vals[f"classify.{seq}.tag"] = entry["tag"]
    if "ancona.json" in present:
        for r, rho in enumerate(_json(out_dir, "ancona.json")["mean_profile"]):
            vals[f"ancona.mean.{r}"] = rho
    if "martin_seq.json" in present:
        for seq, entry in _json(out_dir, "martin_seq.json").items():
            if "max_ratio_deviation" in entry:
                vals[f"martin.{seq}.max_ratio_deviation"] = entry["max_ratio_deviation"]
    if "separate.json" in present:
        sep = _json(out_dir, "separate.json")
        vals["separate.decay.last"] = sep["decay"][-1]
        vals["separate.grid_min.last"] = sep["grid_min"][-1]
    if "floyd.json" in present:
        for seq, entry in _json(out_dir, "floyd.json")["sequences"].items():
            vals[f"floyd.{seq}.transition_count"] = entry["transition_count"]
    return vals


_STAGE_OF_KEY = {"green": "green", "induce": "induce", "lambda": "lambda-surface",
                 "boundary": "boundary-map", "classify": "classify", "ancona": "ancona",
                 "martin": "martin-seq", "separate": "separate", "floyd": "floyd"}


def _reference_checks(got: dict, want: dict) -> list[tuple[str, str]]:
    bad = []
    for key, ref in want.items():
        stage = _STAGE_OF_KEY[key.split(".")[0]]
        val = got.get(key)
        if isinstance(ref, str) or val is None or isinstance(val, str):
            ok = val == ref
        else:
            ok = abs(val - ref) <= max(REFERENCE_ABS_TOL, REFERENCE_REL_TOL * abs(ref))
        if not ok:
            bad.append((stage, f"reference {key}: got {val}, recorded {ref}"))
    return bad


def check_invocation(label: str, command: str, expected: tuple[str, ...], out_dir: str,
                     stdout: str, stderr: str, exit_code: int,
                     reference: dict | None) -> tuple[int, list[str]]:
    """Return (failed stage executions, messages) for one finished process.

    A stage fails if it does not end ok, writes a diagnostic, its outputs
    fail a gate, an oracle or the recorded reference, or the process
    exits nonzero or prints a traceback.
    """
    statuses = stage_statuses(command, out_dir, stdout) if os.path.isdir(out_dir) else {}
    crashed = exit_code != 0 or "Traceback" in stderr
    crash = f"exit code {exit_code}" + (" with traceback" if "Traceback" in stderr else "")
    failed: dict[str, str] = {}
    for stage in expected:
        status = statuses.get(stage)
        if status != "ok":
            failed[stage] = f"{label} {stage}: status {status}" + (f" ({crash})" if crashed else "")
    for stage, status in statuses.items():
        if stage not in expected and status != "skipped":
            failed.setdefault(stage, f"{label} {stage}: expected skipped, got {status}")
    for path in glob.glob(os.path.join(out_dir, "*_diagnostic.json")):
        stage = os.path.basename(path)[: -len("_diagnostic.json")].replace("_", "-")
        failed.setdefault(stage, f"{label} {stage}: wrote {os.path.basename(path)}")
    if not failed and not crashed:
        try:
            bad = _gate_checks(label, out_dir)
            if reference is not None:
                bad += _reference_checks(headline(label, out_dir), reference)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            bad = [(expected[0], f"{label}: unreadable output ({exc!r})")]
        for stage, message in bad:
            failed.setdefault(stage, f"{label} {stage}: {message}")
    if crashed and not failed:
        failed["process"] = f"{label}: {crash}"
    return len(failed), sorted(failed.values())
