"""Config loading and command-line behavior, including exit codes."""
import csv
import gc
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import relwalk.cli as cli
from relwalk import FreeProductEngine, ball_elements, load_config
from relwalk.classify import sample_ancona_pairs
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.errors import ConfigError
from relwalk.perron import minimize_lambda
from relwalk.reports import fmt

from conftest import CONFIG_DIR, cli_env, config_path, count_calls, cut_by


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "relwalk", *argv],
                          capture_output=True, text=True, env=cli_env(),
                          cwd=os.path.dirname(CONFIG_DIR))


def test_shipped_configs_load_with_expected_shapes(f2_cfg, f2a_cfg, z2_cfg, lat_cfg):
    assert f2_cfg.group is not None and not f2_cfg.parabolic
    assert f2a_cfg.parabolic == (0,)
    assert z2_cfg.parabolic == (0,)
    assert z2_cfg.group.factors[0].rank == 2
    assert lat_cfg.is_synthetic and lat_cfg.chain is not None
    assert f2a_cfg.sequences and z2_cfg.sequences


def test_config_defaults_applied(tmp_path):
    p = tmp_path / "min.json"
    p.write_text(json.dumps({"group": {"factors": [
        {"rank": 1, "lattice_names": ["a"]},
        {"rank": 1, "lattice_names": ["b"]}]}}))
    cfg = load_config(str(p))
    assert cfg.radius == 10
    assert cfg.floyd_ratio == 0.5
    assert cfg.eta_list == (0,)
    assert cfg.name == "min"
    assert cfg.measure is not None and abs(cfg.measure.total_mass - 1.0) < 1e-15


def make_bad(tmp_path, payload):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_config_validation_failures(tmp_path):
    base_group = {"factors": [{"rank": 1, "lattice_names": ["a"]},
                              {"rank": 1, "lattice_names": ["b"]}]}
    cases = [
        {},
        {"group": base_group, "chain": {"rank": 1, "fibers": 1, "entries": []}},
        {"group": base_group, "parabolic": [5]},
        {"group": base_group, "radius": 0},
        {"group": base_group, "floyd_ratio": 1.0},
        {"group": base_group, "floyd_ratio": 0.0},
        {"group": base_group, "radius": 5, "eta_list": [2]},
        {"group": base_group, "sequences": [
            {"name": "bad", "templates": ["q^n"], "start": 1, "stop": 3}]},
        {"group": {"factors": [{"rank": 3, "lattice_names": ["a", "b", "c"]},
                               {"rank": 1, "lattice_names": ["t"]}]},
         "parabolic": [0]},
        {"chain": {"rank": 3, "fibers": 1, "entries": [
            [0, 0, [1, 0, 0], 0.1], [0, 0, [-1, 0, 0], 0.1],
            [0, 0, [0, 1, 0], 0.1], [0, 0, [0, -1, 0], 0.1],
            [0, 0, [0, 0, 1], 0.1], [0, 0, [0, 0, -1], 0.1]]}},
        {"group": base_group, "eta_lsit": [0]},
        {"group": base_group, "parabolic": [0], "separation": {"theta0": [-1.0, 0.0]}},
        {"group": base_group, "sequences": [{"name": "s", "template": "a^n"}]},
        {"group": base_group, "floyd_ratio": "half"},
        {"group": base_group, "sequences": [{"templates": ["a^n"], "start": "one"}]},
        {"chain": {"rank": 1, "entries": [["zero", 0, [1], 0.2]]}},
        {"group": base_group, "tolerances": {"ancona_sample": 100}},
        {"group": base_group, "tolerances": {"same_green": 1e-3}},
        {"group": base_group, "tolerances": {"lambda_grid_points": "ten"}},
        {"group": base_group, "tolerances": {"lambda_grid_points": 10.5}},
        {"group": base_group, "tolerances": {"ancona_samples": 0}},
        {"group": base_group, "tolerances": {"green_table_radius": True}},
        {"group": dict(base_group, factor_count=2)},
        {"group": {"factors": [{"rank": 1, "lattice_names": ["a"], "lattice": ["a"]},
                               {"rank": 1, "lattice_names": ["b"]}]}},
        {"group": base_group, "measure": {"kind": "uniform", "lasy": True}},
        {"chain": {"rank": 1, "fibers": 1, "fiber": 2,
                   "entries": [[0, 0, [1], 0.2], [0, 0, [-1], 0.2]]}},
        {"group": base_group, "sequences": [{"templates": ["a^n"], "stat": 1}]},
        {"group": base_group, "parabolic": [False]},
        {"group": base_group, "radius": True},
        {"chain": {"rank": 1, "entries": [[0, 0, [1], 0.2]]}, "radius": True},
        {"group": {"factors": [{"rank": True, "lattice_names": ["a"]},
                               {"rank": 1, "lattice_names": ["b"]}]}},
        {"chain": {"rank": True, "entries": [[0, 0, [1], 0.2]]}},
        {"chain": {"rank": 1, "fibers": True, "entries": [[0, 0, [1], 0.2]]}},
        {"group": base_group, "eta_list": [False]},
        {"group": base_group, "theta_grid": True},
        {"group": base_group, "state_cap": True},
        {"group": base_group, "seed": False},
        {"group": base_group, "sequences": [{"templates": ["a^n"], "start": "3"}]},
        {"group": base_group, "sequences": [{"templates": ["a^n"], "stop": 2.7}]},
        {"group": base_group, "sequences": [{"templates": ["a^n"], "start": True}]},
        {"chain": {"rank": 1, "entries": [["0", 0, [1], 0.2]]}},
        {"chain": {"rank": 1, "entries": [[0, 0.0, [1], 0.2]]}},
        {"chain": {"rank": 1, "entries": [[0, 0, [2.7], 0.2]]}},
        {"chain": {"rank": 1, "entries": [[0, 0, ["1"], 0.2]]}},
        {"chain": {"rank": 1, "entries": [[0, 0, [True], 0.2]]}},
        {"chain": {"rank": 1, "entries": [[0, 0, [1], 0.2]], "labels": 5}},
        {"chain": {"rank": 1, "entries": [[0, 0, [1], 0.2]], "labels": "0"}},
        {"group": {"factors": [{"rank": 1, "lattice_names": ["a"]},
                               {"table": [[0, "1"], [1, 0]], "finite_names": ["t"]}]}},
        {"group": {"factors": [{"rank": 1, "lattice_names": ["a"]},
                               {"table": [[0, 1.0], [1, 0]], "finite_names": ["t"]}]}},
        {"group": {"factors": [{"rank": 1, "lattice_names": ["a"]},
                               {"table": [[0, True], [True, 0]], "finite_names": ["t"]}]}},
        {"group": base_group, "measure": {"kind": "weights", "weights": [["a", "1/0"]]}},
        {"chain": {"rank": 1, "entries": [[0, 0, [1], "1/0"], [0, 0, [-1], 0.2]]}},
        {"group": base_group, "seed": -1},
        {"group": base_group, "parabolic": [0, 0]},
        {"group": base_group, "parabolic": [0], "eta_list": [0, 0]},
        {"group": base_group, "sequences": [{"name": "s", "templates": ["a^n"]},
                                            {"name": "s", "templates": ["b^n"]}]},
        {"group": base_group, "measure": {"kind": "weights", "weights": [["a*b", "0.5"]]}},
    ]
    for payload in cases:
        with pytest.raises(ConfigError):
            load_config(make_bad(tmp_path, payload))


def test_unreadable_and_malformed_files_raise(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_green_stage_writes_the_tree_value(tmp_path):
    out = tmp_path / "g"
    r = run_cli("green", "--config", config_path("f2.json"), "--out", str(out))
    assert r.returncode == 0, r.stderr
    with open(out / "green.json") as fh:
        data = json.load(fh)
    assert abs(data["green_ee"] - 1.5) < 1e-8
    assert data["fixed_point_rounds"] == 5
    assert 0.0 <= data["identity_spread"] < 1e-12
    with open(out / "green.csv") as fh:
        rows = list(csv.DictReader(fh))
    by_word = {row["x"]: float(row["green"]) for row in rows}
    assert abs(by_word["e"] - 1.5) < 1e-8
    assert abs(by_word["a"] - 0.5) < 1e-8


def test_lambda_surface_stage_reports_level_points(tmp_path):
    out = tmp_path / "l"
    r = run_cli("lambda-surface", "--config", config_path("f2_over_a.json"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    with open(out / "lambda_surface.json") as fh:
        report = json.load(fh)
    entry = next(iter(report.values()))
    assert abs(entry["lambda_min"] - 2.0 / 3.0) < 1e-8
    assert abs(entry["u_plus"] - math.log(3.0)) < 1e-8
    assert abs(entry["u_minus"] + math.log(3.0)) < 1e-8
    assert entry["ok"]


@pytest.mark.parametrize("payload", [
    {"group": {"factors": [{"rank": 0, "table": [[0, 1], [1, 0]], "finite_names": ["s"]}]}},
    {"chain": {"rank": 1, "fibers": 2,
               "entries": [[0, 0, [1], "0.2"], [0, 0, [-1], "0.2"], [1, 1, [0], "1"]]}},
], ids=["one_finite_factor", "closed_fiber"])
def test_singular_box_ends_in_a_diagnostic(tmp_path, payload):
    """A box whose I - Q is singular (some states never lose mass) is a
    numerical failure with a diagnostic, and `all` still writes run.json."""
    cfg = tmp_path / "singular.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    r = run_cli("all", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2
    assert "Traceback" not in r.stdout + r.stderr
    with open(out / "run.json") as fh:
        assert json.load(fh)["stages"]["green"]["status"] == "numerical-failure"
    with open(out / "green_diagnostic.json") as fh:
        assert json.load(fh)["reason"].startswith("singular box:")


def test_invalid_config_and_usage_exit_codes(tmp_path):
    missing = run_cli("green", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    bad = run_cli("green", "--config", str(broken))
    assert bad.returncode == 1
    with open(config_path("lattice_1d.json")) as fh:
        cfg = json.load(fh)
    cfg["tolerances"] = {"lambda_grid_points": "ten"}
    ten = tmp_path / "ten.json"
    ten.write_text(json.dumps(cfg))
    bad_value = run_cli("lambda-surface", "--config", str(ten), "--out", str(tmp_path / "t"))
    assert bad_value.returncode == 1
    assert "Traceback" not in bad_value.stderr
    with open(config_path("f2.json")) as fh:
        cfg = json.load(fh)
    cfg["measure"] = {"kind": "weights", "weights": [["a", "1/0"], ["b", "1/4"]]}
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(cfg))
    bad_weight = run_cli("green", "--config", str(zero), "--out", str(tmp_path / "z"))
    assert bad_weight.returncode == 1
    assert bad_weight.stderr.startswith("error:")
    assert "Traceback" not in bad_weight.stdout + bad_weight.stderr
    usage = run_cli("green")
    assert usage.returncode == 1
    unknown = run_cli("not-a-command", "--config", "x")
    assert unknown.returncode == 1
    helped = run_cli("--help")
    assert helped.returncode == 0


@pytest.mark.parametrize("sequence, message", [
    # Start and stop both pick the first template; the second is never evaluated.
    ({"name": "swap", "templates": ["a^n", "zz^n"], "start": 2, "stop": 12},
     "unknown generator 'zz'"),
    # Too few terms for classify to read a trend.
    ({"name": "short", "templates": ["a^n*b^n"], "start": 1, "stop": 3},
     "at least 4 terms")])
def test_sequences_classify_cannot_evaluate_fail_in_config(tmp_path, sequence, message):
    with open(config_path("z2_free_z.json")) as fh:
        cfg = json.load(fh)
    cfg["sequences"] = [sequence]
    p = tmp_path / "seq.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=message):
        load_config(str(p))
    for command in ("classify", "all"):
        out = tmp_path / command
        r = run_cli(command, "--config", str(p), "--out", str(out))
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and message in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == "" and not out.exists()


@pytest.mark.parametrize("mode, message", [
    ("single", "mode 'single' takes exactly one template"),
    ("shuffle", "unknown sequence mode 'shuffle'")])
def test_sequence_mode_must_match_its_templates(tmp_path, mode, message):
    """The template count decides how terms pick templates; a "mode" key may
    restate it, and one that contradicts it, or names no mode, is a config error."""
    with open(config_path("z2_free_z.json")) as fh:
        cfg = json.load(fh)
    cfg["sequences"] = [{"name": "two", "templates": ["a^n", "b^n"], "mode": mode}]
    p = tmp_path / "seq.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=f"bad sequence: {message}"):
        load_config(str(p))
    r = run_cli("classify", "--config", str(p), "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and message in r.stderr and "Traceback" not in r.stderr
    cfg["sequences"][0]["mode"] = "alternate"
    p.write_text(json.dumps(cfg))
    assert load_config(str(p)).sequences[0].templates == ("a^n", "b^n")


def test_induce_on_long_lattice_steps_exits_cleanly(tmp_path):
    steps = ["a", "a^-1", "a^2", "a^-2", "a^3", "a^-3", "t", "t^-1"]
    cfg = {"name": "long_steps",
           "group": {"factors": [{"rank": 1, "lattice_names": ["a"]},
                                 {"rank": 1, "lattice_names": ["t"]}]},
           "measure": {"kind": "weights", "weights": [[w, "1/8"] for w in steps],
                       "lazy": False},
           "parabolic": [0], "radius": 12, "eta_list": [0]}
    p = tmp_path / "long_steps.json"
    p.write_text(json.dumps(cfg))
    r = run_cli("induce", "--config", str(p), "--out", str(tmp_path / "i"))
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr


def test_out_of_box_green_lookup_exits_with_diagnostic(tmp_path):
    with open(config_path("z2_free_z.json")) as fh:
        cfg = json.load(fh)
    cfg.update(radius=4, eta_list=[0], sequences=[
        {"name": "diag", "templates": ["a^n*b^n"], "start": 1, "stop": 10}])
    p = tmp_path / "small_box.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "m"
    r = run_cli("martin-seq", "--config", str(p), "--out", str(out))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    with open(out / "martin_seq_diagnostic.json") as fh:
        diag = json.load(fh)
    # (8, 7) came first and fixed the half-width of centre (4, 3) at 8; (9, 7) shares it.
    assert diag["reason"] == ("point (9, 7) lies outside the box of half-width 8 "
                              "fixed by the first read with centre (4, 3)")


def _capped(tmp_path, base: str, cap: int) -> str:
    """A copy of a shipped config whose state_cap is cap."""
    p = tmp_path / f"{base}_cap{cap}.json"
    p.write_text(json.dumps(_shipped(base, state_cap=cap)))
    return str(p)


def test_state_cap_violation_exits_one(tmp_path):
    r = run_cli("green", "--config", _capped(tmp_path, "f2", 10),
                "--out", str(tmp_path / "s"))
    assert r.returncode == 1
    assert "state" in r.stderr.lower() or "cap" in r.stderr.lower()


def test_state_cap_is_not_a_flag(tmp_path):
    r = run_cli("green", "--config", config_path("f2.json"),
                "--out", str(tmp_path / "s"), "--state-cap", "10")
    assert r.returncode == 1
    assert "unrecognized arguments: --state-cap" in r.stderr
    assert not (tmp_path / "s").exists()


def test_markov_synthetic_chain_fails_tolerance_with_diagnostic(tmp_path):
    cfg = {"name": "unkilled", "chain": {
        "rank": 1, "fibers": 1,
        "entries": [[0, 0, [1], 0.5], [0, 0, [-1], 0.5]]}, "radius": 8}
    p = tmp_path / "unkilled.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "u"
    r = run_cli("lambda-surface", "--config", str(p), "--out", str(out))
    assert r.returncode == 2
    with open(out / "lambda_surface_diagnostic.json") as fh:
        diag = json.load(fh)
    assert "assumption" in diag["reason"]


def test_period_two_chain_fails_lambda_surface_as_not_primitive(tmp_path):
    """Its steps span Z, but the fiber pattern alternates 0 -> 1 -> 0, so no
    power of it is positive: that is what the irreducibility check tests."""
    cfg = {"name": "period_two", "chain": {
        "rank": 1, "fibers": 2,
        "entries": [[0, 1, [1], "0.3"], [0, 1, [-1], "0.1"],
                    [1, 0, [1], "0.2"], [1, 0, [-1], "0.2"]]}}
    p = tmp_path / "period_two.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "p"
    assert cli.main(["lambda-surface", "--config", str(p), "--out", str(out)]) == 2
    with open(out / "lambda_surface_diagnostic.json") as fh:
        diag = json.load(fh)
    report = diag["detail"]["chain"]
    assert diag["reason"] == "assumption checks failed"
    assert not report["strongly_irreducible"] and report["strictly_submarkov"]
    assert report["messages"] == [
        "fiber support pattern is not primitive: no power of it is positive"]


def test_even_step_chain_fails_lambda_surface_on_its_cycle_lattice(tmp_path):
    """One fiber with steps +-2: the pattern is primitive, but the walk
    reaches only even z, so its closed paths span a subgroup of index 2."""
    cfg = {"name": "even_steps", "chain": {
        "rank": 1, "fibers": 1, "entries": [[0, 0, [2], "0.2"], [0, 0, [-2], "0.2"]]}}
    p = tmp_path / "even_steps.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "e"
    assert cli.main(["lambda-surface", "--config", str(p), "--out", str(out)]) == 2
    with open(out / "lambda_surface_diagnostic.json") as fh:
        diag = json.load(fh)
    report = diag["detail"]["chain"]
    assert diag["reason"] == "assumption checks failed"
    assert not report["strongly_irreducible"] and report["strictly_submarkov"]
    assert report["messages"] == ["cycle displacements generate a subgroup of index 2 in Z^1"]


def test_output_dir_precedence(tmp_path):
    """--out wins over the config's output_dir, which is used without it."""
    cfg_dir = tmp_path / "cfg"
    p = tmp_path / "lattice_1d.json"
    p.write_text(json.dumps(_shipped("lattice_1d", output_dir=str(cfg_dir))))
    flag_dir = tmp_path / "flag"
    r = run_cli("green", "--config", str(p), "--out", str(flag_dir))
    assert r.returncode == 0
    assert (flag_dir / "green.json").exists()
    assert not cfg_dir.exists()
    r2 = run_cli("green", "--config", str(p))
    assert r2.returncode == 0
    assert (cfg_dir / "green.json").exists()


def test_synthetic_run_all_is_deterministic(tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        r = run_cli("all", "--config", config_path("lattice_1d.json"),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        blobs = {}
        for name in sorted(os.listdir(out)):
            with open(out / name, "rb") as fh:
                blobs[name] = fh.read()
        outs.append(blobs)
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name]


def test_martin_seq_says_when_it_skips_the_limit_check(tmp_path):
    with open(config_path("f2_over_a.json")) as fh:
        cfg = json.load(fh)
    cfg.update(eta_list=[])
    p = tmp_path / "no_eta.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "m"
    r = run_cli("martin-seq", "--config", str(p), "--out", str(out))
    assert r.returncode == 0, r.stderr
    with open(out / "martin_seq.json") as fh:
        entry = json.load(fh)["a_ray"]
    assert entry["tag"] == "Parabolic"
    assert "max_ratio_deviation" not in entry
    assert entry["note"] == "no limit check: eta_list is empty"


def _shipped(base: str, **changes) -> dict:
    with open(config_path(f"{base}.json")) as fh:
        cfg = json.load(fh)
    cfg.pop("output_dir")
    cfg.update(changes)
    return cfg


ALL_STAGES = ("green", "floyd", "induce", "lambda-surface", "boundary-map",
              "classify", "ancona", "martin-seq", "separate")
CHAIN_STAGES = {"induce", "lambda-surface", "boundary-map", "separate"}


@pytest.mark.parametrize("cfg, skipped", [
    (_shipped("lattice_1d"), {"floyd", "induce", "classify", "ancona", "martin-seq"}),
    (_shipped("f2"), CHAIN_STAGES | {"ancona"}),
    (_shipped("f2", name="f2_all_parabolic", parabolic=[0, 1]), {"ancona"}),
    (_shipped("f2_over_a", name="f2_over_a_no_eta", eta_list=[]), CHAIN_STAGES),
], ids=["lattice_1d", "f2", "f2_all_parabolic", "f2_over_a_empty_eta_list"])
def test_run_all_runs_exactly_the_stages_a_config_supports(tmp_path, cfg, skipped):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    r = run_cli("all", "--config", str(p), "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    with open(tmp_path / "o" / "run.json") as fh:
        statuses = {name: e["status"] for name, e in json.load(fh)["stages"].items()}
    assert statuses == {s: "skipped" if s in skipped else "ok" for s in ALL_STAGES}


# One parabolic Z^2 factor and nothing else: no mass escapes the eta-0
# neighborhood, so its chain fails to induce.
Z2_ONLY = {"name": "z2_only",
           "group": {"factors": [{"rank": 2, "lattice_names": ["a", "b"]}]},
           "measure": {"kind": "uniform", "lazy": True},
           "parabolic": [0], "radius": 6, "eta_list": [0],
           "sequences": [{"name": "diag", "templates": ["a^n*b^n"], "start": 1, "stop": 8}]}


def test_run_all_reports_a_failed_induction_stage_by_stage(tmp_path):
    """A chain that cannot be induced fails the stages that need it, each with
    a diagnostic, and every other stage still runs."""
    p = tmp_path / "z2_only.json"
    p.write_text(json.dumps(Z2_ONLY))
    out = tmp_path / "o"
    r = run_cli("all", "--config", str(p), "--out", str(out))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    with open(out / "run.json") as fh:
        statuses = {name: e["status"] for name, e in json.load(fh)["stages"].items()}
    failed = {"induce", "lambda-surface", "boundary-map", "martin-seq", "separate"}
    assert statuses == {s: "numerical-failure" if s in failed
                        else "skipped" if s == "ancona" else "ok" for s in ALL_STAGES}
    for stage in failed:
        with open(out / f"{stage.replace('-', '_')}_diagnostic.json") as fh:
            assert "sub-Markov" in json.load(fh)["reason"]


def test_a_failed_induction_is_not_retried(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, cli, "induce_first_return")
    p = tmp_path / "z2_only.json"
    p.write_text(json.dumps(Z2_ONLY))
    assert cli.main(["all", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert calls[0] == 1
    with open(tmp_path / "o" / "run.json") as fh:
        stages = json.load(fh)["stages"]
    failed = [s for s, e in stages.items() if e["status"] == "numerical-failure"]
    assert len(failed) == 5
    assert all("not strictly sub-Markov" in stages[s]["note"] for s in failed)


def test_a_failed_engine_is_not_rebuilt(tmp_path, monkeypatch):
    """(Z) * (Z/2) with all mass on s: the box of the finite factor is
    singular, so the engine is built once and each stage that needs it
    fails with the same diagnostic."""
    cfg = {"name": "s_only",
           "group": {"factors": [{"rank": 1, "lattice_names": ["a"]},
                                 {"rank": 0, "table": [[0, 1], [1, 0]], "finite_names": ["s"]}]},
           "measure": {"kind": "weights", "weights": [["s", "1"]], "lazy": False},
           "parabolic": [0], "eta_list": [0],
           "sequences": [{"name": "ray", "templates": ["a^n"], "start": 1, "stop": 8}]}
    p = tmp_path / "s_only.json"
    p.write_text(json.dumps(cfg))
    calls = count_calls(monkeypatch, cli, "FreeProductEngine")
    out = tmp_path / "o"
    assert cli.main(["all", "--config", str(p), "--out", str(out)]) == 2
    assert calls[0] == 1
    with open(out / "run.json") as fh:
        statuses = {name: e["status"] for name, e in json.load(fh)["stages"].items()}
    assert statuses == {s: "ok" if s in ("floyd", "classify") else "numerical-failure"
                        for s in ALL_STAGES}
    reason = "singular box: I - Q on the 2 states within 10 of (); some states never lose mass"
    for stage, status in statuses.items():
        if status != "ok":
            with open(out / f"{stage.replace('-', '_')}_diagnostic.json") as fh:
                assert json.load(fh)["reason"] == reason


def test_an_overflowing_tilt_fails_its_stages_with_diagnostics(tmp_path):
    # Steps of +-300 overflow exp() at the grid tilt -2.5.
    cfg = {"name": "far_steps", "chain": {
        "rank": 1, "fibers": 1, "entries": [[0, 0, [300], "0.2"], [0, 0, [-300], "0.2"]]}}
    p = tmp_path / "far_steps.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("all", "--config", str(p), "--out", str(out))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    with open(out / "run.json") as fh:
        stages = json.load(fh)["stages"]
    assert stages["lambda-surface"]["status"] == "numerical-failure"
    with open(out / "lambda_surface_diagnostic.json") as fh:
        assert json.load(fh)["reason"] == "tilt (-2.5,) overflows on displacement (-300,)"
    single = run_cli("lambda-surface", "--config", str(p), "--out", str(tmp_path / "s"))
    assert single.returncode == 2
    assert "Traceback" not in single.stderr


def test_long_steps_reach_the_level_set(tmp_path):
    # lambda(u) = 0.4 cosh(300 u): Newton from t = 1 needs about 300 steps.
    cfg = {"name": "far_steps", "radius": 14, "theta_grid": 2, "chain": {
        "rank": 1, "fibers": 1, "entries": [[0, 0, [300], "0.2"], [0, 0, [-300], "0.2"]]}}
    p = tmp_path / "far_steps.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("all", "--config", str(p), "--out", str(out))
    assert "Traceback" not in r.stderr
    with open(out / "run.json") as fh:
        stages = json.load(fh)["stages"]
    assert stages["boundary-map"]["status"] == "ok"
    assert stages["separate"]["status"] == "ok"
    with open(out / "boundary_map.csv") as fh:
        us = {row["theta"]: float(row["u"]) for row in csv.DictReader(fh)}
    level = math.acosh(2.5) / 300
    assert abs(us["1"] - level) < 1e-10 and abs(us["-1"] + level) < 1e-10


def test_ancona_respects_the_state_cap(tmp_path):
    r = run_cli("ancona", "--config", _capped(tmp_path, "z2_free_z", 100),
                "--out", str(tmp_path / "a"))
    assert r.returncode == 1
    assert "ancona: resource-failure" in r.stdout
    assert "ball enumeration exceeded the cap of 100 states" in r.stderr


@pytest.mark.parametrize("stage", ["induce", "lambda-surface"])
def test_induction_respects_the_state_cap(tmp_path, stage):
    # The eta-2 neighbourhood ball of z2_free_z has 33 elements.
    r = run_cli(stage, "--config", _capped(tmp_path, "z2_free_z", 10),
                "--out", str(tmp_path / "i"))
    assert r.returncode == 1
    assert f"{stage}: resource-failure" in r.stdout
    assert "ball enumeration exceeded the cap of 10 states" in r.stderr


def test_a_state_cap_inside_run_all_fails_only_its_stages(tmp_path):
    out = tmp_path / "o"
    r = run_cli("all", "--config", _capped(tmp_path, "f2", 10), "--out", str(out))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    with open(out / "run.json") as fh:
        stages = json.load(fh)["stages"]
    assert {s: e["status"] for s, e in stages.items() if e["status"] != "skipped"} == {
        "green": "resource-failure", "floyd": "ok", "classify": "ok",
        "martin-seq": "resource-failure"}
    assert "cap of 10 states" in stages["green"]["note"]


def _cross_terms(taboo, measure, pairs) -> int:
    """How many G(l, r) terms the taboo read-out sums over pairs and reads: one
    for a pair outside the forbidden set, one per pair of steps leaving it
    otherwise, less the terms a cut vertex in the set makes exact zeros."""
    inside = set(taboo)
    steps = [s for s, _ in measure.items()]
    total = 0
    for x, z in pairs:
        if x in inside or z in inside:
            terms = [(x * s, z * t.inverse()) for s in steps for t in steps
                     if x * s not in inside and z * t.inverse() not in inside]
        else:
            terms = [(x, z)]
        total += sum(not cut_by(inside, measure, l, r) for l, r in terms)
    return total


@pytest.mark.parametrize("base, read_balls", [("f2_over_a", 0), ("z2_free_z", 2)],
                         ids=["f2_over_a", "z2_free_z"])
def test_ancona_green_blocks_do_not_grow_with_the_sample_count(tmp_path, monkeypatch, base,
                                                               read_balls):
    """Each forbidden ball with a term no cut vertex zeroes answers all sampled
    pairs from a fixed handful of green_matrix blocks: its own, G(L, A) and
    G(A, R); a ball whose every term is cut reads none.  One green_pairs
    read per such ball serves its G(l, r) terms and one more every
    denominator G(x, z), each with one entry per term or pair it serves;
    no scalar Green is read.  read_balls counts the balls with an uncut
    term: none on the F2 tree, B_0 and B_1 in the Z^2 plane."""
    for samples in (5, 20):
        p = tmp_path / f"{samples}.json"
        p.write_text(json.dumps(_shipped(base, tolerances={"ancona_samples": samples})))
        cfg = load_config(str(p))
        ctx = cli.RunContext(cfg, str(tmp_path / f"o{samples}"))
        blocks = count_calls(monkeypatch, FreeProductEngine, "green_matrix")
        scalar = count_calls(monkeypatch, FreeProductEngine, "green")
        sizes = []
        inner = FreeProductEngine.green_pairs

        def recorded(self, X, Y, _inner=inner):
            out = _inner(self, X, Y)
            if out.ndim == 1:  # a pair read; green_matrix reads 2-D chunks
                sizes.append(out.size)
            return out

        monkeypatch.setattr(FreeProductEngine, "green_pairs", recorded)
        assert cli.stage_ancona(ctx)["status"] == "ok"
        monkeypatch.undo()
        pairs = sample_ancona_pairs(cfg.group, cfg.parabolic, cfg.seed, samples,
                                    cli._TRANSITIONS)
        terms = [_cross_terms(ball_elements(cfg.group, r, DEFAULT_STATE_CAP), cfg.measure, pairs)
                 for r in range(cli._ANCONA_RMAX + 1)]
        assert sum(n > 0 for n in terms) == read_balls
        assert sizes == [samples] + [n for n in terms if n]
        assert blocks[0] == 3 * read_balls
        assert scalar[0] == 0


def test_ancona_alone_writes_what_run_all_writes(tmp_path):
    """A standalone ancona run starts from a cold engine, run all reaches ancona
    with passages and boxes the earlier stages left; the bytes must agree."""
    for command in ("ancona", "all"):
        assert cli.main([command, "--config", config_path("f2_over_a.json"),
                         "--out", str(tmp_path / command)]) == 0
    for name in ("ancona.csv", "ancona.json"):
        assert (tmp_path / "ancona" / name).read_bytes() == \
            (tmp_path / "all" / name).read_bytes()


def test_fmt_renders_every_cell_type():
    """The exact-type lookups and the isinstance chain behind them render
    floats at 12 significant digits and join vectors with spaces."""
    cases = [(0.1 + 0.2, "0.3"), (np.float64(1 / 3), "0.333333333333"), (np.float32(0.5), "0.5"),
             ("x y", "x y"), (7, "7"), (True, "True"), (np.int64(-3), "-3"),
             ((1.0, 2), "1 2"), ([0.25, "a"], "0.25 a"), (np.array([1e-20, 2.0]), "1e-20 2")]
    assert [fmt(value) for value, _ in cases] == [text for _, text in cases]


def test_main_freezes_the_import_heap(tmp_path):
    """cli.main moves the objects alive at its entry to the collector's
    permanent generation, so no collection walks the import heap again."""
    gc.unfreeze()
    assert cli.main(["green", "--config", config_path("lattice_1d.json"),
                     "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() > 0


@pytest.mark.parametrize("command", ["green", "all"])
@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under_file"])
def test_an_unusable_output_directory_exits_one(tmp_path, capsys, command, below):
    """--out naming a regular file, or a path under one, is a resource
    failure: exit 1 and an error line, not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken.joinpath(*below)
    assert cli.main([command, "--config", config_path("lattice_1d.json"),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert "Traceback" not in err


def test_a_stage_that_cannot_write_its_files_fails_as_a_resource(tmp_path):
    """A writer's OSError fails its stage with code 1; `all` runs the other
    stages and still writes run.json."""
    out = tmp_path / "out"
    (out / "green.csv").mkdir(parents=True)
    assert cli.main(["all", "--config", config_path("lattice_1d.json"),
                     "--out", str(out)]) == 1
    with open(out / "run.json") as fh:
        stages = json.load(fh)["stages"]
    assert stages["green"]["status"] == "resource-failure"
    assert "green.csv" in stages["green"]["note"]
    assert {v["status"] for k, v in stages.items() if k != "green"} <= {"ok", "skipped"}


def test_coincident_level_points_fail_boundary_map_as_non_injective(tmp_path, monkeypatch):
    """Every direction mapped to one level point: boundary-map exits 2 and
    names the coincidence, with the smallest gap and its floor."""
    real = cli.level_set_point
    monkeypatch.setattr(cli, "level_set_point", lambda chain, _theta: real(chain, (1.0,)))
    out = tmp_path / "b"
    assert cli.main(["boundary-map", "--config", config_path("lattice_1d.json"),
                     "--out", str(out)]) == 2
    with open(out / "boundary_map_diagnostic.json") as fh:
        diag = json.load(fh)
    assert diag["reason"] == "boundary map not injective: two level points coincide"
    assert diag["min_pairwise_u_gap"] == 0.0
    assert diag["floor"] == 1e-12
    assert diag["non_injective"] == ["chain"]


def test_run_all_minimizes_each_chain_once(tmp_path):
    """lambda-surface, boundary-map, martin-seq and separate share one lambda
    minimization per chain."""
    minimize_lambda.cache_clear()
    assert cli.main(["all", "--config", config_path("f2_over_a.json"),
                     "--out", str(tmp_path / "o")]) == 0
    info = minimize_lambda.cache_info()
    assert info.misses == 1 and info.hits >= 4


def test_run_all_classifies_each_sequence_once(tmp_path, monkeypatch):
    """classify and martin-seq share one classification per sequence, a
    bounded sequence's error included."""
    cfg = _shipped("f2", sequences=_shipped("f2")["sequences"] + [
        {"name": "still", "templates": ["a"], "start": 1, "stop": 8}])
    p = tmp_path / "f2.json"
    p.write_text(json.dumps(cfg))
    calls = count_calls(monkeypatch, cli, "classify")
    assert cli.main(["all", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    assert calls[0] == len(cfg["sequences"]) == 3
    for name in ("classify.json", "martin_seq.json"):
        with open(tmp_path / "o" / name) as fh:
            assert json.load(fh)["still"]["tag"] == "Bounded"
