"""Config loading and command-line behavior, including exit codes."""
import csv
import json
import math
import os
import subprocess
import sys

import pytest

from relwalk import load_config
from relwalk.errors import ConfigError

from conftest import CONFIG_DIR, cli_env, config_path


def run_cli(*argv, env_extra=None):
    return subprocess.run([sys.executable, "-m", "relwalk", *argv],
                          capture_output=True, text=True, env=cli_env(**(env_extra or {})),
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
    assert cfg.measure is not None and cfg.measure.is_probability


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
    usage = run_cli("green")
    assert usage.returncode == 1
    unknown = run_cli("not-a-command", "--config", "x")
    assert unknown.returncode == 1
    helped = run_cli("--help")
    assert helped.returncode == 0


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
    assert "outside the box" in diag["reason"]


def test_state_cap_violation_exits_one(tmp_path):
    r = run_cli("green", "--config", config_path("f2.json"),
                "--out", str(tmp_path / "s"), "--state-cap", "10")
    assert r.returncode == 1
    assert "state" in r.stderr.lower() or "cap" in r.stderr.lower()


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


def test_output_dir_precedence(tmp_path):
    flag_dir = tmp_path / "flag"
    env_dir = tmp_path / "env"
    r = run_cli("green", "--config", config_path("lattice_1d.json"),
                "--out", str(flag_dir), env_extra={"RELWALK_OUT": str(env_dir)})
    assert r.returncode == 0
    assert (flag_dir / "green.json").exists()
    assert not env_dir.exists()
    r2 = run_cli("green", "--config", config_path("lattice_1d.json"),
                 env_extra={"RELWALK_OUT": str(env_dir)})
    assert r2.returncode == 0
    assert (env_dir / "green.json").exists()


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
