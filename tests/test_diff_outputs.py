"""scripts/diff_outputs.py: the cell-by-cell log of two output trees."""
import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "diff_outputs.py")


def _tree(root, kernel="0.123456789012", mass=0.0732933096952, extra=None):
    os.makedirs(root / "run", exist_ok=True)
    (root / "run" / "martin.csv").write_text(
        f"y,x,martin_kernel\na^2,e,1\na^2,b,{kernel}\n", encoding="utf-8")
    payload = {"green_ee": 2.54575075058, "factor_return_mass": [mass, 0.0338952574606],
               "note": "settled in 5 rounds"}
    payload.update(extra or {})
    (root / "run" / "green.json").write_text(json.dumps(payload), encoding="utf-8")
    return str(root)


def _diff(old, new):
    r = subprocess.run([sys.executable, SCRIPT, old, new], capture_output=True, text=True,
                       timeout=60)
    return r.returncode, r.stdout.splitlines()


def test_identical_trees_print_nothing(tmp_path):
    assert _diff(_tree(tmp_path / "a"), _tree(tmp_path / "b")) == (0, [])


def test_one_flipped_digit_is_one_line_with_its_size(tmp_path):
    code, lines = _diff(_tree(tmp_path / "a"), _tree(tmp_path / "b", kernel="0.123456789013"))
    assert code == 0
    assert lines == ["run/martin.csv\t2/martin_kernel\t0.123456789012\t0.123456789013"
                     "\trel=8.1e-12"]


def test_non_numeric_differences_are_listed_verbatim_and_fail(tmp_path):
    old = _tree(tmp_path / "a")
    new = _tree(tmp_path / "b", mass=0.0732933096953, extra={"fixed_point_rounds": 5})
    code, lines = _diff(old, new)
    assert code == 1
    assert lines == ["run/green.json\tfactor_return_mass[0]\t0.0732933096952\t0.0732933096953"
                     "\trel=1.4e-12",
                     "run/green.json\tfixed_point_rounds\tNone\t5"]
    os.remove(os.path.join(new, "run", "martin.csv"))
    code, lines = _diff(old, new)
    assert code == 1 and lines[-1] == "run/martin.csv\tonly in OLD"
