"""End-to-end CLI behaviour: output shape, determinism and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner
from mpmath import mp, mpc, mpf

from otlck.cli import main


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_field_info():
    res = run("field", "info", "x^2 - 2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["degree"] == 2
    assert data["signature"] == [2, 0]
    assert len(data["embeddings"]) == 2


def test_reducible_field_exit_2():
    res = run("field", "info", "x^2 - 1")
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == "invalid_input"


def test_element_minpoly_and_norm():
    res = run("element", "minpoly", "x^2 - 2", '["1", "1"]')
    assert res.exit_code == 0
    assert json.loads(res.output)["min_poly"] == "x^2 - 2x - 1"
    res2 = run("element", "norm", "x^2 - 2", '["1", "1"]')
    data = json.loads(res2.output)
    assert data["norm"] == "-1"
    assert data["trace"] == "2"


def test_element_norm_computes_char_poly_once(monkeypatch):
    from otlck import numberfield

    calls = []
    real = numberfield.char_poly
    monkeypatch.setattr(numberfield, "char_poly", lambda a: calls.append(a) or real(a))
    res = run("element", "norm", "x^3 - x - 1", '["1","2","0"]')
    assert res.exit_code == 0
    assert len(calls) == 1
    # 1 + 2x: norm = -(2^3) f(-1/2) = 5, trace = 3 + 2 * 0
    assert json.loads(res.output) == {"norm": "5", "trace": "3"}


def test_element_bad_json_exit_2():
    res = run("element", "unit", "x^2 - 2", "oops")
    assert res.exit_code == 2


def test_stdin_batch():
    res = run("element", "unit", "x^2 - 2", "-", input='["1","1"]\n["0","1"]\n')
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert [json.loads(l)["unit"] for l in lines] == [True, False]


def test_unit_equalmod():
    res = run("unit", "equalmod", "x^5 - x - 1", '["0","1","0","0","0"]')
    data = json.loads(res.output)
    assert data["equal_modulus"] is False
    assert data["certificate"]["measured_margin"] > 0.2


def test_unit_congruence():
    res = run("unit", "congruence", "x^2 - 2", '["3","2"]', '["0","1"]')
    assert json.loads(res.output)["congruent_to_one"] is True


def test_height_commands():
    res = run("height", "algebraic", "x^2 - x - 1")
    value = float(json.loads(res.output)["height"]["value"])
    assert abs(value - ((1 + 5**0.5) / 2) ** 0.5) < 1e-12
    res2 = run("height", "projective", "--", "1/2", "3", "-5")
    assert json.loads(res2.output)["height"] == "10"
    res3 = run("height", "algebraic", "2/3")
    assert json.loads(res3.output)["height"]["exact"] == "3"


def test_height_relative_to_degree():
    res = run("--relative-to-degree", "2", "height", "algebraic", "x^2 - x - 1")
    value = float(json.loads(res.output)["height"]["value"])
    assert abs(value - (1 + 5**0.5) / 2) < 1e-12


def test_enumerate_lines():
    res = run("enumerate", "--deg", "2", "--bound", "1")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 9
    coeffs, height, rou = lines[0].split("\t")
    json.loads(coeffs)
    assert rou in ("true", "false")


def _brute_force_height_2():
    """Primitive irreducible polynomials of degree <= 2 with M(f) <= 2^deg,
    from a box wider than the Mignotte box; M from the quadratic formula
    at 60 digits, with a tie counted as inside."""
    out = {(p, q) for q in range(1, 6) for p in range(-5, 6)
           if math.gcd(p, q) == 1 and max(abs(p), q) <= 2}
    with mp.workdps(60):
        for a in range(1, 7):
            for b in range(-10, 11):
                for c in range(-6, 7):
                    disc = b * b - 4 * a * c
                    square = disc >= 0 and math.isqrt(disc) ** 2 == disc
                    if c == 0 or math.gcd(a, b, c) != 1 or square:
                        continue
                    m = mpf(a)
                    for sign in (1, -1):
                        m *= max(1, abs((-b + sign * mp.sqrt(mpc(disc))) / (2 * a)))
                    if m <= 4 + mpf(10) ** -40:
                        out.add((c, b, a))
    return out


def test_enumerate_boundary_ties_decided():
    # M(f) = 4 exactly: 4x^2 - 3 (roots inside), x^2 + x + 4 (roots
    # outside), 4x^2 - 7x + 4 (palindromic, roots on the unit circle)
    res = run("enumerate", "--deg", "2", "--bound", "2")
    assert res.exit_code == 0
    coeffs = [tuple(json.loads(line.split("\t")[0])) for line in res.output.splitlines()]
    want = _brute_force_height_2()
    assert set(coeffs) == want
    assert all(coeffs.count(c) == len(c) - 1 for c in want)
    assert {(-3, 0, 4), (4, 1, 1), (4, -7, 4)} <= want


def test_enumerate_budget_exit_4():
    res = run("enumerate", "--deg", "6", "--bound", "2", "--budget", "10")
    assert res.exit_code == 4


def test_enumerate_deterministic():
    a = run("enumerate", "--deg", "3", "--bound", "1").output
    b = run("enumerate", "--deg", "3", "--bound", "1").output
    assert a == b


def test_feasible_and_cases():
    assert json.loads(run("feasible", "2", "1").output) == {
        "feasible": True, "m": 0, "q": 2,
    }
    assert json.loads(run("feasible", "3", "2").output) == {"feasible": False}
    data = json.loads(run("cases", "1", "2").output)
    assert data["empty"] is True
    assert json.loads(run("cases", "2", "1").output)["cases"] == [
        {"degree_ratio": 1, "s_prime": 2, "t_prime": 1}
    ]


def test_feasible_invalid_exit_2():
    assert run("feasible", "0", "2").exit_code == 2


def test_subgroup_and_audit():
    res = run("subgroup", "analyze", "x^3 - x - 1", '["0","1","0"]')
    data = json.loads(res.output)
    assert data["rank"] == {"certified": 1, "estimate": 1}
    res2 = run("audit", "x^5 - x - 1", '["0","1","0","0","0"]')
    rep = json.loads(res2.output)
    assert rep["status"] == "CONSISTENT"
    assert rep["lck"] is False


def test_t2_sextic_audits_exit_0():
    # the ratio polynomial of a degree-6 unit has a squarefree part of
    # degree 31, above the default cap of 24 on user-supplied polynomials
    heights = {}
    for poly in ["x^6 + x - 1", "x^6 - x^5 - 1", "x^6 - 2x - 1"]:
        res = run("audit", poly, '["0","1","0","0","0","0"]')
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output)
        assert rep["status"] == "CONSISTENT"
        assert rep["signature"] == [2, 2]
        assert rep["lck"] is False
        (entry,) = rep["unit_point_heights"]
        assert entry["unit_point_height"] > 1
        heights[poly] = entry["unit_point_height"]
    # theta -> 1/theta maps one field to the other and inverts the ratio
    assert math.isclose(heights["x^6 + x - 1"], heights["x^6 - x^5 - 1"], rel_tol=1e-12)


def test_lck_check():
    res = run("lck", "check", "x^3 - x - 1", '["0","1","0"]')
    assert json.loads(res.output)["lck"] is True


def test_text_output_mode():
    res = run("--output", "text", "feasible", "2", "1")
    assert res.exit_code == 0
    assert "feasible: true" in res.output


def test_import_does_not_load_numpy():
    # numpy is imported lazily where it is used; loading it at import time
    # would add about 0.1 s to every CLI start
    code = "import otlck, otlck.cli, sys; assert 'numpy' not in sys.modules"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
