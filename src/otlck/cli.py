"""Batch command-line front end with exact JSON I/O.

Exit codes: 0 success, 2 invalid input, 3 precision exhausted, 4 budget
exceeded.  Rationals are serialized as strings; approximate reals always
carry an explicit error field.  Identical invocations produce byte
identical output.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import click
from mpmath import mp, mpf

from .errors import BudgetExceeded, InputError, PrecisionExhausted
from .heights import (
    HeightValue,
    enumerate_bounded_height,
    height_algebraic,
    is_root_of_unity,
    projective_height_rational,
    unit_point_height,
)
from .numberfield import (
    congruence_check,
    elem_arith,
    is_algebraic_integer,
    is_unit,
    min_poly,
    new_field,
    norm_trace,
)
from .polys import is_irreducible, parse_poly
from .roots import PrecisionContext
from .theorems import (
    SignaturePair,
    dubickas_feasible,
    lck_admissible,
    main_theorem_audit,
    signature_case_analysis,
)
from .units import UnitSubgroup, analyze_subgroup, is_equal_modulus, is_totally_positive, log_embedding


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            _emit_error("invalid_input", exc)
            sys.exit(2)
        except PrecisionExhausted as exc:
            _emit_error("precision_exhausted", exc)
            sys.exit(3)
        except BudgetExceeded as exc:
            _emit_error("budget_exceeded", exc)
            sys.exit(4)

    return wrapper


def _emit_error(kind, exc):
    click.echo(json.dumps({"error": kind, "message": str(exc)}, sort_keys=True))


def _dump(cfg, payload):
    if cfg["output"] == "text":
        for k in sorted(payload):
            click.echo(f"{k}: {json.dumps(payload[k], sort_keys=True)}")
    else:
        click.echo(json.dumps(payload, sort_keys=True))


def _height_json(cfg, hv: HeightValue) -> dict:
    power = cfg.get("relative_to_degree") or 1
    with mp.workdps(40):
        value = mpf(hv.value) ** power
        # crude power error propagation, exact values stay exact
        err = mpf(hv.error) * power * mpf(hv.value) ** (power - 1)
        out = {
            "value": mp.nstr(value, 25),
            "error": mp.nstr(err, 3) if err != 0 else "0",
            "convention": hv.convention if power == 1 else f"relative_degree_{power}",
        }
    if hv.exact is not None:
        out["exact"] = str(hv.exact**power)
    return out


def _ctx_from(cfg) -> PrecisionContext:
    return PrecisionContext(cfg["precision"], 2, cfg["max_digits"])


def _field(cfg, poly_text):
    return new_field(poly_text, _ctx_from(cfg))


@click.group()
@click.option("--precision", default=64, show_default=True, help="working digits")
@click.option("--max-digits", default=4096, show_default=True)
@click.option("--degree-cap", default=24, show_default=True)
@click.option("--output", type=click.Choice(["json", "text"]), default="json")
@click.option("--relative-to-degree", type=int, default=None,
              help="report heights raised to this power (relative height H_K)")
@click.pass_context
def main(ctx, precision, max_digits, degree_cap, output, relative_to_degree):
    """Exact arithmetic of number fields, heights and OT/LCK unit checks."""
    ctx.obj = {
        "precision": precision,
        "max_digits": max_digits,
        "degree_cap": degree_cap,
        "output": output,
        "relative_to_degree": relative_to_degree,
    }


# -- field ------------------------------------------------------------------


@main.group()
def field():
    """Number field construction and inspection."""


@field.command("info")
@click.argument("poly")
@click.pass_obj
@_handle_errors
def field_info(cfg, poly):
    fld = _field(cfg, poly)
    with mp.workdps(30):
        embeddings = [
            {
                "kind": b.kind,
                "pair_id": b.pair_id,
                "center": [mp.nstr(mpf(b.center.real), 20),
                           mp.nstr(mpf(b.center.imag), 20)]
                if b.kind != "real"
                else [mp.nstr(mpf(b.center), 20), "0.0"],
                "radius": mp.nstr(mpf(b.radius), 3),
            }
            for b in fld.embeddings()
        ]
    _dump(cfg, {
        "defining_poly": str(fld.poly),
        "degree": fld.degree,
        "signature": list(fld.signature),
        "embeddings": embeddings,
    })


# -- element ----------------------------------------------------------------


def _elements_in(fld, coeffs_arg):
    if coeffs_arg == "-":
        for line in sys.stdin:
            line = line.strip()
            if line:
                yield fld.parse_element(line)
    else:
        yield fld.parse_element(coeffs_arg)


@main.group()
def element():
    """Field element queries (coeffs as a JSON array of rationals)."""


def _element_command(name, payload_fn):
    @element.command(name)
    @click.argument("poly")
    @click.argument("coeffs")
    @click.pass_obj
    @_handle_errors
    def cmd(cfg, poly, coeffs):
        fld = _field(cfg, poly)
        for a in _elements_in(fld, coeffs):
            _dump(cfg, payload_fn(a))

    return cmd


_element_command("minpoly", lambda a: {"min_poly": str(min_poly(a))})
def _norm_payload(a):
    norm, trace = norm_trace(a)
    return {"norm": str(norm), "trace": str(trace)}


_element_command("norm", _norm_payload)
_element_command("integer", lambda a: {"algebraic_integer": is_algebraic_integer(a)})
_element_command("unit", lambda a: {"unit": is_unit(a)})


@element.command("arith")
@click.argument("poly")
@click.argument("op", type=click.Choice(["add", "sub", "mul", "div"]))
@click.argument("lhs")
@click.argument("rhs")
@click.pass_obj
@_handle_errors
def element_arith(cfg, poly, op, lhs, rhs):
    fld = _field(cfg, poly)
    result = elem_arith(fld.parse_element(lhs), fld.parse_element(rhs), op)
    _dump(cfg, {"result": [str(c) for c in result.coeffs]})


# -- unit -------------------------------------------------------------------


@main.group()
def unit():
    """Exact unit decisions."""


@unit.command("logvec")
@click.argument("poly")
@click.argument("coeffs")
@click.pass_obj
@_handle_errors
def unit_logvec(cfg, poly, coeffs):
    fld = _field(cfg, poly)
    for a in _elements_in(fld, coeffs):
        vec = log_embedding(a, cfg["precision"])
        with mp.workdps(cfg["precision"]):
            _dump(cfg, {"log_vector": [mp.nstr(v, 25) for v in vec]})


@unit.command("equalmod")
@click.argument("poly")
@click.argument("coeffs")
@click.pass_obj
@_handle_errors
def unit_equalmod(cfg, poly, coeffs):
    fld = _field(cfg, poly)
    for a in _elements_in(fld, coeffs):
        d = is_equal_modulus(a, _ctx_from(cfg))
        _dump(cfg, {"equal_modulus": d.value, "certificate": d.certificate})


@unit.command("totpos")
@click.argument("poly")
@click.argument("coeffs")
@click.pass_obj
@_handle_errors
def unit_totpos(cfg, poly, coeffs):
    fld = _field(cfg, poly)
    for a in _elements_in(fld, coeffs):
        d = is_totally_positive(a, _ctx_from(cfg))
        _dump(cfg, {"totally_positive": d.value, "certificate": d.certificate})


@unit.command("congruence")
@click.argument("poly")
@click.argument("coeffs")
@click.argument("alpha")
@click.pass_obj
@_handle_errors
def unit_congruence(cfg, poly, coeffs, alpha):
    fld = _field(cfg, poly)
    al = fld.parse_element(alpha)
    for a in _elements_in(fld, coeffs):
        _dump(cfg, {"congruent_to_one": congruence_check(a, al)})


# -- height -----------------------------------------------------------------


@main.group()
def height():
    """Absolute multiplicative heights."""


@height.command("algebraic")
@click.argument("target")
@click.pass_obj
@_handle_errors
def height_algebraic_cmd(cfg, target):
    ctx = _ctx_from(cfg)
    try:
        value = Fraction(target)
    except ValueError:
        p = parse_poly(target).primitive_int()
        if p.degree < 1:
            raise InputError("expected a rational or a nonconstant polynomial")
        if not is_irreducible(p, cfg["degree_cap"]):
            raise InputError(f"{p} is not irreducible; height needs a minimal polynomial")
        hv = height_algebraic(p, ctx=ctx)
        _dump(cfg, {"height": _height_json(cfg, hv),
                    "is_root_of_unity": is_root_of_unity(p)})
        return
    hv = height_algebraic(value, ctx=ctx)
    _dump(cfg, {"height": _height_json(cfg, hv),
                "is_root_of_unity": value != 0 and is_root_of_unity(value)})


@height.command("projective")
@click.argument("coords", nargs=-1, required=True)
@click.pass_obj
@_handle_errors
def height_projective(cfg, coords):
    try:
        qs = [Fraction(c) for c in coords]
    except ValueError as exc:
        raise InputError(f"bad rational coordinate: {exc}") from exc
    _dump(cfg, {"height": str(projective_height_rational(qs))})


@height.command("unitpoint")
@click.argument("poly")
@click.argument("coeffs")
@click.pass_obj
@_handle_errors
def height_unitpoint(cfg, poly, coeffs):
    fld = _field(cfg, poly)
    for a in _elements_in(fld, coeffs):
        hv = unit_point_height(a, ctx=_ctx_from(cfg))
        _dump(cfg, {"unit_point_height": _height_json(cfg, hv)})


# -- enumerate --------------------------------------------------------------


@main.command("enumerate")
@click.option("--deg", "deg", type=int, required=True)
@click.option("--bound", "bound", required=True)
@click.option("--budget", type=int, default=2_000_000, show_default=True)
@click.pass_obj
@_handle_errors
def enumerate_cmd(cfg, deg, bound, budget):
    """Bounded-height sweep; one line per algebraic number:
    coeffs_json<TAB>height<TAB>is_root_of_unity."""
    try:
        h_max = Fraction(bound)
    except ValueError as exc:
        raise InputError(f"bad bound: {exc}") from exc
    records = enumerate_bounded_height(deg, h_max, _ctx_from(cfg), budget)
    with mp.workdps(40):
        for r in records:
            if r.height.exact is not None:
                htxt = str(r.height.exact)
            else:
                htxt = mp.nstr(mpf(r.height.value), 20)
            click.echo(
                f"{json.dumps(list(r.min_poly.coeffs))}\t{htxt}\t"
                f"{'true' if r.is_root_of_unity else 'false'}"
            )


# -- subgroup / lck / audit -------------------------------------------------


def _subgroup(cfg, poly, gens):
    fld = _field(cfg, poly)
    return fld, [fld.parse_element(g) for g in gens]


@main.group()
def subgroup():
    """Unit-subgroup analysis."""


@subgroup.command("analyze")
@click.argument("poly")
@click.argument("gens", nargs=-1)
@click.pass_obj
@_handle_errors
def subgroup_analyze(cfg, poly, gens):
    fld, elems = _subgroup(cfg, poly, gens)
    _dump(cfg, analyze_subgroup(UnitSubgroup(fld, elems, _ctx_from(cfg))))


@main.group()
def lck():
    """OT/LCK admissibility."""


@lck.command("check")
@click.argument("poly")
@click.argument("gens", nargs=-1)
@click.pass_obj
@_handle_errors
def lck_check(cfg, poly, gens):
    fld, elems = _subgroup(cfg, poly, gens)
    _dump(cfg, lck_admissible(fld, elems, _ctx_from(cfg)))


@main.command("feasible")
@click.argument("s", type=int)
@click.argument("t", type=int)
@click.pass_obj
@_handle_errors
def feasible_cmd(cfg, s, t):
    """Smallest (m, q) with s = (2t + 2m)q - 2t, if any."""
    result = dubickas_feasible(SignaturePair(s, t))
    if result is None:
        _dump(cfg, {"feasible": False})
    else:
        _dump(cfg, {"feasible": True, "m": result[0], "q": result[1]})


@main.command("cases")
@click.argument("s", type=int)
@click.argument("t", type=int)
@click.pass_obj
@_handle_errors
def cases_cmd(cfg, s, t):
    """Surviving (s', t', [K:L]) cases of the signature analysis."""
    records = signature_case_analysis(SignaturePair(s, t))
    _dump(cfg, {
        "signature": [s, t],
        "cases": [
            {"s_prime": c.s_prime, "t_prime": c.t_prime, "degree_ratio": c.degree_ratio}
            for c in records
        ],
        "empty": not records,
    })


@main.command("audit")
@click.argument("poly")
@click.argument("gens", nargs=-1)
@click.pass_obj
@_handle_errors
def audit_cmd(cfg, poly, gens):
    """Main-theorem consistency audit on a field and generator set."""
    fld, elems = _subgroup(cfg, poly, gens)
    _dump(cfg, main_theorem_audit(fld, elems, _ctx_from(cfg)))


if __name__ == "__main__":
    main()
