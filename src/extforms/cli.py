"""Command-line front end.

Every subcommand prints one JSON report document to stdout with the stable
shape {"command", "inputs", "results", "status"} and deterministic key
order; a human-readable summary goes to stderr when it is a terminal.
Exit codes: 0 pass, 1 mathematical check failure (the report carries a
witness), 2 usage or parse errors, 141 (128 + SIGPIPE, as for a process
killed by it) when the reader of stdout closes it early, say `| head`.

A report's bytes are those of `json.dump(report, sort_keys=True,
indent=2)`, written to stdout by `_write_json` in chunks of a few hundred
pieces, never joined into one string.  The argument parser is built once
per process; nothing else is kept from one command to the next.  Each
form file is read once per command and only its named forms are parsed:
a structural error on any line is a usage error, an expression error only
in a named form, and errors come in the order of the refs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from json.encoder import encode_basestring_ascii

from . import wedge_solver
from .algebra import ExtForm
from .dsl import DslError, load_form_file, print_form
from .randgen import random_rank_p_two_form, rng_for
from .symbolic import (
    DiffForm,
    classify_theorem_sets,
    eval_scaled,
    example_catalog,
    lee_solve,
    lee_verify,
)


EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    """Usage-level error (exit code 2)."""


def _ext_form_json(f: ExtForm):
    return [{"index": list(idx), "coeff": str(c)} for idx, c in f.terms()]


def _load_refs(*refs):
    """Resolve each 'file.form#name' to (coords, DiffForm), reading each
    file once and parsing only the named forms, in ref order."""
    files = {}
    out = []
    for ref in refs:
        if "#" not in ref:
            raise CliError(f"form reference {ref!r} must look like file.form#name")
        path, name = ref.rsplit("#", 1)
        if path not in files:
            try:
                files[path] = load_form_file(path)
            except OSError as e:
                raise CliError(f"cannot read {path!r}: {e}") from None
        ff = files[path]
        if name not in ff.forms:
            raise CliError(f"no form named {name!r} in {path!r} "
                           f"(available: {', '.join(sorted(ff.forms)) or 'none'})")
        out.append((ff.coords, ff.forms[name]))
    return out


def _as_constant(form: DiffForm) -> ExtForm:
    """The numeric form of a form with constant coefficients: each
    coefficient's one term, the only key `ScalarExpr.is_constant` allows,
    read off as it is (what `eval_at` gives at any point)."""
    if any(not c.is_constant() for c in form.coeffs.values()):
        raise CliError("form has non-constant coefficients; pass --point to evaluate")
    key = ((0,) * form.dim, ())
    return ExtForm(form.dim, form.degree, {m: c.terms[key] for m, c in form.coeffs.items()})


def _parse_point(spec: str, coords, forms) -> tuple[Fraction, ...]:
    values = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise CliError(f"bad point component {piece!r}, expected coord=value")
        name, val = piece.split("=", 1)
        name = name.strip()
        if name not in coords:
            raise CliError(f"unknown coordinate {name!r}")
        if name in values:
            raise CliError(f"coordinate {name!r} given more than once in --point")
        try:
            values[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad rational value {val!r}") from None
    missing = [c for c in coords if c not in values]
    if missing:
        raise CliError(f"point is missing coordinates: {', '.join(missing)}")
    point = tuple(values[c] for c in coords)
    _reject_poles(_pole_coords(forms, coords), coords, [point])
    return point


def _pole_coords(forms, coords) -> set[str]:
    """Coordinates carrying a negative Laurent exponent in any given form."""
    poles = set()
    for form in forms:
        for se in form.coeffs.values():
            for (mono, _), _c in se.terms.items():
                for name, e in zip(coords, mono):
                    if e < 0:
                        poles.add(name)
    return poles


def _reject_poles(poles, coords, points):
    """CliError at the first point where one of the pole coordinates (those
    carrying a negative Laurent exponent) is zero: the forms are undefined there."""
    idx = [i for i, c in enumerate(coords) if c in poles]
    for pt in points:
        for i in idx:
            if pt[i] == 0:
                raise CliError(f"pole at point {_point_str(coords, pt)}: coordinate "
                               f"{coords[i]!r} is 0 there and carries a negative power")


def _point_str(coords, point) -> str:
    return ",".join(f"{c}={x}" for c, x in zip(coords, point))


def _out_of_range(coords, point) -> CliError:
    return CliError(f"value out of the float range at point {_point_str(coords, point)}")


def _form_at(form: DiffForm, spec, coords, inputs: dict) -> ExtForm:
    """The form that rank and lambda-report read: at the --point spec, which
    is recorded in inputs, up to a positive factor that changes no rank or
    kernel (`eval_scaled`; a value out of the float range is a usage error),
    and with no spec as a constant form."""
    if not spec:
        return _as_constant(form)
    point = _parse_point(spec, coords, [form])
    inputs["point"] = [str(x) for x in point]
    try:
        return eval_scaled([form], point)[1][0]
    except OverflowError:
        raise _out_of_range(coords, point) from None


def _axis(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    if count <= 1:
        return [(lo + hi) / 2]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _build_grid(specs, coords, forms) -> list[tuple[Fraction, ...]]:
    """Grid from 'coord=lo:hi:count' specs; defaults to 3 points per
    coordinate in [-1, 1], shifted to [1/2, 3/2] off Laurent poles; a spec
    that puts a pole coordinate at 0 is rejected."""
    poles = _pole_coords(forms, coords)
    axes = {}
    for spec in specs or []:
        if "=" not in spec:
            raise CliError(f"bad grid spec {spec!r}, expected coord=lo:hi:count")
        name, rng = spec.split("=", 1)
        name = name.strip()
        if name not in coords:
            raise CliError(f"unknown coordinate {name!r} in grid spec")
        if name in axes:
            raise CliError(f"coordinate {name!r} given in more than one grid spec")
        parts = rng.split(":")
        if len(parts) != 3:
            raise CliError(f"bad grid spec {spec!r}, expected coord=lo:hi:count")
        try:
            lo, hi, count = Fraction(parts[0]), Fraction(parts[1]), int(parts[2])
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad grid spec {spec!r}") from None
        if count < 1:
            raise CliError("grid count must be >= 1")
        axes[name] = _axis(lo, hi, count)
    for c in coords:
        if c not in axes:
            if c in poles:
                axes[c] = _axis(Fraction(1, 2), Fraction(3, 2), 3)
            else:
                axes[c] = _axis(Fraction(-1), Fraction(1), 3)
    grid = [tuple(combo) for combo in product(*(axes[c] for c in coords))]
    _reject_poles(poles, coords, grid)
    return grid


# ---------------------------------------------------------------------------
# subcommands

def _cmd_rank(args) -> dict:
    [(coords, form)] = _load_refs(args.form)
    if form.degree != 2:
        raise CliError("rank expects a 2-form")
    inputs = {"form": args.form}
    omega = _form_at(form, args.point, coords, inputs)
    if omega.is_zero():
        results = {"rank": 0, "kernel": "whole space"}
    else:
        # rank2 is half the skew matrix's rank, n - dim ker (the float SVD
        # counts the same singular values for both)
        ker = wedge_solver.kernel2(omega)
        results = {"rank": (omega.dim - ker.dim) // 2, "kernel_dim": ker.dim,
                   "kernel_basis": [[str(c) for c in v.components]
                                    for v in ker.basis]}
    return {"command": "rank", "inputs": inputs, "results": results,
            "status": "pass"}


def _cmd_solve(args) -> dict:
    (coords_o, omega_form), (coords_k, kappa_form) = _load_refs(args.omega, args.kappa)
    if coords_o != coords_k:
        raise CliError("omega and kappa must share a coordinate list")
    if omega_form.degree != 2:
        raise CliError("solve expects a 2-form omega")
    if not 2 <= kappa_form.degree <= omega_form.dim + 2:
        raise CliError(f"solve expects kappa of degree 2 to {omega_form.dim + 2}")
    omega = _as_constant(omega_form)
    kappa = _as_constant(kappa_form)
    particular, kernel = wedge_solver.solve_wedge(omega, kappa)
    results = {
        "solvable": particular is not None,
        "particular": _ext_form_json(particular) if particular is not None else None,
        "kernel_dim": len(kernel),
        "kernel_basis": [_ext_form_json(b) for b in kernel],
    }
    status = "pass" if particular is not None else "fail"
    return {"command": "solve",
            "inputs": {"omega": args.omega, "kappa": args.kappa},
            "results": results, "status": status}


def _cmd_lee(args) -> dict:
    if args.beta and args.grid:
        raise CliError("lee takes --beta or --grid, not both")
    refs = [args.omega] + ([args.beta] if args.beta else [])
    (coords, omega), *beta_ref = _load_refs(*refs)
    if omega.degree != 2:
        raise CliError("lee expects a 2-form omega")
    inputs = {"omega": args.omega}
    if beta_ref:
        [(coords_b, beta)] = beta_ref
        if coords_b != coords:
            raise CliError("omega and beta must share a coordinate list")
        if beta.degree != 1:
            raise CliError("lee expects a 1-form beta")
        inputs["beta"] = args.beta
        ver = lee_verify(omega, beta)
        results = {
            "residual": print_form(ver.residual),
            "holds": ver.holds,
            "d_beta": print_form(ver.d_beta),
            "dbeta_wedge_omega": print_form(ver.dbeta_wedge_omega),
        }
        return {"command": "lee", "inputs": inputs, "results": results,
                "status": "pass" if ver.holds else "fail"}
    grid = _build_grid(args.grid, coords, [omega])
    inputs["grid_points"] = len(grid)
    try:
        res = lee_solve(omega, grid)
    except OverflowError as e:
        raise _out_of_range(coords, e.point) from None
    results = {
        "consistent": res.consistent,
        "points": [{
            "point": [str(x) for x in r.point],
            "solvable": r.beta is not None,
            "beta": _ext_form_json(r.beta) if r.beta is not None else None,
            "kernel_dim": r.kernel_dim,
            "rank_omega": r.rank_omega,
        } for r in res.points],
    }
    return {"command": "lee", "inputs": inputs, "results": results,
            "status": "pass" if res.consistent else "fail"}


def _cmd_classify(args) -> dict:
    (coords, omega), (coords_b, beta) = _load_refs(args.omega, args.beta)
    if coords != coords_b:
        raise CliError("omega and beta must share a coordinate list")
    if omega.degree != 2:
        raise CliError("classify expects a 2-form omega")
    if beta.degree != 1:
        raise CliError("classify expects a 1-form beta")
    grid = _build_grid(args.grid, coords, [omega, beta])
    try:
        rows, verdict = classify_theorem_sets(omega, beta, grid)
    except ValueError as e:
        return {"command": "classify",
                "inputs": {"omega": args.omega, "beta": args.beta},
                "results": {"error": str(e)}, "status": "fail"}
    results = {
        "points": [{
            "point": [str(x) for x in r.point],
            "r_omega": r.r_omega, "in_A": r.in_A, "in_B": r.in_B,
            "in_C": r.in_C, "d_beta_rank": r.d_beta_rank,
        } for r in rows],
        "verdict": {
            "a_points": verdict.a_points, "b_points": verdict.b_points,
            "c_points": verdict.c_points,
            "dbeta_zero_on_A": verdict.dbeta_zero_on_A,
            "rank_bounds_on_B": verdict.rank_bounds_on_B,
            "a_b_disjoint": verdict.a_b_disjoint,
        },
    }
    return {"command": "classify",
            "inputs": {"omega": args.omega, "beta": args.beta,
                       "grid_points": len(grid)},
            "results": results,
            "status": "pass" if verdict.passed else "fail"}


def _cmd_lemma_check(args) -> dict:
    n, p, l, trials, seed = args.dim, args.rank, args.deg, args.trials, args.seed
    if p < 1:
        raise CliError("rank must be >= 1")
    if 2 * p > n:
        raise CliError("rank p requires dim >= 2p")
    if trials < 1:
        raise CliError("trials must be >= 1")
    if not 1 <= l <= n - 2:
        raise CliError("deg must satisfy 1 <= deg <= dim - 2")
    rng = rng_for(seed)
    trial_rows = []
    ok = True
    for t in range(trials):
        omega = random_rank_p_two_form(rng, n, p)
        try:
            profile = wedge_solver.kernel_main_profile(omega, l, seed=seed + t)
        except wedge_solver.LemmaViolation as e:
            ok = False
            row = {"trial": t, "violation": True}
            if e.omega is not None:
                row.update(omega=_ext_form_json(e.omega), min_main_degree=e.min_s)
            trial_rows.append(row)
            continue
        trial_rows.append({
            "trial": t, "violation": False,
            "kernel_dim": profile.kernel_dim,
            "min_main_degree": profile.min_s,
            "histogram": [list(e) for e in profile.entries],
        })
        if l < p and profile.kernel_dim != 0:
            ok = False  # kernel must be trivial below the rank
        if profile.min_s is not None and profile.min_s < p:
            ok = False
    results = {"trials": trial_rows,
               "all_bounds_hold": ok}
    return {"command": "lemma-check",
            "inputs": {"dim": n, "rank": p, "deg": l, "trials": trials,
                       "seed": seed},
            "results": results, "status": "pass" if ok else "fail"}


def _cmd_lambda_report(args) -> dict:
    [(coords, form)] = _load_refs(args.omega)
    if form.degree != 2:
        raise CliError("lambda-report expects a 2-form")
    inputs = {"omega": args.omega}
    omega = _form_at(form, args.point, coords, inputs)
    if omega.is_zero():
        raise CliError("lambda-report is undefined for the zero form")
    omega_a, p = wedge_solver.block_and_rank(omega)
    rows = wedge_solver.lambda_report(omega, omega_a)
    results = {
        "rank": p,
        "rows": [{
            "k": r.k, "dim_domain": r.dim_domain, "dim_codomain": r.dim_codomain,
            "rank": r.rank, "dim_kernel": r.dim_kernel,
            "dim_cokernel": r.dim_cokernel, "injective": r.injective,
            "surjective": r.surjective,
        } for r in rows],
    }
    return {"command": "lambda-report", "inputs": inputs,
            "results": results, "status": "pass"}


def _cmd_verify_paper(args) -> dict:
    del args
    catalog = example_catalog()
    lines = []
    ok = True
    for name in sorted(catalog):
        entry = catalog[name]
        for ident in entry.identities:
            ok = ok and ident.holds
            lines.append({
                "example": name,
                "identity": ident.name,
                "holds": ident.holds,
                "check": ident.detail,
            })
    return {"command": "verify-paper", "inputs": {},
            "results": {"identities": lines},
            "status": "pass" if ok else "fail"}


# ---------------------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="extforms",
        description="Exact exterior-form toolkit: wedge-equation solver, "
                    "pointwise classifier, kernel lemma checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank and kernel of a 2-form")
    p.add_argument("form", help="file.form#name")
    p.add_argument("--point", help="coord=value,... for symbolic forms")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("solve", help="solve Omega ^ beta = kappa")
    p.add_argument("omega", help="file.form#name of the 2-form")
    p.add_argument("kappa", help="file.form#name of the right-hand side")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lee", help="solve or verify d omega = beta ^ omega")
    p.add_argument("omega", help="file.form#name")
    p.add_argument("--beta", help="file.form#name: verify symbolically")
    p.add_argument("--grid", action="append",
                   help="coord=lo:hi:count (repeatable)")
    p.set_defaults(func=_cmd_lee)

    p = sub.add_parser("classify", help="classify sample points into the "
                                        "three theorem sets")
    p.add_argument("omega", help="file.form#name")
    p.add_argument("beta", help="file.form#name")
    p.add_argument("--grid", action="append",
                   help="coord=lo:hi:count (repeatable)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lemma-check", help="randomized kernel main-degree "
                                           "bound checks")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("lambda-report", help="rank table of all wedge maps")
    p.add_argument("omega", help="file.form#name")
    p.add_argument("--point", help="coord=value,... for symbolic forms")
    p.set_defaults(func=_cmd_lambda_report)

    p = sub.add_parser("verify-paper", help="check the built-in worked examples")
    p.set_defaults(func=_cmd_verify_paper)
    return ap


def _atom(obj) -> str:
    """JSON text of a report leaf: str, int, bool, None or an empty container."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict) and not obj:
        return "{}"
    if isinstance(obj, (list, tuple)) and not obj:
        return "[]"
    raise TypeError(f"{type(obj).__name__} is not a report value")


_SCALARS = frozenset((str, int, bool, type(None)))
_STRS, _INTS = frozenset((str,)), frozenset((int,))
_CONTAINERS = (dict, list, tuple)
_FLUSH = 512    # pieces held before they are joined and written


def _write_json(obj, write):
    """Write obj in the bytes of json.dump(obj, sort_keys=True, indent=2):
    dicts with str keys in sorted key order, lists and tuples as arrays, and
    the leaves of `_atom`.

    One pass, with a stack of the open containers' items in place of
    recursion (obj is the one item of a container with no brackets).  Each
    item is one piece: its head (separator, indent and key) with its leaf,
    with its whole array when every item of that is a str, int, bool or
    None, or with the bracket of the container that opens there.  Pieces
    are joined and written once `_FLUSH` of them are held when a container
    opens or closes, and at the end, so the report is never joined whole."""
    pieces: list[str] = []
    append = pieces.append
    heads_of: dict[tuple, tuple[list, list[str]]] = {}   # dict shape -> keys, heads
    # (an open container's (head, item) pairs, its items' indent, its close)
    stack = [(iter((("", obj),)), "\n", "")]
    while stack:
        items, indent, close = stack[-1]
        for head, value in items:
            if type(value) is str:
                append(head + encode_basestring_ascii(value))
                continue
            if not value or not isinstance(value, _CONTAINERS):
                append(head + _atom(value))
                continue
            inner = indent + "  "
            if isinstance(value, dict):
                shape = (indent, *value)
                got = heads_of.get(shape)
                if got is None:
                    keys = sorted(value)
                    # encode_basestring_ascii raises TypeError on a key that is no str
                    heads = ["," + inner + encode_basestring_ascii(key) + ": " for key in keys]
                    heads[0] = heads[0][1:]
                    got = heads_of[shape] = keys, heads
                keys, heads = got
                append(head + "{")
                stack.append((zip(heads, map(value.__getitem__, keys)), inner, indent + "}"))
                break
            types = set(map(type, value))
            if _SCALARS.issuperset(types):
                atom = (encode_basestring_ascii if types == _STRS
                        else int.__repr__ if types == _INTS else _atom)
                append(head + "[" + inner + ("," + inner).join(map(atom, value)) + indent + "]")
                continue
            heads = ["," + inner] * len(value)
            heads[0] = inner
            append(head + "[")
            stack.append((zip(heads, value), inner, indent + "]"))
            break
        else:
            stack.pop()
            append(close)
        if len(pieces) >= _FLUSH:
            write("".join(pieces))
            pieces.clear()
    write("".join(pieces))


def _human_summary(report: dict, stream):
    print(f"{report['command']}: {report['status']}", file=stream)
    if report["command"] == "verify-paper":
        for line in report["results"]["identities"]:
            mark = "ok " if line["holds"] else "FAIL"
            print(f"  [{mark}] {line['example']}: {line['identity']}", file=stream)


def run_command(argv) -> tuple[dict | None, int]:
    """Run one subcommand; returns (report, exit code)."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return None, 2 if e.code not in (0, None) else 0
    try:
        report = args.func(args)
    except (CliError, DslError) as e:
        print(f"error: {e}", file=sys.stderr)
        return None, 2
    return report, 0 if report["status"] == "pass" else 1


def main(argv=None) -> int:
    report, code = run_command(sys.argv[1:] if argv is None else argv)
    if report is not None:
        try:
            _write_json(report, sys.stdout.write)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (`| head`): send what is left to devnull so
            # that the interpreter's last flush cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
        if sys.stderr.isatty():
            _human_summary(report, sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
