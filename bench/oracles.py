"""Reference mathematics and report checks for the benchmark.

Nothing here imports `extforms`: forms are plain dicts from index tuples
(strictly increasing, 1-based) to Fraction or float, polynomials are dicts
from exponent tuples to Fraction, and every expected value is derived from
first principles (naive wedge by inversion counting, Gaussian elimination,
the linear Lefschetz count).  Each `check_*` function takes a parsed CLI
report and returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# polynomials: {exponent tuple: Fraction}

def poly_eval(poly, point):
    total = Fraction(0)
    for exps, c in poly.items():
        v = c
        for e, x in zip(exps, point):
            v *= x ** e
        total += v
    return total


def poly_diff(poly, i):
    out = {}
    for exps, c in poly.items():
        if exps[i]:
            d = list(exps)
            d[i] -= 1
            d = tuple(d)
            out[d] = out.get(d, Fraction(0)) + c * exps[i]
    return {k: v for k, v in out.items() if v}


def poly_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) - v
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# exterior algebra on index tuples

def _inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


def wedge(a, b):
    """Wedge of two forms given as {index tuple: coefficient}."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if set(ia) & set(ib):
                continue
            seq = ia + ib
            sign = -1 if _inversions(seq) % 2 else 1
            key = tuple(sorted(seq))
            out[key] = out.get(key, 0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0}


def skew_rank(two_form, n):
    """Rank of the n x n skew matrix of an exact 2-form (always even)."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in two_form.items():
        m[i - 1][j - 1] = Fraction(c)
        m[j - 1][i - 1] = -Fraction(c)
    return matrix_rank(m)


def matrix_rank(rows):
    """Rank by plain rational Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def lefschetz_kernel_dim(n, p, l):
    """dim ker(beta -> Omega ^ beta) on l-forms for a 2-form of rank p in
    dimension n: sum_s max(0, C(2p,s) - C(2p,s+2)) * C(n-2p, l-s)."""
    total = 0
    for s in range(0, min(l, 2 * p) + 1):
        if l - s > n - 2 * p:
            continue
        total += max(0, math.comb(2 * p, s) - math.comb(2 * p, s + 2)) \
            * math.comb(n - 2 * p, l - s)
    return total


def grid_axis(lo, hi, count):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def grid_points(axes):
    """All points of a product grid given one axis (list of values) per coordinate."""
    return [tuple(p) for p in product(*axes)]


# ---------------------------------------------------------------------------
# report parsing

def parse_coeff(text):
    """A reported coefficient: exact rationals stay Fractions, floats stay floats."""
    if any(ch in text for ch in ".eEn"):
        return float(text)
    return Fraction(text)


def parse_form(terms):
    return {tuple(t["index"]): parse_coeff(t["coeff"]) for t in terms}


def _is_exact(form):
    return all(isinstance(c, Fraction) for c in form.values())


def _close(got, want, scale):
    keys = set(got) | set(want)
    tol = REL_TOL * max(1.0, scale)
    return all(abs(float(got.get(k, 0)) - float(want.get(k, 0))) <= tol for k in keys)


def _max_abs(form):
    return max((abs(float(c)) for c in form.values()), default=0.0)


def _head(report, command, problems):
    if not isinstance(report, dict):
        problems.append("no JSON report")
        return False
    if report.get("command") != command:
        problems.append(f"command {report.get('command')!r} != {command!r}")
    if report.get("status") != "pass":
        problems.append(f"status {report.get('status')!r}")
    return True


# ---------------------------------------------------------------------------
# checks

def check_lemma(report, n, p, l, trials, seed):
    problems = []
    if not _head(report, "lemma-check", problems):
        return problems
    want_inputs = {"dim": n, "rank": p, "deg": l, "trials": trials, "seed": seed}
    if report["inputs"] != want_inputs:
        problems.append(f"inputs {report['inputs']} != {want_inputs}")
    res = report["results"]
    if res.get("all_bounds_hold") is not True:
        problems.append("all_bounds_hold is not true")
    rows = res.get("trials", [])
    if len(rows) != trials:
        problems.append(f"{len(rows)} trial rows, expected {trials}")
    kdim = lefschetz_kernel_dim(n, p, l)
    top = min(l, 2 * p)
    for row in rows:
        t = row.get("trial")
        if row.get("violation") is not False:
            problems.append(f"trial {t}: violation reported")
            continue
        if row["kernel_dim"] != kdim:
            problems.append(f"trial {t}: kernel_dim {row['kernel_dim']} != Lefschetz {kdim}")
        if kdim == 0:
            if row["min_main_degree"] is not None or row["histogram"]:
                problems.append(f"trial {t}: trivial kernel but degrees reported")
            continue
        low = row["min_main_degree"]
        if low is None or not p <= low <= top:
            problems.append(f"trial {t}: min_main_degree {low} outside [{p}, {top}]")
        for s, count in row["histogram"]:
            if not p <= s <= top or count < 1:
                problems.append(f"trial {t}: histogram entry {(s, count)} invalid")
    return problems


def check_rank(report, n, p, omega):
    """`omega` is the exact 2-form at the point and p its rank."""
    problems = []
    if not _head(report, "rank", problems):
        return problems
    res = report["results"]
    if res.get("rank") != p:
        problems.append(f"rank {res.get('rank')} != {p}")
    if not omega:
        if res.get("kernel") != "whole space":
            problems.append("zero form without a whole-space kernel")
        return problems
    basis = res.get("kernel_basis", [])
    if res.get("kernel_dim") != n - 2 * p or len(basis) != n - 2 * p:
        problems.append(f"kernel_dim {res.get('kernel_dim')} != {n - 2 * p}")
    for j, v in enumerate(basis):
        v = [parse_coeff(c) for c in v]
        contracted = {}      # i_v omega = sum over i<j of c (v_i a_j - v_j a_i)
        for (a, b), c in omega.items():
            contracted[b] = contracted.get(b, 0) + c * v[a - 1]
            contracted[a] = contracted.get(a, 0) - c * v[b - 1]
        if not any(v) or any(contracted.values()):
            problems.append(f"kernel basis vector {j} is not a nonzero kernel vector")
    return problems


def check_lambda_report(report, n, p):
    problems = []
    if not _head(report, "lambda-report", problems):
        return problems
    res = report["results"]
    if res.get("rank") != p:
        problems.append(f"rank {res.get('rank')} != {p}")
    rows = res.get("rows", [])
    if [r.get("k") for r in rows] != list(range(n - 1)):
        problems.append("rows do not cover k = 0..n-2")
        return problems
    for r in rows:
        k = r["k"]
        dom, cod = math.comb(n, k), math.comb(n, k + 2)
        ker = lefschetz_kernel_dim(n, p, k)
        want = {"k": k, "dim_domain": dom, "dim_codomain": cod, "rank": dom - ker,
                "dim_kernel": ker, "dim_cokernel": cod - dom + ker,
                "injective": ker == 0, "surjective": dom - ker == cod}
        if r != want:
            problems.append(f"row k={k}: {r} != {want}")
    return problems


def check_solve(report, omega, kappa, n, p, k):
    problems = []
    if not _head(report, "solve", problems):
        return problems
    res = report["results"]
    if res.get("solvable") is not True or res.get("particular") is None:
        problems.append("not reported solvable")
        return problems
    part = parse_form(res["particular"])
    if not _is_exact(part) or any(len(i) != k for i in part):
        problems.append("particular solution is not an exact k-form")
    elif wedge(omega, part) != kappa:
        problems.append("omega ^ particular != kappa")
    kdim = lefschetz_kernel_dim(n, p, k)
    basis = res.get("kernel_basis", [])
    if res.get("kernel_dim") != kdim or len(basis) != kdim:
        problems.append(f"kernel_dim {res.get('kernel_dim')} != Lefschetz {kdim}")
    for j, b in enumerate(basis):
        b = parse_form(b)
        if not b or not _is_exact(b) or wedge(omega, b):
            problems.append(f"kernel basis element {j} is not a nonzero exact kernel element")
    return problems


def check_lee_beta(report):
    problems = []
    if not _head(report, "lee", problems):
        return problems
    res = report["results"]
    if res.get("holds") is not True or res.get("residual") != "0":
        problems.append("d omega = beta ^ omega not verified")
    return problems


def _point_key(strings):
    return tuple(Fraction(s) for s in strings)


def check_lee_grid(report, n, expected):
    """`expected` maps each grid point to a dict with keys rank, omega, kappa,
    beta (the unique solution where rank >= 2) and exact (whether the point
    must be reported in exact rationals)."""
    problems = []
    if not _head(report, "lee", problems):
        return problems
    res = report["results"]
    if res.get("consistent") is not True:
        problems.append("not consistent")
    if report["inputs"].get("grid_points") != len(expected):
        problems.append(f"grid_points {report['inputs'].get('grid_points')} != {len(expected)}")
    points = res.get("points", [])
    seen = set()
    for row in points:
        key = _point_key(row["point"])
        seen.add(key)
        want = expected.get(key)
        if want is None:
            problems.append(f"unexpected point {row['point']}")
            continue
        where = f"point {row['point']}"
        r = want["rank"]
        if row.get("rank_omega") != r:
            problems.append(f"{where}: rank_omega {row.get('rank_omega')} != {r}")
        if row.get("kernel_dim") != lefschetz_kernel_dim(n, r, 1):
            problems.append(f"{where}: kernel_dim {row.get('kernel_dim')} != "
                            f"{lefschetz_kernel_dim(n, r, 1)}")
        if row.get("solvable") is not True or row.get("beta") is None:
            problems.append(f"{where}: not solvable")
            continue
        beta = parse_form(row["beta"])
        if want["exact"] and not _is_exact(beta):
            problems.append(f"{where}: float coefficients where exact expected")
            continue
        if _is_exact(beta) and _is_exact(want["omega"]):
            residual_ok = wedge(want["omega"], beta) == want["kappa"]
        else:
            lhs = wedge(want["omega"], beta)
            scale = max(_max_abs(want["kappa"]),
                        _max_abs(want["omega"]) * _max_abs(beta))
            residual_ok = _close(lhs, want["kappa"], scale)
        if not residual_ok:
            problems.append(f"{where}: omega ^ beta != d omega")
        if r >= 2:
            if _is_exact(beta):
                ok = beta == want["beta"]
            else:
                ok = _close(beta, want["beta"], _max_abs(want["beta"]))
            if not ok:
                problems.append(f"{where}: beta {row['beta']} != dg(p)")
    if seen != set(expected):
        problems.append(f"{len(set(expected) - seen)} grid points missing")
    return problems


def check_classify(report, expected):
    """`expected` maps each grid point to a dict with keys rank, dbeta_rank and
    omega_zero (whether omega vanishes there)."""
    problems = []
    if not _head(report, "classify", problems):
        return problems
    if report["inputs"].get("grid_points") != len(expected):
        problems.append("grid_points mismatch")
    res = report["results"]
    counts = {"a_points": 0, "b_points": 0, "c_points": 0}
    seen = set()
    for row in res.get("points", []):
        key = _point_key(row["point"])
        seen.add(key)
        want = expected.get(key)
        if want is None:
            problems.append(f"unexpected point {row['point']}")
            continue
        r = want["rank"]
        in_a = r > 2
        in_b = want["dbeta_rank"] > 0 and not want["omega_zero"]
        in_c = r <= 1
        counts["a_points"] += in_a
        counts["b_points"] += in_b
        counts["c_points"] += in_c
        got = (row["r_omega"], row["d_beta_rank"], row["in_A"], row["in_B"], row["in_C"])
        if got != (r, want["dbeta_rank"], in_a, in_b, in_c):
            problems.append(f"point {row['point']}: {got} != "
                            f"{(r, want['dbeta_rank'], in_a, in_b, in_c)}")
    if seen != set(expected):
        problems.append("grid points missing")
    verdict = res.get("verdict", {})
    for key, value in counts.items():
        if verdict.get(key) != value:
            problems.append(f"verdict {key} {verdict.get(key)} != {value}")
    for flag in ("dbeta_zero_on_A", "rank_bounds_on_B", "a_b_disjoint"):
        if verdict.get(flag) is not True:
            problems.append(f"verdict {flag} is not true")
    return problems


def check_verify_paper(report):
    problems = []
    if not _head(report, "verify-paper", problems):
        return problems
    lines = report["results"].get("identities", [])
    if len(lines) != 8 or not all(line.get("holds") is True for line in lines):
        problems.append("worked-example identities do not all hold")
    return problems
