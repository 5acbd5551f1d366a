"""Seeded workloads: generated `.form` inputs, CLI argument lists and the
oracle check that goes with each operation.

An operation is one CLI invocation.  Each workload produces its fixed
sequence in passes: pass r draws its inputs from `random.Random` seeded with
(workload, seed, r), so the same seed always gives the same inputs, and
every pass has the same composition (same commands, sizes and order) with
fresh random data, so that the op-time distribution does not depend on the
seed or on how many passes a run completes.  Nothing here imports `extforms`; form files are written
as DSL text, with `- c*...` rather than `+ -c*...` because the DSL parser
rejects a sign after a binary operator (`dx + -3*dy`: "unexpected '-'").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracles

CHOICES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(3))


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], list[str]]
    kind: str


# ---------------------------------------------------------------------------
# DSL text

def _coords(n):
    return [f"x{i}" for i in range(1, n + 1)]


def _mono_text(exps, names):
    out = []
    for name, e in zip(names, exps):
        if e == 1:
            out.append(name)
        elif e:
            out.append(f"{name}^{e}")
    return out


def _signed_pieces_text(pieces):
    """Join (negative, body) pieces as 'a - b + c'."""
    neg, body = pieces[0]
    text = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        text += (" - " if neg else " + ") + body
    return text


def poly_text(poly, names):
    if not poly:
        return "0"
    keys = sorted(poly, key=lambda e: (-sum(e), [-x for x in e]))
    pieces = []
    for exps in keys:
        c = poly[exps]
        factors = _mono_text(exps, names)
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        pieces.append((c < 0, body))
    return _signed_pieces_text(pieces)


def form_text(form, names, prefix=""):
    """A form {index tuple: polynomial or number} as DSL text, each
    coefficient multiplied by the scalar `prefix` (e.g. 'exp(g)*')."""
    pieces = []
    for idx in sorted(form):
        c = form[idx]
        wedge_txt = "/\\".join(f"d{names[i - 1]}" for i in idx)
        if not isinstance(c, dict):
            c = {(0,) * len(names): Fraction(c)}
        if not c:
            continue
        lead = sorted(c, key=lambda e: (-sum(e), [-x for x in e]))[0]
        neg = c[lead] < 0
        if neg:
            c = {k: -v for k, v in c.items()}
        if len(c) == 1 and not any(lead):
            body = "" if c[lead] == 1 else f"{c[lead]}*"
        elif len(c) == 1:
            body = f"{poly_text(c, names)}*"
        else:
            body = f"({poly_text(c, names)})*"
        pieces.append((neg, f"{prefix}{body}{wedge_txt}"))
    return _signed_pieces_text(pieces) if pieces else "0"


def _write_form_file(path: Path, names, forms):
    lines = ["coords: " + ", ".join(names)]
    lines += [f"{name} = {text}" for name, text in forms]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# random pieces

def _rand_coeff(rng):
    c = rng.choice(CHOICES)
    return -c if rng.random() < 0.5 else c


def _rand_poly(rng, n, max_deg, nterms, constant=True):
    poly = {}
    for _ in range(nterms):
        deg = rng.randint(0 if constant else 1, max_deg)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        exps = tuple(exps)
        poly[exps] = poly.get(exps, Fraction(0)) + _rand_coeff(rng)
    return {k: v for k, v in poly.items() if v}


def _rand_invertible(rng, n):
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if oracles.matrix_rank([[Fraction(x) for x in row] for row in a]) == n:
            return a


def _congruent_two_form(rng, n, p):
    """Dense integral 2-form W = A^T J_p A of rank exactly p."""
    a = _rand_invertible(rng, n)
    j = [[0] * n for _ in range(n)]
    for i in range(p):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    w = {}
    for r in range(n):
        for c in range(r + 1, n):
            v = sum(a[k][r] * j[k][m] * a[m][c] for k in range(n) for m in range(n))
            if v:
                w[(r + 1, c + 1)] = Fraction(v)
    return w


def _rand_k_form(rng, n, k):
    while True:
        f = {idx: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
             for idx in combinations(range(1, n + 1), k) if rng.random() < 0.5}
        if f:
            return f


def _stride_order(items, stride):
    """A fixed interleaving of `items` (stride coprime to the length), so that
    every prefix of the sequence mixes cheap and expensive operations."""
    m = len(items)
    while math.gcd(stride, m) != 1:
        stride += 1
    return [items[(i * stride) % m] for i in range(m)]


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, tag):
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def ops_for_pass(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        raise NotImplementedError


class LemmaSweep(Workload):
    """lemma-check over every admissible (n, p, l) with n in 5..9."""

    name = "lemma_sweep"
    TRIPLES = _stride_order([(n, p, l) for n in range(5, 10)
                             for p in range(1, n // 2 + 1)
                             for l in range(1, n - 1)], 37)

    def _op(self, n, p, l, trials, seed):
        argv = ["lemma-check", "--dim", str(n), "--rank", str(p), "--deg", str(l),
                "--trials", str(trials), "--seed", str(seed)]
        return Op(argv, partial(oracles.check_lemma, n=n, p=p, l=l, trials=trials,
                                seed=seed), "lemma-check")

    def ops_for_pass(self, r):
        rng = self.rng(r)
        return [self._op(n, p, l, 2 + i % 2, rng.randrange(10 ** 6))
                for i, (n, p, l) in enumerate(self.TRIPLES)]

    def warmup_op(self):
        return self._op(7, 2, 3, 2, self.rng("warmup").randrange(10 ** 6))


class LambdaTables(Workload):
    """lambda-report W and solve W K on dense integral 2-forms, n in 7..9."""

    name = "lambda_tables"
    # (n, p, k) in run order: every admissible (n, p) once, interleaved, with
    # the degree k of the solve's K chosen so that the op times (solve grows
    # with k, lambda-report with n and p) leave no gap at the median: with
    # k = 2 at (8, 2) the two middle ops were 53 and 69 ms apart and
    # op_ms.p50 spread 12 % over ten seeds.
    SLOTS = ((7, 1, 1), (8, 2, 3), (9, 2, 3), (7, 2, 1), (8, 3, 2), (9, 3, 3),
             (7, 3, 1), (8, 4, 2), (9, 4, 3), (8, 1, 1), (9, 1, 2))

    def _instance(self, rng, path: Path, n, p, k):
        w = _congruent_two_form(rng, n, p)
        while True:
            kappa = oracles.wedge(w, _rand_k_form(rng, n, k))
            if kappa:
                break
        names = _coords(n)
        _write_form_file(path, names, [("W", form_text(w, names)),
                                       ("K", form_text(kappa, names))])
        ref = path.as_posix()
        return [
            Op(["lambda-report", f"{ref}#W"],
               partial(oracles.check_lambda_report, n=n, p=p), "lambda-report"),
            Op(["solve", f"{ref}#W", f"{ref}#K"],
               partial(oracles.check_solve, omega=w, kappa=kappa, n=n, p=p, k=k), "solve"),
        ]

    def ops_for_pass(self, r):
        rng = self.rng(r)
        ops = []
        for i, (n, p, k) in enumerate(self.SLOTS):
            ops += self._instance(rng, self.workdir / f"lt_{r}_{i}.form", n, p, k)
        return ops

    def warmup_op(self):
        return self._instance(self.rng("warmup"), self.workdir / "lt_warmup.form", 8, 3, 2)[0]


# the demo form library that the README's command examples run on, relative
# to the repository root (the working directory of every operation)
LIBRARY = "demos/sample_library.form"


def _library_lee_expectations(axes):
    """omega0 = e^f dx1^dx2 + dy1^dy2 with f = x1*y1 + x2*y2 and
    beta0 = x1*dy1 + x2*dy2: rank 2 everywhere, unique solution beta0(p)."""
    out = {}
    for pt in oracles.grid_points(axes):
        x1, x2, y1, y2 = pt
        f = x1 * y1 + x2 * y2
        e = Fraction(1) if f == 0 else math.exp(float(f))
        omega = {(1, 2): e, (3, 4): Fraction(1)}
        beta = {k: v for k, v in {(3,): x1, (4,): x2}.items() if v}
        df = {(1,): y1, (2,): y2, (3,): x1, (4,): x2}
        kappa = oracles.wedge({k: v for k, v in df.items() if v}, {(1, 2): e})
        out[pt] = {"rank": 2, "omega": omega, "kappa": kappa, "beta": beta,
                   "exact": f == 0}
    return out


def library_ops() -> list[Op]:
    """The README's demo commands (all but lemma-check) on the demo library."""
    ref = LIBRARY
    default = [oracles.grid_axis(Fraction(-1), Fraction(1), 3)] * 4
    lee_axes = [oracles.grid_axis(Fraction(0), Fraction(1), 2)] + default[1:]
    classify_expect = {pt: {"rank": 2, "dbeta_rank": 2, "omega_zero": False}
                       for pt in oracles.grid_points(default)}
    omega4 = {(1, 2): Fraction(1), (3, 4): Fraction(1)}
    return [
        Op(["rank", f"{ref}#Omega4"],
           partial(oracles.check_rank, n=4, p=2, omega=omega4), "rank"),
        Op(["solve", f"{ref}#Omega4", f"{ref}#kappa123"],
           partial(oracles.check_solve, omega=omega4, kappa={(1, 2, 3): Fraction(1)},
                   n=4, p=2, k=1), "solve"),
        Op(["lee", f"{ref}#omega0", "--beta", f"{ref}#beta0"],
           oracles.check_lee_beta, "lee-beta"),
        Op(["lee", f"{ref}#omega0", "--grid", "x1=0:1:2"],
           partial(oracles.check_lee_grid, n=4,
                   expected=_library_lee_expectations(lee_axes)), "lee-grid"),
        Op(["classify", f"{ref}#omega0", f"{ref}#beta0"],
           partial(oracles.check_classify, expected=classify_expect), "classify"),
        Op(["lambda-report", f"{ref}#Omega4"],
           partial(oracles.check_lambda_report, n=4, p=2), "lambda-report"),
        Op(["verify-paper"], oracles.check_verify_paper, "verify-paper"),
    ]


class LeeGrid(Workload):
    """lee --beta, lee --grid, classify --grid and rank --point on
    omega = exp(g)*d(theta), n in {4, 6}, plus the README demo commands on
    the demo library.

    rank --point runs at the origin only, where g = 0 and the values are
    exact.  At float points `wedge_solver.rank2` misjudges forms with small
    coefficients, because its tolerance has an absolute floor: it reports
    rank 2 for exp(-9)*(dx1/\\dx2 + dx3/\\dx4 + dx5/\\dx6) at any point.
    """

    name = "lee_grid"
    # grid counts per coordinate; every axis contains 0, so g = 0 at some points
    GRIDS = {4: (3, 3, 3, 3), 6: (3, 3, 2, 2, 2, 2)}
    # One n = 6 instance per pass: its grid ops (about 220 ms) are the top
    # 4 % of ops, so the 90th percentile falls inside the n = 4 grid ops rather
    # than on the edge between the two sizes (with two n = 6 instances the
    # top class is 9 % and op_ms.p90 spread 13 % over ten seeds).
    SLOTS = (4, 6, 4, 4)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.library_ops = library_ops()

    def _instance(self, rng, path: Path, n):
        names = _coords(n)
        while True:
            g = _rand_poly(rng, n, 2, rng.randint(2, 3), constant=False)
            theta = [_rand_poly(rng, n, 2, rng.randint(0, 3)) for _ in range(n)]
            dtheta = {}
            for i, j in combinations(range(n), 2):
                c = oracles.poly_sub(oracles.poly_diff(theta[j], i),
                                     oracles.poly_diff(theta[i], j))
                if c:
                    dtheta[(i + 1, j + 1)] = c
            if g and dtheta:
                break
        dg = {(i + 1,): oracles.poly_diff(g, i) for i in range(n)}
        dg = {k: v for k, v in dg.items() if v}
        prefix = f"exp({poly_text(g, names)})*"
        _write_form_file(path, names, [("omega", form_text(dtheta, names, prefix)),
                                       ("beta", form_text(dg, names))])
        specs, axes = [], []
        for name, count in zip(names, self.GRIDS[n]):
            lo, hi = (Fraction(-1), Fraction(1)) if count == 3 else (Fraction(0), Fraction(1))
            specs += ["--grid", f"{name}={lo}:{hi}:{count}"]
            axes.append(oracles.grid_axis(lo, hi, count))

        def at_point(pt):
            at = {idx: oracles.poly_eval(c, pt) for idx, c in dtheta.items()}
            at = {k: v for k, v in at.items() if v}
            gp = oracles.poly_eval(g, pt)
            e = Fraction(1) if gp == 0 else math.exp(float(gp))
            return {k: e * v for k, v in at.items()}, oracles.skew_rank(at, n) // 2, gp

        lee_expect, classify_expect = {}, {}
        for pt in oracles.grid_points(axes):
            omega, rank, gp = at_point(pt)
            beta = {k: oracles.poly_eval(c, pt) for k, c in dg.items()}
            beta = {k: v for k, v in beta.items() if v}
            lee_expect[pt] = {"rank": rank, "omega": omega, "beta": beta,
                              "kappa": oracles.wedge(beta, omega), "exact": gp == 0}
            classify_expect[pt] = {"rank": rank, "dbeta_rank": 0, "omega_zero": not omega}
        ref = path.as_posix()
        omega, rank, _ = at_point((Fraction(0),) * n)
        return [
            Op(["rank", f"{ref}#omega", "--point", ",".join(f"{c}=0" for c in names)],
               partial(oracles.check_rank, n=n, p=rank, omega=omega), "rank-point"),
            Op(["lee", f"{ref}#omega", "--beta", f"{ref}#beta"],
               oracles.check_lee_beta, "lee-beta"),
            Op(["lee", f"{ref}#omega"] + specs,
               partial(oracles.check_lee_grid, n=n, expected=lee_expect), "lee-grid"),
            Op(["classify", f"{ref}#omega", f"{ref}#beta"] + specs,
               partial(oracles.check_classify, expected=classify_expect), "classify"),
        ]

    def ops_for_pass(self, r):
        rng = self.rng(r)
        ops = []
        for i, n in enumerate(self.SLOTS):
            # one generated instance's ops, then two library ops
            ops += self._instance(rng, self.workdir / f"lg_{r}_{i}.form", n)
            ops += self.library_ops[2 * i: 2 * i + 2]
        return ops

    def warmup_op(self):
        return self._instance(self.rng("warmup"), self.workdir / "lg_warmup.form", 4)[2]


WORKLOADS = {w.name: w for w in (LemmaSweep, LambdaTables, LeeGrid)}
