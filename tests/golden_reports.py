"""Pinned reports: the sha256 and exit code of the stdout of each
exact-valued README command on demos/sample_library.form, of a few more
commands, and the sha256 of the stdout of the two exact demo scripts.

`tests/test_cli.py` checks them under pytest.  With no pytest, run

    PYTHONPATH=src python tests/golden_reports.py

from the repository root, under any supported interpreter; it runs every
command and demo in one process, prints one line each and exits 1 on a
mismatch.
`lee --grid` with a nonzero exponent is pinned on forms whose Lee form is
certified once and read off exactly at each point: one exponential per
point (demos/conformal_grid.form), and the demo omega0, whose two
exponentials give beta0 = x1 dy1 + x2 dy2 by Cramer's rule.  No pinned
report holds a float: floats come from math.exp, and their bytes may
differ between machines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB = "demos/sample_library.form"
CONFORMAL = "demos/conformal_grid.form"

# argv -> (exit code, sha256 of stdout); run from ROOT, since each report
# holds its form references as given
GOLDEN = {
    ("rank", f"{LIB}#Omega4"): (
        0, "29de3f46c8887ea5eb0122129e5a0d69aea3314bed838b6054e5752e2b495910"),
    ("solve", f"{LIB}#Omega4", f"{LIB}#kappa123"): (
        0, "47de1765f9fd022ed8da8a72b5d5e8c3699ef0594f8b1b460c11f6f752162582"),
    ("lee", f"{LIB}#omega0", "--beta", f"{LIB}#beta0"): (
        0, "2f0fe114a2b7334b1cf2ad71f8ea900f9e54d9f3f38da63443e9fb4a140ac937"),
    # x1 = x2 = 0, so x1*y1 + x2*y2 = 0 at all 9 points
    ("lee", f"{LIB}#omega0", "--grid", "x1=0:0:1", "--grid", "x2=0:0:1"): (
        0, "09012ba6676f3ed84b96a5b4b61cc3c8e0e6cb4fe67b6b2a877aed8a6df64f08"),
    # the README's grid, 54 points, most with e^(x1*y1 + x2*y2) != 1: beta0
    # is read off at each (tests/omega0_grid_float_beta.json holds the float
    # solve that this report replaced)
    ("lee", f"{LIB}#omega0", "--grid", "x1=0:1:2"): (
        0, "23cd5e5ac6a9c5debdac06da310638e34226b3039d67915f50664d141e5e83f0"),
    ("classify", f"{LIB}#omega0", f"{LIB}#beta0"): (
        0, "14db05ca745501bd8ce1eda028335b63e0839afc5913815fac39a50985419293"),
    ("lemma-check", "--dim", "6", "--rank", "2", "--deg", "3", "--trials", "20",
     "--seed", "0"): (
        0, "b8dedc93fc4965c325b606f5462fadad2c619a76fda5a34d6fca1187990de0ea"),
    ("lambda-report", f"{LIB}#Omega4"): (
        0, "6da3856986d41ec886b09ae0c0b3094e4117dc55c5da773251fb52a4698ceedd"),
    # a degenerate block: dx1/\dx2 on R^4, nb = 2
    ("lambda-report", f"{LIB}#plane"): (
        0, "ab132f0812568d38caab46f1cb115db947b39b180eb421a210e1b370a3d1bc65"),
    # layers s = 2, 3, 4 with several blocks each, so the order of the
    # random draws shows in the sampled histograms
    ("lemma-check", "--dim", "9", "--rank", "2", "--deg", "4", "--trials", "3",
     "--seed", "5"): (
        0, "14c358138d379096f2f34eaf47ecaa493f6877a9cad9aa47f704d5fa23b1b9c9"),
    # rank 4 on R^9: the ranks of the 9 x 9 draws, and of lambda^3 (56 x 56)
    # and lambda^4 (28 x 70) of the 8-dimensional block, are full, so each is
    # certified modulo linalg's prime
    ("lemma-check", "--dim", "9", "--rank", "4", "--deg", "4", "--trials", "3",
     "--seed", "5"): (
        0, "5c0f9dc2aea1a63e0b6bfd9522b658528537835dcbf0b3c893c60988ef096c74"),
    ("verify-paper",): (
        0, "76443cf966f148e6e614dc52342e4211a114a934b90fa5a3ec4ada6b3e2c37bb"),
    # omega = e^g * d(theta): g = x1*y1 + x2*y2 is nonzero at most of the 54
    # points, and each is solved in exact rationals
    ("lee", f"{CONFORMAL}#omega", "--grid", "x1=0:1:2"): (
        0, "638d25583d209c1b6846089e6b5540600f31d871bc3255209446e16628c71ceb"),
    # the default 81-point grid, x1..y2 in {-1, 0, 1}: beta = dg is read off
    # at the 54 points of rank 2 and solved by elimination on the rank-1
    # plane y1 = 0
    ("lee", f"{CONFORMAL}#omega"): (
        0, "dc10cc99f312af207a08f58281cd7e820eade1027c6dbecf1942012265488340"),
    ("classify", f"{CONFORMAL}#omega", f"{CONFORMAL}#beta"): (
        0, "5a30e01d3aea3790f6f34d273f0d21d5e774633521f375ccc659cb1818e2393a"),
    # no Lee form: at x1 = 0 the rank is 1 and no beta solves the point, at
    # x1 = 1 beta = dx1; the report is inconsistent and exits 1
    ("lee", f"{CONFORMAL}#nolee", "--grid", "x1=0:1:2", "--grid", "x2=0:0:1",
     "--grid", "y1=0:0:1", "--grid", "y2=0:0:1"): (
        1, "c4997627b358787161db04d6661d5004c1958516ff3ff3ca734e20a39f9ff4d3"),
}

# demo script -> sha256 of its stdout; both are exact and import no numpy
DEMOS = {
    "demos/two_form_kernels.py":
        "bb93f4880cde5537bebf787cc2129e0738511624816a7da6071559a0cac407ef",
    "demos/exterior_basics.py":
        "6df419117bcc06e716e118d6bdf61efaa179a513b29d259416f26a4ff513414e",
}


def report_digest(argv) -> tuple[int, str]:
    """Exit code and sha256 of stdout of one in-process `extforms` call."""
    from extforms.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def demo_digest(path: str) -> str:
    """sha256 of the stdout of one demo script, run in-process as __main__."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / path), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    os.chdir(ROOT)
    failed = 0
    for argv, want in GOLDEN.items():
        got = report_digest(argv)
        failed += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} {' '.join(argv)}: exit {got[0]}, {got[1]}")
    for path, want in DEMOS.items():
        got = demo_digest(path)
        failed += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} {path}: {got}")
    total = len(GOLDEN) + len(DEMOS)
    print(f"python {sys.version.split()[0]}: {total - failed} of {total} reports match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
