"""Pinned reports: the sha256 and exit code of the stdout of each
exact-valued README command on demos/sample_library.form.

`tests/test_cli.py` checks them under pytest.  With no pytest, run

    PYTHONPATH=src python tests/golden_reports.py

from the repository root, under any supported interpreter; it runs every
command in one process, prints one line each and exits 1 on a mismatch.
`lee --grid` is pinned only on a grid where every exponential is e^0, so
the report is exact; elsewhere its floats come from math.exp, and its bytes
may differ between machines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB = "demos/sample_library.form"

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
    ("classify", f"{LIB}#omega0", f"{LIB}#beta0"): (
        0, "14db05ca745501bd8ce1eda028335b63e0839afc5913815fac39a50985419293"),
    ("lemma-check", "--dim", "6", "--rank", "2", "--deg", "3", "--trials", "20",
     "--seed", "0"): (
        0, "b8dedc93fc4965c325b606f5462fadad2c619a76fda5a34d6fca1187990de0ea"),
    ("lambda-report", f"{LIB}#Omega4"): (
        0, "6da3856986d41ec886b09ae0c0b3094e4117dc55c5da773251fb52a4698ceedd"),
    ("verify-paper",): (
        0, "76443cf966f148e6e614dc52342e4211a114a934b90fa5a3ec4ada6b3e2c37bb"),
}


def report_digest(argv) -> tuple[int, str]:
    """Exit code and sha256 of stdout of one in-process `extforms` call."""
    from extforms.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    os.chdir(ROOT)
    failed = 0
    for argv, want in GOLDEN.items():
        got = report_digest(argv)
        failed += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} {' '.join(argv)}: exit {got[0]}, {got[1]}")
    print(f"python {sys.version.split()[0]}: {len(GOLDEN) - failed} of {len(GOLDEN)} reports match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
