"""A/B runs of bench/run.py: a base checkout against this tree, alternating.

Run from the repository root:

    git archive <base-rev> | tar -x -C <base-dir>      # once
    python3 tools/bench_ab.py --base <base-dir> --base-rev <base-rev> \
        --run lambda_tables:9601-9610 --run lemma_sweep:9701-9704 \
        --seconds 30 --traced-seconds 10 --out BENCH_7.json

For each `--run WORKLOAD:SEEDS` (SEEDS as `a-b` or `a,b,c`) it runs
`bench/run.py --trace 0` once per seed on each side, the two sides of a
pair back to back and the side that goes first alternating from pair to
pair, so a drift of the machine's speed hits both sides alike.  Each run
reads the full result file that bench/run.py leaves in its checkout's
`.bench_results/`.  With `--traced-seconds`, each workload also gets three
`--trace 1` runs per side at its first seed, alternating as above: the
per-layer self times and cells, and the inclusive time of each `--subtree`
function (from the recorded spans), per `cli.main` call, as the median,
min and max over the three runs.  A traced run lasts a fixed time, so the
two sides cover different prefixes of the op sequence; the spread of three
runs shows how far that moves a value.

Both sides run from fresh copies of their trees, made at the start and
holding no `__pycache__` directory, `.git` or earlier bench results: this
tree may hold bytecode caches that a `git archive` base lacks, and with
PYTHONDONTWRITEBYTECODE=1 only the side that has them would load cached
bytecode, which shows in cold start and set-up time.

Each side also runs `pytest -s tests/test_acceptance.py` once, and each
criterion's `[PASS] criterion N: name (X s, limit Y s)` line becomes a row
with its seconds against its limit and the headroom in %.

The output JSON holds the environment, the seeds, for each side and each
workload the median and quartiles of the six gated end-to-end metrics,
the pairs the change won, the stdout_sha256 of every run, the traced
values, the criterion rows and `wc -l src/extforms/*.py` of both sides.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3
# left out of each side's copy: no side starts with bytecode or old results
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".bench_*", ".pytest_cache")
CRITERION_RE = re.compile(
    r"\[(PASS|FAIL)\] criterion (\d+): (.*) \(([\d.]+)s, limit ([\d.]+)s\)")


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    path = tree / ".bench_results" / f"{workload}-s{seed}-t{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _line_counts(tree: Path) -> dict[str, int]:
    files = sorted((tree / "src" / "extforms").glob("*.py"))
    counts = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in files}
    counts["total"] = sum(counts.values())
    return counts


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def _compare(spec_metrics, runs_base, runs_change) -> dict:
    out = {}
    for m in spec_metrics:
        name = m["name"]
        base = [r["metrics"][name] for r in runs_base]
        change = [r["metrics"][name] for r in runs_change]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        sb, sc = _summary(base), _summary(change)
        out[name] = {"better": m["better"], "bound": m["bound"], "base": sb, "change": sc,
                     "change_wins": wins, "pairs": len(base),
                     "median_change": sc["median"] / sb["median"] - 1,
                     "base_iqr": sb["q3"] - sb["q1"]}
    return out


def _per_call(tree: Path, run: dict, wanted, subtrees) -> dict:
    """Per-layer self times and cells per cli.main call, and the inclusive
    time of each subtree root per cli.main call, from the recorded spans."""
    calls = run["metrics"]["cli.main.calls"]
    out = {"cli.main.calls": calls,
           **{m["name"]: run["metrics"][m["name"]] / calls for m in wanted
              if m["name"].endswith(".self_s") or m["name"] == "linalg.cells"}}
    inclusive = dict.fromkeys(subtrees, 0.0)
    mains = 0
    with gzip.open(tree / run["spans_file"], "rt", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                span = json.loads(line)
                mains += span["name"] == "cli.main"
                if span["name"] in inclusive:
                    inclusive[span["name"]] += span["end"] - span["start"]
    out.update({f"{name}.inclusive_s": v / mains for name, v in inclusive.items()})
    return out


def _spread(runs: list[dict]) -> dict:
    """Median, min and max of each per-call value over the traced runs."""
    return {key: {"median": statistics.median(r[key] for r in runs),
                  "min": min(r[key] for r in runs), "max": max(r[key] for r in runs)}
            for key in runs[0]}


def _criteria(tree: Path) -> list[dict]:
    """One run of the acceptance tests in a tree: each criterion's seconds
    against its limit, with the headroom in %."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
                           "tests/test_acceptance.py"],
                          cwd=tree, env=env, capture_output=True, text=True)
    rows = []
    for verdict, number, name, seconds, limit in CRITERION_RE.findall(proc.stdout):
        seconds, limit = float(seconds), float(limit)
        rows.append({"criterion": int(number), "name": name, "verdict": verdict,
                     "seconds": seconds, "limit_s": limit,
                     "headroom_pct": round(100 * (1 - seconds / limit), 1)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True,
                    help="checkout of the base revision, outside this tree")
    ap.add_argument("--base-rev", required=True, help="the revision --base holds")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEEDS")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--traced-seconds", type=float, default=0)
    ap.add_argument("--subtree", action="append", default=[], metavar="NAME",
                    help="traced function whose inclusive time to report")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    copies = tempfile.TemporaryDirectory(prefix="bench_ab-")
    sides = {}
    for side, tree in (("base", args.base.resolve()), ("change", ROOT)):
        sides[side] = Path(copies.name) / side
        shutil.copytree(tree, sides[side], ignore=NOT_COPIED)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    result = {"base_rev": args.base_rev, "change": f"working tree on {head}",
              "seconds": args.seconds, "order": "alternating, base first in even pairs",
              "src_lines": {side: _line_counts(tree) for side, tree in sides.items()},
              "workloads": {}}
    for run_spec in args.run:
        workload, seed_spec = run_spec.split(":")
        seeds = _seeds(seed_spec)
        runs = {"base": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                runs[side].append(_bench(sides[side], workload, seed, args.seconds, 0))
                print(f"{workload} seed {seed} {side}: ops_per_s.norm "
                      f"{runs[side][-1]['metrics']['ops_per_s.norm']:.2f}", file=sys.stderr)
        row = {"seeds": seeds,
               "metrics": _compare(spec["end_to_end"], runs["base"], runs["change"]),
               "stdout_sha256": {side: [r["stdout_sha256"] for r in rs]
                                 for side, rs in runs.items()},
               "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}}
        row["stdout_identical"] = (row["stdout_sha256"]["base"]
                                   == row["stdout_sha256"]["change"])
        if args.traced_seconds:
            traced = {"base": [], "change": []}
            for i in range(TRACED_RUNS):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    run = _bench(sides[side], workload, seeds[0], args.traced_seconds, 1)
                    traced[side].append(_per_call(sides[side], run, spec["per_layer"],
                                                  args.subtree))
            row["traced_per_cli_call"] = {side: _spread(rs) for side, rs in traced.items()}
        result["workloads"][workload] = row
        result["environment"] = dict(runs["change"][-1]["environment"],
                                     trees="fresh copies without __pycache__, .git "
                                           "or bench results")
    result["criteria"] = {side: _criteria(tree) for side, tree in sides.items()}
    copies.cleanup()
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
