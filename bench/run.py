"""extforms benchmark: seeded CLI workloads with oracle-checked outputs.

Run from the repository root:

    python3 bench/run.py --workload lemma_sweep --seed 1 --seconds 30 --trace 0

One process and one client in a closed loop: each operation is one call of
the public entry point `extforms.cli.main(argv)` with stdout captured, and
the next call starts when the previous one has returned and its report has
been checked against the benchmark's own oracles (`oracles.py`).  Workloads
(`workloads.py`):

- lemma_sweep: `lemma-check` over every admissible (n, p, l), n in 5..9:
  many small exact matrices in wedge_solver, subspace and randgen.
- lambda_tables: `lambda-report` and `solve` on dense integral 2-forms,
  n in 7..9: few large fraction-free eliminations in linalg.
- lee_grid: `lee --beta`, `lee --grid`, `classify --grid` and
  `rank --point` on exp(g)*d(theta), n in {4, 6}, plus the README demo
  commands: the only workload that drives symbolic and dsl, on exact and
  float grid points.

With `--trace 0` the run reports the end-to-end metrics, measured untraced,
then times fresh interpreters running the README demo commands (the cold
start).  Every timing is taken twice over: as raw wall time (`ops_per_s`,
`op_ms.p50`, `op_ms.p90`, `cold_start_ms`, `setup_s.raw`) and rescaled to a
nominal machine speed (`*.norm`, and `setup_s`) by a fixed reference timed
next to it, because the effective CPU speed of a shared virtual machine
drifts between runs by more than any useful regression bound.
BENCHMARK.json gates the rescaled figures; the raw ones are printed beside
them.  Every run first sets up SETUP_REPEATS times, each time in a fresh
interpreter (`setup_once.py`), and reports the median as `setup_s`; it
includes the imports of extforms and, on lee_grid, of numpy.  The timed loop
runs for `--seconds` and on until MIN_OPS ops have been timed.  `--trace 1`
runs the same sequence for half of `--seconds` with every public `extforms`
function wrapped (`tracer.py`), replays those ops untraced to give the
tracing overhead, profiles them with cProfile for a quarter of `--seconds`,
and reports the per-layer metrics.

The last stdout line is one JSON object `{"correct", "attempted", "failed",
"metrics"}`; the lines before it list every metric with its unit, the share
of failed operations, the environment and the sha256 of the first pass's
concatenated reports.  Full results go to `.bench_results/`.
"""

import os

# one BLAS thread, so numpy's SVD in the float path cannot oversubscribe
# the cores; must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
COLD_START_ROUNDS = 5
SUBPROCESS_TIMEOUT_S = 60
MIN_OPS = 100           # timed ops per end-to-end run, so that p90 has 10 beyond it
TRACE_SHARE = 0.5       # traced phase length as a share of --seconds; the
PROFILE_SHARE = 0.25    # untraced replay and the cProfile phase follow it
TOP_FUNCTIONS = 10
REF_STEPS = 300         # size of the in-process reference computation (about 1 ms)
REF_NOMINAL_MS = 1.0    # in-process reference time at the nominal machine speed
SPAWN_NOMINAL_MS = 50.0  # bare interpreter start-up time at the nominal machine speed
REF_WINDOW = 4          # reference samples taken on each side for the rolling median
REF_SAMPLES = 9         # reference samples taken after each set-up repetition


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


# ---------------------------------------------------------------------------
# one operation

class Runner:
    """Runs operations through `extforms.cli.main` and tallies the checks."""

    def __init__(self):
        self.cli = None            # the imported extforms.cli module
        self.profiler = None       # a cProfile.Profile while profiling
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, op):
        """Time one in-process CLI call; returns (seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.profiler is None:
                    code = self.cli.main(op.argv)
                else:
                    code = self.profiler.runcall(self.cli.main, op.argv)
        except Exception as e:  # a crashing operation is a failed operation
            code, exc = None, repr(e)
        elapsed = time.perf_counter() - t0
        stdout = out.getvalue()
        self.record(op, code, stdout, exc)
        return elapsed, stdout

    def record(self, op, code, stdout, exc=None):
        """Check one op's outcome; `exc` describes an exception it raised."""
        self.attempted += 1
        if exc is not None:
            problems = [f"raised {exc}"]
        elif code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                problems = op.check(json.loads(stdout))
            except Exception as e:  # a malformed report is a failed check
                problems = [f"malformed report: {e!r}"]
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(op.argv)}: {'; '.join(problems[:3])}")


def reference_ms():
    """Wall time of one fixed pure-Python computation of the program's own
    kind (rational and dict arithmetic), timed next to every operation.

    On a shared two-vCPU virtual machine the effective CPU speed drifted by
    up to a factor of three within seconds (one fixed loop took 48 to 149
    ms), for the reference and the program alike, so dividing by it removes
    most of the machine's share of the run-to-run spread.
    """
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, REF_STEPS):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
        table[i % 31] = table.get(i % 31, 0) + i * i
    return (time.perf_counter() - t0) * 1000


def normalised(times, refs_ms, nominal_ms):
    """Each time rescaled to the nominal machine speed, at which the
    reference takes `nominal_ms`; the local speed is the rolling median of
    the reference samples around the operation."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(refs_ms[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        out.append(t * nominal_ms / local)
    return out


@dataclass
class Loop:
    """What one closed loop over the op sequence measured."""

    times: list = field(default_factory=list)   # seconds per op
    refs: list = field(default_factory=list)    # reference ms just before each op
    kinds: list = field(default_factory=list)   # subcommand of each op
    ops: list = field(default_factory=list)     # the ops run, kept when tracing
    digest: str = ""                            # sha256 of pass 0's reports

    def by_kind(self):
        groups = {}
        for kind, t in zip(self.kinds, self.times):
            groups.setdefault(kind, []).append(t * 1000)
        return {k: {"ops": len(v), "median_ms": statistics.median(v)}
                for k, v in sorted(groups.items())}


def run_sequence(runner, wl, pass0, seconds, tracer=None, min_ops=0):
    """Closed loop over the workload's op sequence for `seconds` of wall time,
    and on until at least `min_ops` ops have been timed.

    If the time runs out inside pass 0, the rest of pass 0 runs untimed so
    that the digest always covers the whole first pass.
    """
    loop = Loop()
    digest = hashlib.sha256()
    ops, r, i = pass0, 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(loop.times) < min_ops:
        if i == len(ops):
            r, i = r + 1, 0
            ops = wl.ops_for_pass(r)
        op = ops[i]
        i += 1
        if tracer is not None:
            tracer.op = len(loop.ops)
            loop.ops.append(op)
        loop.refs.append(reference_ms())
        elapsed, stdout = runner.call(op)
        loop.times.append(elapsed)
        loop.kinds.append(op.kind)
        if r == 0:
            digest.update(stdout.encode())
    if r == 0:
        for op in ops[i:]:
            digest.update(runner.call(op)[1].encode())
    loop.digest = digest.hexdigest()
    return loop


# ---------------------------------------------------------------------------
# set-up

def _import_cli():
    cli = importlib.import_module("extforms.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported extforms from {cli.__file__}, not from {SRC}")
    return cli


def set_up(runner, workload_cls, seed, workdir):
    """Input generation, importing extforms and one warm-up op.

    Timed SETUP_REPEATS times, each in a fresh interpreter (`setup_once.py`),
    so that every repetition pays the imports of extforms and numpy.  Returns
    the median set-up time, raw and at nominal machine speed (each rescaled by
    the reference timed in its own interpreter), then sets up this process
    untimed and returns its workload and first pass.  Every warm-up report is
    checked.
    """
    results = []
    child_dir = workdir.with_name(workdir.name + "-setup")
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(child_dir, ignore_errors=True)
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "setup_once.py"), workload_cls.name,
                     str(seed), child_dir.as_posix()],
                    cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"set-up took over {SUBPROCESS_TIMEOUT_S} s") from None
            if proc.returncode != 0:
                raise BenchError(f"set-up failed: {proc.stderr.strip()[-1000:]}")
            results.append(json.loads(proc.stdout))
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workload_cls(seed, workdir)
    pass0 = wl.ops_for_pass(0)
    warmup = wl.warmup_op()
    runner.cli = _import_cli()
    runner.call(warmup)
    for res in results:
        runner.record(warmup, res["code"], res["stdout"], res["error"])
    times = [res["setup_s"] for res in results]
    scaled = [res["setup_s"] * REF_NOMINAL_MS / res["ref_ms"] for res in results]
    return statistics.median(times), statistics.median(scaled), wl, pass0


# ---------------------------------------------------------------------------
# metrics

def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, -(-len(ordered) * q // 100) - 1)
    return ordered[int(k)]


def cold_start(runner):
    """Wall times (s) of a fresh interpreter running each README demo
    command (all but lemma-check), COLD_START_ROUNDS times over, with the
    start-up time (ms) of a bare interpreter spawned just before each.

    A process start costs the same machine resources as the bare spawn
    (exec, page faults, stdlib imports), so the bare spawn is the reference
    for normalising cold starts; the in-process reference does not track it.
    """
    ops = workloads.library_ops()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, refs = [], []
    for _ in range(COLD_START_ROUNDS):
        for op in ops:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                           capture_output=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
            refs.append((time.perf_counter() - t0) * 1000)
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "extforms.cli", *op.argv],
                                      cwd=ROOT, env=env, capture_output=True, text=True,
                                      timeout=SUBPROCESS_TIMEOUT_S)
                code, stdout, exc = proc.returncode, proc.stdout, None
            except subprocess.TimeoutExpired as e:
                code, stdout, exc = None, "", repr(e)
            times.append(time.perf_counter() - t0)
            runner.record(op, code, stdout, exc)
    return times, refs


def per_command_median_ms(times, commands):
    """Mean over the commands of each command's median time over the rounds."""
    return statistics.fmean(statistics.median(times[c::commands])
                            for c in range(commands)) * 1000


def environment():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "extforms").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "src_lines": src_lines}


def profile_top(runner, ops, seconds):
    """Top functions by own time under cProfile over a prefix of `ops`."""
    prof = cProfile.Profile()
    runner.profiler = prof
    start = time.perf_counter()
    try:
        for op in ops:
            if time.perf_counter() - start >= seconds:
                break
            runner.call(op)
    finally:
        runner.profiler = None
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values()) or 1.0
    top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:TOP_FUNCTIONS]
    out = []
    for (path, line, func), (_cc, calls, tottime, cumtime, _callers) in top:
        where = Path(path)
        label = f"{where.parent.name}/{where.name}:{line}({func})" if line else func
        out.append({"function": label, "calls": calls, "tottime_s": tottime,
                    "cumtime_s": cumtime, "share": tottime / total})
    return out


def unit_of(name):
    """Unit of a reported metric that BENCHMARK.json does not list."""
    if name.endswith(".calls"):
        return "count"
    if name.startswith("ops_per_s"):
        return "1/s"
    return "ms" if "_ms" in name else "s"


def load_benchmark_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from None


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(runner, wl, pass0, seconds):
    """Raw wall-clock metrics, and the same at nominal machine speed (`.norm`)."""
    loop = run_sequence(runner, wl, pass0, seconds, min_ops=MIN_OPS)
    times, refs = loop.times, loop.refs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold_times, cold_refs = cold_start(runner)
    commands = len(cold_times) // COLD_START_ROUNDS
    values = {"peak_rss_mb": peak_rss_mb, "ref_ms.p50": statistics.median(refs)}
    values["spawn_ms.p50"] = statistics.median(cold_refs)
    for suffix, op_t, cold_t in (("", times, cold_times),
                                 (".norm", normalised(times, refs, REF_NOMINAL_MS),
                                  normalised(cold_times, cold_refs, SPAWN_NOMINAL_MS))):
        values[f"ops_per_s{suffix}"] = len(op_t) / sum(op_t)
        values[f"op_ms.p50{suffix}"] = statistics.median(op_t) * 1000
        values[f"op_ms.p90{suffix}"] = percentile(op_t, 90) * 1000
        values[f"cold_start_ms{suffix}"] = per_command_median_ms(cold_t, commands)
    extra = {"op_ms.samples": len(times), "stdout_sha256": loop.digest,
             "op_ms_by_kind": loop.by_kind(), "op_ms": [t * 1000 for t in times],
             "ref_ms": refs}
    return values, extra


def traced(runner, wl, pass0, seconds, package, results_dir, tag):
    tracer = Tracer(package)
    tracer.install()
    try:
        loop = run_sequence(runner, wl, pass0, seconds * TRACE_SHARE, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    spans_path = results_dir / f"spans-{tag}.jsonl.gz"
    tracer.write_spans(spans_path)
    spans_recorded = len(tracer.spans)
    tracer.spans.clear()    # a heap full of span tuples would slow the replay's GC
    gc.collect()
    # replay the same ops untraced; both sides at nominal machine speed
    untraced_times, untraced_refs = [], []
    for op in loop.ops:
        untraced_refs.append(reference_ms())
        untraced_times.append(runner.call(op)[0])
    traced_s = sum(normalised(loop.times, loop.refs, REF_NOMINAL_MS))
    untraced_s = sum(normalised(untraced_times, untraced_refs, REF_NOMINAL_MS))
    top = profile_top(runner, loop.ops, seconds * PROFILE_SHARE)
    values["trace.ops_per_s_traced.norm"] = len(loop.ops) / traced_s
    values["trace.ops_per_s_untraced.norm"] = len(loop.ops) / untraced_s
    values["trace.overhead"] = traced_s / untraced_s
    extra = {"traced_ops": len(loop.ops), "stdout_sha256": loop.digest,
             "op_ms_by_kind": loop.by_kind(),
             "spans_recorded": spans_recorded, "spans_file": spans_path.as_posix(),
             "cprofile_top": top}
    return values, extra


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run(args):
    if not (SRC / "extforms" / "cli.py").is_file():
        raise BenchError(f"no extforms sources under {SRC}")
    if not (ROOT / workloads.LIBRARY).is_file():
        raise BenchError(f"no demo library at {ROOT / workloads.LIBRARY}")
    spec = load_benchmark_spec()
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = Path(".bench_run") / f"{args.workload}-s{args.seed}"
    results_dir = Path(".bench_results")
    results_dir.mkdir(exist_ok=True)
    runner = Runner()
    try:
        setup_raw_s, setup_s, wl, pass0 = set_up(
            runner, workloads.WORKLOADS[args.workload], args.seed, workdir)
        gc.collect()
        if args.trace:
            values, extra = traced(runner, wl, pass0, args.seconds,
                                   sys.modules["extforms"], results_dir, tag)
            wanted = spec["per_layer"]
        else:
            values, extra = end_to_end(runner, wl, pass0, args.seconds)
            wanted = spec["end_to_end"]
        values["setup_s"], values["setup_s.raw"] = setup_s, setup_raw_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed_ops = runner.failed / runner.attempted
    env = environment()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "attempted": runner.attempted, "failed": runner.failed,
              "failed_ops": failed_ops, "failures": runner.failures,
              "metrics": values, **extra}
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# stdout_sha256 {extra['stdout_sha256']} (first pass of {len(pass0)} ops)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(values.items()):
        print(f"# {name} = {value:.6g} {units.get(name) or unit_of(name)}")
    print(f"# failed_ops = {failed_ops:.6g} ({runner.failed} of {runner.attempted})")
    if "op_ms.samples" in extra:
        print(f"# op_ms.samples = {extra['op_ms.samples']}")
    for kind, row in extra["op_ms_by_kind"].items():
        print(f"# op_ms.median[{kind}] = {row['median_ms']:.6g} ms over {row['ops']} ops")
    for row in extra.get("cprofile_top", []):
        print(f"# cprofile {row['share']:6.1%} {row['tottime_s']:8.3f} s "
              f"{row['calls']:>9} calls  {row['function']}")
    for line in runner.failures:
        print(f"# FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
