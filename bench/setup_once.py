"""One benchmark set-up in a fresh interpreter, timed from inside it.

    python3 bench/setup_once.py <workload> <seed> <workdir>

Run from the repository root; `run.py` starts it SETUP_REPEATS times per run
and reports the median as `setup_s`.  The clock starts before any other
module is imported and covers what a fresh process does before its first
measured operation: generating the workload's inputs under `<workdir>`,
importing `extforms.cli` and everything it imports, and one warm-up
operation, which on lee_grid also pays the lazy `import numpy` in the
`wedge_solver` float path.  Prints one JSON object: the set-up time in
seconds, the median reference time in ms taken just after it (for the
rescaling to nominal machine speed), and the warm-up's exit code, error and
stdout for the oracle check.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(SRC))
    import workloads

    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.ops_for_pass(0)
    op = wl.warmup_op()
    import extforms.cli

    out, code, error = io.StringIO(), None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = extforms.cli.main(op.argv)
    except Exception as e:  # a crashing warm-up is a failed operation
        error = repr(e)
    setup_s = time.perf_counter() - START

    if not Path(extforms.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported extforms from {extforms.cli.__file__}, not from {SRC}")
    from run import REF_SAMPLES, reference_ms
    ref_ms = statistics.median(reference_ms() for _ in range(REF_SAMPLES))
    print(json.dumps({"setup_s": setup_s, "ref_ms": ref_ms, "code": code,
                      "error": error, "stdout": out.getvalue()}))


if __name__ == "__main__":
    main(sys.argv[1:])
