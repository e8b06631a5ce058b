"""toepnorm benchmark: one workload, one seed, a timed or a traced run.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a value
and a unit); the line before it carries the environment block and details.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; median of 1 + 2


def _blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _pin_threads(n: int):
    # must happen before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _setup(workload: str, seed: int, scale: str):
    """Import the program, make the seeded inputs and run one warm-up case.

    Returns (seconds, workload object, warm-up outcomes)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import toepnorm
    if Path(toepnorm.__file__).resolve().parent != SRC / "toepnorm":
        raise ImportError(f"toepnorm imported from {toepnorm.__file__}, "
                          f"not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload](seed, workloads.SIZES[scale][workload])
    warm = wl.case(-1)
    outcomes = wl.check(warm, wl.run(warm))
    return time.perf_counter() - t0, wl, outcomes


def _probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, as measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Operation outcomes and per-case latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.reasons = {}
        self.latencies = []   # seconds, every timed case
        self.passed = 0       # timed cases with no failed operation

    def count(self, outcomes) -> bool:
        """Record one case's operation outcomes; True if none failed."""
        bad = [o for o in outcomes if o not in ("ok", "known_defect")]
        self.attempted += len(outcomes)
        self.failed += len(bad)
        self.known_defect += outcomes.count("known_defect")
        for reason in bad:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return not bad

    def add(self, latency, outcomes):
        self.latencies.append(latency)
        self.passed += self.count(outcomes)


def _run_case(wl, i, tally, tracer=None):
    """Run and check case ``i``; returns its wall latency and, when traced,
    its window on the tracer clock (which leaves out annotation time, as
    the spans do).  Wrappers are in place only while the case runs."""
    case = wl.case(i)
    window = 0.0
    if tracer:
        tracer.case = i
        tracer.install()
        w0 = tracer.clock()
    t0 = time.perf_counter()
    error = None
    try:
        output = wl.run(case)
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer:
        window = tracer.clock() - w0
        tracer.uninstall()
    tally.add(latency, [error] if error else wl.check(case, output))
    return latency, window


def _tail(latencies):
    """Highest order statistic with at least ten cases beyond it, and its
    percentile; the maximum when there are ten cases or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _end_to_end(setup_s, tally, rss_mb):
    tail, pct = _tail(tally.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (tally.passed / sum(tally.latencies), "1/s"),
        "case_p50_s": (statistics.median(tally.latencies), "s"),
        "case_tail_s": (tail, "s"),
        "ok_frac": ((tally.attempted - tally.failed - tally.known_defect)
                    / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"cases": len(tally.latencies), "tail_percentile": pct}


def _environment(args, threads):
    import numpy
    import scipy
    blas = {}
    for lib in (numpy, scipy):
        conf = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[lib.__name__] = {k: conf.get(k) for k in
                              ("name", "version", "openblas configuration")}
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads,
            "cpu_count": os.cpu_count(), "git_revision": _git_revision(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale}


def _git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("identity", "essnorm", "weights"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "toepnorm" / "__init__.py").is_file():
        print(f"no toepnorm sources under {SRC}", file=sys.stderr)
        return 2
    threads = _blas_threads()
    _pin_threads(threads)

    setup_s, wl, warm = _setup(args.workload, args.seed, args.scale)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_s = statistics.median(
        [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)])

    tally = Tally()
    tally.count(warm)
    # Closed loop, one caller: cases 0, 1, ... until --seconds have passed.
    deadline = time.perf_counter() + args.seconds
    i = 0
    if args.trace == 0:
        while i == 0 or time.perf_counter() < deadline:
            _run_case(wl, i, tally)
            i += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, details = _end_to_end(setup_s, tally, rss_mb)
    else:
        import tracing
        # Each case runs untraced and traced, in alternating order, so host
        # drift cancels out of the overhead ratio.
        tracer = tracing.Tracer()
        plain_s = traced_s = windows = 0.0
        while i == 0 or time.perf_counter() < deadline:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                latency, window = _run_case(wl, i, tally,
                                            tracer if traced else None)
                windows += window
                if traced:
                    traced_s += latency
                else:
                    plain_s += latency
            i += 1
        metrics = tracing.layer_metrics(tracer.spans, i, windows)
        metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(trace_path)
        details = {"traced_cases": i, "spans": len(tracer.spans),
                   "trace_file": str(trace_path.relative_to(ROOT))}

    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            print(f"metric {name} is not finite: {value!r}", file=sys.stderr)
            return 1
    details.update({"known_defect": tally.known_defect,
                    "known_defect_reason": wl.known_defect,
                    "failure_reasons": tally.reasons})
    print(json.dumps({"environment": _environment(args, threads),
                      "details": details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
