"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload (those in BENCHMARK.json and ``weights``) once untraced
and once traced at tiny sizes (one measured case each) and checks that the result line has exactly the keys of
the benchmark contract, that every metric named in BENCHMARK.json appears
with its declared unit, and that the outputs passed their checks.  It then
feeds each workload's checks a tampered output and requires a failure, so a
check that stopped checking is caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _require(cond, message):
    if not cond:
        raise SystemExit(f"selftest: {message}")


def _run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    _require(proc.returncode == 0,
             f"{workload} trace {trace} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_results(spec, names):
    for workload in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            info, result = _run(workload, trace)
            tag = f"{workload} trace {trace}"
            _require(set(result) == {"correct", "attempted", "failed",
                                     "metrics"}, f"{tag}: keys {set(result)}")
            _require(result["correct"] and result["failed"] == 0
                     and result["attempted"] >= 1, f"{tag}: {result}")
            declared = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(got == declared, f"{tag}: metrics {got} != {declared}")
            for name, m in result["metrics"].items():
                _require(isinstance(m["value"], (int, float)),
                         f"{tag}: {name} = {m['value']!r}")
            _require("blas_threads" in info["environment"],
                     f"{tag}: no environment block")
            print(f"ok  {tag}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked")


def _check_checks():
    """Each workload's checks must reject a tampered output."""
    import workloads
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(7, workloads.SIZES["tiny"][name])
        case = wl.case(1)  # essnorm case 1 has a nontrivial weight
        output = wl.run(case)
        _require(all(o in ("ok", "known_defect")
                     for o in wl.check(case, output)),
                 f"{name}: untampered output fails its checks")
        if name == "weights":
            code, text, err = output["ap"]
            header, row = text.strip().splitlines()
            cells = row.split(",")
            cells[2] = "0.5"  # char_M below the Hoelder floor of 1
            tampered = dict(output, ap=(code, f"{header}\n{','.join(cells)}\n",
                                        err))
        else:
            code, text, err = output
            if name == "identity":
                text = text.replace(",true\n", ",false\n", 1)
            else:
                header, unweighted, weighted, last = text.strip().splitlines()
                cells = weighted.split(",")
                cells[2] = repr(float(cells[2]) + 1e-3)  # shift weighted upper
                text = "\n".join([header, unweighted, ",".join(cells), last])
            tampered = (code, text, err)
        outcomes = wl.check(case, tampered)
        _require(any(o not in ("ok", "known_defect") for o in outcomes),
                 f"{name}: tampered output passed its checks")
        print(f"ok  {name}: tampered output rejected ({outcomes})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    declared = [w["name"] for w in spec["workloads"]]
    _require(set(declared) <= set(workloads.WORKLOADS),
             f"BENCHMARK.json names unknown workloads: {declared}")
    # weights is not in BENCHMARK.json (see README.md) but is tested too
    _check_results(spec, list(workloads.WORKLOADS))
    _check_checks()
    print("selftest passed")


if __name__ == "__main__":
    main()
