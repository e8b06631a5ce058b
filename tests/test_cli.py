"""Command-line interface: exit codes, table formats, determinism."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import toepnorm
from toepnorm import acceptance
from toepnorm.acceptance import Check
from toepnorm.cli import EXIT_OK, main, write_tables


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ ap-check

def test_ap_check_verdicts(capsys):
    code, out, _ = run(["ap-check", "--weight", "0:0.4", "--weight", "0:0.6",
                        "--p", "2", "--grid", "128"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,in_ap,char_M,char_2M,growth_ratio"
    assert ",true," in lines[1]
    assert ",false," in lines[2]


def test_ap_check_empty_weight_list(capsys):
    code, out, _ = run(["ap-check", "--p", "2"], capsys)
    assert code == 0
    assert out.strip() == "weight,in_ap,char_M,char_2M,growth_ratio"


def test_ap_check_json_format(capsys):
    code, out, _ = run(["ap-check", "--weight", "0:0.4", "--format", "json",
                        "--grid", "64"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["in_ap"] is True


# ------------------------------------------------------------------- errors

def test_bad_symbol_is_config_error(capsys):
    code, _, err = run(["essnorm", "--symbol=nonsense"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_missing_symbol_is_config_error(capsys):
    code, _, err = run(["essnorm", "--N", "256"], capsys)
    assert code == 2


def test_bad_p_is_config_error(capsys):
    code, _, err = run(["ap-check", "--weight", "0:0.1", "--p", "0.5"], capsys)
    assert code == 2


def test_bad_p_without_weight_is_config_error(capsys):
    # no library call sees p when there is no weight to classify
    code, out, err = run(["ap-check", "--p", "0.5"], capsys)
    assert code == 2
    assert out == "" and "configuration error" in err


@pytest.mark.parametrize("args", [
    ["ap-check", "--grid", "0"],
    ["verify-identity", "--symbol=-1:1", "--N", "0"],
    ["essnorm", "--symbol=-1:1", "--N", "0"],
    ["essnorm", "--symbol=-1:1", "--m", "0"],
    ["essnorm", "--symbol=-1:1", "--L", "0"],
    ["essnorm", "--symbol=-1:1", "--thetas", "0"],
])
def test_nonpositive_size_is_config_error(args, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == "" and "configuration error" in err


@pytest.mark.parametrize("args", [
    ["essnorm", "--symbol=0:0", "--N", "256", "--m", "16", "--L", "16",
     "--thetas", "16"],
    ["verify-identity", "--symbol=0:0", "--weight", "0:0.3", "--N", "32"],
])
def test_zero_symbol_is_config_error(args, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == "" and "configuration error" in err


@pytest.mark.parametrize("args, code", [
    (["essnorm", "--symbol=-1:1", "--weight", "0:0.3", "--N", "1000"], 2),
    (["verify-identity", "--symbol=-1:1", "--weight", "0:0.3", "--N", "100"],
     2),
    (["essnorm", "--symbol=-1:1", "--N", "1000"], 0),
    (["ap-check", "--weight", "0:0.3", "--grid", "100"], 2),
    (["ap-check", "--grid", "100"], 0),
    (["ap-check", "--weight", "0:0.3", "--grid", "1"], 2),
])
def test_weighted_N_must_be_a_power_of_two(args, code, capsys):
    # the weights' grids need a power of two; without a weight any size runs
    got, out, err = run(args, capsys)
    assert got == code
    if code:
        flag = "--grid" if args[0] == "ap-check" else "--N"
        assert out == "" and f"{flag} must be a power of two" in err
    else:
        header = {"essnorm": "weight,lower,upper", "ap-check": "weight,in_ap"}
        assert out.startswith(header[args[0]]) and err == ""


# ------------------------------------------------------------ verify-identity

@pytest.mark.parametrize("args", [
    ["--symbol=-1:1", "--weight", "0:0.3", "--N", "1"],
    ["--symbol=-1:1", "--N", "1"],
    ["--symbol=-3:1", "--weight", "0:0.3", "--N", "2"],
])
def test_verify_identity_N_must_exceed_the_shift_order(args, capsys):
    # the N x N section of T(e_{-n} h) is all zero for N <= n
    code, out, err = run(["verify-identity", *args], capsys)
    assert code == 2
    assert out == "" and "configuration error: --N must" in err


def test_verify_identity_passes_for_a2_weight(capsys):
    code, out, _ = run(["verify-identity", "--symbol=-1:1",
                        "--weight", "0:0.3", "--N", "64"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("weight,n,residual_N")
    assert lines[1].endswith("true")


def test_verify_identity_fails_above_the_residual_bound(capsys):
    # |t-1|^0.45 leaves a residual of 8.1e-6 > 1e-6 at N=32
    code, out, _ = run(["verify-identity", "--symbol=-1:1",
                        "--weight", "0:0.45", "--N", "32"], capsys)
    assert code == 1
    row = out.strip().splitlines()[1].split(",")
    assert float(row[2]) > 1e-6 and row[-1] == "false"


def test_verify_identity_constant_weight(capsys):
    code, out, _ = run(["verify-identity", "--symbol=-1:1,2:0.5",
                        "--weight", "0:0", "--N", "64"], capsys)
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert float(fields[2]) <= 1e-12
    assert fields[5] == "0"


# ------------------------------------------------------------------- essnorm

def test_essnorm_identity_symbol_rows(capsys):
    code, out, _ = run(["essnorm", "--symbol", "0:1", "--N", "256",
                        "--m", "16", "--L", "32", "--thetas", "16"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[1]) - 1.0) < 1e-9
    assert abs(float(row[2]) - 1.0) < 1e-9


def test_essnorm_shift_symbol_near_one(capsys):
    code, out, _ = run(["essnorm", "--symbol=-1:1", "--weight", "0:0.3"],
                       capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:3]:
        fields = line.split(",")
        assert abs(float(fields[1]) - 1.0) <= 0.01
        assert abs(float(fields[2]) - 1.0) <= 0.01


def test_essnorm_deep_shift_symbol_with_weight(capsys):
    code, out, _ = run(["essnorm", "--symbol=-20:1", "--weight", "0:0.3",
                        "--N", "256", "--m", "32", "--L", "32",
                        "--thetas", "16"], capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:3]:
        assert abs(float(line.split(",")[2]) - 1.0) <= 0.05


def test_essnorm_trivial_weight_rows_equal_unweighted(capsys):
    code, out, _ = run(["essnorm", "--symbol=-1:1,2:0.5", "--weight", "0:0",
                        "--N", "256"], capsys)
    assert code == 0
    base, weighted = (line.split(",") for line in out.strip().splitlines()[1:3])
    assert weighted[1:3] == base[1:3]
    assert weighted[5] == "0"


@pytest.mark.parametrize("symbol, args, message", [
    ("-1:1,2:0.5", ["--m", "32", "--N", "64"], "--m must be at most N/4 = 16"),
    ("-1:1,2:0.5", ["--m", "17", "--N", "64", "--L", "8"],
     "--m must be at most N/4 = 16"),
    ("-1:1,2:0.5", ["--m", "8", "--L", "60", "--N", "64"],
     "--m + --L must be at most 62"),
    ("-1:1,2:0.5", ["--m", "16", "--L", "47", "--N", "64"],
     "--m + --L must be at most 62"),
    ("-1:1,2:0.5", ["--m", "16", "--L", "46", "--N", "64", "--thetas", "4"],
     None),
    ("-1:1", ["--m", "16", "--L", "48", "--N", "64", "--thetas", "4",
              "--weight", "0:0.3"], None),
])
def test_essnorm_cutoff_and_packets_name_their_flags(symbol, args, message,
                                                     capsys):
    # hi = 2: the packets' last column m + L - 1 must stay below N - 2; a
    # symbol with no positive frequency leaves the whole section
    code, out, err = run(["essnorm", f"--symbol={symbol}", *args], capsys)
    if message is None:
        assert code == 0 and out.startswith("weight,lower,upper")
    else:
        assert code == 2 and out == ""
        assert err.startswith(f"configuration error: {message}")


def test_essnorm_rejects_p_flag(capsys):
    # essnorm computes on H^2 only; --p belongs to ap-check
    with pytest.raises(SystemExit) as exc:
        main(["essnorm", "--symbol=-1:1", "--p", "4"])
    assert exc.value.code == 2


def test_essnorm_deterministic_bytes(tmp_path, capsys):
    args = ["essnorm", "--symbol=-1:1,2:0.5", "--weight", "0:0.3",
            "--N", "256", "--m", "32", "--L", "32", "--thetas", "32"]
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


# ----------------------------------------------------------------- reproduce

def test_reproduce_writes_tables_and_is_deterministic(tmp_path, capsys,
                                                     criterion):
    # one fresh run against the tables of the session's shared run
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code = main(["reproduce", str(out1)])
    capsys.readouterr()
    out2.mkdir()
    shared = [criterion(run) for run in acceptance.CRITERIA]
    write_tables({r.name: r for r in shared}, str(out2))
    names = ["ap_check.csv", "identity.csv", "essnorm.csv",
             "outer_validation.csv"]
    for name in names:
        assert (out1 / name).is_file()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # every check of the suite passes, so the run reports success
    assert code == EXIT_OK


def test_reproduce_reports_a_failing_check(tmp_path, capsys, criterion,
                                           monkeypatch):
    # the session's results with one check failing: reproduce prints it with
    # its value and bound and exits 1
    results = [criterion(run) for run in acceptance.CRITERIA]
    outer = results[-1]
    assert outer.name == "outer_validation"
    failing = dataclasses.replace(outer, checks={
        **outer.checks,
        "reciprocal_residual_below_1e-8": Check(2e-8, "<=", 1e-8)})
    monkeypatch.setattr(acceptance, "run_all",
                        lambda: results[:-1] + [failing])
    code, out, _ = run(["reproduce", str(tmp_path)], capsys)
    assert code == 1
    lines = out.splitlines()
    assert ("outer_validation.reciprocal_residual_below_1e-8: "
            "FAIL (2e-08 <= 1e-08)") in lines
    margin = re.compile(r"\w+\.\S+: (pass|FAIL) \(\S+ (<|<=|>=) \S+\)")
    assert all(margin.fullmatch(line) for line in lines)


def test_reproduce_into_file_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run(["reproduce", str(blocker)], capsys)
    assert code == 3


# ----------------------------------------------------------------- entry point

def test_console_entry_point_smoke():
    proc = _run_python("-m", "toepnorm", "ap-check", "--weight", "0:0.2",
                       "--grid", "64")
    assert proc.returncode == 0
    assert proc.stdout.startswith("weight,in_ap")


_COLD_START = """
import contextlib, io, json, sys
from toepnorm import cli, estimation

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["ap-check", "--weight", "0:0.3", "--grid", "64"]),
             cli.main(["verify-identity", "--symbol=-1:1", "--weight", "0:0.3",
                       "--N", "16"]),
             cli.main(["essnorm", "--symbol=-1:1", "--N", "256",
                       "--m", "16", "--L", "16", "--thetas", "16"])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.linalg
print(json.dumps({"codes": codes, "loaded": loaded,
                  "svdvals": estimation.svdvals is scipy.linalg.svdvals}))
"""


def _run_python(*args):
    """Run the interpreter in a fresh process that imports this toepnorm."""
    src = Path(toepnorm.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_cold_start_loads_no_scipy():
    # no subcommand calls SciPy, so a fresh process that runs all three must
    # not import it.  perfbench/tracing.py looks up estimation.svdvals by
    # name.
    proc = _run_python("-c", _COLD_START)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    assert result["svdvals"]
    assert result["loaded"] == []


_NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of SciPy now raises ImportError
from toepnorm import cli, estimation

if sys.argv[1] == "dense":  # as on a NumPy whose LAPACK lacks the driver
    estimation._numpy_band_evd = lambda: None
argvs = [["ap-check", "--weight", "0:0.3", "--grid", "64"],
         ["verify-identity", "--symbol=-1:1", "--weight", "0:0.3",
          "--N", "16"]]
argvs += [["essnorm", "--symbol=-1:1,2:0.5", *weight, "--N", "256",
           "--m", "16", "--L", "16", "--thetas", "16"]
          for weight in ([], ["--weight", "0:0.3"])]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps(codes))
"""


@pytest.mark.parametrize("band", ["numpy", "dense"])
def test_subcommands_run_without_scipy(band):
    # SciPy is only a test dependency: with its import blocked, every
    # subcommand runs, on NumPy's band driver and on the dense path that
    # replaces it where NumPy's LAPACK does not export it
    proc = _run_python("-c", _NO_SCIPY, band)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0, 0]


@pytest.mark.parametrize("script, args, header, rows", [
    ("run_identity_residuals.py", ["--sizes", "16,32"],
     "N,residual,rank_ratio", 2),
    ("run_ap_growth.py", ["--grids", "64,128"],
     "p,lambda,in_ap,char_64,char_128,growth_64_128", 12),
    # w == 1: K0 = 0, whose rank ratio reads 0
    ("run_identity_residuals.py", ["--exponent", "0", "--sizes", "16,32"],
     "N,residual,rank_ratio", 2),
])
def test_study_scripts_run(script, args, header, rows):
    path = Path(__file__).resolve().parent.parent / "scripts" / script
    proc = _run_python(str(path), *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "nan" not in proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert all(len(line.split(",")) == header.count(",") + 1
               for line in lines)


# -------------------------------------------------------------------- README

def test_readme_commands_run(capsys):
    # every documented example but the full suite runs and exits 0
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands = [line.split("#", 1)[0] for line in block.splitlines()
                if line.startswith("toepnorm")
                and not line.startswith("toepnorm reproduce")]
    assert commands
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
