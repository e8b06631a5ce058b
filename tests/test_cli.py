"""Command-line interface: exit codes, table formats, determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import toepnorm
from toepnorm import acceptance
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


# ------------------------------------------------------------ verify-identity

def test_verify_identity_passes_for_a2_weight(capsys):
    code, out, _ = run(["verify-identity", "--symbol=-1:1",
                        "--weight", "0:0.3", "--N", "64"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("weight,n,residual_N")
    assert lines[1].endswith("true")


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


def test_reproduce_into_file_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run(["reproduce", str(blocker)], capsys)
    assert code == 3


# ----------------------------------------------------------------- entry point

def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "toepnorm", "ap-check", "--weight", "0:0.2",
         "--grid", "64"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("weight,in_ap")


_COLD_START = """
import contextlib, io, json, sys
from toepnorm import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["ap-check", "--weight", "0:0.3", "--grid", "64"]),
             cli.main(["verify-identity", "--symbol=-1:1", "--weight", "0:0.3",
                       "--N", "16"])]
    before = scipy_modules()
    codes.append(cli.main(["essnorm", "--symbol=-1:1", "--N", "256",
                           "--m", "16", "--L", "16", "--thetas", "16"]))
    after = scipy_modules()
import scipy.linalg
import toepnorm.estimation
print(json.dumps({"codes": codes, "before": before,
                  "banded_loads": "scipy.linalg" in after,
                  "svdvals": toepnorm.estimation.svdvals
                  is scipy.linalg.svdvals}))
"""


def test_cold_start_loads_scipy_only_for_the_banded_sigma_max():
    # ap-check and verify-identity never call SciPy, so a fresh process that
    # runs them must not import it; essnorm's banded sigma_max loads it on
    # first use.  perfbench/tracing.py looks up estimation.svdvals by name.
    src = Path(toepnorm.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _COLD_START],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"codes": [0, 0, 0], "before": [],
                      "banded_loads": True, "svdvals": True}


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
