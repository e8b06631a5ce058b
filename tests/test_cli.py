"""Command-line interface: exit codes, table formats, determinism."""

import ctypes
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import toepnorm
from toepnorm import acceptance, cli
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


# each subcommand's CSV header, which is also every JSON row's keys in order
TABLE_COLUMNS = {
    "ap-check": (["ap-check", "--weight", "0:0.3", "--grid", "16"],
                 "weight,in_ap,char_M,char_2M,growth_ratio"),
    "verify-identity": (["verify-identity", "--symbol=-1:1", "--weight",
                         "0:0.3", "--N", "16"],
                        "weight,n,residual_N,residual_2N,decreasing,k0_rank,"
                        "pass"),
    "essnorm": (["essnorm", "--symbol=-1:1,1:0.5", "--weight", "0:0.3",
                 "--N", "64", "--m", "8", "--L", "8", "--thetas", "8"],
                "weight,lower,upper,grid_sup,rel_dev_from_gridsup,"
                "rel_dev_from_unweighted"),
}


@pytest.mark.parametrize("args, header", TABLE_COLUMNS.values(),
                         ids=TABLE_COLUMNS)
def test_subcommand_tables_pin_their_columns(args, header, capsys):
    code, out, _ = run(args, capsys)
    assert code in (0, 1) and out.splitlines()[0] == header
    code, out, _ = run(args + ["--format", "json"], capsys)
    rows = json.loads(out)
    assert rows and all(list(row) == header.split(",") for row in rows)


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


@pytest.mark.parametrize("p", ["1e20", "1.0000000000000002"])
def test_overflowing_p_is_config_error(p, capsys):
    # w**p (p = 1e20) or w**(-p') (p' = 4.5e15) overflows: the arc scan
    # would read 0 for a characteristic that is >= 1
    code, out, err = run(["ap-check", "--weight", "0:0.3", "--p", p,
                          "--grid", "64"], capsys)
    assert code == 2
    assert out == "" and f"configuration error: p = {float(p)!r}" in err


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


@pytest.mark.parametrize("padded, trimmed", [
    (["essnorm", "--symbol=-1:1,5:0", "--N", "8", "--m", "2", "--L", "2"],
     "--symbol=-1:1"),
    (["verify-identity", "--symbol=-3:0,0:1", "--weight", "0:0.3", "--N",
      "16"], "--symbol=0:1"),
])
def test_zero_end_terms_of_a_symbol_are_trimmed(padded, trimmed, capsys):
    # the window runs from the lowest nonzero term to the highest, so a zero
    # end term moves neither essnorm's packet room nor the shift order
    got = run(padded, capsys)
    assert got == run([padded[0], trimmed, *padded[2:]], capsys)
    assert got[0] == 0


SMALL = ["--N", "64", "--m", "4", "--L", "8", "--thetas", "8"]


@pytest.mark.parametrize("args, flag, term, raw", [
    (["essnorm", "--symbol=-1:nan", *SMALL], "--symbol term", "-1:nan",
     "nan"),
    (["essnorm", "--symbol=-1:inf", *SMALL], "--symbol term", "-1:inf",
     "inf"),
    (["verify-identity", "--symbol=0:1,-1:1+infj", "--weight", "0:0.3",
      "--N", "16"], "--symbol term", "-1:1+infj", "1+infj"),
    (["essnorm", "--symbol=-1:1e400", *SMALL], "--symbol term", "-1:1e400",
     "1e400"),
    (["ap-check", "--weight", "inf:0.3"], "--weight point", "inf:0.3",
     "inf"),
    (["ap-check", "--weight", "nan:0.3"], "--weight point", "nan:0.3",
     "nan"),
    (["essnorm", "--symbol=-1:1", "--weight", "0:0.3,-inf:0.2", *SMALL],
     "--weight point", "-inf:0.2", "-inf"),
    (["verify-identity", "--symbol=-1:1", "--weight", "0:nan", "--N", "16"],
     "--weight point", "0:nan", "nan"),
])
def test_non_finite_input_names_its_flag_and_term(args, flag, term, raw,
                                                  capsys):
    # refused in the parse, before a weight label or a scale check reads
    # the value
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert err == (f"configuration error: bad {flag} {term!r}: {raw!r} is "
                   "not finite\n")


@pytest.mark.parametrize("args", [
    ["essnorm", "--symbol=-1:1e-320", "--N", "256", "--m", "16", "--L", "16",
     "--thetas", "16"],
    ["essnorm", "--symbol=-1:1e-200", "--N", "256", "--m", "16", "--L", "16",
     "--thetas", "16"],
    ["essnorm", "--symbol=-1:1e155", "--weight", "0:0.3", "--N", "1024"],
    ["verify-identity", "--symbol=-1:1e-160", "--weight", "0:0.3", "--N",
     "16"],
    ["verify-identity", "--symbol=-1:1e153", "--weight", "0:0.3", "--N",
     "128"],
    ["verify-identity", "--symbol=-1:1e160", "--weight", "0:0.3", "--N",
     "128"],
    # the section holds 1e-200 alone; the coefficient 1 lies outside it
    ["essnorm", "--symbol=-40:1,0:1e-200", "--N", "32", "--m", "4", "--L",
     "8"],
])
def test_symbol_whose_squares_leave_the_float_range_is_config_error(
        args, capsys):
    # these read a ZeroDivisionError, zeros, NaN or a failed band driver
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == "" and err.startswith("configuration error: --symbol")


@pytest.mark.parametrize("args", [
    ["verify-identity", "--symbol=200:1", "--weight", "0:0.3", "--N", "16"],
    ["essnorm", "--symbol=-40:1", "--N", "32", "--m", "4", "--L", "8"],
])
def test_section_holding_no_coefficient_is_config_error(args, capsys):
    # a zero section has nothing to check: verify-identity would divide by
    # ||T||_F = 0, essnorm would print the vacuous bracket (0, 0)
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert err == ("configuration error: --N must be large enough for the "
                   "section to hold a nonzero coefficient of the symbol "
                   f"(at N = {args[args.index('--N') + 1]} it holds none)\n")


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("args, rtol", [
    (["verify-identity", "--weight", "0:0.3", "--N", "16"], 1e-9),
    (["verify-identity", "--weight", "0:0.3", "--N", "128"], 1e-9),
    (["essnorm", "--N", "256", "--m", "16", "--L", "16", "--thetas", "16"],
     1e-13),
    (["essnorm", "--weight", "0:0.3", "--N", "1024"], 1e-13),
])
def test_symbol_scale_inside_the_range_scales_the_table(scale, args, rtol,
                                                         capsys):
    # residuals are scale-free, brackets scale with the symbol
    rows = {}
    for s in (1.0, scale):
        code, out, _ = run([args[0], f"--symbol=-1:{s!r}", *args[1:]],
                           capsys)
        assert code == 0
        rows[s] = [line.split(",") for line in out.strip().splitlines()[1:]]
    cols = (2, 3) if args[0] == "verify-identity" else (1, 2, 3)
    unit = 1.0 if args[0] == "verify-identity" else scale
    for ref, got in zip(rows[1.0], rows[scale]):
        for c in cols:
            if ref[c]:
                assert float(got[c]) == pytest.approx(unit * float(ref[c]),
                                                      rel=rtol)


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


# the first sample pi/M of a weight grid that each subcommand samples: 8N
# for essnorm's pair, 16N (the doubled grid) for verify-identity's refined
# pair, --grid for ap-check
ON_GRID = {"essnorm": (math.pi / 2048, ["--symbol=-1:1", "--N", "256",
                                        "--m", "16", "--L", "16",
                                        "--thetas", "16"], 2048),
           "verify-identity": (math.pi / 1024, ["--symbol=-1:1", "--N", "64"],
                               1024),
           "ap-check": (math.pi / 256, ["--grid", "256"], 256)}


@pytest.mark.parametrize("lam", ["0.3", "-0.3"])
@pytest.mark.parametrize("command", sorted(ON_GRID))
def test_weight_point_on_a_grid_sample_is_config_error(command, lam, capsys):
    # the weight is 0 or infinite at a sample: refused before any power of
    # zero is taken, so no floating-point warning precedes the message
    angle, args, M = ON_GRID[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([command, "--weight", f"{angle!r}:{lam}", *args],
                             capsys)
    assert code == 2 and out == "" and caught == []
    assert err == (f"configuration error: weight point at angle {angle!r} "
                   f"with exponent {float(lam)!r} lies on a sample of the "
                   f"{M}-point grid\n")


@pytest.mark.parametrize("command", sorted(ON_GRID))
def test_weight_point_with_exponent_zero_on_a_grid_sample_runs(command,
                                                               capsys):
    angle, args, _ = ON_GRID[command]
    code, out, err = run([command, "--weight", f"{angle!r}:0", *args], capsys)
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("args, label, M", [
    (["ap-check", "--weight", "0:2000", "--grid", "16"], "|t-e^(i0)|^2000",
     16),
    (["essnorm", "--symbol=-1:1", "--weight", "0:-200", "--N", "64", "--m",
      "4", "--L", "8", "--thetas", "8"], "|t-e^(i0)|^-200", 512),
    (["verify-identity", "--symbol=-1:1", "--weight", "0:2000", "--N", "16"],
     "|t-e^(i0)|^2000", 256),
])
def test_weight_leaving_the_float_range_is_config_error(args, label, M,
                                                        capsys):
    # the first grid each subcommand samples: --grid, 8N, and 16N for the
    # refined pair's doubled grid; refused with no overflow warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(args, capsys)
    assert code == 2 and out == "" and caught == []
    assert err == (f"configuration error: weight {label} leaves the "
                   f"floating-point range on the {M}-point grid\n")


@pytest.mark.parametrize("args, label", [
    (["verify-identity", "--symbol=-1:1", "--weight", "0:150", "--N", "16"],
     "|t-e^(i0)|^150"),
    (["essnorm", "--symbol=-1:1", "--weight", "0:0.3", "--weight", "1.0:0.3",
      "--N", "256", "--m", "16", "--L", "16", "--thetas", "16"],
     "|t-e^(i1)|^0.3"),
])
def test_refused_outer_pair_names_its_weight(args, label, capsys):
    # the refined pair of |t-1|^150 and the grid pair of an off-axis weight
    # get a leading coefficient with a phase; the message says which
    # --weight, after the library's own text
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert err == (f"configuration error: --weight {label}: leading outer "
                   "coefficient must be real positive\n")


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


def test_verify_identity_analytic_symbol_has_shift_order_zero(capsys):
    # an analytic symbol is e_0 h: n = 0, and K0 is the zero matrix
    code, out, _ = run(["verify-identity", "--symbol=0:1", "--weight",
                        "0:0.3", "--N", "16"], capsys)
    assert code == 0
    header, row = (line.split(",") for line in out.strip().splitlines())
    cells = dict(zip(header, row))
    assert cells["n"] == "0" and cells["k0_rank"] == "0"


def test_verify_identity_without_a_weight_is_config_error(capsys):
    # no row would be checked, and an empty table reads as a pass
    code, out, err = run(["verify-identity", "--symbol=-1:1", "--N", "16"],
                         capsys)
    assert code == 2 and out == ""
    assert err == "configuration error: verify-identity requires a --weight\n"


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
    # both residuals sit at the rounding floor, where the trend clause holds
    assert fields[4] == "true"
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


@pytest.mark.parametrize("args, least_lower, upper", [
    (["--symbol=-40:1,-38:0.5", "--m", "4", "--L", "16"], 1.45,
     "1.4907605707479497"),
    (["--symbol=-3:1", "--m", "1", "--L", "2"], 1.0 - 1e-12, "1"),
])
def test_essnorm_packets_start_past_the_shift(args, least_lower, upper,
                                              capsys):
    # m < n = -lo: the packets start at column n (or as near it as the
    # section allows), where compression_deficiency_bound puts its test
    # vector.  On columns m .. m + L - 1 e_{-n} maps them below row 0 and
    # the lower end read 0.  The upper end does not move.
    code, out, _ = run(["essnorm", *args, "--N", "64"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == upper
    assert least_lower <= float(row[1]) <= float(upper)


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
    # hi = 2: m + L must stay at most N - 2, so that L packet columns past
    # the cutoff stay above the row cut; a symbol with no positive
    # frequency leaves the whole section
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
    printed = capsys.readouterr().out.splitlines()
    out2.mkdir()
    shared = [criterion(run) for run in acceptance.CRITERIA]
    write_tables({r.name: r for r in shared}, str(out2))
    names = ["ap_check.csv", "identity.csv", "essnorm.csv",
             "outer_validation.csv"]
    for name in names:
        assert (out1 / name).is_file()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the check lines too, but for the measured runtimes' values
    expected = [f"{r.name}.{name}: {check}" for r in shared
                for name, check in r.checks.items()]

    def timeless(line):
        return re.sub(r"(\.runtime_within_\S+: \w+) \(.*\)$", r"\1", line)
    assert len(printed) == len(expected)
    assert [timeless(x) for x in printed] == [timeless(x) for x in expected]
    # every check of the suite passes, so the run reports success
    assert code == EXIT_OK


def test_ap_check_prints_the_suite_characteristics(capsys, criterion):
    # ap-check at grid M scans M and 2M: at 256 and 512, for each p of the
    # suite's lattice, it prints ap_check.csv's characteristics, growths
    # and verdicts bit for bit
    rows = criterion(acceptance.run_ap_classification).rows
    capsys.readouterr()  # a first run prints its checks
    for p in dict.fromkeys(r["p"] for r in rows):
        lattice = [r for r in rows if r["p"] == p]
        weights = [arg for r in lattice
                   for arg in ("--weight", f"0:{r['lambda']!r}")]
        printed = []
        for grid in (256, 512):
            code, out, _ = run(["ap-check", "--p", repr(p), "--grid",
                                str(grid), "--format", "json", *weights],
                               capsys)
            assert code == 0
            printed.append(json.loads(out))
        for r, at256, at512 in zip(lattice, *printed, strict=True):
            assert at256["in_ap"] == at512["in_ap"] == r["admissible"]
            assert ([at256[k] for k in ("char_M", "char_2M", "growth_ratio")]
                    == [r["char_256"], r["char_512"], r["growth_1"]])
            assert ([at512[k] for k in ("char_M", "char_2M", "growth_ratio")]
                    == [r["char_512"], r["char_1024"], r["growth_2"]])


def test_verify_identity_prints_the_suite_residuals(capsys, criterion):
    # verify-identity at N = 128, given a seeded symbol of the suite term by
    # term and one of its weights, prints identity.csv's residuals and
    # verdicts bit for bit
    rng = np.random.default_rng(acceptance._SEED)
    symbols = {n: acceptance.seeded_symbol(rng, n) for n in (1, 2, 3)}
    rows = criterion(acceptance.run_conjugation_identity).rows
    capsys.readouterr()  # a first run prints its checks
    for r in rows:
        a = symbols[r["n"]]
        terms = ",".join(f"{a.lo + k}:{repr(complex(c)).strip('()')}"
                         for k, c in enumerate(a.coeffs))
        code, out, _ = run(["verify-identity", f"--symbol={terms}",
                            "--weight", f"0:{r['lambda']!r}", "--N", "128",
                            "--format", "json"], capsys)
        (cells,) = json.loads(out)
        assert code == (EXIT_OK if r["pass"] else 1)
        assert cells["n"] == r["n"]
        assert ([cells[k] for k in ("residual_N", "residual_2N",
                                    "decreasing", "pass")]
                == [r[k] for k in ("residual_128", "residual_256",
                                   "decreasing", "pass")])


# each reproduce table and the criteria whose rows it holds
TABLES = {"ap_check.csv": ["ap_classification"],
          "identity.csv": ["conjugation_identity"],
          "essnorm.csv": ["unweighted_bracket", "weight_independence"],
          "outer_validation.csv": ["outer_validation"]}


def test_reproduce_tables_print_every_row_key_in_order(tmp_path, criterion):
    # a table's header holds each of its rows' keys, in the row's order,
    # and no column that no row fills; essnorm.csv adds the check column
    # that names each row's criterion
    results = {r.name: r for r in (criterion(run)
                                   for run in acceptance.CRITERIA)}
    write_tables(results, str(tmp_path))
    for name, criteria in TABLES.items():
        header = (tmp_path / name).read_text().splitlines()[0].split(",")
        keys = {"check"} if len(criteria) > 1 else set()
        for c in criteria:
            for row in results[c].rows:
                assert [k for k in header if k in row] == list(row), (name, c)
                keys |= set(row)
        assert set(header) == keys and len(header) == len(keys), name


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

def test_successive_calls_share_one_parser_and_no_weights(capsys):
    # main builds its parser once; the --weight list that one call appends
    # to does not reach the next (argparse copies the default list first)
    base = ["essnorm", "--symbol=-1:1,2:0.5", "--N", "256", "--m", "16",
            "--L", "16", "--thetas", "16"]
    weighted = base + ["--weight", "0:0.3"]
    tables = [run(argv, capsys)[1] for argv in (weighted, base, weighted)]
    assert cli._build_parser() is cli._build_parser()
    assert tables[0] == tables[2]
    # header, unweighted row, one row per weight, the cross-weight summary
    assert [t.count("\n") for t in tables] == [4, 3, 4]
    assert tables[1].splitlines()[1] == tables[0].splitlines()[1]


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


_REFAULTS = """
import contextlib, io, resource
from toepnorm import cli

argv = ["verify-identity", "--symbol=-1:1,2:0.5", "--weight", "0:0.3",
        "--N", "128"]
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_repeated_cases_reuse_freed_section_memory():
    # the 1-8 MB section buffers a case frees stay in the process, so a
    # repeat of the same case faults almost no page in again (about 1,300
    # minor faults per case when glibc trims them back to the kernel)
    proc = _run_python("-c", _REFAULTS)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200


def test_main_runs_where_libc_has_no_mallopt(monkeypatch, capsys):
    argv = ["verify-identity", "--symbol=-1:1", "--weight", "0:0.3",
            "--N", "16"]
    code, expected, _ = run(argv, capsys)
    assert code == 0
    looked_up = []

    def no_libc(name, *args, **kwargs):
        looked_up.append(name)
        raise OSError(f"cannot load {name}")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    cli._keep_freed_memory.cache_clear()
    assert run(argv, capsys) == (0, expected, "")
    assert looked_up == [None]


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


def _run_python(*args, env: dict | None = None):
    """Run the interpreter in a fresh process that imports this toepnorm,
    with the variables of ``env`` added to its environment."""
    src = Path(toepnorm.__file__).resolve().parent.parent
    env = {**os.environ, **(env or {})}
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
import numpy as np
from toepnorm import cli, estimation, operators

eigvalsh, dense = np.linalg.eigvalsh, []
np.linalg.eigvalsh = lambda G, **kw: dense.append(len(G)) or eigvalsh(G, **kw)
loader, composed = operators._numpy_lapack, []
if sys.argv[1] == "dense":  # as on a NumPy whose LAPACK lacks the routines
    loader = estimation._numpy_lapack = lambda: None
    estimation._tridiagonal = None  # never called
# the route of each conjugated section: ztrmm, or the GEMMs without it
operators._numpy_lapack = lambda: composed.append(loader() is not None) \
    or loader()
argvs = [["ap-check", "--weight", "0:0.3", "--grid", "64"],
         ["verify-identity", "--symbol=-1:1", "--weight", "0:0.3",
          "--N", "16"]]
argvs += [["essnorm", "--symbol=-1:1,2:0.5", *weight, "--N", "256",
           "--m", "16", "--L", "16", "--thetas", "16"]
          for weight in ([], ["--weight", "0:0.3"])]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps([codes, len(dense), composed]))
"""


@pytest.mark.parametrize("band", ["numpy", "dense"])
def test_subcommands_run_without_scipy(band):
    # SciPy is only a test dependency: with its import blocked, every
    # subcommand runs, on NumPy's BLAS and LAPACK routines and on the dense
    # path that replaces them where NumPy's library does not export them,
    # where each of the three brackets' blocks goes to eigvalsh and
    # verify-identity composes its sections at N and 2N by GEMMs
    proc = _run_python("-c", _NO_SCIPY, band)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0],
                                       3 if band == "dense" else 0,
                                       [band == "numpy"] * 2]


_IDENTITY_TABLES = """
import sys
from toepnorm import acceptance, cli
cli._write_table(acceptance.run_conjugation_identity().rows, "csv", None)
sys.exit(cli.main(["verify-identity", "--symbol=-2:0.7,-1:1j,1:0.4",
                   "--weight", "0:0.3", "--weight", "0:-0.3",
                   "--weight", "0:0.25,3.141592653589793:-0.25",
                   "--N", "128"]))
"""


def test_identity_tables_do_not_depend_on_blas_threads():
    # the identity sections and residual norms sum in orders fixed by their
    # shapes, so the rows of identity.csv and the verify-identity table are
    # byte-identical at one and two BLAS threads
    procs = [_run_python("-c", _IDENTITY_TABLES,
                         env={"OPENBLAS_NUM_THREADS": str(threads)})
             for threads in (1, 2)]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    assert procs[0].stdout.count("\n") == 1 + 6 + 1 + 3
    assert procs[0].stdout == procs[1].stdout


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
