from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time

import pytest

from pow2sums import CLAIMS, MAX_EXPONENT, NAIVE_SCAN_CAP, Claim, Verdict
from pow2sums.cli import main


def run_json(capsys, *argv: str) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    parsed = json.loads(out)
    # single-query outputs are canonical JSON: the bytes json.dumps gives
    assert out == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    return parsed


def test_order_command(capsys):
    record = run_json(capsys, "order", "--g", "3", "--n", "5")
    assert record == {"g": 3, "n": 5, "omega": 8, "path": "fast"}


def test_order_command_naive_path(capsys):
    record = run_json(capsys, "order", "--g", "3", "--n", "5", "--naive")
    assert record["omega"] == 8
    assert record["path"] == "naive"


def test_order_table_command(capsys):
    record = run_json(capsys, "order-table", "--g", "7", "--n-max", "5")
    assert record == {"g": 7, "n_max": 5, "omegas": [1, 2, 2, 2, 4]}


def test_valuation_command(capsys):
    record = run_json(capsys, "valuation", "--w", "-40")
    assert record == {"w": -40, "valuation": 3, "odd_part": -5}


def test_c_command(capsys):
    record = run_json(capsys, "c", "--g", "9")
    assert record == {"g": 9, "c": 5}


def test_c_command_accepts_negative_bases(capsys):
    record = run_json(capsys, "c", "--g", "-3")
    assert record["c"] == 3


def test_half_order_command(capsys):
    record = run_json(capsys, "half-order", "--g", "7", "--n", "4")
    assert record == {
        "g": 7,
        "n": 4,
        "half_exponent": 1,
        "residue": 7,
        "involution": "HALF_MINUS_ONE",
        "matches_expected": False,
    }


def test_expsum_command(capsys):
    record = run_json(capsys, "expsum", "--g", "3", "--w", "1", "--n", "4")
    assert record["is_zero"] is True
    assert record["terms"] == 4
    assert record["pairing"] == [[1, 1], [3, 1]]
    assert record["violating_residue"] is None
    re, im = record["float_sum"]
    assert abs(complex(re, im)) < 1e-12


def test_expsum_command_nonzero_case(capsys):
    record = run_json(capsys, "expsum", "--g", "3", "--w", "1", "--n", "3")
    assert record["is_zero"] is False
    assert record["violating_residue"] == 3


def test_expsum_command_beyond_float_cap(capsys):
    # g = 2^52 + 1 is an involution mod 2^53, so the orbit has two terms and
    # pairs antipodally; above the literal cap the record has no pairing and
    # no float cross-check
    g = str((1 << 52) + 1)
    record = run_json(capsys, "expsum", "--g", g, "--w", "1", "--n", "53")
    assert record["terms"] == 2
    assert record["is_zero"] is True
    assert record["pairing"] is None
    assert record["float_sum"] is None


def test_expsum_pairing_is_byte_identical_to_json_dumps(capsys):
    # 2^13 rows of [residue, count]: the pairing takes canonical_json's row
    # template, and float_sum, a list, is json.dumps's text indented one level
    record = run_json(capsys, "expsum", "--g", "3", "--w", "1", "--n", "16")
    assert len(record["pairing"]) == 1 << 13


def test_min_vanishing_command(capsys):
    record = run_json(capsys, "min-vanishing-n", "--g", "3", "--w", "1", "--n-max", "10")
    assert record == {
        "g": 3,
        "w": 1,
        "n_max": 10,
        "bound": 4,
        "found": True,
        "n": 2,
        "slack": 2,
    }


def test_min_vanishing_command_absent(capsys):
    record = run_json(capsys, "min-vanishing-n", "--g", "3", "--w", "16", "--n-max", "3")
    assert record["found"] is False
    assert record["n"] is None


ORDER = ["order", "--g", "3", "--n", "5"]
HALF_ORDER = ["half-order", "--g", "7", "--n", "4"]
# two terms, i and -i, so the float sum is the same in any summation order
EXPSUM = ["expsum", "--g", "3", "--w", "1", "--n", "2"]
# a pairing of several rows, and a sum that does not vanish (first term 7)
EXPSUM_ROWS = ["expsum", "--g", "3", "--w", "1", "--n", "5"]
EXPSUM_NONZERO = ["expsum", "--g", "7", "--w", "1", "--n", "4"]
ORDER_TABLE = ["order-table", "--g", "7", "--n-max", "5"]
VALUATION = ["valuation", "--w", "-40"]
C = ["c", "--g", "9"]
MIN_VANISHING = ["min-vanishing-n", "--g", "3", "--w", "1", "--n-max", "10"]
MIN_VANISHING_ABSENT = ["min-vanishing-n", "--g", "3", "--w", "16", "--n-max", "3"]


def test_table_format(capsys):
    # whole outputs, byte for byte
    for argv, expected in [
        (ORDER, "g      3\nn      5\nomega  8\npath   fast\n"),
        ([*ORDER, "--naive"], "g      3\nn      5\nomega  8\npath   naive\n"),
        (
            HALF_ORDER,
            "g                 7\n"
            "half_exponent     1\n"
            "involution        HALF_MINUS_ONE\n"
            "matches_expected  False\n"
            "n                 4\n"
            "residue           7\n",
        ),
        (
            EXPSUM,
            "float_sum          [-1.224646799147353e-16, 0.0]\n"
            "g                  3\n"
            "is_zero            True\n"
            "n                  2\n"
            "pairing            [[1, 1]]\n"
            "terms              2\n"
            "violating_residue  None\n"
            "w                  1\n",
        ),
        (
            EXPSUM_ROWS,
            "float_sum          [-1.1102230246251565e-16, 1.1102230246251565e-16]\n"
            "g                  3\n"
            "is_zero            True\n"
            "n                  5\n"
            "pairing            [[1, 1], [3, 1], [9, 1], [11, 1]]\n"
            "terms              8\n"
            "violating_residue  None\n"
            "w                  1\n",
        ),
        (
            EXPSUM_NONZERO,
            "float_sum          [0.0, 0.7653668647301797]\n"
            "g                  7\n"
            "is_zero            False\n"
            "n                  4\n"
            "pairing            None\n"
            "terms              2\n"
            "violating_residue  7\n"
            "w                  1\n",
        ),
        (ORDER_TABLE, "g       7\nn_max   5\nomegas  [1, 2, 2, 2, 4]\n"),
        (VALUATION, "odd_part   -5\nvaluation  3\nw          -40\n"),
        (C, "c  5\ng  9\n"),
        (
            MIN_VANISHING,
            "bound  4\nfound  True\ng      3\nn      2\nn_max  10\nslack  2\nw      1\n",
        ),
        (
            MIN_VANISHING_ABSENT,
            "bound  8\nfound  False\ng      3\nn      None\nn_max  3\nslack  None\nw      16\n",
        ),
    ]:
        assert main([*argv, "--format", "table"]) == 0
        assert capsys.readouterr().out == expected, argv


def test_csv_format_single_query(capsys):
    # whole outputs, byte for byte
    for argv, expected in [
        (ORDER, "g,n,omega,path\n3,5,8,fast\n"),
        ([*ORDER, "--naive"], "g,n,omega,path\n3,5,8,naive\n"),
        (
            HALF_ORDER,
            "g,half_exponent,involution,matches_expected,n,residue\n"
            "7,1,HALF_MINUS_ONE,False,4,7\n",
        ),
        (
            EXPSUM,
            "float_sum,g,is_zero,n,pairing,terms,violating_residue,w\n"
            '"[-1.224646799147353e-16, 0.0]",3,True,2,"[[1, 1]]",2,None,1\n',
        ),
        (
            EXPSUM_ROWS,
            "float_sum,g,is_zero,n,pairing,terms,violating_residue,w\n"
            '"[-1.1102230246251565e-16, 1.1102230246251565e-16]",3,True,5,'
            '"[[1, 1], [3, 1], [9, 1], [11, 1]]",8,None,1\n',
        ),
        (
            EXPSUM_NONZERO,
            "float_sum,g,is_zero,n,pairing,terms,violating_residue,w\n"
            '"[0.0, 0.7653668647301797]",7,False,4,None,2,7,1\n',
        ),
        (ORDER_TABLE, 'g,n_max,omegas\n7,5,"[1, 2, 2, 2, 4]"\n'),
        (VALUATION, "odd_part,valuation,w\n-5,3,-40\n"),
        (C, "c,g\n5,9\n"),
        (MIN_VANISHING, "bound,found,g,n,n_max,slack,w\n4,True,3,2,10,2,1\n"),
        (MIN_VANISHING_ABSENT, "bound,found,g,n,n_max,slack,w\n8,False,3,None,3,None,16\n"),
    ]:
        assert main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == expected, argv


@pytest.mark.parametrize(
    "argv, list_keys",
    [
        (["order-table", "--g", "7", "--n-max", "5"], {"omegas"}),
        (["expsum", "--g", "3", "--w", "1", "--n", "5"], {"float_sum", "pairing"}),
        (["expsum", "--g", "3", "--w", "6", "--n", "4"], {"float_sum"}),
    ],
    ids=["order-table", "expsum-zero", "expsum-nonzero"],
)
def test_csv_single_query_keeps_list_cells_whole(capsys, argv, list_keys):
    assert main([*argv, "--format", "csv"]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert len(row) == len(header)
    record = dict(zip(header, row))
    expected = run_json(capsys, *argv)
    for key in list_keys:
        assert json.loads(record[key]) == expected[key], key


def test_csv_sweep_parses_to_header_and_exception_rows(capsys):
    argv = ["sweep", "--claim", "lemma4_theorem5", "--g-min", "1", "--g-max", "15",
            "--n-min", "3", "--n-max", "6"]
    assert main([*argv, "--format", "json"]) == 0
    exceptions = json.loads(capsys.readouterr().out)["exceptions"]
    assert exceptions
    assert main([*argv, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\r\n") and not out.endswith("\n\n")
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert len(rows) == 1 + len(exceptions)


def test_domain_error_exits_2(capsys):
    assert main(["c", "--g", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["order", "--g", "4", "--n", "3"]) == 2
    assert main(["expsum", "--g", "3", "--w", "0", "--n", "4"]) == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["expsum", "--g", "3", "--w", "1", "--n", "64"],
         {"terms": 1 << 62, "is_zero": True, "pairing": None, "violating_residue": None,
          "float_sum": None}),
        (["sweep", "--claim", "theorem6", "--g-min", "3", "--g-max", "3",
          "--n-min", "40", "--n-max", "40", "--w-min", "1", "--w-max", "1"],
         {"cases_checked": 1, "tallies": {"holds": 1, "hypothesis_not_met": 0,
                                          "paper_exception": 0, "counterexample": 0}}),
        (["min-vanishing-n", "--g", "3", "--w", str(1 << 40), "--n-max", "64"],
         {"found": True, "n": 42, "bound": 44, "slack": 2}),
        # a two-term orbit far above the cap
        (["expsum", "--g", str((1 << 52) + 1), "--w", "1", "--n", "53"],
         {"terms": 2, "is_zero": True, "pairing": None, "float_sum": None}),
        # n = 20..22 decided by the table, n = 23 by the congruence
        (["sweep", "--claim", "theorem6", "--g-min", "-3", "--g-max", "3",
          "--n-min", "20", "--n-max", "23", "--w-min", "1", "--w-max", "1"],
         {"cases_checked": 16, "tallies": {"holds": 8, "hypothesis_not_met": 8,
                                           "paper_exception": 0, "counterexample": 0}}),
    ],
    ids=["expsum-n64", "theorem6-n40", "min-vanishing-sparse", "expsum-short-orbit-n53",
         "theorem6-across-the-cap"],
)
def test_orbit_commands_are_bounded_by_the_literal_cap(argv, expected):
    # the literal orbits here have up to 2^62 terms; above the cap the
    # congruence answers without them
    proc = subprocess.run(
        [sys.executable, "-m", "pow2sums", *argv], capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert {key: record[key] for key in expected} == expected


_OVER = str(MAX_EXPONENT + 1)
_SWEEP = ["sweep", "--claim", "lemma2", "--g-min", "3", "--g-max", "3"]
_THEOREM6 = ["sweep", "--claim", "theorem6", "--g-min", "3", "--g-max", "3",
             "--w-min", "1", "--w-max", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["order", "--g", "3", "--n", _OVER], id="order-n-over-max"),
        pytest.param(["order", "--g", "3", "--n", "0"], id="order-n0"),
        pytest.param(["order", "--g", "4", "--n", "5"], id="order-even-g"),
        # the order of 3 is 2^(n-2), here twice the scan cap
        pytest.param(["order", "--g", "3", "--n", str(NAIVE_SCAN_CAP.bit_length() + 2), "--naive"],
                     id="order-naive-past-scan-cap"),
        # -5 is an n-bit residue; the scan multiplies by the one-word -5 instead
        pytest.param(["order", "--g", "-5", "--n", "1024", "--naive"], id="order-naive-negative-g"),
        pytest.param(["order-table", "--g", "3", "--n-max", _OVER], id="order-table-n-over-max"),
        pytest.param(["order-table", "--g", "3", "--n-max", "0"], id="order-table-n0"),
        pytest.param(["order-table", "--g", "4", "--n-max", "5"], id="order-table-even-g"),
        pytest.param(["valuation", "--w", "0"], id="valuation-w0"),
        pytest.param(["c", "--g", "4"], id="c-even-g"),
        pytest.param(["c", "--g", "1"], id="c-g1"),
        pytest.param(["c", "--g", "-1"], id="c-g-1"),
        pytest.param(["half-order", "--g", "3", "--n", _OVER], id="half-order-n-over-max"),
        pytest.param(["half-order", "--g", "3", "--n", "0"], id="half-order-n0"),
        pytest.param(["half-order", "--g", "3", "--n", "2"], id="half-order-n2"),
        pytest.param(["half-order", "--g", "4", "--n", "5"], id="half-order-even-g"),
        pytest.param(["half-order", "--g", "1", "--n", "5"], id="half-order-g1"),
        pytest.param(["expsum", "--g", "3", "--w", "1", "--n", _OVER], id="expsum-n-over-max"),
        pytest.param(["expsum", "--g", "3", "--w", "1", "--n", "0"], id="expsum-n0"),
        pytest.param(["expsum", "--g", "4", "--w", "1", "--n", "5"], id="expsum-even-g"),
        pytest.param(["expsum", "--g", "1", "--w", "1", "--n", "5"], id="expsum-g1"),
        pytest.param(["expsum", "--g", "-1", "--w", "1", "--n", "5"], id="expsum-g-1"),
        pytest.param(["expsum", "--g", "3", "--w", "0", "--n", "5"], id="expsum-w0"),
        pytest.param(["min-vanishing-n", "--g", "3", "--w", "1", "--n-max", _OVER],
                     id="min-vanishing-n-over-max"),
        pytest.param(["min-vanishing-n", "--g", "3", "--w", "1", "--n-max", "0"], id="min-vanishing-n0"),
        pytest.param(["min-vanishing-n", "--g", "4", "--w", "1", "--n-max", "5"], id="min-vanishing-even-g"),
        pytest.param(["min-vanishing-n", "--g", "1", "--w", "1", "--n-max", "5"], id="min-vanishing-g1"),
        pytest.param(["min-vanishing-n", "--g", "-1", "--w", "1", "--n-max", "5"], id="min-vanishing-g-1"),
        pytest.param(["min-vanishing-n", "--g", "3", "--w", "0", "--n-max", "5"], id="min-vanishing-w0"),
        pytest.param([*_SWEEP, "--n-min", "3", "--n-max", _OVER], id="sweep-n-over-max"),
        pytest.param([*_THEOREM6, "--n-min", "3", "--n-max", _OVER], id="sweep-theorem6-n-over-max"),
        pytest.param([*_SWEEP, "--n-min", "0", "--n-max", "4"], id="sweep-n0"),
        pytest.param([*_SWEEP, "--n-min", "3", "--n-max", "4", "--jobs", "0"], id="sweep-jobs0"),
    ],
)
def test_pathological_query_exits_2_promptly(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert elapsed < 10, f"{elapsed:.1f} s"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--claim", "bogus", "--g-min", "1", "--g-max", "3", "--n-min", "1", "--n-max", "2"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


# each query subcommand with all of its required options
_FULL_QUERIES = [ORDER, ORDER_TABLE, VALUATION, C, HALF_ORDER, EXPSUM, MIN_VANISHING]


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param([*full[:i], *full[i + 2:]], full[i], id=f"{full[0]}-without-{full[i][2:]}")
        for full in _FULL_QUERIES
        for i in range(1, len(full), 2)
    ],
)
def test_query_options_are_required(capsys, argv, option):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"the following arguments are required: {option}\n" in capsys.readouterr().err


def test_help_lists_the_subcommands_in_order(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "{order,order-table,valuation,c,half-order,expsum,min-vanishing-n,sweep}" in (
        capsys.readouterr().out
    )


def test_sweep_range_usage_error_exits_2(capsys):
    code = main(
        ["sweep", "--claim", "lemma1", "--g-min", "9", "--g-max", "3", "--n-min", "1", "--n-max", "2"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_command_passing(capsys):
    code = main(
        ["sweep", "--claim", "lemma1", "--g-min", "3", "--g-max", "61", "--n-min", "3", "--n-max", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["tallies"]["counterexample"] == 0
    assert out == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_sweep_lemma1_at_the_exponent_limit(capsys):
    code = main(
        ["sweep", "--claim", "lemma1", "--g-min", "3", "--g-max", "3",
         "--n-min", "4095", "--n-max", "4096"]
    )
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["cases_checked"] == 2
    assert parsed["tallies"]["holds"] == 1
    assert parsed["tallies"]["hypothesis_not_met"] == 1


def test_sweep_strict_paper_flag(capsys):
    argv = ["sweep", "--claim", "lemma4_theorem5", "--g-min", "1", "--g-max", "255",
            "--n-min", "3", "--n-max", "8"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--strict-paper"]) == 1
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["tallies"]["paper_exception"] == 6


def test_sweep_injected_counterexample_exits_1(capsys):
    claim = Claim(
        name="test_only_failure",
        needs_w=False,
        evaluate=lambda gs, ws, ns: (0, 0, [
            (g, n, None, (Verdict.COUNTEREXAMPLE, ("forced failure", "forced success")))
            for g in gs for n in ns if g < 1 << n
        ]),
    )
    CLAIMS[claim.name] = claim
    try:
        code = main(
            ["sweep", "--claim", "test_only_failure",
             "--g-min", "1", "--g-max", "3", "--n-min", "2", "--n-max", "2"]
        )
        assert code == 1
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["tallies"]["counterexample"] == 2
    finally:
        del CLAIMS["test_only_failure"]


def test_sweep_claim_that_does_not_count_its_tuples_exits_2(capsys, monkeypatch):
    # a failed count check is an error in the claim, not a counterexample
    monkeypatch.setitem(CLAIMS, "short", Claim("short", False, lambda gs, ws, ns: (0, 0, [])))
    code = main(["sweep", "--claim", "short", "--g-min", "1", "--g-max", "3",
                 "--n-min", "2", "--n-max", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: claim 'short' does not count each of its 2 tuples once\n"
    assert captured.out == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pow2sums", "order", "--g", "3", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["omega"] == 8


def test_module_entry_point_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "pow2sums", "order", "--g", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_closed_output_pipe_exits_2_without_a_traceback():
    # about 2 MB of output: the reader closes the pipe long before the end
    proc = subprocess.Popen(
        [sys.executable, "-m", "pow2sums", "order-table", "--g", "3", "--n-max", "4000",
         "--format", "table"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
