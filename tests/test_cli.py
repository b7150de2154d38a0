"""Tests for the command-line front end: records, renderers, reference
comparison and exit codes."""

import json
import time
from math import sqrt

import pytest

from catspectra import cli
from catspectra.model import laplacian_count, random_specs, validate_spec
from catspectra.oracle import NonConvergence


# -- parsing and formatting ---------------------------------------------------

def test_parse_q_variants():
    assert cli.parse_q("4,9,0,1").q == (4, 9, 0, 1)
    assert cli.parse_q("(4,9,0,1)").q == (4, 9, 0, 1)
    assert cli.parse_q("  7 ").q == (7,)


def test_parse_q_rejects_junk():
    with pytest.raises(ValueError):
        cli.parse_q("4;9")
    with pytest.raises(ValueError):
        cli.parse_q("")


def test_q_label():
    assert cli.q_label((4, 9, 0, 1)) == "(4,9,0,1)"
    assert cli.q_label([7]) == "(7)"


def test_fmt4_half_even():
    assert cli.fmt4(0.18622440436743437) == "0.1862"
    assert cli.fmt4(1.0) == "1.0000"
    assert cli.fmt4(0.00025) == "0.0002"
    assert cli.fmt4(0.00035) == "0.0004"
    assert cli.fmt4(10.611111) == "10.6111"


def test_fmt4_prints_no_negative_zero():
    assert cli.fmt4(-1e-15) == "0.0000"
    assert cli.fmt4(-0.0) == "0.0000"
    assert cli.fmt4(-0.00005) == "0.0000"      # half-even to zero
    assert cli.fmt4(-0.00006) == "-0.0001"


def test_fmt4_prints_the_largest_doubles():
    # 28 digits, the default decimal precision, raised InvalidOperation
    assert cli.fmt4(1e24) == "1000000000000000000000000.0000"
    assert cli.fmt4(-1.5e308) == "-15" + "0" * 307 + ".0000"


# -- records ------------------------------------------------------------------

def test_spectrum_record_shape(worked_spec):
    rec = cli.spectrum_record(worked_spec)
    assert rec["kind"] == "spectrum"
    assert rec["n"] == 18
    assert sum(m for _, m in rec["laplacian"]) == 18
    # line-graph part drops the zero and shifts by -2
    assert sum(m for _, m in rec["linegraph"]) == 17
    assert all(abs(lv - (v - 2.0)) < 1e-12
               for (v, _), (lv, _) in zip(rec["laplacian"][1:], rec["linegraph"]))


def test_charpoly_record_strings():
    rec = cli.charpoly_record(validate_spec((4, 9)), "C")
    assert rec["coeffs"] == ["-59", "-11", "11", "-1"]


def test_bounds_record_worked_example(worked_spec):
    rec = cli.bounds_record(worked_spec)
    b = rec["bounds"]
    assert abs(rec["mu"] - 0.1862244) <= 5e-7
    assert abs(b["lb"] - 18.0 / 191.0) <= 1e-15
    assert b["ub_trace_index"] == 1
    assert b["ub_cardano_index"] == 1
    assert b["paper_valid"] is True
    assert rec["exact"]["trace_inv"] == "382/36"     # unreduced, table style
    assert rec["exact"]["p_minus2"] == "36"
    assert rec["exact"]["pprime_minus2"] == "-382"
    assert rec["warnings"] == []


# -- renderers ----------------------------------------------------------------

def test_render_text_bounds(worked_spec):
    text = cli.render_text(cli.bounds_record(worked_spec))
    assert "T(4,9,0,1):" in text
    assert "mu         = 0.1862" in text
    assert "lb_trace   = 0.0942  (exact 18/191)" in text
    assert "ub_trace   = 0.2137  at i=1" in text
    assert "ub_cardano = 0.2381  at j=1  [holds]" in text
    assert "trace_inv  = 382/36 = 10.6111" in text


def test_render_text_marks_out_of_range_pairs():
    text = cli.render_text(cli.bounds_record(validate_spec((0, 3, 0, 1))))
    assert "outside stated range" in text


def test_render_csv_bounds(worked_spec):
    out = cli.render_csv(cli.bounds_record(worked_spec))
    assert out.splitlines()[0] == "q;mu;ub_cardano;ub_trace;lb_trace;flags"
    assert out.splitlines()[1] == "(4,9,0,1);0.1862;0.2381;0.2137;0.0942;"


def test_json_roundtrip_is_lossless(worked_spec):
    # the JSON rendering feeds back into the text renderer byte-identically,
    # so the record really is the single source for every format
    for rec in (
        cli.spectrum_record(worked_spec),
        cli.charpoly_record(worked_spec, "L"),
        cli.bounds_record(worked_spec),
    ):
        back = json.loads(cli.render_json(rec))
        assert cli.render_text(back) == cli.render_text(rec)


# -- reference comparison -------------------------------------------------------

def test_compare_reference_unknown_spec_is_silent():
    spec = validate_spec((1, 2, 3))
    assert cli.compare_reference(spec, cli.bounds_record(spec)) == ([], [])


def test_compare_reference_worked_example(worked_spec):
    hard, notes = cli.compare_reference(worked_spec, cli.bounds_record(worked_spec))
    assert hard == []
    # two expected divergence notes: the published ub_trace is the i=2 term
    # (the minimum is smaller, at i=1), and the published pair bound does not
    # match the recomputed one
    assert len(notes) == 2
    assert any("i=2 term" in n for n in notes)
    assert any(n.startswith("ub_cardano") for n in notes)


def test_random_specs_deterministic():
    a = random_specs(20, 8, 6, seed=7)
    b = random_specs(20, 8, 6, seed=7)
    assert a == b
    assert all(1 <= s.k <= 8 and max(s.q) <= 6 for s in a)
    assert random_specs(20, 8, 6, seed=8) != a


# -- commands and exit codes -----------------------------------------------------

def test_cmd_spectrum_text(capsys):
    assert cli.main(["spectrum", "--q", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "T(1,1): n=4" in out
    assert "0.5858^1" in out


def test_cmd_spectrum_prints_a_round_off_zero_without_its_sign(capsys):
    # T(1^20) has the line-graph eigenvalue 0; its computed value carries a round-off sign
    q = ",".join(["1"] * 20)
    for fmt in ("text", "csv"):
        assert cli.main(["spectrum", "--q", q, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "-0.0000" not in out
    assert ";lineA;0.0000;1" in out


def test_cmd_spectrum_json_keeps_the_zero_exact_on_huge_legs(capsys):
    # eight eigenvalues of T((10^9,3,0,7) x 16) lie below 1e-9; none joins the 0
    q = ",".join(["1000000000,3,0,7"] * 16)
    assert cli.main(["spectrum", "--q", q, "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["laplacian"][0] == [0.0, 1]
    assert sum(m for _, m in rec["linegraph"]) == rec["n"] - 1 == 16 * (10**9 + 10) + 63


def _spectrum_json(capsys, q: str) -> dict:
    assert cli.main(["spectrum", "--q", q, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_cmd_spectrum_answers_on_a_pruned_order_beyond_the_dense_cap(capsys):
    # T(1^200): the pruned C has order 399, and the dense route refused above 256
    t0 = time.perf_counter()
    rec = _spectrum_json(capsys, ",".join(["1"] * 200))
    assert time.perf_counter() - t0 < 5.0
    assert [m for _, m in rec["laplacian"]] == [1] * 400


def test_cmd_spectrum_reports_the_mu_that_bounds_reports(capsys):
    # the dense route gave (1.9999991618391277e-07, 3): three distinct eigenvalues merged
    q = "10000000,10000000,10000000,10000000"
    assert _spectrum_json(capsys, q)["laplacian"][1] == [5.857863447337043e-08, 1]
    assert cli.main(["bounds", "--q", q, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == 5.857863447337043e-08


def test_cmd_spectrum_answers_on_two_legs_of_10_to_the_9(capsys):
    # the dense route missed its tolerance near 0.0404 and exited 1
    rec = _spectrum_json(capsys, "1000000000,1000000000,6,2,1,2")
    assert sum(m for _, m in rec["laplacian"]) == rec["n"] == 2 * 10**9 + 17


def test_cmd_spectrum_keeps_each_tiny_eigenvalue_apart(capsys):
    # the dense route printed (5.000837521862422e-10, 8) for eight of them
    q = ",".join(["1000000000,3,0,7"] * 16)
    tiny = [p for p in _spectrum_json(capsys, q)["laplacian"] if p[0] < 1e-9]
    spec = validate_spec(tuple(int(x) for x in q.split(",")))
    assert laplacian_count(spec, 1e-9) == (16, 0)
    assert len(tiny) == 16 and all(m == 1 for _, m in tiny)


def test_cmd_spectrum_answers_on_legs_of_10_to_the_13(capsys):
    # the dense route printed 0, 1, 2 and 10^13 + 2; the limits are (3 -+ sqrt 5) / 2
    rec = _spectrum_json(capsys, "10000000000000,1")
    values = [v for v, _ in rec["laplacian"]]
    assert [m for _, m in rec["laplacian"]] == [1, 1, 10**13 - 1, 1, 1]
    assert values[0] == 0.0 and values[2] == 1.0 and values[4] == 10**13 + 2
    assert abs(values[1] - (3 - sqrt(5)) / 2) <= 1e-12
    assert abs(values[3] - (3 + sqrt(5)) / 2) <= 1e-12


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_cmd_spectrum_prints_legs_of_10_to_the_24(capsys, fmt):
    assert cli.main(["spectrum", "--q", f"{10**24},1", "--format", fmt]) == 0
    assert f"{10**24}.0000" in capsys.readouterr().out


def test_cmd_charpoly_text(capsys):
    assert cli.main(["charpoly", "--q", "4,9", "--of", "C"]) == 0
    assert "[-59, -11, 11, -1]" in capsys.readouterr().out


def test_cmd_charpoly_refuses_the_laplacian_of_a_huge_tree(capsys):
    # n = 10^9 + 7: the (mu - 1) product would never finish
    assert cli.main(["charpoly", "--q", "1000000000,1,0,2", "--of", "L"]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert cli.main(["charpoly", "--q", "1000000000,1,0,2", "--of", "C"]) == 0


def test_cmd_bounds_json(capsys):
    assert cli.main(["bounds", "--q", "2,0,3,4,7", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["q"] == [2, 0, 3, 4, 7]
    assert set(rec["bounds"]) == {
        "lb", "ub_trace", "ub_trace_index", "ub_cardano", "ub_cardano_index", "paper_valid"
    }


def test_cmd_bounds_rejects_single_vertex(capsys):
    assert cli.main(["bounds", "--q", "5"]) == 1
    assert "k >= 2" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert cli.main(["spectrum", "--q", "junk"]) == 1
    assert cli.main(["spectrum"]) == 1              # missing --q
    assert cli.main(["nope"]) == 1                  # unknown command
    assert cli.main([]) == 1                        # missing command
    assert cli.main(["verify"]) == 1                # needs --q or --random
    capsys.readouterr()


def test_verify_options_are_rejected_elsewhere(capsys):
    assert cli.main(["bounds", "--q", "4,9,0,1", "--seed", "3"]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_nonconvergence_exits_3(monkeypatch, capsys):
    def boom(spec):
        raise NonConvergence("synthetic")

    monkeypatch.setattr(cli, "spectrum_record", boom)
    assert cli.main(["spectrum", "--q", "1,1"]) == 3
    assert "non-convergence" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["100000,1", "1000000,1000000,3"])
def test_bounds_on_huge_trees_answers_without_warnings(capsys, q):
    # n = 100003 and 2000006: the dense Laplacian would need 80 GB and 32 TB
    t0 = time.perf_counter()
    assert cli.main(["bounds", "--q", q, "--format", "json"]) == 0
    assert time.perf_counter() - t0 < 1.0
    rec = json.loads(capsys.readouterr().out)
    assert rec["warnings"] == []
    assert rec["bounds"]["lb"] <= rec["mu"] <= rec["bounds"]["ub_trace"]


def test_cmd_bounds_answers_on_legs_of_10_to_the_60(capsys):
    # the pair bound's trigonometric form raised OverflowError above legs of about 10^52
    assert cli.main(["bounds", "--q", f"{10**60},1", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["warnings"] == []
    # k = 2: the pair block is all of C, so ub_cardano is mu, within the roots' tolerance
    assert abs(rec["bounds"]["ub_cardano"] - rec["mu"]) <= 1e-12


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", f"{2**1024},1"],
    ["spectrum", "--q", f"{15 * 10**307},2"],
    ["bounds", "--q", f"{2**1024},1"],
    ["bounds", "--q", f"{10**160},1"],
], ids=["spectrum-2^1024", "spectrum-1.5e308", "bounds-2^1024", "bounds-1e160"])
def test_legs_beyond_the_double_routes_exit_1(capsys, argv):
    # each printed wrong numbers with exit 0, or crashed with a traceback
    assert cli.main(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1


def test_cmd_table_skips_legs_beyond_the_double_range(tmp_path, capsys):
    # such a line crashed the table with a traceback, losing the good rows
    path = tmp_path / "specs.txt"
    path.write_text(f"4,9,0,1\n{2**1024},1\n{10**160},1\n")
    assert cli.main(["table", "--input", str(path)]) == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert [line.split(";")[0] for line in lines[1:]] == ["(4,9,0,1)"]
    assert [line.split(":")[0] for line in cap.err.splitlines()] == ["line 2", "line 3"]
    assert cap.err.count("skipped") == 2


def test_cmd_verify_single_spec(capsys):
    assert cli.main(["verify", "--q", "4,9,0,1"]) == 0
    out = capsys.readouterr().out
    assert "PASS charpoly_vs_integer_det (1 specs)" in out
    assert "all invariants passed on 1 spec(s)" in out
    assert "note T(4,9,0,1)" in out


def test_cmd_verify_random(capsys):
    assert cli.main(["verify", "--random", "3", "--kmax", "4", "--qmax", "3", "--seed", "1"]) == 0
    assert "all invariants passed on 3 spec(s)" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["--random", "0"], "--random"),                    # passed "on 0 spec(s)"
    (["--random", "-3"], "--random"),
    (["--q", "4,9,0,1", "--tol", "inf"], "--tol"),     # every comparison passed
    (["--q", "4,9,0,1", "--tol", "nan"], "--tol"),     # some checks compared nothing
    (["--random", "5", "--kmax", "0"], "--kmax"),       # empty range for randrange()
    (["--random", "5", "--qmax", "-1"], "--qmax"),
], ids=["random-0", "random-negative", "tol-inf", "tol-nan", "kmax-0", "qmax-negative"])
def test_cmd_verify_refuses_flags_that_make_it_vacuous(capsys, argv, flag):
    assert cli.main(["verify"] + argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""                # no check ran
    assert cap.err.startswith(f"verify {flag} needs")


@pytest.mark.parametrize("argv", [
    ["--q", "2000"],                                                    # n = 2001
    ["--random", "3", "--kmax", "60", "--qmax", "20", "--seed", "1"],   # one spec has n = 540
], ids=["q", "random"])
def test_cmd_verify_refuses_trees_above_the_dense_cap_before_any_check(capsys, argv):
    # without the up-front check, T(2000) ran three checks for 25 s before the cap stopped it
    assert cli.main(["verify"] + argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""                # no check ran
    assert cap.err.startswith("verify T(") and "above the dense cap of 256" in cap.err


def test_cmd_table_clean_rows(tmp_path, capsys):
    path = tmp_path / "specs.txt"
    path.write_text("# published rows that reproduce\n(2,0,3,4,7)\n5,0,5,0,5,0,5,0,5\n\nbogus\n7\n")
    assert cli.main(["table", "--input", str(path)]) == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert lines[1].startswith("(2,0,3,4,7);0.0893;0.2536;0.1056;0.0514")
    assert lines[2].startswith("(5,0,5,0,5,0,5,0,5);0.0285;1.0000;0.0346;0.0167")
    assert cap.err.count("skipped") == 2


def test_cmd_table_reports_oracle_confirmed_mismatch(tmp_path, capsys):
    # the one published cell the exact oracle contradicts: lb of this row is
    # 70/3059 = 0.0229 by three independent routes, the table prints 0.0290
    path = tmp_path / "specs.txt"
    path.write_text("9,5,5,4,2,0,3\n")
    assert cli.main(["table", "--input", str(path)]) == 2
    cap = capsys.readouterr()
    assert "mismatch[lb_trace" in cap.out
    assert "mismatch against oracle-confirmed published value" in cap.err


def test_cmd_table_json_output_file(tmp_path, capsys):
    src = tmp_path / "specs.txt"
    out = tmp_path / "table.json"
    src.write_text("(1,0,0,1)\n")
    assert cli.main(["table", "--input", str(src), "--output", str(out),
                     "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["q"] == [1, 0, 0, 1]
    assert rows[0]["flags"] == []
    assert capsys.readouterr().out == ""


def test_cmd_table_missing_file(tmp_path, capsys):
    assert cli.main(["table", "--input", str(tmp_path / "absent.txt")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_cmd_table_empty_file(tmp_path, capsys):
    path = tmp_path / "specs.txt"
    path.write_text("# nothing\n")
    assert cli.main(["table", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == cli.CSV_HEADER
