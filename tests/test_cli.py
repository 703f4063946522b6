import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsdim
from fsdim.cli import MAX_POOL_COUNT, MAX_POOL_SIZE, dispatch, gen_pool
from fsdim.digits import MAX_PRECISION, RealSpec
from fsdim.errors import FsdimError
from fsdim.fst import format_fst, make_block_huffman, make_identity, make_periodic_decoder, parse_fst

SRC = Path(fsdim.__file__).resolve().parent.parent  # where the package under test is imported from
HUGE = "100000000000"  # a precision far above MAX_PRECISION


def dispatch_within(seconds: int, argv) -> int:
    """dispatch(argv), failing the test if it runs past `seconds`."""
    def hang(signum, frame):
        pytest.fail(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return dispatch(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def id_fst(tmp_path):
    path = tmp_path / "id2.fst"
    path.write_text(format_fst(make_identity(2)))
    return str(path)


@pytest.fixture()
def family_dir(tmp_path):
    fdir = tmp_path / "fam"
    fdir.mkdir()
    (fdir / "id.fst").write_text(format_fst(make_identity(2)))
    return str(fdir)


@pytest.fixture()
def dbl_fst(tmp_path):
    text = "fst 1\nbase 2\nstates 1\nstart 0\nt 0 0 0 00\nt 0 1 0 11\n"
    path = tmp_path / "dbl.fst"
    path.write_text(text)
    return str(path)


class TestKtCommand:
    def test_found(self, id_fst, capsys):
        assert dispatch(["kt", "--fst", id_fst, "--w", "0110"]) == 0
        assert capsys.readouterr().out.strip() == "found,4,0110"

    def test_unreachable_is_success(self, dbl_fst, capsys):
        assert dispatch(["kt", "--fst", dbl_fst, "--w", "0"]) == 0
        assert capsys.readouterr().out.strip() == "unreachable,,"

    def test_missing_file_names_it(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.fst")
        assert dispatch(["kt", "--fst", missing, "--w", "0"]) == 1
        assert "missing.fst" in capsys.readouterr().err

    def test_usage_error(self, id_fst):
        assert dispatch(["kt", "--fst", id_fst]) == 2

    def test_json(self, id_fst, capsys):
        assert dispatch(["kt", "--fst", id_fst, "--w", "01", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"status": "found", "cost": 2,
                       "witness_input": "01", "witness_output": "01"}


class TestKdeltaCommand:
    def test_n_flag(self, id_fst, capsys):
        assert dispatch(["kdelta", "--fst", id_fst, "--x", "rat:1/3",
                         "--base", "2", "--n", "3"]) == 0
        assert capsys.readouterr().out.startswith("found,2")

    def test_delta_flag(self, id_fst, capsys):
        assert dispatch(["kdelta", "--fst", id_fst, "--x", "rat:1/3",
                         "--base", "2", "--delta", "1/8"]) == 0
        assert capsys.readouterr().out.startswith("found,2")

    def test_delta_that_is_not_a_power(self, id_fst, capsys):
        # 1/12 is not 2**-n, so the search runs at that delta with the input
        # cap of FALLBACK_SCALE; 01 lands exactly 1/12 from 1/3, outside
        assert dispatch(["kdelta", "--fst", id_fst, "--x", "rat:1/3", "--delta", "1/12"]) == 0
        assert capsys.readouterr().out == "found,3,011\n"

    def test_an_output_on_the_track_past_its_goal_costs_constant_work_per_level(
            self, tmp_path, capsys):
        # from x = 1/2 this machine outputs 011 0 0 0 ...: from digit 3 on,
        # D = -2**(j - 3), the lower track of 2**-3, for every level to the
        # cap. When each level rebuilt 2**(j - 3), this took 5.8 s on a
        # 2-core host
        path = tmp_path / "track.fst"
        path.write_text("fst 1\nbase 2\nstates 2\nstart 0\n"
                        "t 0 0 1 011\nt 0 1 1 011\nt 1 0 1 0\nt 1 1 1 0\n")
        argv = ["kdelta", "--fst", str(path), "--x", "rat:1/2", "--n", "3", "--cap-in", "20000"]
        assert dispatch_within(3, argv) == 0
        assert capsys.readouterr().out == "cap_exceeded,,\n"

    def test_an_output_on_the_track_of_x_minus_delta_costs_constant_work_per_level(
            self, tmp_path, capsys):
        # 1/6 is not 2**-n, and from x = 13/24 this machine's output 011 0 0 ...
        # is x - 1/6 = 3/8 exactly, for every level to the cap. When each
        # level built b**j and two Fraction floors, this took 6.85 s on a
        # 2-core host
        path = tmp_path / "track.fst"
        path.write_text("fst 1\nbase 2\nstates 2\nstart 0\n"
                        "t 0 0 1 011\nt 0 1 1 011\nt 1 0 1 0\nt 1 1 1 0\n")
        argv = ["kdelta", "--fst", str(path), "--x", "rat:13/24", "--delta", "1/6",
                "--cap-in", "20000"]
        assert dispatch_within(3, argv) == 0
        assert capsys.readouterr().out == "cap_exceeded,,\n"


class TestBadValuesExitCleanly:
    @pytest.mark.parametrize("argv", [
        ["kdelta", "--x", "rat:1/3", "--n", "-2"],
        ["kdelta", "--x", "rat:1/3", "--delta", "2^--2"],
        ["kdelta", "--x", "rat:1/3", "--base", "0", "--n", "3"],
        ["normality", "--x", "champernowne", "--nmax", "20", "--threshold", "nan"],
        ["normality", "--x", "champernowne", "--nmax", "20", "--threshold", "1/0"],
        ["fst", "gen", "--kind", "huffman", "--block-len", "0"],
        ["fst", "gen", "--kind", "huffman", "--block-len", "-3"],
        # Fraction builds 10**exponent: refused above MAX_EXPONENT
        ["normality", "--x", "champernowne", "--nmax", "20", "--threshold", "1e10000000"],
        ["dim", "point", "--fsts", "fam", "--x", "rat:1/3", "--nmax", "6",
         "--window-frac", "1e-10000000"],
        # delta = b^-n is built once its base is checked
        ["kdelta", "--x", "rat:1/3", "--base", "0", "--delta", "b^-3"],
    ])
    def test_exit_code_without_traceback(self, id_fst, capsys, argv):
        if argv[0] == "kdelta":
            argv = argv + ["--fst", id_fst]
        assert dispatch_within(3, argv) in (1, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.strip()

    @pytest.mark.parametrize("argv, message", [
        (["profile", "--fsts", "@EMPTY", "--x", "rat:1/3", "--nmax", "3"], "no .fst files in @EMPTY"),
        (["kdelta", "--fst", "@ID", "--x", "rat:1/3", "--delta", "3^-2"], "bad delta '3^-2'"),
        (["kdelta", "--fst", "@ID", "--x", "rat:1/3", "--delta", "b^-x"],
         "bad delta exponent in 'b^-x'"),
        (["kdelta", "--fst", "@ID", "--x", "rat:1/3", "--base", "0", "--delta", "b^-3"],
         "base must be an integer in [2, 10], got 0"),
        (["kdelta", "--fst", "@ID", "--x", "digitfile:@LETTER", "--n", "3"],
         "non-digit character 'a' in @LETTER"),
        (["kdelta", "--fst", "@ID", "--x", "periodic:", "--n", "3"], "periodic pattern must be nonempty"),
        (["fst", "gen", "--kind", "periodic", "--pattern", "01", "--copies", "0"],
         "copies must be >= 1, got 0"),
        (["sedim", "--f", "blockperm:0:@PERM", "--fsts", "@DIR", "--x", "rat:1/3", "--nmax", "3"],
         "block length must be >= 1, got 0"),
        (["sedim", "--f", "blockperm:1", "--fsts", "@DIR", "--x", "rat:1/3", "--nmax", "3"],
         "bad enumerator spec 'blockperm:1', want blockperm:m:PERMFILE"),
        (["sedim", "--f", "blockperm:1:@BADPERM", "--fsts", "@DIR", "--x", "rat:1/3", "--nmax", "3"],
         "bad permutation line 2 in @BADPERM"),
        (["dim", "point", "--fsts", "@DIR", "--x", "foo", "--nmax", "6"], "bad real spec 'foo'"),
        (["dim", "point", "--fsts", "@DIR", "--x", "rat:1/3", "--nmax", "1"],
         "n_max must be >= 2, got 1"),
    ])
    def test_a_refused_input_is_one_error_line(self, id_fst, family_dir, tmp_path, capsys,
                                               argv, message):
        (tmp_path / "empty").mkdir()
        (tmp_path / "letter.txt").write_text("01a1\n")
        (tmp_path / "perm.txt").write_text("0 -> 1\n1 -> 0\n")
        (tmp_path / "bad.txt").write_text("# swap\n0 -> 1 -> 0\n")
        subs = {"@ID": id_fst, "@DIR": family_dir, "@EMPTY": str(tmp_path / "empty"),
                "@LETTER": str(tmp_path / "letter.txt"), "@PERM": str(tmp_path / "perm.txt"),
                "@BADPERM": str(tmp_path / "bad.txt")}
        for key, path in subs.items():
            argv = [a.replace(key, path) for a in argv]
            message = message.replace(key, path)
        assert dispatch_within(3, argv) == 1
        out, err = capsys.readouterr()
        assert not out and err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("base, delta", [("1", "1/2"), ("0", "1/2"), ("1", "1/12")])
    def test_a_base_below_two_exits_at_once(self, id_fst, capsys, base, delta):
        # finding n with delta == base**-n never ends for such a base
        argv = ["kdelta", "--fst", id_fst, "--x", "rat:1/3", "--base", base, "--delta", delta]
        assert dispatch_within(3, argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: base must be an integer in [2, 10], got {base}"]

    @pytest.mark.parametrize("argv", [
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--n", HUGE],
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--delta", "^-" + HUGE],
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--delta", "b^-" + HUGE],
        ["profile", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", HUGE],
        ["dim", "point", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", HUGE],
        ["dim", "seq", "--fsts", "DIR", "--x", "champernowne", "--nmax", HUGE],
        ["dim", "set", "--fsts", "DIR", "--x", "rat:1/3", "--x", "rat:1/5", "--nmax", HUGE],
        ["normality", "--x", "champernowne", "--nmax", HUGE],
        ["sedim", "--f", "canonical", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", HUGE],
        ["fst", "gen", "--kind", "periodic", "--pattern", "0", "--copies", HUGE],
        ["fst", "gen", "--kind", "huffman", "--train-len", HUGE],
    ])
    def test_a_precision_above_the_ceiling_exits_at_once(self, id_fst, family_dir, capsys, argv):
        # at the parent these built base**n, or read and walked n digits
        argv = [id_fst if a == "ID" else family_dir if a == "DIR" else a for a in argv]
        assert dispatch_within(3, argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: precision {HUGE} exceeds the largest supported, {MAX_PRECISION}"]

    @pytest.mark.parametrize("base", ["3", "10"])
    @pytest.mark.parametrize("length", [5_000, 20_000])
    @pytest.mark.parametrize("kind", ["dyadic", "rat", "periodic", "delta", "pattern"])
    def test_a_literal_of_any_length_exits_with_one_short_line(self, tmp_path, capsys,
                                                               kind, length, base):
        # past 4,300 digits int() refuses a numeral in a base that is not a
        # power of two; digit literals and the numerals of rat:P/Q and a P/Q
        # delta convert through digits' one conversion, which has no limit
        identity = tmp_path / "id.fst"
        identity.write_text(format_fst(make_identity(int(base))))
        digits, decimal = ("21" * length)[:length], "3" * length
        kdelta = ["kdelta", "--fst", str(identity), "--base", base]
        argv, code = {
            "dyadic": (kdelta + ["--x", "dyadic:" + digits, "--n", "3"], 0),
            "rat": (kdelta + ["--x", f"rat:1/{decimal}", "--n", "3"], 0),
            "periodic": (kdelta + ["--x", "periodic:" + digits, "--n", "3"], 0),
            "delta": (kdelta + ["--x", "rat:1/3", "--delta", f"1/{decimal}"], 0),
            "pattern": (["fst", "gen", "--kind", "periodic", "--pattern", digits, "--base", base,
                         "--out", str(tmp_path / "p.fst")], 0),
        }[kind]
        assert dispatch_within(3, argv) == code
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == (1 if code == 0 and kind != "pattern" else 0)
        assert len(err.splitlines()) == code and len(err) < 200, err[:200]

    @pytest.mark.parametrize("literal", ["3" * 5_000, "x" * 5_000], ids=["digits", "letters"])
    @pytest.mark.parametrize("argv", [
        ["kt", "--fst", "ID", "--w", "01", "--cap", "BIG"],
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--n", "BIG"],
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--n", "3", "--cap-in", "BIG"],
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--n", "3", "--base", "BIG"],
        ["profile", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "BIG"],
        ["dim", "point", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "BIG"],
        ["normality", "--x", "champernowne", "--nmax", "BIG"],
        ["normality", "--x", "champernowne", "--nmax", "20", "--k", "BIG"],
        ["sedim", "--f", "canonical", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "BIG"],
        ["sedim", "--f", "canonical", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "3",
         "--max-input-len", "BIG"],
        ["pool", "--seed", "BIG", "--count", "2", "--out", "OUT"],
        ["pool", "--seed", "1", "--count", "BIG", "--out", "OUT"],
        ["pool", "--seed", "1", "--count", "2", "--max-states", "BIG", "--out", "OUT"],
        ["pool", "--seed", "1", "--count", "2", "--max-burst", "BIG", "--out", "OUT"],
        ["fst", "gen", "--kind", "periodic", "--pattern", "0", "--copies", "BIG"],
        ["fst", "gen", "--kind", "huffman", "--train-len", "BIG"],
        ["fst", "gen", "--kind", "huffman", "--block-len", "BIG"],
        ["fst", "validate", "--fst", "ID", "--burst-limit", "BIG"],
    ])
    def test_a_refused_integer_flag_exits_with_one_short_line(self, id_fst, family_dir, tmp_path,
                                                              capsys, argv, literal):
        # int() refuses a numeral past 4,300 digits; argparse echoed it whole
        subs = {"ID": id_fst, "DIR": family_dir, "OUT": str(tmp_path / "p"), "BIG": literal}
        self._exits_with_one_short_usage_line([subs.get(a, a) for a in argv], capsys)

    @pytest.mark.parametrize("argv", [
        ["profile", "--fsts", "DIR", "--x", "rat:1/3", "--nmax"],
        ["normality", "--x", "champernowne", "--nmax", "20", "--k"],
        ["pool", "--seed", "1", "--count", "2", "--out", "OUT", "--max-states"],
        ["pool", "--seed", "1", "--count", "2", "--out", "OUT", "--max-burst"],
        ["fst", "gen", "--kind", "huffman", "--block-len"],
    ])
    def test_a_long_value_below_a_flag_bound_exits_with_one_short_line(self, family_dir, tmp_path,
                                                                        capsys, argv):
        subs = {"DIR": family_dir, "OUT": str(tmp_path / "p")}
        self._exits_with_one_short_usage_line([subs.get(a, a) for a in argv] + ["-" + "3" * 4_000],
                                              capsys)

    @staticmethod
    def _exits_with_one_short_usage_line(argv, capsys):
        assert dispatch_within(3, argv) == 2
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert not out and len(errors) == 1, err[:200]
        # argparse's prefix, "fsdim <command>: error: argument <flag>: ", takes up
        # to 50 characters here, and echo writes at most 64 of the value
        assert max(len(line) for line in err.splitlines()) <= 130, err[:200]

    def test_a_negative_burst_limit_is_a_usage_error(self, id_fst, capsys):
        # a negative limit means nothing; the refused value is echoed cut
        argv = ["fst", "validate", "--fst", id_fst, "--burst-limit", "-" + "3" * 4_000]
        assert dispatch_within(3, argv) == 2
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert not out and len(errors) == 1 and len(errors[0]) <= 170, err[:200]

    @pytest.mark.parametrize("argv", [
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--n", "-BIG"],
        ["kt", "--fst", "ID", "--w", "01", "--cap", "-BIG"],
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--n", "3", "--cap-in", "-BIG"],
        ["kdelta", "--fst", "ID", "--x", "rat:1/3", "--n", "3", "--base", "BIG"],
        ["dim", "point", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "BIG"],
        ["normality", "--x", "champernowne", "--nmax", "BIG"],
        ["sedim", "--f", "canonical", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "3",
         "--max-input-len", "-BIG"],
        ["pool", "--seed", "1", "--count", "BIG", "--out", "OUT"],
        ["fst", "gen", "--kind", "periodic", "--pattern", "0", "--copies", "BIG"],
        ["sedim", "--f", "blockperm:LONG:x", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "3"],
        ["sedim", "--f", "zzLONG", "--fsts", "DIR", "--x", "rat:1/3", "--nmax", "3"],
        ["kt", "--fst", "PATH", "--w", "01"],
    ])
    def test_a_domain_error_quoting_a_long_input_is_one_bounded_line(self, id_fst, family_dir,
                                                                     tmp_path, capsys, argv):
        # the message quotes a 4,000-digit integer, a 5,000-character spec or
        # path; dispatch prints its head and its full length
        subs = {"ID": id_fst, "DIR": family_dir, "OUT": str(tmp_path / "p"),
                "PATH": str(tmp_path / ("p" * 5_000))}
        argv = [subs.get(a, a.replace("BIG", "3" * 4_000).replace("LONG", "3" * 5_000))
                for a in argv]
        assert dispatch_within(3, argv) == 1
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1, err[:200]
        assert err.startswith("error: ") and err.endswith(" characters)\n") and len(err) <= 171

    def test_a_long_identity_profile_costs_each_row_constant_work(self, family_dir, capsys):
        # each row of a one-machine profile is O(1) once the search has
        # walked. When each row built b**n, recovered n from it and scaled x
        # by b**m, this took 15-16 s on a 2-core host (peak RSS 162 MB)
        argv = ["profile", "--fsts", family_dir, "--x", "rat:1/3", "--nmax", "40000"]
        assert dispatch_within(3, argv) == 0
        rows = capsys.readouterr().out.splitlines()
        # an output of n - 1 digits of 1/3, rounded either way, is within 2**-n of it
        assert len(rows) == 40_001 and rows[1] == "1,0,0.000000,0.000000,"
        assert rows[-1] == "40000,39999,0.999975,0.000000,"

    def test_a_delta_with_a_long_denominator_is_answered_at_once(self, id_fst, capsys):
        # the goal, the largest m with delta <= 2**-m, is 13,287: found by
        # repeated squaring, not one power at a time
        argv = ["kdelta", "--fst", id_fst, "--x", "rat:1/3", "--delta", "1/" + "9" * 4_000]
        assert dispatch_within(1, argv) == 0
        assert capsys.readouterr().out == "cap_exceeded,,\n"

    def test_a_pool_count_above_the_limit_exits_at_once(self, tmp_path, capsys):
        # refused before a machine is built: the pool is built whole, then written
        out = tmp_path / "p"
        argv = ["pool", "--seed", "1", "--count", HUGE, "--out", str(out)]
        assert dispatch_within(3, argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: count must lie in [1, {MAX_POOL_COUNT}], got {HUGE}"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--max-states", "--max-burst"])
    def test_a_pool_above_the_size_bound_exits_at_once(self, tmp_path, capsys, flag):
        # refused before a machine is built, as a pool count above its limit is
        out = tmp_path / "p"
        argv = ["pool", "--seed", "1", "--count", "1", flag, "100000000", "--out", str(out)]
        assert dispatch_within(3, argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"<= {MAX_POOL_SIZE}," in err[0]
        assert not out.exists()

    def test_a_block_length_above_the_training_length_adds_no_member(self, capsys):
        # every k above the 20 training digits trains no decoder, so the
        # family, and the report, is the one --k 20 gives
        argv = ["normality", "--x", "champernowne", "--nmax", "20", "--k"]
        assert dispatch_within(3, argv + [HUGE]) == 0
        huge = capsys.readouterr().out
        assert dispatch_within(3, argv + ["20"]) == 0
        assert huge and huge == capsys.readouterr().out

    @pytest.mark.parametrize("argv, code, message", [
        (["dim", "point", "--window-frac", "abc"], 2, "not an exact rational"),
        (["dim", "point", "--window-frac", "3/2"], 2, "must lie in (0, 1]"),
        (["dim", "point", "--window-frac", "0"], 2, "must lie in (0, 1]"),
        (["dim", "point", "--window-frac", "1e-4301"], 2, "exponent above 4300: '1e-4301'"),
        (["dim", "point", "--window-frac", "1e-4300"], 0, ""),
        # int() reads no numeral past 4,300 digits: each numeral shares the bound
        (["dim", "point", "--window-frac", "0." + "9" * 4301], 2,
         "a numeral of more than 4300 digits: '0.999"),
        (["dim", "point", "--window-frac", "0." + "9" * 4300], 0, ""),
        (["dim", "point", "--window-frac", "1/" + "3" * 5000], 2,
         "a numeral of more than 4300 digits: '1/333"),
        (["normality", "--threshold", "0." + "9" * 5000], 2,
         "a numeral of more than 4300 digits: '0.999"),
        (["normality", "--threshold", "1e" + "1" * 5000], 2,
         "a numeral of more than 4300 digits: '1e111"),
        (["pool", "--max-states", "0"], 2, "--max-states: must be >= 1"),
        (["pool", "--max-burst", "-1"], 2, "--max-burst: must be >= 0"),
        (["sedim", "--f", "blockperm:x:PERM"], 1, "bad block length 'x'"),
        (["sedim", "--f", "blockperm:1:BINARY"], 1, "can't decode byte 0xff"),
        (["dim", "point", "--x", "rat:1/5"], 2, "dim point takes one --x, got 2"),
        (["dim", "seq", "--x", "rat:1/5"], 2, "dim seq takes one --x, got 2"),
        (["profile", "--nmax", "0"], 2, "--nmax: must be >= 1"),
        (["profile", "--nmax", "-3"], 2, "--nmax: must be >= 1"),
        (["normality", "--k", "-1"], 2, "--k: must be >= 0"),
        (["dim", "seq", "--base", "3"], 1, "transducer id.fst has base 2, points are base 3"),
        (["dim", "point", "--base", "3"], 1, "transducer id.fst has base 2, points are base 3"),
        (["kdelta", "--n", "3", "--cap-out", "5"], 2, "unrecognized arguments: --cap-out 5"),
        (["dim", "point", "--base", "1"], 1, "base must be an integer in [2, 10], got 1"),
        (["sedim", "--f", "canonical", "--base", "1"], 1, "base must be an integer in [2, 10], got 1"),
    ])
    def test_flag_values(self, family_dir, tmp_path, capsys, argv, code, message):
        perm = tmp_path / "perm.txt"
        perm.write_text("0 -> 1\n1 -> 0\n")
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff0 -> 1\n")
        if argv[0] == "pool":
            argv = argv + ["--seed", "1", "--count", "2", "--out", str(tmp_path / "p")]
        elif argv[0] == "kdelta":
            argv = argv + ["--fst", str(tmp_path / "fam" / "id.fst"), "--x", "rat:1/3"]
        else:
            argv = [a.replace("PERM", str(perm)).replace("BINARY", str(binary)) for a in argv]
            argv = argv + ["--fsts", family_dir, "--x", "rat:1/3", "--nmax", "6"]
        assert dispatch(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    def test_blockperm_with_too_few_blocks_is_one_line(self, tmp_path, capsys):
        # 10**9 blocks are named in the message, never built
        (tmp_path / "fam10").mkdir()
        (tmp_path / "fam10" / "id.fst").write_text(format_fst(make_identity(10)))
        perm = tmp_path / "perm.txt"
        perm.write_text("000000000 -> 000000000\n")
        argv = ["sedim", "--f", f"blockperm:9:{perm}", "--fsts", str(tmp_path / "fam10"),
                "--x", "rat:1/3", "--base", "10", "--nmax", "6"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: permutation must map all 10**9 blocks onto themselves"]

    def test_kdelta_n_uses_scale_caps(self, id_fst, capsys):
        assert dispatch(["kdelta", "--fst", id_fst, "--x", "rat:1/3", "--n", "3",
                         "--cap-in", "1"]) == 0
        assert capsys.readouterr().out.startswith("cap_exceeded")

    def test_threshold_is_exact(self, capsys):
        assert dispatch(["normality", "--x", "rat:1/3", "--nmax", "40",
                         "--threshold", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"].startswith("no compression")


class TestShortDigitFile:
    """A digit file shorter than the precisions asked for gives flagged rows,
    not an aborted run."""

    @pytest.fixture()
    def digits(self, tmp_path):
        path = tmp_path / "d.txt"
        rng = random.Random(3)
        path.write_text("".join(rng.choice("01") for _ in range(100)))
        return f"digitfile:{path}"

    @pytest.mark.parametrize("argv", [
        ["dim", "point", "--fsts", "FAM", "--x", "X", "--nmax", "150"],
        ["dim", "seq", "--fsts", "FAM", "--x", "X", "--nmax", "150"],
        ["dim", "set", "--fsts", "FAM", "--x", "X", "--x", "rat:1/3", "--nmax", "150"],
        ["normality", "--x", "X", "--nmax", "150"],
    ])
    def test_estimates_exit_zero(self, family_dir, digits, capsys, argv):
        argv = [family_dir if a == "FAM" else digits if a == "X" else a for a in argv]
        assert dispatch(argv) == 0
        assert capsys.readouterr().out.startswith("estimate=")

    def test_profile_flags_insufficient_rows(self, family_dir, digits, capsys):
        assert dispatch(["profile", "--fsts", family_dir, "--x", digits, "--nmax", "110"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 110
        assert all(r[4] == "" for r in rows[:99])
        assert {r[4] for r in rows[100:]} == {"insufficient"}
        assert all(r[1] == "" and r[2] == "" for r in rows if r[4])

    def test_a_zero_tail_past_the_file_is_insufficient(self, family_dir, id_fst, tmp_path, capsys):
        # x = 0.0 1^10 0^70: within 2**-11 of x asks whether x's digits from
        # 11 on are all zeros, which a file that ends in zeros leaves
        # undecided; 2**-12 does not ask it
        path = tmp_path / "d.txt"
        path.write_text("0" + "1" * 10 + "0" * 70 + "\n")
        x = f"digitfile:{path}"
        assert dispatch(["profile", "--fsts", family_dir, "--x", x, "--nmax", "14"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[4] for r in rows[9:12]] == ["", "insufficient", ""]
        assert (rows[9][1], rows[11][1]) == ("1", "11")
        assert dispatch(["kdelta", "--fst", id_fst, "--x", x, "--n", "12"]) == 0
        assert capsys.readouterr().out == "found,11,01111111111\n"

    def test_a_nonzero_digit_far_down_the_file_decides_a_tail(self, family_dir, id_fst, tmp_path,
                                                              capsys):
        # x = 0.0111 0^70 1: within 2**-4 of x asks whether x's digits from
        # 4 on are all zeros, and digit 74 says they are not
        path = tmp_path / "d.txt"
        path.write_text("0111" + "0" * 70 + "1\n")
        x = f"digitfile:{path}"
        assert dispatch(["kdelta", "--fst", id_fst, "--x", x, "--n", "4"]) == 0
        assert capsys.readouterr().out == "found,1,1\n"
        assert dispatch(["profile", "--fsts", family_dir, "--x", x, "--nmax", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[4] == "4,1,0.250000,0.000000,"

    @pytest.mark.parametrize("enumerator, estimate", [
        ("targeted:rat:1/3", "estimate=0.333333\n"),
        ("canonical", "estimate=0.500000\n"),
    ])
    def test_sedim_on_a_file_shorter_than_a_prefix(self, family_dir, tmp_path, capsys,
                                                   enumerator, estimate):
        # the targeted zero search compares each f(0^k) with x = 0.0101...,
        # which its 4 digits decide
        path = tmp_path / "d.txt"
        path.write_text("0101")
        assert dispatch(["sedim", "--f", enumerator, "--fsts", family_dir,
                         "--x", f"digitfile:{path}", "--nmax", "4"]) == 0
        assert capsys.readouterr().out == estimate

    def test_sedim_gives_its_own_answer(self, family_dir, digits, capsys):
        code = dispatch(["sedim", "--f", "canonical", "--fsts", family_dir, "--x", digits,
                         "--nmax", "150"])
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert "supplies 100 digits" not in err
        if code == 1:
            assert err == "error: no transducer produced a usable row in the window for every point\n"


class TestPool:
    def test_deterministic(self):
        a = gen_pool(7, 3, 4, 2, 2)
        b = gen_pool(7, 3, 4, 2, 2)
        assert [(n, format_fst(t)) for n, t in a] == [(n, format_fst(t)) for n, t in b]

    def test_seed_changes_output(self):
        a = gen_pool(7, 3, 4, 2, 2)
        b = gen_pool(8, 3, 4, 2, 2)
        assert [format_fst(t) for _, t in a] != [format_fst(t) for _, t in b]

    def test_files_validate_and_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "pool")
        assert dispatch(["pool", "--seed", "7", "--count", "5", "--out", out]) == 0
        capsys.readouterr()
        for name, t in gen_pool(7, 5, 4, 2, 2):
            text = (tmp_path / "pool" / name).read_text()
            assert parse_fst(text) == t
            assert format_fst(parse_fst(text)) == text

    def test_a_pool_at_the_size_bound_builds(self, tmp_path, capsys):
        burst = MAX_POOL_SIZE // 2 - 1  # 1 machine * 1 state * base 2 * (burst + 1)
        out = tmp_path / "p"
        argv = ["pool", "--seed", "1", "--count", "1", "--max-states", "1",
                "--max-burst", str(burst), "--out", str(out)]
        assert dispatch_within(3, argv) == 0
        assert capsys.readouterr().out == f"wrote 1 files to {out}\n"
        assert parse_fst((out / "pool_1_0.fst").read_text()) == gen_pool(1, 1, 1, 2, burst)[0][1]
        with pytest.raises(FsdimError, match=f"<= {MAX_POOL_SIZE},"):
            gen_pool(1, 1, 1, 2, burst + 1)

    def test_byte_reproducible_command(self, tmp_path):
        out1, out2 = str(tmp_path / "p1"), str(tmp_path / "p2")
        dispatch(["pool", "--seed", "11", "--count", "4", "--out", out1])
        dispatch(["pool", "--seed", "11", "--count", "4", "--out", out2])
        for name in ["pool_11_0.fst", "pool_11_3.fst"]:
            assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()


class TestFamilyMembers:
    """A refused member of a --fsts family is named by its path in the one
    error line; the single-file commands keep their messages."""

    MISSING = b"fst 1\nbase 2\nstates 1\nstart 0\nt 0 0 0 0\n"
    NON_ASCII = "fst 1\nbase 2\nstates 1\nstart 0\n# é\nt 0 0 0 0\nt 0 1 0 1\n".encode("utf-8")
    DECODE = "'ascii' codec can't decode byte 0xc3 in position 32: ordinal not in range(128)"

    @pytest.mark.parametrize("content, message", [
        (MISSING, "transition (0,1) missing"), (NON_ASCII, DECODE),
    ], ids=["missing-transition", "non-ascii"])
    @pytest.mark.parametrize("what", ["point", "set"])
    def test_a_bad_member_names_its_file(self, tmp_path, monkeypatch, capsys, content, message, what):
        monkeypatch.chdir(tmp_path)
        os.mkdir("fam")
        Path("fam/a.fst").write_text(format_fst(make_identity(2)))
        bad = Path("fam/b.fst")
        bad.write_bytes(content)
        argv = ["dim", what, "--fsts", "fam", "--x", "rat:1/3", "--nmax", "4"]
        assert dispatch(argv) == 1
        out, err = capsys.readouterr()
        assert not out and err.splitlines() == [f"error: {os.path.join('fam', 'b.fst')}: {message}"]
        assert dispatch(["fst", "validate", "--fst", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_a_long_member_path_keeps_the_line_bound(self, tmp_path, capsys):
        fam = tmp_path / ("f" * 150)
        fam.mkdir()
        (fam / "b.fst").write_bytes(self.NON_ASCII)
        assert dispatch(["profile", "--fsts", str(fam), "--x", "rat:1/3", "--nmax", "4"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        head = f"error: {fam / 'b.fst'}: {self.DECODE}"
        assert line == f"{head[:120]}... ({len(head)} characters)"


class TestOtherCommands:
    def test_validate(self, id_fst, capsys):
        assert dispatch(["fst", "validate", "--fst", id_fst]) == 0
        assert capsys.readouterr().out.strip() == "ok,1,1"

    def test_validate_warns_past_the_burst_limit(self, id_fst, capsys):
        assert dispatch(["fst", "validate", "--fst", id_fst, "--burst-limit", "0"]) == 0
        out, err = capsys.readouterr()
        assert out == "ok,1,1\n"
        assert err.splitlines() == ["warning: max output burst 1 exceeds 0; searches may be slow"]

    def test_profile_refuses_a_family_of_another_base(self, family_dir, capsys):
        argv = ["profile", "--fsts", family_dir, "--x", "rat:1/3", "--base", "3", "--nmax", "4"]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: transducer base 2 != query base 3"]

    def test_gen_identity(self, tmp_path, capsys):
        assert dispatch(["fst", "gen", "--kind", "identity", "--base", "2"]) == 0
        assert parse_fst(capsys.readouterr().out) == make_identity(2)

    def test_gen_periodic_and_huffman(self, capsys):
        assert dispatch(["fst", "gen", "--kind", "periodic", "--pattern", "01", "--copies", "2"]) == 0
        assert parse_fst(capsys.readouterr().out) == make_periodic_decoder("01", 2, 2)
        assert dispatch(["fst", "gen", "--kind", "huffman", "--train", "rat:1/3", "--train-len", "64"]) == 0
        stream = RealSpec.parse("rat:1/3").stream(2)
        assert parse_fst(capsys.readouterr().out) == make_block_huffman(stream, 64, 2)

    def test_gen_huffman_trains_on_whole_blocks(self, capsys):
        # 1,023 digits of 1/3 hold 511 whole blocks, each 01: one codeword
        argv = ["fst", "gen", "--kind", "huffman", "--train", "rat:1/3", "--train-len", "1023",
                "--block-len", "2"]
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == "fst 1\nbase 2\nstates 1\nstart 0\nt 0 0 0 01\nt 0 1 0 -\n"

    def test_profile_csv(self, id_fst, tmp_path, capsys):
        import os, shutil

        fdir = tmp_path / "fam"
        fdir.mkdir()
        shutil.copy(id_fst, fdir / "id.fst")
        out = tmp_path / "profile.csv"
        assert dispatch(["profile", "--fsts", str(fdir), "--x", "rat:1/3",
                         "--base", "2", "--nmax", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,cost,ratio,running_inf,flags"
        assert len(lines) == 5

    def test_dim_point_json(self, id_fst, tmp_path, capsys):
        import shutil

        fdir = tmp_path / "fam"
        fdir.mkdir()
        shutil.copy(id_fst, fdir / "id.fst")
        assert dispatch(["dim", "point", "--fsts", str(fdir), "--x", "rat:1/3",
                         "--base", "2", "--nmax", "10", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert 0.8 <= obj["estimate_float"] <= 1.1

    def test_normality(self, capsys):
        assert dispatch(["normality", "--x", "rat:1/3", "--base", "2",
                         "--nmax", "40"]) == 0
        assert "compressible" in capsys.readouterr().out

    def test_normality_short_digit_file(self, tmp_path, capsys):
        # fewer digits than the 256 the period probe reads from an endless stream
        path = tmp_path / "d.txt"
        rng = random.Random(3)
        path.write_text("".join(rng.choice("01") for _ in range(100)))
        assert dispatch(["normality", "--x", f"digitfile:{path}", "--nmax", "40"]) == 0
        assert "estimate=" in capsys.readouterr().out

    def test_sedim_targeted(self, id_fst, tmp_path, capsys):
        import shutil

        fdir = tmp_path / "fam"
        fdir.mkdir()
        shutil.copy(id_fst, fdir / "id.fst")
        assert dispatch(["sedim", "--f", "targeted:rat:1/3", "--fsts", str(fdir),
                         "--x", "rat:1/3", "--base", "2", "--nmax", "20", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["estimate_float"] <= 0.5


class TestOutFile:
    """Every command with --out writes to the file the bytes it would print."""

    @pytest.mark.parametrize("argv", [
        ["kt", "--fst", "FST", "--w", "0110"],
        ["dim", "point", "--fsts", "FAM", "--x", "rat:1/3", "--nmax", "10", "--json"],
        ["fst", "gen", "--kind", "periodic", "--pattern", "01", "--copies", "2"],
        ["fst", "gen", "--kind", "huffman", "--train", "rat:1/3", "--train-len", "64"],
        ["profile", "--fsts", "FAM", "--x", "rat:1/3", "--nmax", "4"],
        ["kdelta", "--fst", "FST", "--x", "rat:1/3", "--delta", "1/12"],
    ], ids=["kt", "dim-json", "gen-periodic", "gen-huffman", "profile", "kdelta-delta"])
    def test_file_bytes_equal_stdout_bytes(self, id_fst, family_dir, tmp_path, capsys, argv):
        argv = [{"FST": id_fst, "FAM": family_dir}.get(a, a) for a in argv]
        assert dispatch(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "result.txt"
        assert dispatch(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert printed and out.read_bytes() == printed.encode("ascii")


def test_python_m_entry_point_exits_with_one_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "fsdim.cli", "kt", "--fst", str(tmp_path / "missing.fst"),
                           "--w", "01"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "missing.fst" in proc.stderr and "Traceback" not in proc.stderr


class TestArgumentFuzz:
    """Every argument vector ends in exit code 0, 1 or 2 with no traceback,
    within EXAMPLE_SECONDS: a hang fails the test instead of stalling it."""

    FLAG_VALUES = st.sampled_from(["0", "1", "2", "-1", "3/2", "1/2", "abc", "nan", "1/0", "0.95", "",
                                   "1e10000000"])
    EXAMPLE_SECONDS = 3

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_codes(self, family_dir, id_fst, tmp_path, capsys, data):
        perm = tmp_path / "perm.txt"
        perm.write_text("0 -> 1\n1 -> 0\n")
        digits = tmp_path / "d.txt"
        digits.write_text("0110100110010110")
        value = data.draw(self.FLAG_VALUES)
        command = data.draw(st.sampled_from(["pool", "dim", "sedim", "normality", "kdelta", "kt",
                                             "profile", "fst gen"]))
        if command == "kt":
            argv = ["kt", "--fst", id_fst, "--w", "0110", "--cap", value]
        elif command == "kdelta":
            flag = data.draw(st.sampled_from(["--base", "--n", "--delta", "--cap-in"]))
            argv = ["kdelta", "--fst", id_fst, "--x", "rat:1/3", flag, value]
            if flag not in ("--n", "--delta"):
                argv += data.draw(st.sampled_from([["--n", "3"], ["--delta", "1/2"], ["--delta", "1/12"],
                                                   ["--delta", "b^-3"]]))
        elif command == "profile":
            argv = ["profile", "--fsts", family_dir, "--x", "rat:1/3", "--nmax", "6", "--base", value]
        elif command == "fst gen":
            kind = data.draw(st.sampled_from(["identity", "periodic", "huffman"]))
            argv = ["fst", "gen", "--kind", kind, "--pattern", "01", "--train-len", "64",
                    "--base", value]
        elif command == "pool":
            flag = data.draw(st.sampled_from(["--seed", "--count", "--max-states", "--base", "--max-burst"]))
            argv = ["pool", "--seed", "1", "--count", "2", "--out", str(tmp_path / "p"), flag, value]
        elif command == "dim":
            argv = ["dim", "point", "--fsts", family_dir, "--x", "rat:1/3", "--nmax", "6",
                    "--window-frac", value]
        elif command == "sedim":
            f = data.draw(st.sampled_from([
                "canonical", "targeted:rat:1/3", "targeted:rat:1/0", "targeted:bogus",
                f"blockperm:1:{perm}", f"blockperm:2:{perm}", f"blockperm:x:{perm}",
                f"blockperm:0:{perm}", "blockperm:1", f"blockperm:1:{tmp_path / 'missing'}", "nope"]))
            x = data.draw(st.sampled_from(["rat:1/3", "rat:0/1", f"digitfile:{digits}", "champernowne"]))
            argv = ["sedim", "--f", f, "--fsts", family_dir, "--x", x, "--nmax", "4",
                    "--max-input-len", value]
        else:
            argv = ["normality", "--x", "rat:1/3", "--nmax", "4", "--threshold", value]
        assert dispatch_within(self.EXAMPLE_SECONDS, argv) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_precision_flags_exit_codes(self, family_dir, id_fst, capsys, data):
        # the precision flags also take a precision far above the ceiling
        n = data.draw(st.sampled_from(["1", "3", str(MAX_PRECISION + 1), HUGE]))
        argv = data.draw(st.sampled_from([
            ["kdelta", "--fst", id_fst, "--x", "rat:1/3", "--n", n],
            ["kdelta", "--fst", id_fst, "--x", "rat:1/3", "--delta", "^-" + n],
            ["dim", "point", "--fsts", family_dir, "--x", "rat:1/3", "--nmax", n],
            ["profile", "--fsts", family_dir, "--x", "rat:1/3", "--nmax", n]]))
        assert dispatch_within(self.EXAMPLE_SECONDS, argv) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
