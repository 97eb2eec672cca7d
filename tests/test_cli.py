import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fsmcap
from fsmcap.cli import build_parser, main, parse_word
from fsmcap.formats import format_rational, parse_pfa, serialize_fsmc, serialize_pfa
from fsmcap.fsmc import lift
from fsmcap import fixtures
from test_formats import CHANNEL, CHANNEL_VIOLATIONS


@pytest.fixture()
def example1_path(tmp_path, example1):
    path = tmp_path / "example1.pfa"
    path.write_text(serialize_pfa(example1))
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pfa_value_prints_rational(capsys, example1_path):
    code, out, _ = run_cli(capsys, "pfa", "value", "--pfa", example1_path, "--word", "baa")
    assert code == 0
    assert out.strip() == "1/4"


def test_pfa_value_prints_a_value_past_the_int_digit_limit(capsys, tmp_path):
    # value of a^n is 1 - (996/997)^n, whose denominator 997^1500 has 4499 digits
    path = tmp_path / "slow.pfa"
    path.write_text("states: q1 q2\nalphabet: a\ninitial: 1 0\naccepting: q2\n"
                    "matrix a:\n996/997 0\n1/997 1\n")
    code, out, err = run_cli(capsys, "pfa", "value", "--pfa", path, "--word", "a" * 1500)
    assert (code, err) == (0, "")
    assert out == format_rational(1 - Fraction(996, 997) ** 1500) + "\n"
    assert len(out.rstrip("\n").split("/")[1]) == 4499


def test_rationals_past_the_int_digit_limit_parse_and_a_bad_one_echoes_a_prefix(capsys):
    long = "1/" + "3" * 5000
    code, out, err = run_cli(capsys, "gadget", "dxy", "--x", long, "--y", "1/2")
    assert (code, err) == (0, "")
    assert parse_pfa(out).matrices["a"][1][1] == Fraction(3, 10 ** 5000 - 1)
    code, out, err = run_cli(capsys, "gadget", "dxy", "--x", long + "x", "--y", "1/2")
    assert (code, out) == (1, "")
    assert err == "error: not a rational: '1/" + "3" * 37 + "...\n"


def test_word_parsing(example1):
    assert parse_word("baa", example1.alphabet) == ("b", "a", "a")
    assert parse_word("a b", example1.alphabet) == ("a", "b")
    assert parse_word("a id b", ("a", "b", "id", "rt")) == ("a", "id", "b")
    # a lone token on a lifted alphabet splits when each character is a symbol
    assert parse_word("bab", ("a", "b", "id", "rt")) == ("b", "a", "b")
    assert parse_word("id", ("a", "b", "id", "rt")) == ("id",)
    with pytest.raises(Exception):
        parse_word("z", example1.alphabet)
    with pytest.raises(Exception, match="symbol 'bid' is not in the alphabet"):
        parse_word("bid", ("a", "b", "id", "rt"))
    # a token with a character that is no symbol stays whole
    with pytest.raises(Exception, match="symbol 'abz' is not in the alphabet"):
        parse_word("abz", ("a", "b"))


def test_sigma_encode_decode(capsys):
    code, out, _ = run_cli(capsys, "sigma", "encode", "1/2")
    assert code == 0 and out.strip() == "18"
    code, out, _ = run_cli(capsys, "sigma", "decode", "18", "--arity", "1")
    assert code == 0 and out.strip() == "1/2"


def test_unknown_flag_exits_2(example1_path):
    with pytest.raises(SystemExit) as exc:
        main(["pfa", "value", "--pfa", str(example1_path), "--bogus", "x"])
    assert exc.value.code == 2


def test_domain_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.pfa"
    bad.write_text("states: q\nalphabet: a\ninitial: 2\naccepting:\nmatrix a:\n1\n")
    code, _, err = run_cli(capsys, "pfa", "value", "--pfa", bad, "--word", "a")
    assert code == 1
    assert err.startswith("error:") and "sums to 2" in err


def test_validate_reports_violations(capsys, tmp_path, example1):
    bad = tmp_path / "bad.pfa"
    text = serialize_pfa(example1).replace("accepting: q3", "accepting: q3")
    bad.write_text(text)
    code, out, _ = run_cli(capsys, "pfa", "validate", "--pfa", bad)
    assert code == 0 and out.strip() == "valid"


def test_validate_reports_first_violation_line(capsys, tmp_path, example1):
    bad = tmp_path / "bad.pfa"
    bad.write_text(serialize_pfa(example1).replace("accepting: q3", "accepting: q9"))
    code, out, err = run_cli(capsys, "pfa", "validate", "--pfa", bad)
    assert code == 1 and out == ""
    assert err == f"error: {bad}:4: accepting state 'q9' is not a state\n"


def test_gadget_emission_round_trips(capsys, tmp_path):
    out_file = tmp_path / "d.pfa"
    code, _, _ = run_cli(capsys, "gadget", "dxy", "--x", "3/4", "--y", "1/2",
                         "--out", out_file)
    assert code == 0
    emitted = parse_pfa(out_file.read_text())
    assert emitted == fixtures.d_34()
    manifest = json.loads(Path(str(out_file) + ".manifest.json").read_text())
    assert manifest["command"] == "gadget dxy"
    assert manifest["parameters"]["x"] == "3/4"


def test_manifest_replay_byte_identical(capsys, tmp_path, example1_path):
    csv = tmp_path / "witness.csv"
    argv = ["witness", "--x", "3/4", "--eps", "1/10", "--k", "6", "--csv", str(csv)]
    assert main(argv) == 0
    capsys.readouterr()
    first = csv.read_bytes()
    manifest = json.loads(Path(str(csv) + ".manifest.json").read_text())
    assert main(manifest["argv"]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == first


def test_channel_build_and_sample(capsys, tmp_path, example1_path):
    ch_file = tmp_path / "v.fsmc"
    code, _, err = run_cli(capsys, "channel", "build", "--pfa", example1_path,
                           "--out", ch_file)
    assert code == 0
    assert "inputs: 4" in err
    code, out, _ = run_cli(capsys, "channel", "sample", "--channel", ch_file,
                           "--input", "1:b 0:a 1:a", "--seed", "7", "--count", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and all(len(line) == 3 for line in lines)
    code2, out2, _ = run_cli(capsys, "channel", "sample", "--channel", ch_file,
                             "--input", "1:b 0:a 1:a", "--seed", "7", "--count", "2")
    assert out2 == out


def test_capacity_ba_on_fixture(capsys, tmp_path):
    bsc = tmp_path / "bsc.dmc"
    bsc.write_text(fixtures.fixture_text("bsc11.dmc"))
    code, out, _ = run_cli(capsys, "capacity", "ba", "--channel", bsc, "--tol", "1e-9")
    assert code == 0
    assert out.splitlines()[0].startswith("capacity: 0.500084")


def test_capacity_bracket_cli(capsys, tmp_path, example1_path):
    csv = tmp_path / "bracket.csv"
    code, out, _ = run_cli(capsys, "capacity", "bracket", "--pfa", example1_path,
                           "--delta", "0.1", "--block", "10", "--csv", csv)
    assert code == 0
    assert "upper: 1" in out
    header, row = csv.read_text().strip().splitlines()
    assert header == "block,lower,upper"


def test_capacity_stability_cli(capsys):
    code, out, _ = run_cli(capsys, "capacity", "stability", "--val", "1.0",
                           "--delta", "0.1", "--n-list", "4,4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,n_t,m_t,m_formula,m_floor"
    t, n_t, m_t, m_formula, m_floor = map(int, lines[1].split(","))
    assert m_t >= m_floor == 16


def test_witness_report_text(capsys):
    code, out, _ = run_cli(capsys, "witness", "--x", "3/4", "--eps", "1/10", "--k", "4")
    assert code == 0
    assert "requirement 1 (p_q4_q6 <= eps): met" in out


def test_gadget_family_counts_on_stderr(capsys, tmp_path):
    amp = tmp_path / "amp3.pfa"
    amp.write_text(fixtures.fixture_text("amp3.pfa"))
    code, out, err = run_cli(capsys, "gadget", "family", "--pfa", amp, "--lam", "1")
    assert code == 0
    assert "states: 14" in err and "alphabet size: 5" in err
    assert "states: q0" in out


def test_capacity_converse_cli(capsys, tmp_path):
    d25 = tmp_path / "d25.pfa"
    d25.write_text(fixtures.fixture_text("d_25.pfa"))
    code, out, _ = run_cli(capsys, "capacity", "converse", "--pfa", d25,
                           "--n", "3", "--trials", "10", "--seed", "1")
    assert code == 0
    assert "violations: 0/10" in out


def test_capacity_converse_cli_rejects_zero_trials(capsys, tmp_path):
    d25 = tmp_path / "d25.pfa"
    d25.write_text(fixtures.fixture_text("d_25.pfa"))
    code, out, err = run_cli(capsys, "capacity", "converse", "--pfa", d25,
                             "--n", "3", "--trials", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "trials" in err


def _assert_one_error_line(code, err, fragment):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


ID_ONLY = """\
states: q1 q2
alphabet: a b id
initial: 1 0
accepting: q2
matrix a:
0 0
1 1
matrix b:
1/2 0
1/2 1
matrix id:
1 0
0 1
"""


@pytest.mark.parametrize("command", [
    ["capacity", "converse", "--n", "2", "--trials", "3"],
    ["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "4,4", "--demo",
     "--word", "b", "--free", "3", "--samples", "100"],
])
def test_lift_refuses_a_partial_freeze_reset(capsys, tmp_path, command):
    id_only = tmp_path / "id_only.pfa"
    id_only.write_text(ID_ONLY)
    code, out, err = run_cli(capsys, *command, "--pfa", id_only)
    _assert_one_error_line(code, err, "reserved symbol 'id'")
    family3 = tmp_path / "family3.pfa"
    family3.write_text(fixtures.fixture_text("family3.pfa"))
    code, out, err = run_cli(capsys, *command, "--pfa", family3)
    assert code == 0 and err == ""


def test_malformed_rational_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "gadget", "dxy", "--x", "1/0", "--y", "1/2")
    _assert_one_error_line(code, err, "not a rational")


def test_internal_value_error_is_not_a_domain_error(monkeypatch, tmp_path):
    from fsmcap import capacity

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(capacity, "converse_check", broken)
    d25 = tmp_path / "d25.pfa"
    d25.write_text(fixtures.fixture_text("d_25.pfa"))
    with pytest.raises(ValueError, match="internal bug"):
        main(["capacity", "converse", "--pfa", str(d25), "--n", "2", "--trials", "3"])


def test_closed_form_mismatch_is_not_a_domain_error(monkeypatch):
    from fsmcap import gadgets
    from fsmcap.witness import ClosedFormMismatch

    monkeypatch.setattr(gadgets, "dxy_reach_closed_forms",
                        lambda x, lengths: itertools.repeat((1, 1)))
    with pytest.raises(ClosedFormMismatch, match="closed form"):
        main(["witness", "--x", "3/4", "--eps", "1/10", "--k", "3"])


@pytest.mark.parametrize("argv, fragment", [
    (["witness", "--x", "3/4", "--eps", "1/10", "--k", "1"], "need k >= 2"),
    (["capacity", "ba", "--channel", "bsc11.dmc", "--max-iters", "0"], "max_iters"),
    (["pfa", "search", "--pfa", "d_25.pfa", "--max-len", "-1"], "-1"),
    (["capacity", "converse", "--pfa", "d_25.pfa", "--n", "7", "--trials", "3"], "n <= 6"),
    (["capacity", "converse", "--pfa", "d_25.pfa", "--n", "2", "--trials", "3",
      "--seed", "-1"], "seed"),
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,x"], "--n-list"),
    (["sigma", "decode", "x", "--arity", "1"], "sigma code"),
    (["capacity", "stability", "--val", "0.55", "--delta", "nan", "--n-list", "8,8"], "delta"),
    (["capacity", "bracket", "--pfa", "d_25.pfa", "--delta", "inf"], "delta"),
    (["capacity", "stability", "--val", "0.5", "--delta", "0.1", "--n-list", "0,0"],
     "at least 1"),
    (["capacity", "ba", "--channel", "bsc11.dmc", "--tol", "nan"], "tolerance"),
    (["channel", "sample", "--channel", "v.fsmc", "--input", "1:b", "--seed", "7",
      "--count", "0"], "--count 0"),
    (["channel", "sample", "--channel", "v.fsmc", "--input", "1:b", "--seed", "7",
      "--count", "-3", "--out", "s.txt"], "--count -3"),
    (["pfa", "search", "--pfa", "d_25.pfa", "--max-len", "3", "--budget", "-5"],
     "search budget -5 must be >= 1"),
    (["pfa", "search", "--pfa", "d_25.pfa", "--max-len", "3", "--above", "1/2",
      "--budget", "0"], "search budget 0 must be >= 1"),
    (["capacity", "bracket", "--pfa", "d_25.pfa", "--delta", "0.1", "--block", "0"],
     "period 1 exceeds the block budget 0"),
    (["witness", "--pfa", "d_25.pfa", "--eps", "1/10", "--k", "3"],
     "lifted mode needs an inner word"),
    (["capacity", "bracket", "--pfa", "d_25.pfa", "--delta", "0.1", "--val-bound", "3/2"],
     "3/2"),
    (["capacity", "stability", "--val", "0.5", "--delta", "0.1", "--n-list", "2,2", "--demo",
      "--pfa", "d_25.pfa", "--free", "3", "--etas", ""], "--etas: no values given"),
    (["channel", "sample", "--channel", "v.fsmc", "--input", "1:b", "--seed", "-5"],
     "seed -5 must be >= 0"),
    (["sigma", "encode", "20000/1"], "the code has more than 4300 digits"),
    (["sigma", "encode", "1/20000"], "the code has more than 4300 digits"),
    (["sigma", "decode", "7" * 5000, "--arity", "1"], "sigma code has more than 4300 digits"),
    # flags a mode would ignore: a missing --pfa is not even read
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
      "--pfa", "missing.pfa"], "--pfa is for the demo and needs --demo"),
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
      "--word", "a"], "--word is for the demo and needs --demo"),
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
      "--csv", "st.csv"], "--csv is for the demo and needs --demo"),
    (["witness", "--x", "9/10", "--pfa", "d_25.pfa", "--word", "aaa", "--eps", "1/10",
      "--k", "3", "--csv", "w.csv"], "--x is for plain mode"),
    (["witness", "--x", "3/4", "--word", "aaa", "--eps", "1/10", "--k", "3", "--csv", "w.csv"],
     "--word is for lifted mode and needs --pfa"),
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
      "--free", "9"], "--free is for the demo and needs --demo"),
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
      "--etas", "nan"], "--etas is for the demo and needs --demo"),
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
      "--samples", "5"], "--samples is for the demo and needs --demo"),
    (["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
      "--seed", "3"], "--seed is for the demo and needs --demo"),
])
def test_out_of_range_arguments_exit_1(capsys, tmp_path, monkeypatch, argv, fragment):
    for name in ("d_25.pfa", "bsc11.dmc"):
        (tmp_path / name).write_text(fixtures.fixture_text(name))
    monkeypatch.chdir(tmp_path)
    channel = tmp_path / "v.fsmc"
    channel.write_text(serialize_fsmc(lift(fixtures.d_25())))
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    _assert_one_error_line(code, err, fragment)
    # nothing is written either
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bsc11.dmc", "d_25.pfa", "v.fsmc"]


def _stability_demo(capsys, tmp_path, monkeypatch, *extra):
    (tmp_path / "d_25.pfa").write_text(fixtures.fixture_text("d_25.pfa"))
    monkeypatch.chdir(tmp_path)
    return run_cli(capsys, "capacity", "stability", "--val", "0.55", "--delta", "0.1",
                   "--n-list", "4,4", "--demo", "--word", "b", "--free", "3",
                   "--samples", "100", *extra)


def test_demo_runs_a_long_free_length(capsys, tmp_path, monkeypatch):
    # the factored law costs O(2^m) whatever the free length, so only the
    # word is budgeted
    (tmp_path / "d_25.pfa").write_text(fixtures.fixture_text("d_25.pfa"))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "capacity", "stability", "--val", "0.55", "--delta", "0.1",
                             "--n-list", "8,8", "--demo", "--pfa", "d_25.pfa", "--word", "b",
                             "--free", "200", "--samples", "1000", "--seed", "0")
    assert code == 0 and err == ""
    assert "n=12864 block_rate=0.492537313433" in out.splitlines()[-1]


def test_demo_flags_not_given_take_their_defaults(capsys, tmp_path, monkeypatch):
    (tmp_path / "d_25.pfa").write_text(fixtures.fixture_text("d_25.pfa"))
    monkeypatch.chdir(tmp_path)
    demo = ["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "4,4",
            "--demo", "--pfa", "d_25.pfa", "--word", "b", "--csv", "st.csv"]
    runs = []
    for extra in ([], ["--free", "4", "--etas", "2", "--samples", "10000", "--seed", "0"]):
        code, out, err = run_cli(capsys, *demo, *extra)
        manifest = json.loads((tmp_path / "st.csv.manifest.json").read_text())
        runs.append((code, out, err, (tmp_path / "st.csv").read_text(),
                     manifest["parameters"], manifest["seed"]))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert runs[0][4] == {"val": 0.55, "delta": 0.1, "n_list": [4, 4], "word": "b", "free": 4,
                          "etas": "2", "samples": 10000, "threads": 1}
    assert runs[0][5] == 0


def test_demo_reads_an_unspaced_word_on_the_lifted_alphabet(capsys, tmp_path, monkeypatch):
    # the lifted alphabet holds the two-letter id and rt, yet bb is b b
    runs = [_stability_demo(capsys, tmp_path, monkeypatch, "--pfa", "d_25.pfa", "--word", word)
            for word in ("bb", "b b")]
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""


def test_demo_refuses_a_word_over_the_block_budget(capsys, tmp_path, monkeypatch):
    # the later --word replaces the helper's
    code, out, err = _stability_demo(capsys, tmp_path, monkeypatch, "--pfa", "d_25.pfa",
                                     "--word", " ".join("b" * 14))
    assert out == ""
    _assert_one_error_line(code, err, "over the block budget 14")


def test_demo_rejects_a_non_finite_eta(capsys, tmp_path, monkeypatch):
    # every demo runs before anything is printed
    code, out, err = _stability_demo(capsys, tmp_path, monkeypatch,
                                     "--pfa", "d_25.pfa", "--etas", "nan")
    assert out == ""
    _assert_one_error_line(code, err, "eta nan")


@pytest.mark.parametrize("extra, fragment", [
    # the first demo runs, the second fails: nothing of either is printed
    (["--pfa", "d_25.pfa", "--etas", "1.5,nan"], "eta nan"),
    ([], "--demo needs --pfa"),
])
def test_demo_is_all_or_nothing(capsys, tmp_path, monkeypatch, extra, fragment):
    code, out, err = _stability_demo(capsys, tmp_path, monkeypatch, *extra)
    assert out == ""
    _assert_one_error_line(code, err, fragment)


# the demo on the lifted d_34 coin, short of --val and --etas
_D34_DEMO = ["capacity", "stability", "--delta", "0.1", "--n-list", "8,8", "--demo",
             "--pfa", "d_34.pfa", "--word", "a b", "--free", "7", "--samples", "10000",
             "--seed", "0"]


@pytest.mark.parametrize("argv, golden", [
    # a golden ending in .pfa is the shipped fixture of that name
    pytest.param(["gadget", "dxy", "--x", "3/4", "--y", "1/2"], "d_34.pfa", id="dxy 3/4"),
    pytest.param(["gadget", "dxy", "--x", "2/5", "--y", "1/2"], "d_25.pfa", id="dxy 2/5"),
    pytest.param(["gadget", "family", "--pfa", "amp3.pfa", "--lam", "1"], "family3.pfa",
                 id="family amp3"),
    pytest.param(["capacity", "bracket", "--pfa", "d_34.pfa", "--delta", "0.1", "--block", "14"],
                 "lower: 0.468276099723  (m=8, n=6, delta=0.1)\nupper: 1  [trivial]\n"
                 "gap: 0.531723900277\nvalue estimate at horizon: 0.816284179688\n",
                 id="bracket d_34 block 14"),
    pytest.param([*_D34_DEMO, "--val", "0.21", "--etas", "0.5,1,2"],
                 "t,n_t,m_t,m_formula,m_floor\n1,8,64,3,64\n"
                 "eta=0.5: n=576 block_rate=0.208965639935 empirical=0.806 analytic=2\n"
                 "eta=1: n=576 block_rate=0.208965639935 empirical=0.6111 analytic=2\n"
                 "eta=2: n=576 block_rate=0.208965639935 empirical=0.31 analytic=2\n",
                 id="demo d_34 val 0.21"),
])
def test_command_prints_its_golden_output(capsys, tmp_path, monkeypatch, argv, golden):
    for name in ("amp3.pfa", "d_34.pfa"):
        (tmp_path / name).write_text(fixtures.fixture_text(name))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (fixtures.fixture_text(golden) if golden.endswith(".pfa") else golden)


def test_demo_prints_for_each_eta_what_a_run_with_it_alone_prints(capsys, tmp_path,
                                                                    monkeypatch):
    (tmp_path / "d_34.pfa").write_text(fixtures.fixture_text("d_34.pfa"))
    monkeypatch.chdir(tmp_path)

    def eta_lines(etas):
        code, out, err = run_cli(capsys, *_D34_DEMO, "--val", "0.55", "--etas", etas)
        assert (code, err) == (0, "")
        return [line for line in out.splitlines() if line.startswith("eta=")]

    together = eta_lines("1.5,2,3")
    assert len(together) == 3
    assert together == [line for eta in ("1.5", "2", "3") for line in eta_lines(eta)]


def _search_family3(capsys, tmp_path, max_len):
    family3 = tmp_path / "family3.pfa"
    family3.write_text(fixtures.fixture_text("family3.pfa"))
    return run_cli(capsys, "pfa", "search", "--pfa", family3, "--max-len", max_len)


def test_search_budget_counts_distributions_not_words(capsys, tmp_path):
    # 12,207,031 words of length <= 10 pass the default budget; their
    # distinct distributions do not
    code, out, err = _search_family3(capsys, tmp_path, 10)
    assert code == 0 and err == ""
    assert out == "best word: a c a b b a a a a c\nvalue: 9739/10368\n"


@pytest.mark.parametrize("max_len, word, value", [
    (12, "a c a b b a a a a a a c", "367087/373248"),
    (14, "a c a b b a a a a a a a a c", "13379479/13436928"),
    (16, "a c a b b a a a a a a a a a a c", "483204367/483729408"),
    # past the full walk's reach: what the pruned walk prints
    (20, "a c a b b a a a a a a a a a a a a a a c", "626870368447/626913312768"),
])
def test_pruned_search_prints_what_the_full_walk_printed(capsys, tmp_path, max_len, word, value):
    # what the walk without the horizon bound printed
    code, out, err = _search_family3(capsys, tmp_path, max_len)
    assert code == 0 and err == ""
    assert out == f"best word: {word}\nvalue: {value}\n"


def test_search_never_imports_numpy(tmp_path):
    # only capacity work needs numpy, and capacity imports it on first use
    (tmp_path / "d_34.pfa").write_text(fixtures.fixture_text("d_34.pfa"))
    code = "\n".join([
        "import sys, fsmcap",
        "from fsmcap import capacity, cli",
        "assert cli.main(['pfa', 'search', '--pfa', 'd_34.pfa', '--max-len', '6']) == 0",
        "assert 'numpy' not in sys.modules",
        "assert capacity.entropy([0.5, 0.5]) == 1.0",
        "assert capacity.np is sys.modules['numpy']",
    ])
    src = str(Path(fsmcap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("best word: a b a a a a\n")


def test_bracket_at_a_tiny_delta_prints_a_bracket(capsys, tmp_path, monkeypatch):
    (tmp_path / "d_34.pfa").write_text(fixtures.fixture_text("d_34.pfa"))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "capacity", "bracket", "--pfa", "d_34.pfa",
                             "--delta", "1e-310")
    assert code == 0 and err == ""
    # the longest block of the default budget of 12
    assert out.startswith("lower: 0.412826374953  (m=8, n=4, delta=1e-310)\n")


def test_binary_input_file_is_a_domain_error(capsys, tmp_path):
    binary = tmp_path / "binary.pfa"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli(capsys, "pfa", "validate", "--pfa", binary)
    _assert_one_error_line(code, err, "not a UTF-8 text file")


@pytest.mark.parametrize("case", sorted(CHANNEL_VIOLATIONS))
def test_invalid_channel_file_is_one_error_line(capsys, tmp_path, case):
    old, new, line, _ = CHANNEL_VIOLATIONS[case]
    bad = tmp_path / "bad.fsmc"
    bad.write_text(CHANNEL.replace(old, new))
    code, out, err = run_cli(capsys, "channel", "sample", "--channel", bad, "--input", "u",
                             "--seed", "7")
    assert out == ""
    _assert_one_error_line(code, err, f"{bad}:{line}: ")


def test_bad_threads_variable_is_ignored(tmp_path):
    # no option reads FSMCAP_THREADS, so a malformed value cannot stop a command
    src = str(Path(fsmcap.__file__).resolve().parents[1])
    env = {**os.environ, "FSMCAP_THREADS": "abc",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fsmcap.cli", "sigma", "encode", "1/2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "18\n", "")


def test_non_finite_channel_entry_is_a_domain_error(capsys, tmp_path):
    bad = tmp_path / "nan.dmc"
    bad.write_text("nan 1\n0 1\n")
    code, out, err = run_cli(capsys, "capacity", "ba", "--channel", bad)
    assert out == ""
    _assert_one_error_line(code, err, f"{bad}:1: not a finite number: 'nan'")


def test_channel_entries_past_the_int_digit_limit(capsys, tmp_path):
    # an entry of more than 4,300 digits is read; a refused one is echoed
    # by its first 40 characters
    long = "1/" + "3" * 5000
    ok = tmp_path / "long.dmc"
    ok.write_text(f"{long} 1\n0 1\n")
    code, out, err = run_cli(capsys, "capacity", "ba", "--channel", ok)
    assert (code, err) == (0, "") and out.startswith("capacity: 0\n")
    for token, what in ((long + "x", "not a number"), ("1" + "0" * 5000, "not a finite number")):
        bad = tmp_path / "bad.dmc"
        bad.write_text(f"{token} 1\n0 1\n")
        code, out, err = run_cli(capsys, "capacity", "ba", "--channel", bad)
        assert out == ""
        _assert_one_error_line(code, err, f"{bad}:1: {what}: '{token[:39]}...\n")


@pytest.mark.parametrize("argv", [
    ["pfa", "value", "--pfa", "{dir}", "--word", "a"],
    ["gadget", "dxy", "--x", "3/4", "--y", "1/2", "--out", "{dir}"],
])
def test_unusable_path_is_a_domain_error(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *(tok.format(dir=tmp_path) for tok in argv))
    assert out == ""
    _assert_one_error_line(code, err, f"{tmp_path}: cannot")


def test_main_reuses_one_parser(capsys):
    assert build_parser() is build_parser()
    encode = run_cli(capsys, "sigma", "encode", "1/2")
    assert encode == (0, "18\n", "")
    # help and usage errors exit through the same parser, which a later
    # call still finds as built
    for argv, code in ((["sigma", "--help"], 0), (["sigma", "encode"], 2), (["bogus"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    capsys.readouterr()
    assert run_cli(capsys, "sigma", "encode", "1/2") == encode
    assert build_parser().format_help() == build_parser.__wrapped__().format_help()


def test_ba_that_does_not_converge_exits_1_with_one_error_line(capsys, tmp_path):
    table = tmp_path / "t3.dmc"
    table.write_text("0.9 0.1 0\n0 0.2 0.8\n0.3 0.3 0.4\n")
    code, out, err = run_cli(capsys, "capacity", "ba", "--channel", table, "--max-iters", "3")
    assert "iterations: 3 (not converged)\n" in out
    _assert_one_error_line(code, err, "did not converge in 3 iterations (certified gap ")


def test_converse_with_violations_exits_1_with_one_error_line(capsys, tmp_path, monkeypatch):
    from fsmcap import capacity

    check = capacity.converse_check

    def violated(*args, **kwargs):
        return dataclasses.replace(check(*args, **kwargs), violations=2, raised_horizon=5,
                                   raised_val=0.5)

    monkeypatch.setattr(capacity, "converse_check", violated)
    d25 = tmp_path / "d25.pfa"
    d25.write_text(fixtures.fixture_text("d_25.pfa"))
    code, out, err = run_cli(capsys, "capacity", "converse", "--pfa", d25,
                             "--n", "3", "--trials", "10", "--seed", "1")
    assert "violations: 2/10\nre-check at horizon 5: value 0.5\n" in out
    _assert_one_error_line(code, err, "2/10 trials violate the converse; value at horizon "
                                      "n + 2 = 5: 0.5")


@pytest.mark.parametrize("name, argv", [
    ("d_25.pfa", ["capacity", "bracket", "--pfa", "{in}", "--delta", "0.1", "--block", "6",
                  "--csv", "{out}"]),
    ("v.fsmc", ["channel", "sample", "--channel", "{in}", "--input", "1:b 0:a", "--seed", "7",
                "--out", "{out}"]),
    ("bsc11.dmc", ["capacity", "ba", "--channel", "{in}"]),
])
def test_each_input_is_read_once_and_its_digest_is_of_those_bytes(capsys, tmp_path, monkeypatch,
                                                                   name, argv):
    source = tmp_path / name
    text = (serialize_fsmc(lift(fixtures.d_34())) if name == "v.fsmc"
            else fixtures.fixture_text(name))
    source.write_text(text)
    out = tmp_path / "out.txt"
    reads = []
    with monkeypatch.context() as patch:
        for method in ("read_bytes", "read_text"):
            def counted(self, *args, real=getattr(Path, method), **kwargs):
                reads.append(self)
                return real(self, *args, **kwargs)
            patch.setattr(Path, method, counted)
        code, _, err = run_cli(capsys, *(tok.format(**{"in": source, "out": out}) for tok in argv))
    assert (code, err) == (0, "")
    assert reads == [source]
    if "{out}" in argv:
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["inputs"] == {str(source): hashlib.sha256(source.read_bytes()).hexdigest()}
