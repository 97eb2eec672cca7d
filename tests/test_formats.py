import dataclasses
import pickle
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmcap import fixtures
from fsmcap.formats import (FormatError, format_rational, parse_dmc, parse_fsmc,
                            parse_pfa, serialize_fsmc, serialize_pfa)
from fsmcap.fsmc import FsmcError, build_V, lift
from fsmcap.pfa import (PfaError, frac, gamma, make_matrix, make_pfa, past_digit_limit,
                        validate_pfa)

GOOD = """\
# worked example
states: q1 q2 q3
alphabet: a b
initial: 1 0 0
accepting: q3
matrix a:
1/2 1 0
1/2 0 1/2
0 0 1/2
matrix b:
0 0 0
0 1 1/2
1 0 1/2
"""


def test_parse_round_trip():
    p = parse_pfa(GOOD)
    assert validate_pfa(p) == []
    assert parse_pfa(serialize_pfa(p)) == p


def test_fixture_files_parse_clean():
    for name in ("example1.pfa", "amp3.pfa", "d_34.pfa", "d_25.pfa", "family3.pfa"):
        assert validate_pfa(fixtures.load_fixture_pfa(name)) == []


def test_shipped_gadget_files_match_builders(d_34, d_25, amp3, family3):
    from fractions import Fraction
    from fsmcap.gadgets import build_D_xy, build_family_member
    assert d_34 == build_D_xy(Fraction(3, 4), Fraction(1, 2))
    assert d_25 == build_D_xy(Fraction(2, 5), Fraction(1, 2))
    assert family3 == build_family_member(amp3, 1)


def test_bad_column_sum_is_line_anchored():
    text = GOOD.replace("0 0 1/2\nmatrix b", "0 0 1/10\nmatrix b")
    with pytest.raises(FormatError) as err:
        parse_pfa(text, source="bad.pfa")
    msg = str(err.value)
    assert msg.startswith("bad.pfa:6:")           # the matrix header line
    assert "column 2" in msg and "sums to" in msg


def test_bad_rational_is_line_anchored():
    text = GOOD.replace("1/2 1 0", "1/2 oops 0")
    with pytest.raises(FormatError) as err:
        parse_pfa(text, source="bad.pfa")
    assert "bad.pfa:7:" in str(err.value) and "oops" in str(err.value)


def test_unknown_accepting_state_rejected():
    text = GOOD.replace("accepting: q3", "accepting: q9")
    with pytest.raises(FormatError) as err:
        parse_pfa(text)
    assert "q9" in str(err.value)


def test_bad_initial_sum_rejected():
    text = GOOD.replace("initial: 1 0 0", "initial: 1 0 1")
    with pytest.raises(FormatError) as err:
        parse_pfa(text)
    assert "sums to 2" in str(err.value)


def test_missing_matrix_rejected():
    text = GOOD[:GOOD.index("matrix b:")]
    with pytest.raises(FormatError) as err:
        parse_pfa(text)
    assert "'b'" in str(err.value)


def test_wrong_row_width_rejected():
    text = GOOD.replace("1/2 1 0\n", "1/2 1\n", 1)
    with pytest.raises(FormatError) as err:
        parse_pfa(text)
    assert "expected 3 entries" in str(err.value)


def test_fsmc_round_trip(example1):
    ch = build_V(gamma(example1))
    text = serialize_fsmc(ch)
    assert parse_fsmc(text) == ch


def test_fsmc_bad_table_rejected(example1):
    ch = build_V(gamma(example1))
    text = serialize_fsmc(ch)
    lines = text.splitlines()
    idx = lines.index("output 0:a:") + 1
    lines[idx] = "1 1 1"
    with pytest.raises(FormatError):
        parse_fsmc("\n".join(lines))


# (old text, new text, line of the violation, the same change on the parsed
# automaton): each leaves exactly one violation, which construction raises.
SINGLE_VIOLATIONS = {
    "column sum": ("0 0 1/2\nmatrix b", "0 0 1/10\nmatrix b", 6,
                   lambda p: dataclasses.replace(p, matrices={**p.matrices, "a": make_matrix(
                       [[Fraction(1, 2), 1, 0], [Fraction(1, 2), 0, Fraction(1, 2)],
                        [0, 0, Fraction(1, 10)]])})),
    "negative entry": ("1/2 1 0\n1/2 0 1/2", "-1/2 1 0\n3/2 0 1/2", 6,
                       lambda p: dataclasses.replace(p, matrices={**p.matrices, "a": make_matrix(
                           [[Fraction(-1, 2), 1, 0], [Fraction(3, 2), 0, Fraction(1, 2)],
                            [0, 0, Fraction(1, 2)]])})),
    "initial sum": ("initial: 1 0 0", "initial: 1 0 1", 4,
                    lambda p: dataclasses.replace(p, initial=(1, 0, 1))),
    "unknown accepting state": ("accepting: q3", "accepting: q9", 5,
                                lambda p: dataclasses.replace(p, accepting=frozenset({"q9"}))),
}


@pytest.mark.parametrize("case", sorted(SINGLE_VIOLATIONS))
def test_parser_reports_the_validator_message(case):
    old, new, line, change = SINGLE_VIOLATIONS[case]
    with pytest.raises(PfaError) as built:
        change(parse_pfa(GOOD))
    violation = str(built.value)
    assert "; " not in violation
    with pytest.raises(FormatError) as err:
        parse_pfa(GOOD.replace(old, new), source="bad.pfa")
    assert str(err.value) == f"bad.pfa:{line}: {violation}"


@pytest.mark.parametrize("rows", [("1/2 1/2 1/2", "1/2 1/2 0"),     # column sum
                                  ("-1/2 1/2 1", "3/2 1/2 0")])     # negative entry
def test_fsmc_parser_reports_the_validator_message(example1, rows):
    ch = build_V(gamma(example1))
    lines = serialize_fsmc(ch).splitlines()
    header = lines.index("output 0:a:")
    lines[header + 1:header + 3] = rows
    bad_table = make_matrix([row.split() for row in rows])
    with pytest.raises(FsmcError) as built:
        dataclasses.replace(ch, output_law={**ch.output_law, "0:a": bad_table})
    violation = str(built.value)
    assert "; " not in violation
    with pytest.raises(FormatError) as err:
        parse_fsmc("\n".join(lines), source="bad.fsmc")
    assert str(err.value) == f"bad.fsmc:{header + 1}: {violation}"


CHANNEL = """\
inputs: u
outputs: 0 1
states: s t
initial: s
output u:
1 1/2
0 1/2
state u:
1 0
0 1
"""

# (old text, new text, line of the violation, the same change on the parsed
# channel): each leaves exactly one violation, which construction raises.
CHANNEL_VIOLATIONS = {
    "duplicate output": ("outputs: 0 1", "outputs: 0 0", 2,
                         lambda ch: dataclasses.replace(ch, outputs=("0", "0"))),
    "duplicate state": ("states: s t", "states: s s", 3,
                        lambda ch: dataclasses.replace(ch, states=("s", "s"))),
    "table for an unknown input": ("state u:\n1 0\n0 1", "state u:\n1 0\n0 1\nstate w:", 11,
                                   lambda ch: dataclasses.replace(
                                       ch, state_law={**ch.state_law, "w": ch.state_law["u"]})),
}


@pytest.mark.parametrize("case", sorted(CHANNEL_VIOLATIONS))
def test_fsmc_parser_and_construction_refuse_alike(case):
    old, new, line, change = CHANNEL_VIOLATIONS[case]
    with pytest.raises(FsmcError) as built:
        change(parse_fsmc(CHANNEL))
    violation = str(built.value)
    assert "; " not in violation
    with pytest.raises(FormatError) as err:
        parse_fsmc(CHANNEL.replace(old, new), source="bad.fsmc")
    assert str(err.value) == f"bad.fsmc:{line}: {violation}"


def test_dmc_parse():
    rows = parse_dmc("89/100 11/100\n0.11 0.89\n")
    assert rows[0][0] == 0.89
    assert rows[1][1] == 0.89
    with pytest.raises(FormatError):
        parse_dmc("1/2 1/2\n1/2\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_dmc_rejects_non_finite_entries(token):
    with pytest.raises(FormatError) as err:
        parse_dmc(f"1/2 1/2\n{token} 1\n", source="bad.dmc")
    assert str(err.value) == f"bad.dmc:2: not a finite number: {token!r}"


def test_bsc11_fixture():
    rows = fixtures.bsc11_rows()
    assert rows == [[0.89, 0.11], [0.11, 0.89]]


def test_format_rational_prints_past_the_int_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    # 5001 and 4401 digits, both past Python's default limit of 4300
    text = format_rational(Fraction(10 ** 5000 + 1, 10 ** 4400))
    assert text == "1" + "0" * 4999 + "1/1" + "0" * 4400
    assert format_rational(Fraction(-3, 4)) == "-3/4" and format_rational(7) == "7"
    # the limit is back where it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_frac_reads_every_printed_value_back_past_the_int_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    value = Fraction(10 ** 5000 + 1, 3 ** 9000)     # 5001 and 4295 digits
    for v in (value, 1 / value, -value, Fraction(1, (10 ** 5000 - 1) // 3)):
        assert frac(format_rational(v)) == v
    assert frac("1/" + "3" * 5000) == Fraction(3, 10 ** 5000 - 1)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_frac_echoes_a_short_prefix_of_a_long_bad_token():
    with pytest.raises(PfaError) as err:
        frac("1/3x" + "3" * 5000)
    assert str(err.value) == "not a rational: '1/3x" + "3" * 35 + "..."
    with pytest.raises(PfaError, match=r"^not a rational: '1/x'$"):
        frac("1/x")


def test_pfa_entries_past_the_int_digit_limit_round_trip():
    e = Fraction(1, 10 ** 5000 + 7)
    p = make_pfa(["s", "t"], ["a"], {"a": [[1 - e, 0], [e, 1]]}, [1 - e, e], ["t"])
    text = serialize_pfa(p)
    assert len(text) > 20_000
    assert parse_pfa(text) == p


def test_each_parse_checks_each_table_once(monkeypatch, family3):
    """The constructor's validator is the only place a table is checked."""
    from fsmcap import formats, fsmc, pfa
    calls = []

    def counting(*args):
        calls.append(args[0])
        return table_violations(*args)

    table_violations = pfa.table_violations
    for module in (pfa, fsmc, formats):
        if hasattr(module, "table_violations"):
            monkeypatch.setattr(module, "table_violations", counting)
    assert parse_pfa(fixtures.fixture_text("family3.pfa")) == family3
    assert len(calls) == 5
    channel = fsmc.lift(family3)
    text = serialize_fsmc(channel)
    calls.clear()
    assert parse_fsmc(text) == channel
    assert len(calls) == 20


def test_construction_errors_keep_their_sections(example1):
    with pytest.raises(PfaError) as err:
        dataclasses.replace(example1, accepting=frozenset({"q9"}),
                            states=example1.states[:-1] + example1.states[-2:-1])
    assert err.value.violations[0][0] == "states"
    assert ("accepting", "accepting state 'q9' is not a state") in err.value.violations
    assert str(err.value) == "; ".join(message for _, message in err.value.violations)
    with pytest.raises(FsmcError) as err:
        dataclasses.replace(parse_fsmc(CHANNEL), initial="z")
    assert err.value.violations == [("initial", "initial state 'z' is not a state")]


UNCOMMENTED = GOOD[GOOD.index("states:"):]   # states on line 1, matrix a on line 5


def test_pfa_violations_are_reported_in_file_order():
    # the validator lists tables before the accepting states; the file does not
    text = (UNCOMMENTED.replace("accepting: q3", "accepting: q9")
            .replace("0 0 1/2\nmatrix b", "0 0 1/10\nmatrix b"))
    with pytest.raises(FormatError) as err:
        parse_pfa(text, source="two.pfa")
    assert str(err.value) == "two.pfa:4: accepting state 'q9' is not a state"
    # a bad table before a missing one: the table's header line
    text = UNCOMMENTED[:UNCOMMENTED.index("matrix b:")].replace("0 0 1/2", "0 0 1/10")
    with pytest.raises(FormatError) as err:
        parse_pfa(text, source="two.pfa")
    assert str(err.value) == "two.pfa:5: matrix 'a' column 2 ('q3') sums to 3/5"


def test_fsmc_violations_are_reported_in_file_order():
    missing_state_table = CHANNEL[:CHANNEL.index("state u:")]
    with pytest.raises(FormatError) as err:
        parse_fsmc(missing_state_table.replace("outputs: 0 1", "outputs: 0 0"), source="two.fsmc")
    assert str(err.value) == "two.fsmc:2: duplicate output symbols"
    with pytest.raises(FormatError) as err:
        parse_fsmc(missing_state_table.replace("1 1/2\n0 1/2", "1 1/2\n1 1/2"), source="two.fsmc")
    assert str(err.value) == "two.fsmc:5: output table 'u' column 0 ('s') sums to 2"
    # the state table written before the output table: the validator lists
    # the output table first, the file the state table
    swapped = CHANNEL.replace("output u:\n1 1/2\n0 1/2\nstate u:\n1 0\n0 1",
                              "state u:\n1 0\n1 1\noutput u:\n1 1/2\n1 1/2")
    with pytest.raises(FormatError) as err:
        parse_fsmc(swapped, source="two.fsmc")
    assert str(err.value) == "two.fsmc:5: state table 'u' column 0 ('s') sums to 2"


def test_a_layout_error_wins_over_an_earlier_violation():
    text = UNCOMMENTED.replace("states: q1 q2 q3", "states: q1 q1 q3").replace("1/2 0 1/2", "1/2 x 1/2")
    with pytest.raises(FormatError) as err:
        parse_pfa(text, source="bad.pfa")
    assert str(err.value) == "bad.pfa:7: matrix 'a': not a rational: 'x'"
    text = CHANNEL.replace("states: s t", "states: s s").replace("state u:\n1 0\n0 1", "state u:\n1 0")
    with pytest.raises(FormatError) as err:
        parse_fsmc(text, source="bad.fsmc")
    assert str(err.value) == "bad.fsmc: unexpected end of file inside state table 'u'"


def test_each_distinct_token_is_converted_once(monkeypatch):
    """family3.pfa has 994 entries and 7 distinct tokens: a parse converts
    each token once, and a serialization prints each entry object once."""
    from fsmcap import formats
    converted, printed = [], []

    def counting_frac(tok):
        converted.append(tok)
        return frac(tok)

    def counting_format(value):
        printed.append(value)
        return format_rational(value)

    monkeypatch.setattr(formats, "frac", counting_frac)
    monkeypatch.setattr(formats, "format_rational", counting_format)
    text = fixtures.fixture_text("family3.pfa")
    p = parse_pfa(text)
    assert sorted(converted) == ["0", "1", "1/2", "1/3", "1/4", "2/3", "3/4"]
    assert serialize_pfa(p) == text
    assert len(printed) == 7
    channel = serialize_fsmc(lift(fixtures.d_34()))
    converted.clear()
    printed.clear()
    assert serialize_fsmc(parse_fsmc(channel)) == channel
    assert len(converted) == len(printed) == 7


# an entry of 4,401 digits, past Python's int-str digit limit
_LONG = Fraction(1, 10 ** 4400 + 7)


@st.composite
def _automata(draw):
    """Small automata whose columns are normalized small weights, so that
    entries repeat, with at times one column holding a 4,401-digit entry."""
    n = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(n)]
    alphabet = ["a", "b", "c"][:draw(st.integers(1, 3))]

    def column():
        weights = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3]), min_size=n, max_size=n))
        weights[draw(st.integers(0, n - 1))] += 1
        return [Fraction(w, sum(weights)) for w in weights]

    matrices = {}
    for sym in alphabet:
        columns = [column() for _ in states]
        matrices[sym] = [[col[i] for col in columns] for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        # the last symbol's first column
        columns[0] = [1 - _LONG, _LONG] + [0] * (n - 2)
        matrices[alphabet[-1]] = [[col[i] for col in columns] for i in range(n)]
    accepting = draw(st.lists(st.sampled_from(states), unique=True))
    return make_pfa(states, alphabet, matrices, column(), accepting)


@settings(max_examples=60, deadline=None)
@given(p=_automata(), decimals=st.booleans())
def test_parse_and_serialize_round_trip(p, decimals):
    text = serialize_pfa(p)
    q = parse_pfa(text)
    assert q == p and past_digit_limit(repr, q) == past_digit_limit(repr, p)
    assert pickle.loads(pickle.dumps(q)) == p
    assert serialize_pfa(q) == text
    if decimals:
        # 1/4 read as 0.25 where it appears as a matrix entry: same values
        lines = text.splitlines(keepends=True)
        lines[5:] = [" ".join("0.25" if tok == "1/4" else tok for tok in line.split(" "))
                     for line in lines[5:]]
        assert parse_pfa("".join(lines)) == p
        assert serialize_pfa(parse_pfa("".join(lines))) == text
    # the channel lift needs a point initial law
    ch = lift(dataclasses.replace(p, initial=(1,) + (0,) * (len(p.states) - 1)))
    channel = serialize_fsmc(ch)
    assert parse_fsmc(channel) == ch
    assert serialize_fsmc(parse_fsmc(channel)) == channel


@pytest.mark.parametrize("text, message", [
    # a bad token that appears twice raises at its first line
    (GOOD.replace("1/2 1 0", "1/2 oops 0").replace("0 1 1/2", "0 oops 1/2"),
     "bad.pfa:7: matrix 'a': not a rational: 'oops'"),
    # a bad token after good ones read before raises at its own line
    (GOOD.replace("0 0 1/2\nmatrix b", "1/2 0 1/0\nmatrix b"),
     "bad.pfa:9: matrix 'a': not a rational: '1/0'"),
])
def test_a_bad_token_raises_at_its_first_line(text, message):
    with pytest.raises(FormatError) as err:
        parse_pfa(text, source="bad.pfa")
    assert str(err.value) == message


_SHIPPED_PFA = sorted(f.name for f in resources.files("fsmcap").joinpath("fixtures").iterdir()
                      if f.name.endswith(".pfa"))


@pytest.mark.parametrize("text, parse, serialize", [
    *(pytest.param(fixtures.fixture_text(name), parse_pfa, serialize_pfa, id=name)
      for name in _SHIPPED_PFA),
    # what `fsmcap channel build --pfa d_34.pfa` writes
    pytest.param(serialize_fsmc(lift(fixtures.d_34())), parse_fsmc, serialize_fsmc,
                 id="lifted-d_34.fsmc"),
])
def test_shipped_files_round_trip_byte_for_byte(text, parse, serialize):
    assert serialize(parse(text)) == text
