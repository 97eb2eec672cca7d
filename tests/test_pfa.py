import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsmcap.pfa import (BudgetError, PfaError, brute_force_value,
                        detect_freeze_reset, emptiness_semidecide, evolve,
                        gamma, iter_words, make_pfa, mat_vec, reach_prob,
                        reduce_extended_word, validate_pfa, value)
from oracles import naive_mat_vec, naive_reach, naive_value

F = Fraction
H = F(1, 2)


def test_validate_example1_clean(example1):
    assert validate_pfa(example1) == []


def test_validate_bad_column_sum(example1):
    bad = make_pfa(example1.states, example1.alphabet,
                   {"a": [[H, 1, 0], [H, 0, H], [F(1, 10), 0, H]],
                    "b": example1.matrices["b"]},
                   example1.initial, example1.accepting)
    violations = validate_pfa(bad)
    assert len(violations) == 1
    assert "column 0" in violations[0] and "11/10" in violations[0]


def test_validate_unknown_accepting(example1):
    bad = make_pfa(example1.states, example1.alphabet, example1.matrices,
                   example1.initial, ["q3", "ghost"])
    violations = validate_pfa(bad)
    assert len(violations) == 1
    assert "ghost" in violations[0]


def test_validate_negative_entry(example1):
    bad = make_pfa(example1.states, example1.alphabet,
                   {"a": [[F(3, 2), 1, 0], [-H, 0, H], [0, 0, H]],
                    "b": example1.matrices["b"]},
                   example1.initial, example1.accepting)
    assert any("negative" in v for v in validate_pfa(bad))


def test_evolve_empty_word(example1):
    assert evolve(example1, ()) == example1.initial


def test_evolve_single_b(example1):
    assert evolve(example1, ("b",)) == (F(0), F(0), F(1))


def test_evolve_baa_accepting_mass(example1):
    dist = evolve(example1, ("b", "a", "a"))
    assert dist[2] == F(1, 4)


def test_evolve_unknown_symbol(example1):
    with pytest.raises(PfaError):
        evolve(example1, ("a", "z"))


def test_value_examples(example1):
    assert value(example1, ("b", "a", "a")) == F(1, 4)
    assert value(example1, ()) == 0
    assert value(example1, ("b",)) == 1


def test_value_matches_naive_oracle(example1, amp3):
    rng = random.Random(7)
    for automaton in (example1, amp3):
        for _ in range(60):
            word = tuple(rng.choice(automaton.alphabet)
                         for _ in range(rng.randrange(0, 8)))
            assert value(automaton, word) == naive_value(automaton, word)


def test_evolve_compositionality(example1, amp3):
    rng = random.Random(11)
    for automaton in (example1, amp3):
        for _ in range(100):
            word = tuple(rng.choice(automaton.alphabet)
                         for _ in range(rng.randrange(0, 10)))
            cut = rng.randrange(0, len(word) + 1)
            via_split = evolve(automaton, word[cut:], start=evolve(automaton, word[:cut]))
            assert evolve(automaton, word) == via_split


def test_mass_conservation(example1, d_34):
    rng = random.Random(13)
    for automaton in (example1, d_34):
        dist = automaton.initial
        for _ in range(30):
            dist = evolve(automaton, (rng.choice(automaton.alphabet),), start=dist)
            assert sum(dist, F(0)) == 1


def test_reach_prob_examples(example1):
    assert reach_prob(example1, "q1", ("a",), "q2") == H
    assert reach_prob(example1, "q2", (), "q2") == 1
    # two a-steps starting at q1 leave q3 empty; from q3 the self-loop
    # probability after two steps is 1/4 (cross-checked with the oracle)
    assert reach_prob(example1, "q1", ("a", "a"), "q3") == 0
    assert reach_prob(example1, "q3", ("a", "a"), "q3") == F(1, 4)
    assert naive_reach(example1, "q1", ("a", "a"), "q3") == 0
    assert naive_reach(example1, "q3", ("a", "a"), "q3") == F(1, 4)


def test_reach_prob_unknown_state(example1):
    with pytest.raises(PfaError):
        reach_prob(example1, "nope", ("a",), "q1")


def test_detect_freeze_reset_absent(example1):
    fr = detect_freeze_reset(example1)
    assert fr.freeze is None and fr.reset is None


def test_detect_freeze_reset_on_lift(example1):
    fr = detect_freeze_reset(gamma(example1))
    assert fr.freeze == "id" and fr.reset == "rt"


def test_detect_reset_point_mass():
    p = make_pfa(["q1", "q2"], ["r"], {"r": [[1, 1], [0, 0]]}, [1, 0], [])
    assert detect_freeze_reset(p).reset == "r"


def test_gamma_counts(amp3):
    lifted = gamma(amp3)
    assert len(lifted.alphabet) == len(amp3.alphabet) + 2
    assert lifted.states == amp3.states
    assert validate_pfa(lifted) == []


def test_gamma_preserves_values(example1):
    lifted = gamma(example1)
    for length in range(0, 5):
        for word in itertools.product(example1.alphabet, repeat=length):
            assert value(lifted, word) == value(example1, word)
            assert value(lifted, ("id",) + word) == value(example1, word)


def test_gamma_reserved_collision(example1):
    with pytest.raises(PfaError):
        gamma(gamma(example1))


def test_reduce_extended_word():
    assert reduce_extended_word(("a", "id", "b")) == ("a", "b")
    assert reduce_extended_word(("a", "b", "rt", "a")) == ("a",)
    assert reduce_extended_word(("id", "id")) == ()
    assert reduce_extended_word(("a", "rt")) == ()


def test_reduce_preserves_value_exhaustive(example1):
    lifted = gamma(example1)
    for length in range(0, 7):
        for word in itertools.product(lifted.alphabet, repeat=length):
            assert value(lifted, word) == value(lifted, reduce_extended_word(word))


def test_brute_force_examples(example1, never_accept):
    r = brute_force_value(example1, 1)
    assert r.best_word == ("b",) and r.best_value == 1
    r0 = brute_force_value(example1, 0)
    assert r0.best_word == () and r0.best_value == 0
    rn = brute_force_value(never_accept, 4)
    assert rn.best_word == () and rn.best_value == 0


def test_brute_force_monotone(example1):
    best = F(-1)
    for max_len in range(0, 6):
        v = brute_force_value(example1, max_len).best_value
        assert v >= best
        best = v


def test_brute_force_budget(example1):
    with pytest.raises(BudgetError):
        brute_force_value(example1, 30, budget=100)


def test_brute_force_tie_break_shortest_then_lex():
    # both symbols reach the accepting state in one step; 'a' wins the tie
    p = make_pfa(["u", "v"], ["a", "b"],
                 {"a": [[0, 0], [1, 1]], "b": [[0, 0], [1, 1]]}, [1, 0], ["v"])
    assert brute_force_value(p, 3).best_word == ("a",)


def test_emptiness_semidecide(example1, never_accept):
    assert emptiness_semidecide(example1, H, 1) == ("b",)
    assert emptiness_semidecide(never_accept, 0, 5) is None
    assert emptiness_semidecide(example1, 1, 5) is None   # values never exceed 1
    with pytest.raises(PfaError):
        emptiness_semidecide(example1, F(3, 2), 3)


def test_iter_words_order():
    words = list(iter_words(("0", "1"), 2))
    assert words == [(), ("0",), ("1",), ("0", "0"), ("0", "1"),
                     ("1", "0"), ("1", "1")]


SPARSE_ENTRIES = st.sampled_from([F(0), F(0), F(0), F(1), H, F(1, 3), F(3, 4)])


@st.composite
def sparse_products(draw):
    n = draw(st.integers(1, 5))
    m = tuple(tuple(draw(SPARSE_ENTRIES) for _ in range(n)) for _ in range(n))
    u = tuple(draw(SPARSE_ENTRIES) for _ in range(n))
    return m, u


ZERO_COLUMN = ((F(0), H, F(0)), (F(0), H, F(0)), (F(1), F(0), F(0)))


@settings(max_examples=200, deadline=None)
@given(sparse_products())
@example((ZERO_COLUMN, (F(0), F(0), F(0))))     # the all-zero vector
@example((ZERO_COLUMN, (F(0), F(0), F(1))))     # mass only on the zero column
@example((ZERO_COLUMN, (H, F(0), H)))
def test_mat_vec_matches_nested_loop(mu):
    m, u = mu
    out = mat_vec(m, u)
    assert type(out) is tuple and all(type(e) is F for e in out)
    assert list(out) == naive_mat_vec(m, u)


@st.composite
def stochastic_columns(draw, n):
    q = draw(st.integers(1, 4))
    hits = draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))
    return [F(hits.count(i), q) for i in range(n)]


@st.composite
def small_pfas(draw):
    """2-4 states, 2-3 symbols, denominators <= 4.  Some draws make the last
    symbol the identity or a copy of the first, forcing repeated
    distributions and value ties."""
    n = draw(st.integers(2, 4))
    states = [f"q{i}" for i in range(n)]
    alphabet = ["a", "b", "c"][:draw(st.integers(2, 3))]
    matrices = {}
    for sym in alphabet:
        cols = [draw(stochastic_columns(n)) for _ in range(n)]
        matrices[sym] = [[cols[j][i] for j in range(n)] for i in range(n)]
    repeat = draw(st.sampled_from(["none", "identity", "copy"]))
    if repeat == "identity":
        matrices[alphabet[-1]] = [[int(i == j) for j in range(n)] for i in range(n)]
    elif repeat == "copy":
        matrices[alphabet[-1]] = matrices[alphabet[0]]
    initial = draw(stochastic_columns(n))
    accepting = [s for s in states if draw(st.booleans())]
    return make_pfa(states, alphabet, matrices, initial, accepting)


@settings(max_examples=100, deadline=None)
@given(small_pfas(), st.integers(0, 5),
       st.fractions(min_value=0, max_value=1, max_denominator=8))
def test_search_matches_full_enumeration(p, max_len, y):
    # Reference: every word, shortest first then lex, scored by the oracle.
    scored = [(w, naive_value(p, w)) for w in iter_words(p.alphabet, max_len)]
    best_word, best_value = scored[0]
    for w, v in scored:
        if v > best_value:
            best_word, best_value = w, v
    result = brute_force_value(p, max_len)
    assert (result.best_word, result.best_value) == (best_word, best_value)
    # The drawn threshold plus every attained value, so ties are exercised.
    for threshold in {y} | {v for _, v in scored}:
        expected = next((w for w, v in scored if v > threshold), None)
        assert emptiness_semidecide(p, threshold, max_len) == expected
