import copy
import dataclasses
import gc
import itertools
import pickle
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsmcap import fixtures, formats, fsmc, gadgets, pfa
from fsmcap.pfa import (BudgetError, Pfa, PfaError, brute_force_value,
                        emptiness_semidecide, evolve, gamma, initial_violations,
                        make_pfa, mat_vec, reduce_extended_word, table_violations,
                        validate_pfa, value)
import oracles
from oracles import (naive_initial_violations, naive_mat_vec, naive_reach, naive_search,
                     naive_table_violations, naive_value, naive_violations, shortlex_words)

F = Fraction
H = F(1, 2)


def test_validate_example1_clean(example1):
    assert validate_pfa(example1) == []


def test_validate_bad_column_sum(example1):
    with pytest.raises(PfaError) as err:
        make_pfa(example1.states, example1.alphabet,
                 {"a": [[H, 1, 0], [H, 0, H], [F(1, 10), 0, H]],
                  "b": example1.matrices["b"]},
                 example1.initial, example1.accepting)
    assert str(err.value) == "matrix 'a' column 0 ('q1') sums to 11/10"


def test_validate_unknown_accepting(example1):
    with pytest.raises(PfaError) as err:
        make_pfa(example1.states, example1.alphabet, example1.matrices,
                 example1.initial, ["q3", "ghost"])
    assert str(err.value) == "accepting state 'ghost' is not a state"


def test_validate_negative_entry(example1):
    with pytest.raises(PfaError) as err:
        make_pfa(example1.states, example1.alphabet,
                 {"a": [[F(3, 2), 1, 0], [-H, 0, H], [0, 0, H]],
                  "b": example1.matrices["b"]},
                 example1.initial, example1.accepting)
    assert str(err.value) == "matrix 'a' entry (1,0) = -1/2 is negative"


@pytest.mark.parametrize("where", ["matrix", "initial"])
def test_float_entry_is_a_one_line_error(where):
    # floats that sum to 1.0 exactly are still not exact rationals
    matrices = {"a": ((0.5, 0.5), (0.5, 0.5)) if where == "matrix" else ((H, H), (H, H))}
    initial = (0.25, 0.75) if where == "initial" else (H, H)
    with pytest.raises(PfaError) as err:
        Pfa(states=("s", "t"), alphabet=("a",), matrices=matrices, initial=initial,
            accepting=frozenset({"t"}))
    want = {"matrix": "matrix 'a' entry (0,0) = 0.5 is not an int or a Fraction",
            "initial": "initial entry 0 = 0.25 is not an int or a Fraction"}[where]
    assert str(err.value) == want


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


def _reach(p, src, word, dst):
    """Probability of sitting in dst after `word` from a point mass on src,
    by `evolve`."""
    start = [int(s == src) for s in p.states]
    return evolve(p, word, start=start)[p.state_index(dst)]


def test_reach_prob_examples(example1):
    assert _reach(example1, "q1", ("a",), "q2") == H
    assert _reach(example1, "q2", (), "q2") == 1
    # two a-steps starting at q1 leave q3 empty; from q3 the self-loop
    # probability after two steps is 1/4 (cross-checked with the oracle)
    assert _reach(example1, "q1", ("a", "a"), "q3") == 0
    assert _reach(example1, "q3", ("a", "a"), "q3") == F(1, 4)
    assert naive_reach(example1, "q1", ("a", "a"), "q3") == 0
    assert naive_reach(example1, "q3", ("a", "a"), "q3") == F(1, 4)


def test_state_index_unknown_state(example1):
    assert example1.state_index("q3") == 2
    with pytest.raises(PfaError, match="unknown state 'nope'"):
        example1.state_index("nope")


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


def test_brute_force_budget(family3):
    # the bound cannot cut family3's walk short: a long search still passes
    # a small budget
    with pytest.raises(BudgetError, match="more than 100 distinct distributions"):
        brute_force_value(family3, 30, budget=100)


@pytest.mark.parametrize("name, max_len", [("example1", 8), ("family3", 6), ("amp3", 7)])
def test_budget_counts_distinct_distributions(name, max_len):
    # each boundary is the pruned oracle's count of the distributions the
    # walk sees, expanded or not; never more than the unpruned walk's
    p = getattr(fixtures, name)()
    full = naive_search(p, max_len)
    best = full.result()
    for oracle, search, expected in (
            (naive_search(p, max_len, pruned=True),
             lambda b: brute_force_value(p, max_len, budget=b), best),
            (naive_search(p, max_len, pruned=True, threshold=best.best_value),
             lambda b: emptiness_semidecide(p, best.best_value, max_len, budget=b), None)):
        distinct = len(oracle.visits)
        assert 1 < distinct < len(full.visits)
        assert search(distinct) == expected
        with pytest.raises(BudgetError, match=f"more than {distinct - 1} distinct"):
            search(distinct - 1)


def test_search_rejects_negative_length(example1):
    with pytest.raises(PfaError):
        brute_force_value(example1, -1)
    with pytest.raises(PfaError):
        emptiness_semidecide(example1, H, -1)


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


def test_shortlex_words_order():
    words = list(shortlex_words(("0", "1"), 2))
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
def stochastic_columns(draw, n, max_den=4):
    q = draw(st.integers(1, max_den))
    hits = draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))
    return [F(hits.count(i), q) for i in range(n)]


@st.composite
def small_pfas(draw, max_den=4):
    """2-4 states, 2-3 symbols, denominators <= max_den.  Some draws make the
    last symbol the identity or a copy of the first, forcing repeated
    distributions and value ties."""
    n = draw(st.integers(2, 4))
    states = [f"q{i}" for i in range(n)]
    alphabet = ["a", "b", "c"][:draw(st.integers(2, 3))]
    matrices = {}
    for sym in alphabet:
        cols = [draw(stochastic_columns(n, max_den)) for _ in range(n)]
        matrices[sym] = [[cols[j][i] for j in range(n)] for i in range(n)]
    repeat = draw(st.sampled_from(["none", "identity", "copy"]))
    if repeat == "identity":
        matrices[alphabet[-1]] = [[int(i == j) for j in range(n)] for i in range(n)]
    elif repeat == "copy":
        matrices[alphabet[-1]] = matrices[alphabet[0]]
    initial = draw(stochastic_columns(n, max_den))
    accepting = [s for s in states if draw(st.booleans())]
    return make_pfa(states, alphabet, matrices, initial, accepting)


# three states, columns over the denominators 4, 3, 7 (a) and 5, 1, 1 (b),
# the initial law over 6
MIXED_DENOMINATORS = make_pfa(
    ["q0", "q1", "q2"], ["a", "b"],
    {"a": [[H, F(1, 3), F(2, 7)], [F(1, 4), F(2, 3), F(5, 7)], [F(1, 4), 0, 0]],
     "b": [[F(3, 5), 0, 1], [0, 1, 0], [F(2, 5), 0, 0]]},
    [F(1, 6), F(1, 2), F(1, 3)], ["q2"])


def test_the_kernel_divides_out_what_a_long_word_cancels(uniform_mixer, d_34):
    # every law of the mixer is (1/2, 1/2): 2^400 would be carried unreduced
    (row,), factor = pfa._advance(uniform_mixer, ("a",) * 400, [[1, 0]])
    assert factor.bit_length() <= pfa._REDUCE_BITS + 1
    assert [F(x, factor) for x in row] == [H, H]
    # the coin's laws keep their 4^n denominators: nothing to divide out
    word = ("a",) * 150 + ("b",)
    law = evolve(d_34, word, start=(0, 1, 0, 0, 0, 0, 0, 0))
    assert law[1:4] == (1 - F(3, 4) ** 150, 0, F(3, 4) ** 150)
    assert value(d_34, word) == naive_value(d_34, word)


START_ENTRIES = st.one_of(st.integers(-3, 3),
                          st.fractions(min_value=-2, max_value=2, max_denominator=12))


@settings(max_examples=150, deadline=None)
@given(small_pfas(max_den=7), st.data())
@example(MIXED_DENOMINATORS, None)
def test_integer_kernel_matches_the_nested_loop(p, data):
    # evolve and value against the naive products,
    # from the initial law and from start vectors that are not laws or hold ints
    if data is None:
        word, start = ("a", "b", "a", "a"), (2, F(-1, 3), 0)
    else:
        # up to 40 letters: long enough that the kernel divides out gcds
        word = tuple(data.draw(st.lists(st.sampled_from(p.alphabet), max_size=40)))
        start = tuple(data.draw(st.lists(START_ENTRIES, min_size=p.n_states,
                                         max_size=p.n_states)))
    want = list(start)
    for sym in word:
        want = naive_mat_vec(p.matrices[sym], want)
    got = evolve(p, word, start=start)
    assert list(got) == want
    if word:
        assert type(got) is tuple and all(type(e) is F for e in got)
    else:
        assert got == tuple(start) and list(map(type, got)) == list(map(type, start))
    assert value(p, word) == naive_value(p, word)
    assert type(value(p, word)) is F
    src, dst = p.states[0], p.states[-1]
    assert _reach(p, src, word, dst) == naive_reach(p, src, word, dst)
    assert sum(_reach(p, src, word, s) for s in p.states) == 1


@settings(max_examples=100, deadline=None)
@given(small_pfas(), st.integers(0, 5),
       st.fractions(min_value=0, max_value=1, max_denominator=8))
def test_search_matches_full_enumeration(p, max_len, y):
    # Reference: every word, shortest first then lex, scored by the oracle.
    scored = [(w, naive_value(p, w)) for w in shortlex_words(p.alphabet, max_len)]
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


def _assert_search_matches(p, oracle, max_len, thresholds):
    assert brute_force_value(p, max_len) == oracle.result(max_len)
    for threshold in thresholds:
        assert emptiness_semidecide(p, threshold, max_len) == oracle.first_above(threshold, max_len)


THRESHOLDS = (F(0), F(1, 4), H, F(3, 4), F(1))


@pytest.mark.parametrize("name", ["example1", "amp3", "d_34", "d_25", "family3"])
def test_search_matches_fraction_walk_on_fixtures(name):
    p = getattr(fixtures, name)()
    oracle = naive_search(p, 8)
    for max_len in range(9):
        best = oracle.result(max_len).best_value
        _assert_search_matches(p, oracle, max_len, THRESHOLDS + (best, best / 2))


def test_search_matches_fraction_walk_on_amp3_at_length_11(amp3):
    oracle = naive_search(amp3, 11)
    _assert_search_matches(amp3, oracle, 11, THRESHOLDS + (oracle.result().best_value,))


COIN_XS = sorted({F(a, q) for q in range(1, 9) for a in range(q + 1)})


@pytest.mark.parametrize("x", COIN_XS, ids=str)
def test_search_matches_fraction_walk_on_coins(x):
    y = (H, F(1, 4), F(3, 8))[COIN_XS.index(x) % 3]
    p = gadgets.build_D_xy(x, y)
    oracle = naive_search(p, 12)
    _assert_search_matches(p, oracle, 12, (y, y / 2, oracle.result().best_value))


@settings(max_examples=100, deadline=None)
@given(small_pfas(max_den=64), st.integers(0, 6),
       st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_search_matches_fraction_walk_with_large_denominators(p, max_len, y):
    oracle = naive_search(p, max_len)
    values = {v for _, v in oracle.visits}
    _assert_search_matches(p, oracle, max_len, {y} | set(sorted(values)[-3:]))


def test_search_leaves_no_allocated_blocks_behind(family3):
    # CPython parks freed short tuples on free lists that only a full
    # collection empties; a walk that made one per visit would grow the
    # allocator's blocks with every search run without such a collection.
    coin = gadgets.build_D_xy(F(3, 5), H)

    def searches():
        brute_force_value(family3, 5)
        brute_force_value(coin, 8)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            searches()
        before = sys.getallocatedblocks()
        for _ in range(30):
            searches()
        growth = sys.getallocatedblocks() - before
    finally:
        if was_enabled:
            gc.enable()
    assert growth <= 5 * 60


def test_search_follows_a_replaced_automaton(d_34):
    # the integer columns are kept with the automaton; a replaced one must
    # build its own, so the second search sees the changed column
    assert brute_force_value(d_34, 6) == naive_search(d_34, 6).result()
    a = [list(row) for row in d_34.matrices["a"]]
    j = next(j for j in range(d_34.n_states) if a[j][j] != 1)
    for row in a:
        row[j] = F(0)
    a[j][j] = F(1)
    held = dataclasses.replace(
        d_34, matrices={**d_34.matrices, "a": tuple(map(tuple, a))})
    oracle = naive_search(held, 6)
    assert oracle.result() != naive_search(d_34, 6).result()
    _assert_search_matches(held, oracle, 6, THRESHOLDS)


@pytest.mark.parametrize("name", ["example1", "family3"])
def test_search_leaves_the_automaton_unchanged(name):
    p = getattr(fixtures, name)()
    before = (dataclasses.replace(p), repr(p), formats.serialize_pfa(p))
    brute_force_value(p, 4)
    assert (p, repr(p), formats.serialize_pfa(p)) == before


def test_search_refuses_a_budget_below_one(example1):
    for budget in (0, -5):
        with pytest.raises(PfaError, match=f"^search budget {budget} must be >= 1$"):
            brute_force_value(example1, 3, budget=budget)
        with pytest.raises(PfaError, match=f"^search budget {budget} must be >= 1$"):
            emptiness_semidecide(example1, H, 0, budget=budget)


def _random_pfa(rng, n):
    """n states over {a, b}, laws with denominators <= 4, random accepting
    states."""
    states = [f"q{i}" for i in range(n)]

    def law():
        q = rng.randint(1, 4)
        hits = [rng.randrange(n) for _ in range(q)]
        return [F(hits.count(i), q) for i in range(n)]

    matrices = {}
    for sym in "ab":
        cols = [law() for _ in range(n)]
        matrices[sym] = [[cols[j][i] for j in range(n)] for i in range(n)]
    return make_pfa(states, "ab", matrices, law(), [s for s in states if rng.random() < 0.5])


PRUNE_PANEL = ([f"random{i}" for i in range(24)] + [f"coarse{i}" for i in range(6)]
               + ["example1", "amp3", "d_34", "d_25", "family3"])


@pytest.mark.parametrize("name", PRUNE_PANEL)
def test_pruned_walk_matches_the_unpruned_oracle(name, monkeypatch):
    if name.startswith("random"):
        i = int(name.removeprefix("random"))
        p, max_len = _random_pfa(random.Random(i), 1 + i % 4), 9
    elif name.startswith("coarse"):
        # a 6-bit grid, so that the bound is rounded within a few levels
        monkeypatch.setattr(pfa, "_BOUND_BITS", 6)
        monkeypatch.setattr(oracles, "BOUND_BITS", 6)
        i = int(name.removeprefix("coarse"))
        p = _random_pfa(random.Random(f"coarse{i}"), 2 + i % 3)
        p, max_len = dataclasses.replace(p, accepting=frozenset(p.states[-1:])), 9
    else:
        p, max_len = getattr(fixtures, name)(), 7
    _assert_search_matches(p, naive_search(p, max_len), max_len, (F(0), F(1, 4), H, F(3, 4)))
    # the walk prunes exactly where the pruned oracle does: it sees as many
    # distributions
    for threshold, search in ((None, lambda b: brute_force_value(p, max_len, budget=b)),
                              (H, lambda b: emptiness_semidecide(p, H, max_len, budget=b))):
        seen = len(naive_search(p, max_len, pruned=True, threshold=threshold).visits)
        search(seen)
        if seen > 1:
            with pytest.raises(BudgetError):
                search(seen - 1)


def test_the_bound_is_rounded_up_onto_its_grid():
    # V_k(s) = 1 - (2/3)^k has denominator 3^k, past 2^64 from k = 41 on
    p = make_pfa(["s", "t"], ["a"], {"a": [[F(2, 3), 0], [F(1, 3), 1]]}, [1, 0], ["t"])
    horizon = p._horizon
    horizon.index(80, 80)
    levels = [tuple(F(x, den) for x in nums) for nums, den in horizon.levels]
    assert (levels, horizon.settled) == oracles.naive_horizon(p, 80)
    assert len(levels) == 81 and all(den <= 2 ** 64 for _, den in horizon.levels)
    for k, (vs, vt) in enumerate(levels):
        assert 1 - F(2, 3) ** k <= vs <= 1 and vt == 1
        assert k < 41 or vs > 1 - F(2, 3) ** k
    assert [v for v, _ in levels] == sorted(v for v, _ in levels)


def test_a_stationary_start_ends_the_walk_at_its_first_empty_level():
    # every letter fixes the start, so level 1 is empty and a search to
    # 10**6 stops there, with no bound built past depth 1
    p = make_pfa(["u", "v"], ["a", "b"], {"a": [[0, 1], [1, 0]], "b": [[H, H], [H, H]]},
                 [H, H], ["v"])
    assert brute_force_value(p, 10**6) == pfa.SearchResult(best_word=(), best_value=H)
    assert emptiness_semidecide(p, H, 10**6) is None
    assert emptiness_semidecide(p, F(1, 4), 10**6) == ()
    assert len(p._horizon.levels) <= 2


def test_an_empty_alphabet_builds_no_lookahead_set():
    # a set costs nothing without symbols, so none may be paid for
    p = make_pfa(["s", "t"], [], {}, [1, 0], ["t"])
    assert brute_force_value(p, 10**6) == pfa.SearchResult(best_word=(), best_value=F(0))
    assert p._horizon.sets == {}


def test_the_bound_is_built_no_deeper_than_the_walk_pays_for():
    # one new distribution per level, (2^-l, 1 - 2^-l), and every one beats
    # the last, so nothing is pruned.  A child at depth l needs V_{40-l} and
    # may build it once l + 1 distributions are expanded: from l = 20 on
    p = make_pfa(["s", "t"], ["a"], {"a": [[H, 0], [H, 1]]}, [1, 0], ["t"])
    assert brute_force_value(p, 40) == pfa.SearchResult(("a",) * 40, 1 - F(1, 2**40))
    assert len(p._horizon.levels) - 1 == 20


def test_the_budget_boundary_does_not_depend_on_earlier_searches():
    # a deeper search builds and keeps more lookahead sets; a later walk
    # uses only those it pays for itself, so it sees as many distributions
    seen = len(naive_search(fixtures.family3(), 12, pruned=True).visits)
    fresh, warm = fixtures.family3(), fixtures.family3()
    brute_force_value(warm, 16)
    assert len(warm._horizon.sets) > 0
    for p in (fresh, warm):
        brute_force_value(p, 12, budget=seen)
        with pytest.raises(BudgetError, match=f"more than {seen - 1} distinct"):
            brute_force_value(p, 12, budget=seen - 1)
    assert len(warm._horizon.sets) > len(fresh._horizon.sets)


@pytest.mark.parametrize("name, max_len", [("family3", 10), ("family3", 14), ("d_25", 14),
                                           ("d_34", 14), ("amp3", 10), ("example1", 12)])
def test_a_first_walk_builds_no_more_set_work_than_its_own_work(name, max_len):
    # set work counts backward products and dominance checks; walk work the
    # child distributions the walk computes
    for search, threshold in ((lambda p: brute_force_value(p, max_len), None),
                              (lambda p: emptiness_semidecide(p, H, max_len), H)):
        p = getattr(fixtures, name)()
        search(p)
        assert p._horizon.set_work <= naive_search(p, max_len, True, threshold).work


def test_family3_to_length_14_sees_at_most_2000_distributions():
    # the state-observed bound alone lets the walk see 16,488
    seen = len(naive_search(fixtures.family3(), 14, pruned=True).visits)
    assert seen <= 2000
    brute_force_value(fixtures.family3(), 14, budget=seen)
    with pytest.raises(BudgetError):
        brute_force_value(fixtures.family3(), 14, budget=seen - 1)


def _extension_values(p, u, k):
    """max over the words w of length <= k of the accepted mass of u after
    w, by explicit products."""
    accepting = [i for i, s in enumerate(p.states) if s in p.accepting]
    best, level = sum(u[i] for i in accepting), [u]
    for _ in range(k):
        level = [naive_mat_vec(p.matrices[sym], v) for v in level for sym in p.alphabet]
        best = max([best] + [sum(v[i] for i in accepting) for v in level])
    return best


@settings(max_examples=60, deadline=None)
@given(small_pfas(), st.integers(0, 6), st.data())
def test_lookahead_sets_bound_every_extension(p, k, data):
    # A_k^(d) = S_(k-d)^d: max over alpha of u.alpha bounds every extension
    # of u by at most k letters, every alpha is at most V_k, and with d = k
    # the bound is exact.  No cap, so the sets are whole.
    d = data.draw(st.integers(0, k))
    horizon = p._horizon
    with mock.patch.object(pfa, "_SET_CAP", sys.maxsize):
        assert horizon.index(k, k) is not None
        vectors, den, _ = horizon.node(k - d, d)
    v_nums, v_den = horizon.levels[horizon.index(k, k)]
    assert den <= 2 ** 64
    for alpha in vectors:
        assert all(F(a, den) <= F(v, v_den) for a, v in zip(alpha, v_nums))
    n = p.n_states
    for u in [p.initial] + [tuple(F(int(i == j)) for i in range(n)) for j in range(n)]:
        bound = max(sum(F(a * x, den) for a, x in zip(alpha, u)) for alpha in vectors)
        best = _extension_values(p, u, k)
        assert bound >= best
        if d == k:
            assert bound == best


def test_matrices_are_read_only():
    p = fixtures.d_34()
    assert brute_force_value(p, 4).best_value == F(93, 128)
    b = p.matrices["b"]
    changes = [lambda m: m.__setitem__("a", b), lambda m: m.__delitem__("a"),
               lambda m: m.update(a=b), lambda m: m.pop("a"), lambda m: m.popitem(),
               lambda m: m.clear(), lambda m: m.setdefault("z", b)]
    for change in changes:
        with pytest.raises(TypeError, match="read-only"):
            change(p.matrices)
    m = p.matrices
    with pytest.raises(TypeError, match="read-only"):
        m |= {"a": b}
    assert p.matrices == fixtures.d_34().matrices
    assert brute_force_value(p, 4).best_value == F(93, 128)


def test_replace_builds_a_checked_automaton_with_fresh_caches(d_34):
    brute_force_value(d_34, 6)
    swapped = dataclasses.replace(d_34, matrices={**d_34.matrices, "a": d_34.matrices["b"]})
    assert type(swapped.matrices) is type(d_34.matrices)
    assert brute_force_value(swapped, 6) == naive_search(swapped, 6).result()
    assert swapped._columns is not d_34._columns and swapped._horizon is not d_34._horizon
    with pytest.raises(PfaError, match="matrix 'a' column 0"):
        dataclasses.replace(d_34, matrices={**d_34.matrices, "a": ((F(1),) * 8,) * 8})


def test_repr_lists_the_accepting_states_sorted(family3):
    assert repr(family3).endswith(", accepting=frozenset(['q3', 'q5a']))")
    for accepting in (["q5a", "q3"], ["q3", "q5a"]):
        assert repr(dataclasses.replace(family3, accepting=frozenset(accepting))) == repr(family3)


@pytest.mark.parametrize("name", ["example1", "family3"])
def test_read_only_matrices_keep_repr_equality_pickle_and_copies(name):
    p = getattr(fixtures, name)()
    brute_force_value(p, 3)
    assert repr(p.matrices) == repr(dict(p.matrices)) and p.matrices == dict(p.matrices)
    assert formats.serialize_pfa(p) == fixtures.fixture_text(f"{name}.pfa")
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert twin == p and repr(twin) == repr(p)
        assert type(twin.matrices) is type(p.matrices)
        assert brute_force_value(twin, 5) == brute_force_value(p, 5)


# ---------------------------------------------------------------------------
# Validation on construction.
# ---------------------------------------------------------------------------

# Entry perturbations: off by a small rational (often with a new
# denominator), negated, or replaced by a plain int.
perturbations = st.one_of(
    st.tuples(st.just("shift"), st.fractions(min_value=-1, max_value=1, max_denominator=7)),
    st.tuples(st.just("negate"), st.none()),
    st.tuples(st.just("int"), st.integers(-1, 2)),
)


def _perturb(e, how):
    kind, arg = how
    return e + arg if kind == "shift" else -e if kind == "negate" else arg


@settings(max_examples=150, deadline=None)
@given(small_pfas(), st.data())
def test_exact_checks_match_fraction_sums(p, data):
    n = p.n_states
    matrices = {sym: [list(row) for row in m] for sym, m in p.matrices.items()}
    initial = list(p.initial)
    for _ in range(data.draw(st.integers(0, 3))):
        how = data.draw(perturbations)
        sym = data.draw(st.sampled_from(p.alphabet + ("initial",)))
        j = data.draw(st.integers(0, n - 1))
        if sym == "initial":
            initial[j] = _perturb(initial[j], how)
        else:
            i = data.draw(st.integers(0, n - 1))
            matrices[sym][i][j] = _perturb(matrices[sym][i][j], how)
    for sym, m in matrices.items():
        assert (table_violations(f"matrix {sym!r}", m, n, p.states)
                == naive_table_violations(f"matrix {sym!r}", m, n, p.states))
    assert initial_violations(initial, n) == naive_initial_violations(initial, n)
    want = naive_violations(p.states, p.alphabet, matrices, initial, p.accepting)
    fields = dict(states=p.states, alphabet=p.alphabet, matrices=matrices,
                  initial=tuple(initial), accepting=p.accepting)
    if want:
        with pytest.raises(PfaError) as err:
            Pfa(**fields)
        assert str(err.value) == "; ".join(want)
    else:
        assert validate_pfa(Pfa(**fields)) == []


@pytest.fixture
def check_pfa_calls(monkeypatch):
    """Count the checks: Pfa construction calls check_pfa by its module
    global, so a patched global sees every one."""
    calls = []
    original = pfa.check_pfa

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(pfa, "check_pfa", counting)
    return calls


def test_built_automata_are_not_checked_again(check_pfa_calls, family3, amp3):
    brute_force_value(family3, 3)
    emptiness_semidecide(family3, H, 3)
    fsmc.build_V(family3)
    assert len(check_pfa_calls) == 0
    # each builder constructs one automaton and checks only that one
    for build in (lambda: gadgets.build_D_xy(F(3, 4), H),
                  lambda: gadgets.build_D_Ay(amp3, H),
                  lambda: gadgets.build_B_p(amp3, H),
                  lambda: gadgets.build_C_p(amp3, H)):
        check_pfa_calls.clear()
        built = build()
        assert check_pfa_calls == [built]


def test_every_construction_checks_once(check_pfa_calls, example1):
    text = formats.serialize_pfa(example1)
    lifted = fsmc.build_V(example1)
    makers = (
        lambda: make_pfa(example1.states, example1.alphabet, example1.matrices,
                         example1.initial, example1.accepting),
        lambda: Pfa(example1.states, example1.alphabet, example1.matrices,
                    example1.initial, example1.accepting),
        lambda: dataclasses.replace(example1, accepting=frozenset({"q2"})),
        lambda: gamma(example1),
        lambda: fsmc.unlift(lifted),
        lambda: formats.parse_pfa(text),
    )
    for make in makers:
        check_pfa_calls.clear()
        built = make()
        assert check_pfa_calls == [built]
