import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmcap import fixtures
from fsmcap.capacity import (BlockChannel, BracketBudget, CapacityError,
                             ControlSchedule, DiscreteChannel, _chain_report,
                             _float_prefix_profiles, achievable_rate, blahut_arimoto,
                             block_profile, block_spectrum, bsc, capacity_bracket,
                             converse_check, entropy, induced_block_channel,
                             spectrum_concentration_demo, spectrum_concentration_demos,
                             stability_schedule)
from fsmcap.fsmc import FsmcError, build_V, lift, unlift
from fsmcap.gadgets import build_D_xy
from fsmcap.pfa import PfaError, gamma, make_pfa
from oracles import naive_block_table
from test_pfa import small_pfas

F = Fraction
H = F(1, 2)


# ---------------------------------------------------------------------------
# Information measures.
# ---------------------------------------------------------------------------

def test_entropy_basics():
    assert entropy([0.5, 0.5]) == 1.0
    assert entropy([1.0, 0.0]) == 0.0
    assert abs(entropy([0.25] * 4) - 2.0) < 1e-12
    with pytest.raises(CapacityError):
        entropy([0.5, 0.4])


def test_distribution_checks_take_the_dimension():
    with pytest.raises(CapacityError, match="1-dimensional"):
        entropy([[0.5, 0.5]])
    with pytest.raises(CapacityError, match="negative"):
        entropy([1.5, -0.5])


# ---------------------------------------------------------------------------
# Blahut-Arimoto.
# ---------------------------------------------------------------------------

def test_ba_noiseless():
    r = blahut_arimoto(bsc(0.0), tol=1e-9)
    assert abs(r.capacity - 1.0) <= 1e-9 and r.converged


def test_ba_useless():
    r = blahut_arimoto(bsc(0.5), tol=1e-9)
    assert abs(r.capacity) <= 1e-9 and r.converged


def test_ba_bsc_closed_form():
    r = blahut_arimoto(bsc(0.11), tol=1e-8)
    assert abs(r.capacity - (1 - entropy([0.11, 0.89]))) <= 1e-6


def test_ba_asymmetric_monotone_lower_bounds():
    # Z-channel: known asymmetric optimum
    ch = DiscreteChannel(np.array([[1.0, 0.0], [0.3, 0.7]]))
    r = blahut_arimoto(ch, tol=1e-10)
    assert r.converged
    lbs = r.lower_bounds
    assert all(b >= a - 1e-12 for a, b in zip(lbs, lbs[1:]))
    assert r.gap <= 1e-10
    # capacity of this Z-channel, independent closed form
    eps = 0.3
    s = eps ** (eps / (1 - eps))
    want = math.log2(1 + (1 - eps) * s)
    assert abs(r.capacity - want) <= 1e-8


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_ba_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(CapacityError, match="tolerance"):
        blahut_arimoto(bsc(0.11), tol=tol)


def test_ba_iteration_cap():
    ch = DiscreteChannel(np.array([[1.0, 0.0], [0.3, 0.7]]))
    r = blahut_arimoto(ch, tol=1e-300, max_iters=3)
    assert not r.converged and r.iterations == 3 and r.gap > 0
    with pytest.raises(CapacityError):
        blahut_arimoto(ch, max_iters=0)


def test_channel_validation():
    for rows in ([[0.5, 0.4], [0.5, 0.5]], [[math.nan, 1.0], [0.5, 0.5]],
                 [[math.inf, 1.0], [0.5, 0.5]]):
        with pytest.raises(CapacityError):
            DiscreteChannel(np.array(rows))
        with pytest.raises(CapacityError):
            BlockChannel(np.array(rows[0]))


def test_block_channel_validation():
    for bad in ([1.0], [0.25, 0.25, 0.5], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]):
        with pytest.raises(CapacityError):
            BlockChannel(np.array(bad))


def _profiles():
    """Nonnegative agreement profiles of period 1-6, with zeros, point
    masses and the uniform profile among them."""
    def normalised(weights):
        w = np.array(weights, dtype=float)
        return w / w.sum()
    period = st.integers(1, 6)
    weighted = period.flatmap(lambda n: st.lists(
        st.integers(0, 1000) | st.just(0), min_size=1 << n, max_size=1 << n)
        .filter(any).map(normalised))
    point = period.flatmap(lambda n: st.integers(0, (1 << n) - 1).map(
        lambda k: normalised([int(i == k) for i in range(1 << n)])))
    uniform = period.map(lambda n: np.full(1 << n, 1.0 / (1 << n)))
    return weighted | point | uniform


@settings(max_examples=150, deadline=None)
@given(_profiles())
def test_structured_ba_matches_dense(g):
    block = BlockChannel(g)
    table = DiscreteChannel(naive_block_table(block.profile, g.size.bit_length() - 1))
    # BA stops at the uniform input on these symmetric channels, so check
    # both contractions at a skewed input law as well
    r = np.random.default_rng(g.size).random(g.size) + 0.1
    r /= r.sum()
    q = table.output_law(r)
    assert np.abs(block.output_law(r) - q).max() <= 1e-12
    assert np.abs(block.divergences(q) - table.divergences(q)).max() <= 1e-12
    structured = blahut_arimoto(block, tol=1e-9)
    dense = blahut_arimoto(table, tol=1e-9)
    assert structured.iterations == dense.iterations
    assert structured.converged == dense.converged
    assert abs(structured.capacity - dense.capacity) <= 1e-12
    assert abs(structured.gap - dense.gap) <= 1e-12


# ---------------------------------------------------------------------------
# Block channels.
# ---------------------------------------------------------------------------

def test_schedule_controls():
    s = ControlSchedule(word=("b", "a"), free_slots=3)
    assert s.period == 5
    assert s.controls() == ("b", "a", "id", "id", "rt")
    with pytest.raises(CapacityError):
        ControlSchedule(word=(), free_slots=0)


def test_block_identity_for_always_accepting(always_accept):
    ch = build_V(gamma(always_accept))
    block = induced_block_channel(ch, ControlSchedule(word=(), free_slots=3))
    assert np.allclose(naive_block_table(block.profile, 3), np.eye(8))


def test_block_uniform_for_never_accepting(never_accept):
    ch = build_V(gamma(never_accept))
    block = induced_block_channel(ch, ControlSchedule(word=(), free_slots=3))
    assert np.allclose(naive_block_table(block.profile, 3), np.full((8, 8), 1 / 8))


def test_block_matrix_matches_the_naive_table(example1, d_25, d_34, always_accept, never_accept):
    for automaton, word, free in ((example1, ("b",), 5), (d_25, ("b", "b"), 4),
                                  (d_34, ("a", "a", "b"), 3), (always_accept, (), 3),
                                  (never_accept, (), 3)):
        ch = build_V(gamma(automaton))
        sched = ControlSchedule(word=word, free_slots=free)
        want = naive_block_table(block_profile(ch, sched), sched.period)
        got = naive_block_table(induced_block_channel(ch, sched).profile, sched.period)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_ba_rate_at_the_block_budget(d_25):
    ch = build_V(gamma(d_25))
    uniform = achievable_rate(ch, ("b", "b"), 12)
    tracemalloc.start()
    try:
        rate = achievable_rate(ch, ("b", "b"), 12, input_mode="ba")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense 2^14 x 2^14 table alone would take 2 GiB
    assert peak < 16 * 2 ** 20
    assert abs(rate - uniform) <= 1e-6 * 14


def test_block_budget_guard(always_accept):
    ch = build_V(gamma(always_accept))
    with pytest.raises(CapacityError):
        induced_block_channel(ch, ControlSchedule(word=(), free_slots=20))


def test_block_stationarity_needs_reset(example1):
    # schedules always end in the reset symbol by construction, so two
    # consecutive periods have exactly the same law; spot-check by comparing
    # the one-period law against a manual two-period unroll
    from fsmcap.capacity import accept_pattern_dist
    ch = build_V(gamma(example1))
    sched = ControlSchedule(word=("b",), free_slots=2)
    controls = sched.controls()
    one = accept_pattern_dist(ch, controls)
    two = accept_pattern_dist(ch, controls + controls)
    n = sched.period
    folded = {}
    for mask, pr in two.items():
        tail = mask >> n
        folded[tail] = folded.get(tail, F(0)) + pr
    assert folded == one


def test_block_rate_matches_ba_on_small_block(example1):
    ch = build_V(gamma(example1))
    sched = ControlSchedule(word=("b",), free_slots=5)
    uniform = achievable_rate(ch, sched.word, sched.free_slots)
    block = induced_block_channel(ch, sched)
    r = blahut_arimoto(block, tol=1e-9)
    assert abs(r.capacity / sched.period - uniform) <= 1e-8


def test_achievable_rate_edges(always_accept, never_accept):
    assert achievable_rate(build_V(gamma(never_accept)), (), 6) <= 1e-9
    assert achievable_rate(build_V(gamma(always_accept)), (), 6) == 1.0


def test_achievable_rate_ba_never_worse(example1):
    ch = build_V(gamma(example1))
    uniform = achievable_rate(ch, ("b",), 5, input_mode="uniform")
    optimized = achievable_rate(ch, ("b",), 5, input_mode="ba")
    assert optimized >= uniform - 1e-6


def test_achievability_chain_holds(d_34, d_25):
    for gadget, word in ((d_34, ("a", "a", "b")), (d_25, ("b", "b"))):
        ch = build_V(gamma(gadget))
        chain = _chain(ch, ControlSchedule(word=word, free_slots=7))
        assert chain.chain_holds
        assert chain.h_total <= chain.m + 1 + (1 - chain.word_value) * chain.n + 1e-9


def test_high_value_short_word_reaches_rate_070():
    # a word of value 0.9 and length 1: the schedule rule n >= (1+(v-2d)m)/d
    # at delta = 0.1 asks for n = 17, capped by the block budget to 13
    toy = make_pfa(["r", "g"], ["u"],
                   {"u": [[F(1, 10), F(1, 10)], [F(9, 10), F(9, 10)]]},
                   [1, 0], ["g"])
    ch = build_V(gamma(toy))
    rate = achievable_rate(ch, ("u",), 13)
    assert rate >= 0.7


def test_witness_block_rate_bracket(d_34):
    # rate of a block built on a word of value v obeys
    # [n(v - delta) - 1]/(m + n) <= rate for any delta >= 0
    from fsmcap.pfa import value as pfa_value
    word = ("a", "a", "b", "a", "a", "b")
    v = float(pfa_value(d_34, word))
    ch = build_V(gamma(d_34))
    n_free = 6
    rate = achievable_rate(ch, word, n_free)
    assert rate >= (n_free * v - 1) / (len(word) + n_free) - 1e-9


# ---------------------------------------------------------------------------
# The factored freeze/reset law against the two-walk oracle.
# ---------------------------------------------------------------------------

def _chain(ch, sched):
    """The entropy chain `achievable_rate` checks before it returns a rate."""
    return _chain_report(sched, *_float_prefix_profiles(ch.automaton, sched))


def _agrees_with_the_oracle(ch, sched):
    """Same profile Fractions and spectrum atoms as the two-walk oracle, and
    the rate and the chain within 1e-12."""
    from oracles import (naive_block_profile, naive_block_spectrum, naive_chain_fields,
                         naive_uniform_rate)
    want = naive_block_profile(ch, sched)
    assert block_profile(ch, sched) == want
    for got, ref in zip(block_spectrum(ch, sched), naive_block_spectrum(want, sched.period)):
        assert np.array_equal(got, ref)
    rate = achievable_rate(ch, sched.word, sched.free_slots)
    assert abs(rate - naive_uniform_rate(want, sched.period)) <= 1e-12
    chain = _chain(ch, sched)
    got = (chain.h_total, chain.h_prefix, chain.h_suffix)
    for g, r in zip(got, naive_chain_fields(want, sched)):
        assert abs(g - r) <= 1e-12


@pytest.mark.parametrize("name", ["example1", "amp3", "d_34", "d_25", "family3",
                                  "always_accept", "never_accept"])
def test_factored_law_matches_the_two_walk_oracle(name, request):
    a = request.getfixturevalue(name)
    ch = lift(a)
    symbols = [s for s in a.alphabet if s not in ("id", "rt")]
    for m in range(4):
        words = list(itertools.islice(itertools.product(symbols, repeat=m), 3))
        # three words at short free lengths, one at the block budget
        for word, free in [(w, f) for w in words for f in (1, 2, 5)] + [(words[0], 14 - m)]:
            _agrees_with_the_oracle(ch, ControlSchedule(word=word, free_slots=free))


@settings(max_examples=60, deadline=None)
@given(small_pfas(), st.data())
def test_factored_law_matches_the_oracle_on_random_automata(p, data):
    start = data.draw(st.integers(0, p.n_states - 1))
    p = dataclasses.replace(p, initial=tuple(F(int(i == start)) for i in range(p.n_states)))
    word = tuple(data.draw(st.lists(st.sampled_from(p.alphabet), max_size=4)))
    sched = ControlSchedule(word=word, free_slots=data.draw(st.integers(1, 5)))
    _agrees_with_the_oracle(lift(p), sched)


def test_rates_at_long_free_lengths(d_25):
    # word b has value 1/2; the rate climbs toward it as n grows, each rate
    # from O(2^m) exact work
    from fsmcap.pfa import value as pfa_value
    ch = lift(d_25)
    word = ("b",)
    v = float(pfa_value(d_25, word))
    rates = []
    for n in (100, 1000, 10_000):
        rate = achievable_rate(ch, word, n)
        chain = _chain(ch, ControlSchedule(word, n))
        assert math.isfinite(rate) and chain.chain_holds
        assert rate >= (n * v - 1) / (len(word) + n) - 1e-12
        rates.append(rate)
    assert rates[0] < rates[1] < rates[2] < v
    # the budget guards what costs: the m + 1 slots the factored law walks,
    # and the 2^period entries of an expanded profile
    long_word = ControlSchedule(("b",) * 14, 1)
    for call in (block_spectrum,
                 lambda ch, s: achievable_rate(ch, s.word, s.free_slots),
                 lambda ch, s: spectrum_concentration_demo(ch, s, m_blocks=1, eta=2,
                                                           delta=0.1, samples=1, seed=0)):
        with pytest.raises(CapacityError, match="walks 15 slots, over the block budget 14"
                           ) as err:
            call(ch, long_word)
        assert "\n" not in str(err.value)
    period_15 = ControlSchedule(word, 14)
    for call in (block_profile, induced_block_channel,
                 lambda ch, s: achievable_rate(ch, s.word, s.free_slots, input_mode="ba")):
        with pytest.raises(CapacityError, match="period 15 exceeds the block budget 14"
                           ) as err:
            call(ch, period_15)
        assert "\n" not in str(err.value)


def test_reset_is_checked_on_its_matrix():
    # rt sends s and t to the initial law but keeps u, which no walk from s
    # reaches: both periods of the two-walk oracle agree, yet rt is not the
    # reset, and every freeze/reset path refuses the channel
    from oracles import naive_block_profile
    a = make_pfa(["s", "t", "u"], ["a", "id", "rt"],
                 {"a": [[H, 1, 0], [H, 0, 0], [0, 0, 1]],
                  "id": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  "rt": [[1, 1, 0], [0, 0, 0], [0, 0, 1]]},
                 [1, 0, 0], ["t"])
    ch = build_V(a)
    sched = ControlSchedule(word=("a",), free_slots=3)
    assert len(naive_block_profile(ch, sched)) == 1 << sched.period
    for call in (block_profile, block_spectrum,
                 lambda ch, s: achievable_rate(ch, s.word, s.free_slots)):
        with pytest.raises(CapacityError, match="not identically distributed") as err:
            call(ch, sched)
        assert "\n" not in str(err.value)


def test_factored_law_guards(d_25):
    lifted = gamma(d_25)
    sched = ControlSchedule(word=("b",), free_slots=3)
    # a freeze that moves the state breaks the factored law
    moving = build_V(dataclasses.replace(
        lifted, matrices={**lifted.matrices, "id": lifted.matrices["b"]}))
    with pytest.raises(CapacityError, match="not the identity") as err:
        achievable_rate(moving, ("b",), 3)
    assert "\n" not in str(err.value)
    # a reset that keeps the state makes consecutive blocks differ
    sticky = build_V(dataclasses.replace(
        lifted, matrices={**lifted.matrices, "rt": lifted.matrices["id"]}))
    for call in (block_profile, block_spectrum,
                 lambda ch, s: achievable_rate(ch, s.word, s.free_slots)):
        with pytest.raises(CapacityError, match="not identically distributed"):
            call(sticky, sched)
    # an atom 2^-n g below the float range is an error, not a math domain
    # error, whether one atom leaves it or, past the exponent range, all do
    ch = build_V(lifted)
    with pytest.raises(CapacityError, match="atom at free length 1022 underflows"):
        block_spectrum(ch, ControlSchedule(("b",), 1022))
    with pytest.raises(CapacityError, match="free length 1100 is past the float exponent"):
        block_spectrum(ch, ControlSchedule(("b",), 1100))
    values, probs = block_spectrum(ch, ControlSchedule(("b",), 1000))
    assert np.all(np.isfinite(values)) and abs(probs.sum() - 1) <= 1e-12


@pytest.mark.parametrize("name", ["d_25", "always_accept"])
def test_spectrum_refuses_a_huge_free_length_up_front(name, request):
    # always_accept has G0 = 0, so no atom underflows there: only the free
    # length guard keeps the spectrum from building 10^7-bit integers
    ch = lift(request.getfixturevalue(name))
    sched = ControlSchedule(("b",), 10 ** 7)
    tracemalloc.start()
    try:
        for call in (block_spectrum,
                     lambda ch, s: spectrum_concentration_demo(ch, s, m_blocks=1, eta=2,
                                                               delta=0.1, samples=1, seed=0)):
            with pytest.raises(CapacityError, match="past the float exponent range") as err:
                call(ch, sched)
            assert "\n" not in str(err.value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# Converse and brackets.
# ---------------------------------------------------------------------------

def test_converse_always_accepting(always_accept):
    ch = build_V(gamma(always_accept))
    report = converse_check(ch, n=3, trials=20, seed=1)
    assert report.passed
    assert report.entropy_bound == 0.0


def test_converse_never_accepting(never_accept):
    ch = build_V(gamma(never_accept))
    report = converse_check(ch, n=3, trials=20, seed=2)
    assert report.passed
    assert abs(report.min_conditional_entropy - 3.0) <= 1e-9
    assert report.max_rate <= 1e-9


def test_converse_d25(d_25):
    ch = build_V(gamma(d_25))
    report = converse_check(ch, n=4, trials=100, seed=3)
    assert report.passed
    assert report.val_horizon == 0.5
    assert report.max_rate <= 0.5 + 1e-9


def test_bracket_always_accepting(always_accept):
    br = capacity_bracket(always_accept, 0.1, BracketBudget(word_len=4, block=12))
    assert br.lower == 1.0 and br.upper == 1.0
    assert br.certificate == "value-1 word"


def test_bracket_example1(example1):
    br = capacity_bracket(example1, 0.1, BracketBudget(word_len=4, block=12))
    assert br.upper == 1.0 and br.certificate == "value-1 word"
    assert br.lower >= 1 - 2 * 0.1


def test_bracket_separation(d_25, always_accept, never_accept):
    from fsmcap.gadgets import build_family_member
    lam = 1.0
    low = capacity_bracket(d_25, 0.1, BracketBudget(word_len=6, block=12),
                           val_bound=H)
    assert low.upper <= 0.5
    assert low.lower <= low.upper + 1e-9
    high = capacity_bracket(always_accept, 0.1, BracketBudget(word_len=4, block=12))
    assert high.lower >= lam - 2 * 0.1
    member_low = build_family_member(never_accept, 1)
    br = capacity_bracket(member_low, 0.1, BracketBudget(word_len=5, block=10),
                          val_bound=H)
    assert br.upper <= 0.5 and br.lower <= br.upper + 1e-9


def test_bracket_at_a_tiny_delta_takes_the_longest_block(d_34):
    # the suggested free length is clamped before it is rounded up, so a
    # delta whose quotient overflows a float picks the block budget
    budget = BracketBudget(word_len=4, block=12)
    tiny = capacity_bracket(d_34, 1e-310, budget)
    small = capacity_bracket(d_34, 1e-300, budget)
    m = tiny.provenance["m"]
    assert tiny.provenance["n"] == small.provenance["n"] == budget.block - m
    assert tiny.lower == small.lower and math.isfinite(tiny.lower)


def test_bracket_refuses_a_split_initial_law():
    split = make_pfa(["s", "t"], ["a"], {"a": [[H, H], [H, H]]}, [H, H], ["t"])
    with pytest.raises(FsmcError, match="^channel lift needs a deterministic initial "
                                        "distribution$"):
        capacity_bracket(split, 0.1, BracketBudget(word_len=3, block=8))


def test_bracket_budget_monotone(example1):
    small = capacity_bracket(example1, 0.1, BracketBudget(word_len=2, block=8))
    big = capacity_bracket(example1, 0.1, BracketBudget(word_len=4, block=12))
    assert big.lower >= small.lower - 1e-12
    assert big.upper <= small.upper + 1e-12


def test_bracket_refuses_a_value_bound_outside_the_unit_interval(monkeypatch, d_25):
    # a value lies in [0, 1]; a bound outside it is refused before the search
    budget = BracketBudget(word_len=2, block=6)
    searches = _count_calls(monkeypatch, "brute_force_value")
    for bound in (F(3, 2), -1, 1.5, math.nan, -math.inf):
        with pytest.raises(CapacityError, match=r"^value bound .+ outside \[0, 1\]$"):
            capacity_bracket(d_25, 0.1, budget, val_bound=bound)
    assert not searches
    for bound in (0, 1):
        capacity_bracket(d_25, 0.1, budget, val_bound=bound)
    assert len(searches) == 2


# ---------------------------------------------------------------------------
# Stability schedule and concentration demo.
# ---------------------------------------------------------------------------

def test_stability_schedule_formula():
    sched = stability_schedule(1.0, 0.1, [4, 4])
    stage = sched.stages[0]
    want = math.ceil((2.0 / (4 * 0.1)) * 4 * (1.0 - 0.1))
    assert stage.m_formula == want
    assert stage.m_t == max(want, 16)
    assert stage.m_floor == 16


def test_stability_schedule_floor_dominates():
    sched = stability_schedule(0.9, 0.2, [2, 8, 8])
    for stage in sched.stages:
        assert stage.m_t >= stage.m_floor


def test_stability_schedule_validation():
    with pytest.raises(CapacityError):
        stability_schedule(1.0, 0.1, [4])
    with pytest.raises(CapacityError):
        stability_schedule(1.0, 0.1, [8, 4])
    with pytest.raises(CapacityError):
        stability_schedule(0.0, 0.1, [4, 4])
    for n_list in ([0, 0], [0, 4], [-1, 4]):
        with pytest.raises(CapacityError, match="at least 1"):
            stability_schedule(0.5, 0.1, n_list)


def _mixer_toy():
    """Frozen state is accepting w.p. 3/4 after one symbol: block rate ~0.56."""
    return make_pfa(["r", "g"], ["u"],
                    {"u": [[F(1, 4), F(1, 4)], [F(3, 4), F(3, 4)]]},
                    [1, 0], ["g"])


def test_demo_deterministic_point_mass(always_accept):
    ch = build_V(gamma(always_accept))
    sched = ControlSchedule(word=(), free_slots=4)
    rep = spectrum_concentration_demo(ch, sched, m_blocks=32, eta=2, delta=0.1,
                                      samples=2000, seed=5)
    assert rep.block_rate == 1.0
    assert rep.empirical_tail_val == 0.0


def test_demo_toy_below_analytic():
    ch = build_V(gamma(_mixer_toy()))
    sched = ControlSchedule(word=("u",), free_slots=7)
    schedule = stability_schedule(0.55, 0.1, [8, 8])
    rep = spectrum_concentration_demo(ch, sched, m_blocks=schedule.stages[0].m_t,
                                      eta=2, delta=0.1, samples=10_000, seed=11)
    sigma = math.sqrt(max(rep.analytic_rate * (1 - rep.analytic_rate), 1e-12)
                      / rep.samples)
    assert rep.empirical_tail_rate <= rep.analytic_rate + 3 * sigma
    assert rep.block_rate > 0.5


@pytest.mark.parametrize("eta, delta, fragment", [
    (math.nan, 0.1, "eta"), (math.inf, 0.1, "eta"), (-math.inf, 0.1, "eta"),
    (2, 0.0, "delta"), (2, -0.1, "delta"), (2, math.nan, "delta"), (2, math.inf, "delta"),
])
def test_demo_rejects_out_of_range_eta_and_delta(always_accept, eta, delta, fragment):
    ch = build_V(gamma(always_accept))
    sched = ControlSchedule(word=(), free_slots=4)
    with pytest.raises(CapacityError, match=fragment):
        spectrum_concentration_demo(ch, sched, m_blocks=4, eta=eta, delta=delta,
                                    samples=10, seed=0)


def test_demo_stage_guard(always_accept, never_accept):
    ch = build_V(gamma(always_accept))
    sched = ControlSchedule(word=(), free_slots=4)
    with pytest.raises(CapacityError):
        spectrum_concentration_demo(ch, sched, m_blocks=4, eta=2, delta=0.1,
                                    samples=10, seed=-1)
    # a zero block rate leaves nothing to normalize the tails by
    with pytest.raises(CapacityError):
        spectrum_concentration_demo(build_V(gamma(never_accept)), sched, m_blocks=4,
                                    eta=2, delta=0.1, samples=10, seed=0)


def _three_state_mixer():
    """Irregular rational columns: a word of length m gives a spectrum of
    up to 2^m atoms, so the demo's atom count is set by the word."""
    return make_pfa(["r", "g", "h"], ["u", "v"],
                    {"u": [[F(1, 7), F(2, 5), F(1, 3)], [F(4, 7), F(1, 5), F(1, 3)],
                           [F(2, 7), F(2, 5), F(1, 3)]],
                     "v": [[F(3, 11), H, F(1, 9)], [F(5, 11), F(1, 4), F(7, 9)],
                           [F(3, 11), F(1, 4), F(1, 9)]]},
                    [1, 0, 0], ["g"])


@pytest.mark.parametrize("word, atoms, m_blocks, samples", [
    ((), 1, 32, 2000),
    (("u", "v"), 4, 64, 3000),
    # 2^17 samples take 32 blocks a column chunk, so 40 blocks need two
    (("u", "v"), 4, 40, 1 << 17),
    (("u", "v", "u", "v", "u", "v", "u", "u"), 256, 16, 3000),
])
def test_demo_draws_equal_generator_choice(always_accept, word, atoms, m_blocks, samples):
    from oracles import naive_concentration_demo

    from fsmcap.capacity import _DEMO_COUNT_ATOMS
    inner = always_accept if not word else _three_state_mixer()
    ch = lift(inner)
    sched = ControlSchedule(word=word, free_slots=3)
    assert len(block_spectrum(ch, sched)[0]) == atoms
    assert (atoms > _DEMO_COUNT_ATOMS) == (len(word) == 8)
    for seed, val in ((0, None), (9, 0.3)):
        args = (ch, sched, m_blocks, 1.5, 0.1, samples, seed, val)
        assert spectrum_concentration_demo(*args) == naive_concentration_demo(*args)


@pytest.mark.parametrize("word, atoms", [(("b", "b"), 2), (("a", "a"), 3)])
def test_coin_demo_draws_equal_generator_choice(word, atoms):
    # the spectrum sizes of the benchmark's lifted coins, on the counting path
    from oracles import naive_concentration_demo
    ch = lift(build_D_xy(F(5, 6), H))
    sched = ControlSchedule(word=word, free_slots=7)
    assert len(block_spectrum(ch, sched)[0]) == atoms
    for seed, val in ((0, None), (9, 0.3)):
        args = (ch, sched, 64, 1.5, 0.1, 2000, seed, val)
        assert spectrum_concentration_demo(*args) == naive_concentration_demo(*args)


@pytest.mark.parametrize("word, m_blocks, samples", [((), 32, 2000), (("u", "v"), 64, 3000)])
def test_one_draw_serves_every_eta(always_accept, word, m_blocks, samples):
    from oracles import naive_concentration_demo

    ch = lift(always_accept if not word else _three_state_mixer())
    sched = ControlSchedule(word=word, free_slots=3)
    etas = (1.5, 2, 3, 0.5, 2)
    for seed, val in ((0, None), (9, 0.3)):
        reports = spectrum_concentration_demos(ch, sched, m_blocks, etas, 0.1, samples, seed, val)
        assert [r.eta for r in reports] == [float(e) for e in etas]
        for eta, rep in zip(etas, reports):
            args = (ch, sched, m_blocks, eta, 0.1, samples, seed, val)
            assert rep == spectrum_concentration_demo(*args) == naive_concentration_demo(*args)


@pytest.mark.parametrize("etas, fragment", [
    ((2, math.nan), "eta"), ((math.inf, 2), "eta"), ((1.5, 2, -math.inf), "eta"), ((), "eta"),
])
def test_demos_refuse_a_bad_eta_before_any_draw(always_accept, monkeypatch, etas, fragment):
    from fsmcap import capacity

    def no_draw(*args):
        raise AssertionError("drew before checking every eta")

    monkeypatch.setattr(capacity, "block_spectrum", no_draw)
    monkeypatch.setattr(capacity, "_density_sums", no_draw)
    ch = build_V(gamma(always_accept))
    sched = ControlSchedule(word=(), free_slots=4)
    with pytest.raises(CapacityError, match=fragment):
        spectrum_concentration_demos(ch, sched, 4, etas, 0.1, samples=10, seed=0)


def test_demo_draws_in_bounded_memory():
    ch = build_V(gamma(_mixer_toy()))
    sched = ControlSchedule(word=("u",), free_slots=7)
    tracemalloc.start()
    try:
        rep = spectrum_concentration_demo(ch, sched, m_blocks=64, eta=2, delta=0.1,
                                          samples=10_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_total == 64 * 8
    # drawing the (samples, blocks) array at once takes about 15 MiB
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# Lift structure, converse engine and block-profile reuse.
# ---------------------------------------------------------------------------

def _data_blind(ch):
    """The lift with every `1:c` output law replaced by the `0:c` one: the
    output no longer depends on the data bit."""
    laws = dict(ch.output_law)
    for sym in ch.inputs:
        if sym.startswith("1:"):
            laws[sym] = ch.output_law["0:" + sym[2:]]
    return dataclasses.replace(ch, output_law=laws)


def test_data_blind_output_rejected(d_34):
    from fsmcap.capacity import accept_pattern_dist
    from fsmcap.fsmc import FsmcError, validate_fsmc
    blind = _data_blind(build_V(gamma(d_34)))
    # a well-formed channel, but not the lift of any automaton: refused on
    # every call, with the same message
    assert validate_fsmc(blind) == []
    messages = set()
    for call in (lambda: accept_pattern_dist(blind, ("a", "b")),
                 lambda: achievable_rate(blind, ("a", "b"), 7),
                 lambda: converse_check(blind, n=2, trials=3)) * 2:
        with pytest.raises(FsmcError) as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1
    # forwarding under one control and a fair coin under another
    lift = build_V(gamma(d_34))
    coin = tuple(tuple(H for _ in row) for row in lift.output_law["0:b"])
    mixed = dataclasses.replace(lift, output_law={**lift.output_law, "0:b": coin, "1:b": coin})
    with pytest.raises(FsmcError):
        achievable_rate(mixed, ("a", "b"), 7)


def test_converse_rejects_empty_sizes(d_25):
    ch = build_V(gamma(d_25))
    for n, trials in ((0, 10), (-1, 10), (3, 0), (3, -2)):
        with pytest.raises(CapacityError):
            converse_check(ch, n=n, trials=trials)
    with pytest.raises(CapacityError):
        converse_check(ch, n=3, trials=10, seed=-1)


@pytest.mark.parametrize("name", ["d_25", "d_34", "always_accept", "never_accept"])
def test_converse_trials_match_naive_loop(name, request):
    from oracles import naive_converse_trial_stats

    from fsmcap.capacity import _converse_trial_stats
    ch = build_V(gamma(request.getfixturevalue(name)))
    # 20 trials span more than one chunk of the vectorised pass at n = 4
    for n in (1, 2, 3, 4):
        for seed in (0, 5, 11):
            got = _converse_trial_stats(unlift(ch), n, 20, seed)
            want = naive_converse_trial_stats(ch, n, 20, seed)
            assert len(got) == len(want) == 20
            for (h, rate), (h_ref, rate_ref) in zip(got, want):
                assert abs(h - h_ref) <= 1e-12 and abs(rate - rate_ref) <= 1e-12


@pytest.mark.parametrize("name", ["d_25", "d_34"])
def test_converse_trials_do_not_depend_on_batching(name, request, monkeypatch):
    # a trial reads the same floats alone or among others, in chunks of any size
    import fsmcap.capacity as capacity
    a = gamma(request.getfixturevalue(name))
    want = {n: capacity._converse_trial_stats(a, n, 12, 1) for n in (3, 5)}
    for n, stats in want.items():
        for trials in (1, 2, 5):
            assert capacity._converse_trial_stats(a, n, trials, 1) == stats[:trials]
    for entries in (1 << 8, 1 << 20):
        monkeypatch.setattr(capacity, "_CONVERSE_CHUNK_ENTRIES", entries)
        for n, stats in want.items():
            assert capacity._converse_trial_stats(a, n, 12, 1) == stats


@settings(max_examples=100, deadline=None)
@given(small_pfas(), st.data())
def test_integer_pattern_walk_matches_the_fraction_walk(p, data):
    from oracles import _naive_pattern_walk

    from fsmcap.capacity import _control_pattern_laws, _pattern_law
    controls = tuple(data.draw(st.lists(st.sampled_from(p.alphabet), max_size=5)))
    law, den = _pattern_law(p, controls)
    fractions = {mask: F(x, den) for mask, x in law.items()}
    assert fractions == _naive_pattern_walk(p, controls, p.initial)[0]
    n = len(controls)
    if n == 0:
        return
    laws = _control_pattern_laws(p, n)
    words = list(itertools.product(p.alphabet, repeat=n))
    assert laws.shape == (len(words), 1 << n)
    # every row at short lengths, the drawn word's row at any length
    for w in words if n <= 3 else [controls]:
        law, _ = _naive_pattern_walk(p, w, p.initial)
        want = [float(law.get(mask, 0)) for mask in range(1 << n)]
        assert np.array_equal(laws[words.index(w)], want)


PROBS = st.fractions(min_value=0, max_value=1, max_denominator=97)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda length: st.tuples(
    st.just(length),
    st.dictionaries(st.integers(0, (1 << length) - 1), PROBS, max_size=12))))
def test_agreement_profile_matches_naive_sum(case):
    from oracles import naive_agreement_profile

    from fsmcap.capacity import agreement_profile
    length, pattern_dist = case
    got = agreement_profile(pattern_dist, length)
    assert got == naive_agreement_profile(pattern_dist, length)
    assert all(type(g) is Fraction for g in got)


def _count_calls(monkeypatch, name, module=None):
    import fsmcap.capacity as capacity
    module = capacity if module is None else module
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_uniform_rate_builds_one_block_profile(monkeypatch, d_34):
    # the profile is built once, in factored form, and never expanded
    ch = build_V(gamma(d_34))
    factored = _count_calls(monkeypatch, "_prefix_profiles")
    expanded = _count_calls(monkeypatch, "block_profile")
    achievable_rate(ch, ("a", "b"), 7)
    assert len(factored) == 1 and not expanded


def test_each_schedule_is_walked_once(monkeypatch, d_34):
    ch = build_V(gamma(d_34))
    sched = ControlSchedule(word=("a", "b"), free_slots=7)
    walks = _count_calls(monkeypatch, "_pattern_law")
    for call in (lambda: achievable_rate(ch, sched.word, sched.free_slots),
                 lambda: block_spectrum(ch, sched),
                 lambda: capacity_bracket(d_34, 0.1, BracketBudget(word_len=4, block=12))):
        walks.clear()
        call()
        assert len(walks) == 1


def test_float_paths_build_no_exact_profile(monkeypatch, d_34):
    # the ba rate, the spectrum and the bracket read the factored integer
    # law; none expands or sums an exact Fraction profile
    ch = build_V(gamma(d_34))
    sched = ControlSchedule(word=("a", "b"), free_slots=7)
    expanded = _count_calls(monkeypatch, "block_profile")
    summed = _count_calls(monkeypatch, "agreement_profile")
    walks = _count_calls(monkeypatch, "_pattern_law")
    for call in (lambda: achievable_rate(ch, sched.word, sched.free_slots, input_mode="ba"),
                 lambda: block_spectrum(ch, sched),
                 lambda: capacity_bracket(d_34, 0.1, BracketBudget(word_len=4, block=12))):
        walks.clear()
        call()
        assert len(walks) == 1
    assert not expanded and not summed


@functools.cache
def _lifted_fixture(name):
    return lift(getattr(fixtures, name)())


def _lifted_channels():
    """Channel lifts of the shipped fixtures and of coin gadgets D_xy."""
    coins = st.tuples(st.fractions(0, 1, max_denominator=12),
                      st.fractions(0, H, max_denominator=12)).map(
        lambda xy: lift(build_D_xy(*xy)))
    names = st.sampled_from(["example1", "amp3", "d_34", "d_25", "family3"])
    return names.map(_lifted_fixture) | coins


@settings(max_examples=100, deadline=None)
@given(_lifted_channels(), st.data())
def test_float_paths_are_the_floats_of_the_exact_profile(ch, data):
    symbols = [s for s in ch.automaton.alphabet if s not in ("id", "rt")]
    word = tuple(data.draw(st.lists(st.sampled_from(symbols), max_size=5)))
    sched = ControlSchedule(word=word, free_slots=data.draw(st.integers(1, 14 - len(word))))
    bp = block_profile(ch, sched)
    exact = np.array([float(x) for x in bp])
    assert np.array_equal(induced_block_channel(ch, sched).profile, exact)
    # the factored profiles: 2^n times the low rows, and the last row less them
    m, n = len(word), sched.free_slots
    low, full = bp[:1 << m], bp[-(1 << m):]
    g0, g1, _ = _float_prefix_profiles(ch.automaton, sched)
    assert np.array_equal(g0, [float(x * (1 << n)) for x in low])
    assert np.array_equal(g1, [float(y - x) for x, y in zip(low, full)])
    ba = blahut_arimoto(BlockChannel(exact), tol=1e-6 * sched.period)
    assert achievable_rate(ch, word, n, input_mode="ba") == ba.capacity / sched.period


def test_bracket_builds_no_channel(monkeypatch, d_34):
    import fsmcap.fsmc as fsmc
    built = _count_calls(monkeypatch, "build_V", fsmc)
    read = _count_calls(monkeypatch, "unlift", fsmc)
    capacity_bracket(d_34, 0.1, BracketBudget(word_len=4, block=12))
    assert not built and not read


def test_converse_derives_structure_once(monkeypatch, d_25):
    import fsmcap.fsmc as fsmc
    from fsmcap.capacity import accept_pattern_dist
    ch = build_V(gamma(d_25))
    calls = _count_calls(monkeypatch, "unlift", fsmc)
    converse_check(ch, n=3, trials=5, seed=1)
    converse_check(ch, n=2, trials=3, seed=2)
    accept_pattern_dist(ch, ("a", "b"))
    assert len(calls) == 1


def test_converse_n6_within_memory_bound(d_25):
    import tracemalloc
    ch = build_V(gamma(d_25))
    tracemalloc.start()
    try:
        report = converse_check(ch, n=6, trials=100, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.trials == 100
    # every intermediate is live inside this peak
    assert peak < 64 * 2 ** 20


def _with_matrix(p, symbol, m, alphabet=None):
    """p with `symbol`'s matrix replaced by m (or added, with `alphabet`)."""
    return dataclasses.replace(p, alphabet=alphabet or p.alphabet,
                               matrices={**p.matrices, symbol: m})


def test_each_automaton_checks_its_reserved_symbols_once(monkeypatch):
    # the rates and the spectrum check the channel's automaton once; the
    # bracket lifts the coin once (gamma builds the pair for the coin) and
    # checks that lift once
    import fsmcap.pfa as pfa
    coin = build_D_xy(F(5, 6), H)
    ch = build_V(gamma(coin))
    built = _count_calls(monkeypatch, "freeze_and_reset", pfa)
    for _ in range(2):
        achievable_rate(ch, ("a", "b"), 7)
        achievable_rate(ch, ("b", "a"), 5, input_mode="ba")
        capacity_bracket(coin, 0.1, BracketBudget(word_len=4, block=12))
        block_spectrum(ch, ControlSchedule(word=("a",), free_slots=7))
    automata = [args[0] for args in built]
    assert len(automata) == len({id(p) for p in automata}) == 3
    assert any(p is ch.automaton for p in automata) and any(p is coin for p in automata)


def test_repeated_brackets_lift_each_automaton_once(monkeypatch, d_25):
    import fsmcap.fsmc as fsmc
    import fsmcap.pfa as pfa
    runs = [(6, 0.1), (12, 0.05), (9, 0.2)]
    fresh = [dataclasses.replace(d_25), dataclasses.replace(build_D_xy(F(1, 4), H))]
    # each on a copy of its own, which lifts itself
    want = [[capacity_bracket(dataclasses.replace(a), delta, BracketBudget(word_len=4, block=block))
             for block, delta in runs] for a in fresh]
    lifts = _count_calls(monkeypatch, "lifted_automaton", fsmc)
    gammas = _count_calls(monkeypatch, "gamma", fsmc)
    checks = _count_calls(monkeypatch, "check_pfa", pfa)
    for a, reports in zip(fresh, want):
        assert [capacity_bracket(a, delta, BracketBudget(word_len=4, block=block))
                for block, delta in runs] == reports
    assert len(lifts) == len(gammas) == len(checks) == len(fresh)


def test_a_replaced_automaton_builds_its_own_caches(d_34):
    lifted = lift(d_34).automaton
    assert lifted.reserved_matches("rt") and lifted.columns("a")
    broken = _with_matrix(lifted, "rt", lifted.matrices["a"])
    assert not {"_reserved", "_columns"} & set(vars(broken))
    assert not broken.reserved_matches("rt") and broken.reserved_matches("id")
    assert lifted.reserved_matches("rt")
    a = dataclasses.replace(d_34)
    capacity_bracket(a, 0.1, BracketBudget(word_len=3, block=8))
    copy = dataclasses.replace(a)
    assert "_lifted" not in vars(copy)
    assert copy._lifted == a._lifted and copy._lifted is not a._lifted


def test_reserved_checks_refuse_on_every_call(d_34):
    lifted = lift(d_34).automaton
    n = lifted.n_states
    no_reset = build_V(_with_matrix(lifted, "rt", lifted.matrices["a"]))
    no_freeze = build_V(_with_matrix(lifted, "id", lifted.matrices["a"]))
    identity = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    freeze_only = build_V(_with_matrix(d_34, "id", identity, d_34.alphabet + ("id",)))
    bare = build_V(d_34)
    stationary = "^consecutive blocks are not identically distributed"
    for ch, free, error, match in (
            (no_reset, 3, CapacityError, stationary),
            (no_reset, 1, CapacityError, stationary),
            (no_freeze, 3, CapacityError, "^control 'id' is not the identity, so the free "
                                          "slots do not hold the state the word reaches$"),
            (freeze_only, 3, PfaError, "^unknown symbol 'rt'$"),
            (bare, 3, PfaError, "^unknown symbol 'id'$"),
            (bare, 1, PfaError, "^unknown symbol 'rt'$")):
        sched = ControlSchedule(word=("a",), free_slots=free)
        for call in (lambda: achievable_rate(ch, sched.word, free),
                     lambda: achievable_rate(ch, sched.word, free, input_mode="ba"),
                     lambda: block_spectrum(ch, sched)) * 2:
            with pytest.raises(error, match=match):
                call()
    # the freeze is checked only where a free slot follows another
    assert achievable_rate(no_freeze, ("a",), 1) == achievable_rate(lift(d_34), ("a",), 1)


def test_bracket_refuses_what_the_lift_refuses_on_every_call(d_34):
    split = make_pfa(["s", "t"], ["a"], {"a": [[H, H], [H, H]]}, [H, H], ["t"])
    reset_only = dataclasses.replace(d_34, alphabet=("a", "rt"),
                                     matrices={"a": d_34.matrices["a"], "rt": d_34.matrices["b"]})
    lifted = lift(d_34).automaton
    not_reset = _with_matrix(lifted, "rt", lifted.matrices["a"])
    for p, error, match in (
            (split, FsmcError, "^channel lift needs a deterministic initial distribution$"),
            (reset_only, PfaError, "^alphabet already contains reserved symbol 'rt'$"),
            (not_reset, PfaError, "^symbols 'id' and 'rt' are not the freeze and the reset "
                                  "of the automaton$")):
        for _ in range(3):
            with pytest.raises(error, match=match):
                capacity_bracket(p, 0.1, BracketBudget(word_len=3, block=8))
