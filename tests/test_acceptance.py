"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured evidence (run pytest with -s or -rA to see them).  Every
tolerance is pinned here; exact means rational equality.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from fsmcap import fixtures
from fsmcap.capacity import (BracketBudget, ControlSchedule, blahut_arimoto, bsc,
                             capacity_bracket, converse_check, entropy,
                             spectrum_concentration_demo, stability_schedule)
from fsmcap.fsmc import build_V
from fsmcap.gadgets import (FAMILY_TARGET_STATES, SKELETON_SIZE,
                            BOTTOM_FAIL_STATE, TOP_SUCCESS_CLASS, build_B_p,
                            build_C_p, build_D_xy, build_family_member,
                            dxy_reach_closed_forms, sigma_decode, sigma_encode)
from fsmcap.pfa import (brute_force_value, evolve, gamma, make_pfa, mat_vec,
                        reduce_extended_word, value)
from fsmcap.witness import synthesize_word
from oracles import block_word, shortlex_words

F = Fraction
H = F(1, 2)


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS  {message}")


def test_criterion_01_worked_example(example1):
    word = ("b", "a", "a")
    runs = 200
    start = time.perf_counter()
    for _ in range(runs):
        got = value(example1, word)
    per_call = (time.perf_counter() - start) / runs
    assert got == F(1, 4)
    assert per_call < 1e-3
    report(1, f"value(example-1, baa) = 1/4 exactly, {per_call * 1e6:.1f} us/call")


def test_criterion_02_amplification_identities(amp3):
    start = time.perf_counter()
    words = list(shortlex_words(amp3.alphabet, 6))
    for p in (F(1, 3), H, F(4, 5)):
        b = build_B_p(amp3, p)
        c = build_C_p(amp3, p)
        for word in words:
            base = value(amp3, word)
            if word:
                assert value(b, word) == p * base
                assert value(c, word) == p * base + 1 - p
            else:
                # before the first symbol only the entry state is occupied,
                # so the downscaler reads 0 (= p * base here); the upscaling
                # offset needs one step to reach its sink
                assert value(b, word) == 0 == p * base
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(2, f"p*value chains exact for {len(words)} words x 3 weights, {elapsed:.2f} s")


def test_criterion_03_lift_and_reduce_preserve_value(d_34):
    start = time.perf_counter()
    lifted = gamma(d_34)
    checked = 0
    level = [((), lifted.initial)]
    for _ in range(6):
        nxt = []
        for word, dist in level:
            for sym in lifted.alphabet:
                w = word + (sym,)
                d = mat_vec(lifted.matrices[sym], dist)
                nxt.append((w, d))
                accepted = sum(x for s, x in zip(lifted.states, d) if s in lifted.accepting)
                assert accepted == value(lifted, reduce_extended_word(w))
                checked += 1
        level = nxt
    elapsed = time.perf_counter() - start
    assert checked == sum(4 ** k for k in range(1, 7))
    assert elapsed < 30
    report(3, f"freeze/reset reduction exact on {checked} words, {elapsed:.2f} s")


def test_criterion_04_dichotomy_at_desk_scale(d_25):
    start = time.perf_counter()
    best = None
    for k in range(2, 65):
        rep = synthesize_word(x=F(3, 4), eps=F(1, 20), k=k, y=H)
        if rep.value >= F(9, 10):
            best = rep
            break
    assert best is not None, "witness search never reached value 0.9 by k = 64"
    search = brute_force_value(d_25, 10)
    assert search.best_value <= H
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(4, f"witness value {float(best.value):.4f} at k={best.k}; "
              f"low-survival search max {search.best_value} <= 1/2; {elapsed:.1f} s")


def _law_from(automaton, src, word) -> dict:
    """The law after `word` from a point mass on src, keyed by state."""
    start = [int(s == src) for s in automaton.states]
    return dict(zip(automaton.states, evolve(automaton, word, start=start)))


def test_criterion_05_closed_form_equivalence():
    start = time.perf_counter()
    checked = 0
    for x in (F(0), F(1, 4), F(1, 2), F(3, 5), F(3, 4), F(1)):
        gadget = build_D_xy(x, H)
        for t in range(1, 5):
            for lengths in itertools.product(range(1, 6), repeat=t):
                word = block_word(lengths)
                *_, (top, bottom) = dxy_reach_closed_forms(x, lengths)
                assert sum(_law_from(gadget, "q1", word)[s] for s in TOP_SUCCESS_CLASS) == top
                assert _law_from(gadget, "q4", word)[BOTTOM_FAIL_STATE] == bottom
                checked += 1
    elapsed = time.perf_counter() - start
    report(5, f"closed forms exact on {checked} (x, length-vector) cases, {elapsed:.1f} s")


def test_criterion_06_channel_counts():
    n = 27
    ring = [[F(int(i == (j + 1) % n)) for j in range(n)] for i in range(n)]
    lazy = [[(H if (i == j or i == (j + 2) % n) else F(0)) for j in range(n)]
            for i in range(n)]
    inner = make_pfa([f"s{i}" for i in range(n)], ["a", "b"],
                     {"a": ring, "b": lazy}, [1] + [0] * (n - 1), ["s5"])
    member = build_family_member(inner, F(1, 2))
    channel = build_V(member)
    assert len(member.alphabet) == 5
    assert len(member.states) == 2 * n + SKELETON_SIZE == FAMILY_TARGET_STATES == 62
    assert len(channel.inputs) == 10
    assert len(channel.states) == 62
    report(6, "27-state member: 5 symbols, 62 states, 10 channel inputs")


def test_criterion_07_capacity_bracket_separation(always_accept, d_25):
    start = time.perf_counter()
    high = capacity_bracket(always_accept, 0.1, BracketBudget(word_len=4, block=12))
    assert high.lower >= 0.8 and high.upper == 1.0
    low = capacity_bracket(d_25, 0.1, BracketBudget(word_len=6, block=12), val_bound=H)
    assert low.upper <= 0.5
    converse = converse_check(build_V(gamma(d_25)), n=4, trials=100, seed=2024)
    assert converse.violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(7, f"brackets [{high.lower:.3f}, {high.upper}] vs upper {low.upper}; "
              f"converse 100/100 clean at n=4; {elapsed:.1f} s")


def test_criterion_08_blahut_arimoto():
    start = time.perf_counter()
    r11 = blahut_arimoto(bsc(0.11), tol=1e-8)
    assert abs(r11.capacity - (1 - entropy([0.11, 0.89]))) <= 1e-6
    t11 = time.perf_counter() - start

    start = time.perf_counter()
    r0 = blahut_arimoto(bsc(0.0), tol=1e-10)
    assert abs(r0.capacity - 1.0) <= 1e-9
    t0 = time.perf_counter() - start

    start = time.perf_counter()
    r5 = blahut_arimoto(bsc(0.5), tol=1e-10)
    assert abs(r5.capacity) <= 1e-9
    t5 = time.perf_counter() - start
    assert max(t11, t0, t5) < 1.0
    report(8, f"BSC capacities within tolerance, worst case {max(t11, t0, t5) * 1e3:.2f} ms")


def test_criterion_09_stability_demo():
    start = time.perf_counter()
    for val, delta, n_list in ((1.0, 0.1, [4, 4]), (0.55, 0.1, [8, 8]),
                               (0.9, 0.05, [4, 6, 6])):
        schedule = stability_schedule(val, delta, n_list)
        for stage in schedule.stages:
            assert stage.m_t >= stage.m_floor

    toy = make_pfa(["r", "g"], ["u"],
                   {"u": [[F(1, 4), F(1, 4)], [F(3, 4), F(3, 4)]]},
                   [1, 0], ["g"])
    ch = build_V(gamma(toy))
    sched = ControlSchedule(word=("u",), free_slots=7)
    schedule = stability_schedule(0.55, 0.1, [8, 8])
    rep = spectrum_concentration_demo(ch, sched, m_blocks=schedule.stages[0].m_t,
                                      eta=2, delta=0.1, samples=10_000, seed=2024)
    slack = 3 * math.sqrt(max(rep.analytic_rate * (1 - rep.analytic_rate), 1e-12)
                          / rep.samples)
    assert rep.empirical_tail_rate <= rep.analytic_rate + slack
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(9, f"m_t >= n_(t+1)^2 on all schedules; tail {rep.empirical_tail_rate:.4f} "
              f"<= bound {rep.analytic_rate:.4f} + {slack:.4f}; {elapsed:.1f} s")


def test_criterion_10_sigma_round_trip():
    import random
    rng = random.Random(1601)
    start = time.perf_counter()
    for _ in range(100):
        arity = rng.randrange(1, 4)
        values = [F(rng.randrange(1, 12), rng.randrange(1, 12)) for _ in range(arity)]
        assert sigma_decode(sigma_encode(values)) == tuple(values)
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    report(10, f"100 random tuples round-trip exactly, {elapsed * 1e3:.0f} ms")
