import math
from fractions import Fraction

import pytest

from fsmcap.witness import (WitnessError, c_epsilon, solve_b, synthesize_word,
                            witness_lengths, zeta_tail_bound)
from oracles import mp_partial_sum_bound, mp_witness_lengths, naive_law

F = Fraction
H = F(1, 2)


def test_solve_b_golden_ratio():
    # x^2 = 1 - x at the golden-ratio conjugate
    x = F(6180339887, 10 ** 10)
    assert abs(solve_b(x) - 2.0) < 1e-6


def test_solve_b_closed_form():
    for x in (F(3, 4), F(51, 100), F(9, 10)):
        want = math.log(1 - float(x)) / math.log(float(x))
        assert abs(solve_b(x) - want) < 1e-9
    assert abs(solve_b(F(3, 4)) - 4.818842) < 1e-5
    assert abs(solve_b(F(51, 100)) - 1.0592) < 1e-3


def test_solve_b_range():
    for x in (H, F(1, 4), F(1), F(3, 2)):
        with pytest.raises(WitnessError):
            solve_b(x)
    # inside (1/2, 1) but a float away from it: b would be 1.0 or need log(0)
    for x in (H + F(1, 10 ** 20), 1 - F(1, 10 ** 20)):
        with pytest.raises(WitnessError, match="floating point"):
            solve_b(x)


def test_witness_lengths_against_high_precision_oracle():
    for x, eps, k in ((F(3, 4), F(1, 10), 5), (F(3, 5), F(1, 8), 7),
                      (F(9, 10), F(1, 4), 6)):
        assert witness_lengths(x, eps, k) == mp_witness_lengths(x, eps, k)


def test_witness_lengths_monotone_and_single():
    lengths = witness_lengths(F(3, 4), F(1, 10), 12)
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))
    single = witness_lengths(F(3, 4), F(1, 10), 2)
    assert len(single) == 1
    want = math.ceil(math.log(0.5) / math.log(0.75) + c_epsilon(F(3, 4), F(1, 10)))
    assert single[0] == max(1, want)


def test_zeta_tail_bound():
    assert zeta_tail_bound(2.0) == 2.0
    assert abs(zeta_tail_bound(4.818842) - 1.2619) < 1e-4
    with pytest.raises(WitnessError):
        zeta_tail_bound(1.0)
    with pytest.raises(WitnessError):
        zeta_tail_bound(0.5)


def test_partial_sums_bounded_by_zeta_tail():
    x = F(3, 4)
    eps = F(1, 10)
    b = solve_b(x)
    c_eps = c_epsilon(x, eps)
    prev = 0.0
    for k in range(2, 30):
        lengths = witness_lengths(x, eps, k)
        partial, b_mp = mp_partial_sum_bound(x, lengths)
        assert float(partial) >= prev - 1e-15
        prev = float(partial)
        cap = float(x) ** (b * c_eps) * zeta_tail_bound(b)
        assert float(partial) <= cap * (1 + 1e-9)


def test_synthesize_requirement1_always_met():
    report = synthesize_word(x=F(3, 4), eps=F(1, 10), k=6)
    assert report.requirement1_met
    assert report.p_q4_q6 <= F(1, 10)


def test_synthesize_requirement2_crosses():
    crossed = False
    for k in range(2, 40):
        report = synthesize_word(x=F(3, 4), eps=F(1, 4), k=k)
        assert report.requirement1_met
        if report.requirement2_met:
            crossed = True
            break
    assert crossed


def test_synthesize_monotone_success_mass():
    prev = F(-1)
    for k in range(2, 16):
        report = synthesize_word(x=F(3, 4), eps=F(1, 10), k=k)
        assert report.p_q1_q3 >= prev
        prev = report.p_q1_q3


def test_synthesize_rejects_low_x():
    with pytest.raises(WitnessError):
        synthesize_word(x=H, eps=F(1, 10), k=4)
    with pytest.raises(WitnessError):
        synthesize_word(x=F(2, 5), eps=F(1, 10), k=4)


def test_synthesize_lifted_value_one(always_accept):
    report = synthesize_word(eps=F(1, 10), k=3, inner=always_accept,
                             inner_word=("a",))
    assert report.x == 1
    assert report.p_q1_q3 == 1      # success is claimed after one group
    assert report.lengths == (1, 1)


def test_synthesize_lifted_matches_plain():
    # inner automaton that accepts with probability 3/4 after one a
    from fsmcap.pfa import make_pfa
    inner = make_pfa(["g", "h"], ["a"],
                     {"a": [[F(1, 4), F(1, 4)], [F(3, 4), F(3, 4)]]},
                     [1, 0], ["h"])
    lifted = synthesize_word(eps=F(1, 10), k=5, inner=inner, inner_word=("a",))
    plain = synthesize_word(x=F(3, 4), eps=F(1, 10), k=5)
    assert lifted.x == F(3, 4)
    assert lifted.lengths == plain.lengths
    assert lifted.p_q1_q3 == plain.p_q1_q3
    assert lifted.p_q4_q6 == plain.p_q4_q6
    assert lifted.value == plain.value


def test_synthesize_lifted_rejects_separator_in_inner_word(example1):
    with pytest.raises(WitnessError):
        synthesize_word(eps=F(1, 10), k=3, inner=example1, inner_word=("b",))


def test_synthesize_lifted_rejects_low_inner_value(uniform_mixer):
    with pytest.raises(WitnessError):
        synthesize_word(eps=F(1, 10), k=3, inner=uniform_mixer, inner_word=("a",))


def test_incremental_reports_match_direct_simulation(always_accept):
    # every report of the one-pass walk equals a fresh simulation of its
    # word by the nested-loop oracles, which share no code with the walk
    from fsmcap import gadgets
    from fsmcap.pfa import make_pfa
    from fsmcap.witness import synthesize_words
    inner = make_pfa(["g", "h"], ["a"],
                     {"a": [[F(1, 4), F(1, 4)], [F(3, 4), F(3, 4)]]},
                     [1, 0], ["h"])
    cases = ((dict(x=F(3, 4)), gadgets.build_D_xy(F(3, 4), H)),
             (dict(inner=inner, inner_word=("a",)), gadgets.build_D_Ay(inner, H)),
             (dict(inner=always_accept, inner_word=("a",)), gadgets.build_D_Ay(always_accept, H)))
    for kwargs, gadget in cases:
        reports = list(synthesize_words(eps=F(1, 10), k=9, **kwargs))
        assert [r.k for r in reports] == list(range(2, 10))
        final = synthesize_word(eps=F(1, 10), k=9, **kwargs)
        assert reports[-1] == final
        for r in reports:
            assert r.lengths == final.lengths[:r.k - 1]
            from_q1, from_q4, from_q0 = (naive_law(gadget, src, r.word)
                                         for src in ("q1", "q4", "q0"))
            assert r.p_q1_q3 == sum(from_q1[s] for s in gadgets.TOP_SUCCESS_CLASS)
            assert r.p_q4_q6 == from_q4[gadgets.BOTTOM_FAIL_STATE]
            assert r.p_q4_hold == sum(from_q4[s] for s in gadgets.BOTTOM_HOLD_CLASS)
            # the gadget starts at q0
            assert r.value == sum(from_q0[s] for s in gadget.accepting)


def test_synthesize_words_checks_arguments_eagerly():
    from fsmcap.witness import synthesize_words
    for kwargs in (dict(x=F(3, 4), k=1), dict(x=F(1), k=1), dict(x=H, k=4)):
        with pytest.raises(WitnessError):
            synthesize_words(eps=F(1, 10), **kwargs)
