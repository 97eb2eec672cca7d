import itertools
import math
import random
from fractions import Fraction

import pytest

from fsmcap.gadgets import (FAMILY_TARGET_STATES, SIGMA_DIGIT_BUDGET, SKELETON_SIZE,
                            BOTTOM_FAIL_STATE, BOTTOM_HOLD_CLASS,
                            TOP_SUCCESS_CLASS, GadgetError, SigmaCode,
                            SigmaError, build_B_p, build_C_p, build_D_Ay,
                            build_D_xy, build_family_member, dxy_reach_closed_forms,
                            first_primes, gadget_state_count, sigma_decode, sigma_encode)
from fsmcap.fsmc import lifted_automaton
from fsmcap.pfa import brute_force_value, make_pfa, validate_pfa, value
from fsmcap.witness import synthesize_word
from oracles import block_word, naive_mass, naive_reach, shortlex_words

F = Fraction
H = F(1, 2)


# ---------------------------------------------------------------------------
# Coin gadget.
# ---------------------------------------------------------------------------

def test_dxy_parameter_ranges():
    with pytest.raises(GadgetError):
        build_D_xy(F(3, 2), H)
    with pytest.raises(GadgetError):
        build_D_xy(H, F(2, 3))


def test_dxy_validates():
    for x in (F(0), F(1, 3), F(1)):
        for y in (F(0), F(1, 5), H):
            assert validate_pfa(build_D_xy(x, y)) == []


def test_dxy_zero_survival_never_succeeds():
    g = build_D_xy(0, F(1, 4))
    for n in range(1, 6):
        word = ("a",) * n + ("b",)
        assert naive_mass(g, "q1", word, TOP_SUCCESS_CLASS) == 0


def test_dxy_bb_words_have_value_exactly_y():
    rng = random.Random(3)
    for x, y in ((F(3, 4), H), (F(2, 5), F(1, 3)), (F(9, 10), F(1, 5))):
        g = build_D_xy(x, y)
        for _ in range(40):
            pre = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 4)))
            post = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 4)))
            assert value(g, pre + ("b", "b") + post) == y


def test_dxy_values_capped_at_2y():
    for x, y in ((F(3, 4), H), (F(2, 5), F(1, 3)), (F(1), F(1, 4))):
        g = build_D_xy(x, y)
        assert brute_force_value(g, 7).best_value <= 2 * y


def test_dxy_low_survival_capped_at_y():
    g = build_D_xy(F(2, 5), H)
    assert brute_force_value(g, 8).best_value <= H


def test_dxy_witness_values_approach_2y():
    # x = 3/4, y = 1/2: the schedule drives the value toward 2y = 1
    report = synthesize_word(x=F(3, 4), eps=F(1, 10), k=24, y=H)
    assert report.value > F(4, 5)


def test_dxy_closed_forms_match_simulation():
    for x in (F(0), F(1, 4), F(1, 2), F(3, 5), F(3, 4), F(1)):
        g = build_D_xy(x, H)
        for t in (1, 2, 3):
            for lengths in itertools.product((1, 2, 4), repeat=t):
                word = block_word(lengths)
                *_, (top, bot) = dxy_reach_closed_forms(x, lengths)
                assert naive_mass(g, "q1", word, TOP_SUCCESS_CLASS) == top
                assert naive_reach(g, "q4", word, BOTTOM_FAIL_STATE) == bot


def test_dxy_closed_forms_are_the_closed_form_of_every_prefix():
    for x in (F(0), F(3, 5), F(3, 4), F(1)):
        lengths = [1, 2, 2, 4, 7]
        forms = list(dxy_reach_closed_forms(x, lengths))
        assert forms == [(1 - math.prod(1 - x ** n for n in lengths[:t]),
                          1 - math.prod(1 - (1 - x) ** n for n in lengths[:t]))
                         for t in range(len(lengths) + 1)]
        assert forms[0] == (0, 0)


# ---------------------------------------------------------------------------
# Lifted gadget.
# ---------------------------------------------------------------------------

def test_day_alphabet_and_count(example1):
    g = build_D_Ay(example1, H)
    assert g.alphabet == ("a", "b", "c")
    assert len(g.states) == gadget_state_count(3) == 2 * 3 + SKELETON_SIZE
    assert validate_pfa(g) == []


def test_day_rejects_foreign_alphabet():
    bad = make_pfa(["s"], ["a", "c"], {"a": [[1]], "c": [[1]]}, [1], [])
    with pytest.raises(GadgetError):
        build_D_Ay(bad, H)


def test_day_single_block_identities(example1, always_accept):
    for inner in (example1, always_accept):
        g = build_D_Ay(inner, F(1, 3))
        for length in range(0, 4):
            for w in itertools.product(inner.alphabet, repeat=length):
                block = ("a",) + w + ("c",)
                want = value(inner, w)
                assert naive_reach(g, "q1", block, "q1") == want
                assert naive_mass(g, "q4", block, BOTTOM_HOLD_CLASS) == want


def test_day_always_accepting_behaves_like_x_one(always_accept):
    g = build_D_Ay(always_accept, H)
    block = ("a", "a", "c")
    assert naive_reach(g, "q1", block, "q1") == 1
    # after one separated group the success class is full
    word = block + ("b",)
    assert naive_mass(g, "q1", word, TOP_SUCCESS_CLASS) == 1


@pytest.mark.parametrize("y", [F(1, 4), H])
@pytest.mark.parametrize("x", [F(1, 4), F(2, 5), H, F(3, 4)])
def test_day_races_like_the_coin(x, y):
    # a unary inner automaton whose word "a" has value x turns each coin a
    # into the protocol group "a a c"; b stays the separator
    coin_x = make_pfa(["s", "t", "u"], ["a"], {"a": [[0, 0, 0], [x, 1, 0], [1 - x, 0, 1]]},
                      [1, 0, 0], ["t"])
    lifted, coin = build_D_Ay(coin_x, y), build_D_xy(x, y)
    h = {"a": ("a", "a", "c"), "b": ("b",)}
    for w in shortlex_words(("a", "b"), 8):
        lifted_word = tuple(s for sym in w for s in h[sym])
        assert value(lifted, lifted_word) == value(coin, w), w


def test_day_c_routes_by_acceptance(example1):
    g = build_D_Ay(example1, H)
    # inner word b drives the copy onto the accepting state, so c returns home
    assert naive_reach(g, "q1", ("a", "b", "c"), "q1") == 1
    # inner word a leaves accepting mass 0, so c exits to the hold state
    assert naive_reach(g, "q1", ("a", "a", "c"), "q2") == 1


def test_day_value_capped_when_no_positive_values(never_accept):
    # the all-words bound holds when the inner automaton accepts nothing
    g = build_D_Ay(never_accept, H)
    assert brute_force_value(g, 7).best_value <= H
    g3 = build_D_Ay(never_accept, F(1, 3))
    assert brute_force_value(g3, 6).best_value <= F(1, 3)


def test_day_protocol_words_capped_for_low_values(uniform_mixer):
    # every inner value is <= 1/2: protocol words never exceed y
    g = build_D_Ay(uniform_mixer, H)
    inners = [(), ("a",), ("b",), ("a", "b")]
    for w1, w2 in itertools.product(inners, repeat=2):
        for n1, n2 in itertools.product((1, 2), repeat=2):
            word = (("a",) + w1 + ("c",)) * n1 + ("b",) + (("a",) + w2 + ("c",)) * n2
            assert value(g, word) <= H


def test_day_off_protocol_boundary(uniform_mixer):
    # characterization: held mass shielded inside a copy survives the
    # separator pair, so off-protocol words can exceed y for inner automata
    # with intermediate values (see build_D_Ay's docstring)
    g = build_D_Ay(uniform_mixer, H)
    assert value(g, tuple("acabbc")) == F(3, 4)


def test_day_off_protocol_values_climb_to_2y():
    # characterization of the same defect: on the unary mixer every
    # (a a c) round after the separator pair moves half of the remaining
    # mass into the hold class, so the value tends to 2y
    m = [[H, H], [H, H]]
    unary_mixer = make_pfa(["r", "g"], ["a"], {"a": m}, [1, 0], ["g"])
    y = F(1, 4)
    g = build_D_Ay(unary_mixer, y)
    for k in range(6):
        assert value(g, tuple("acaabbc" + "aac" * k)) == y * (2 - F(1, 2 ** (k + 1)))


# ---------------------------------------------------------------------------
# Amplifiers.
# ---------------------------------------------------------------------------

def test_amplifier_range():
    p = build_D_xy(H, H)
    for bad in (0, 1, F(3, 2)):
        with pytest.raises(GadgetError):
            build_B_p(p, bad)
        with pytest.raises(GadgetError):
            build_C_p(p, bad)


def test_amplifier_example1_baa(example1):
    b = build_B_p(example1, H)
    c = build_C_p(example1, H)
    assert value(b, ("b", "a", "a")) == F(1, 8)
    assert value(c, ("b", "a", "a")) == F(5, 8)


def test_amplifier_empty_word(example1):
    assert value(build_B_p(example1, H), ()) == 0
    assert value(build_C_p(example1, H), ()) == 0


def test_amplifier_identities_exhaustive(amp3):
    for p in (F(1, 3), H, F(4, 5)):
        b = build_B_p(amp3, p)
        c = build_C_p(amp3, p)
        assert validate_pfa(b) == [] and validate_pfa(c) == []
        for word in shortlex_words(amp3.alphabet, 6):
            want = value(amp3, word)
            if word:
                assert value(b, word) == p * want
                assert value(c, word) == p * want + 1 - p
            else:
                assert value(b, word) == 0  # the entry state is not accepting


def test_amplifier_fresh_state_names():
    clash = make_pfa(["init", "sink"], ["a"], {"a": [[1, 0], [0, 1]]}, [1, 0], ["init"])
    b = build_B_p(clash, H)
    assert len(set(b.states)) == 4
    assert validate_pfa(b) == []


# ---------------------------------------------------------------------------
# Family members.
# ---------------------------------------------------------------------------

def test_family_member_counts(amp3):
    member = build_family_member(amp3, 1)
    assert len(member.alphabet) == 5
    # the member already carries the freeze and the reset the lift needs
    assert lifted_automaton(member) is member


def test_family_member_27_states_hits_target():
    n = 27
    # deterministic ring on a, lazy mixer on b
    mat_a = [[F(int(i == (j + 1) % n)) for j in range(n)] for i in range(n)]
    mat_b = [[(H if (i == j or i == (j + 2) % n) else F(0)) for j in range(n)]
             for i in range(n)]
    inner = make_pfa([f"s{i}" for i in range(n)], ["a", "b"],
                     {"a": mat_a, "b": mat_b}, [1] + [0] * (n - 1), ["s3"])
    assert validate_pfa(inner) == []
    member = build_family_member(inner, F(1, 2))
    assert len(member.states) == FAMILY_TARGET_STATES == 62
    assert len(member.alphabet) == 5


def test_family_member_lambda_range(amp3):
    with pytest.raises(GadgetError):
        build_family_member(amp3, 0)
    with pytest.raises(GadgetError):
        build_family_member(amp3, 2)


def test_family_member_dichotomy_sides(always_accept, never_accept):
    lam = F(1)
    high = build_family_member(always_accept, lam)
    # the witness schedule on the underlying gadget pushes past lam - eps;
    # the member's matrices agree on words without freeze/reset symbols
    report = synthesize_word(eps=F(1, 10), k=4, y=lam / 2,
                             inner=always_accept, inner_word=("a",))
    assert value(high, report.word) == report.value
    assert report.value >= F(9, 10)
    low = build_family_member(never_accept, lam)
    assert brute_force_value(low, 5).best_value <= lam / 2


# ---------------------------------------------------------------------------
# Prime-power codec.
# ---------------------------------------------------------------------------

def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


def test_sigma_examples():
    assert sigma_encode([F(1, 2)]).value == 18
    assert sigma_decode(SigmaCode(18, 1)) == (F(1, 2),)
    assert sigma_encode([F(1), F(2, 3)]).value == 30870


def test_sigma_round_trip_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 4)
        values = []
        while len(values) < n:
            r, s = rng.randrange(1, 9), rng.randrange(1, 9)
            values.append(F(r, s))
        code = sigma_encode(values)
        # encoding normalizes to lowest terms; the round trip returns those
        assert sigma_decode(code) == tuple(values)


def test_sigma_rejects_nonpositive():
    with pytest.raises(SigmaError):
        sigma_encode([F(0)])
    with pytest.raises(SigmaError):
        sigma_encode([F(-1, 2)])


def test_sigma_refuses_codes_past_the_digit_budget():
    # 3 * 2^e has 4300 digits, the budget, and 3 * 2^(e + 1) has 4301
    e = (10 ** SIGMA_DIGIT_BUDGET // 3).bit_length() - 1
    code = sigma_encode([F(e)])
    assert len(str(code.value)) == SIGMA_DIGIT_BUDGET and sigma_decode(code) == (F(e),)
    for values in ([F(e + 1)], [F(20000)], [F(1, 20000)], [F(10 ** 400)], [F(1, 2), F(7, 10 ** 400)]):
        with pytest.raises(SigmaError, match="more than 4300 digits"):
            sigma_encode(values)
    for value in (3 * 2 ** (e + 1), -(10 ** 5000)):
        with pytest.raises(SigmaError, match="more than 4300 digits"):
            sigma_decode(SigmaCode(value, 1))


def test_sigma_decode_rejects_outside_image():
    with pytest.raises(SigmaError):
        sigma_decode(SigmaCode(2, 1))          # missing denominator prime
    with pytest.raises(SigmaError):
        sigma_decode(SigmaCode(2 * 9 * 11, 1))  # stray prime beyond the range
    with pytest.raises(SigmaError):
        sigma_decode(SigmaCode(4 * 81, 1))      # 2/4 is not in lowest terms
    with pytest.raises(SigmaError):
        sigma_decode(SigmaCode(1, 1))
