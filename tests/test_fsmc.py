import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmcap import fsmc as fsmc_module
from fsmcap import pfa as pfa_module
from fsmcap.fsmc import (Fsmc, FsmcError, build_V, lift, lifted_automaton, sample, unlift,
                         validate_fsmc)
from fsmcap.gadgets import build_D_xy, build_family_member
from fsmcap.pfa import PfaError, gamma, make_pfa
from test_pfa import small_pfas

F = Fraction
H = F(1, 2)


def toy_channel(n_states=2):
    """Small generic product-form channel that is not a lift."""
    if n_states == 2:
        return Fsmc(
            inputs=("u", "v"), outputs=("0", "1"), states=("p", "q"),
            output_law={
                "u": ((F(3, 4), F(1, 3)), (F(1, 4), F(2, 3))),
                "v": ((H, F(1)), (H, F(0))),
            },
            state_law={
                "u": ((F(1, 2), F(1, 5)), (F(1, 2), F(4, 5))),
                "v": ((F(0), F(1)), (F(1), F(0))),
            },
            initial="p")
    return Fsmc(
        inputs=("u",), outputs=("0", "1"), states=("p", "q", "r"),
        output_law={"u": ((F(1), H, F(1, 3)), (F(0), H, F(2, 3)))},
        state_law={"u": ((F(0), F(1, 3), H), (H, F(1, 3), H), (H, F(1, 3), F(0)))},
        initial="r")


def test_validate_toy_channels():
    assert validate_fsmc(toy_channel(2)) == []
    assert validate_fsmc(toy_channel(3)) == []


def test_build_v_counts(example1, family3):
    ch = build_V(gamma(example1))
    assert len(ch.inputs) == 2 * 4
    assert ch.outputs == ("0", "1")
    assert ch.states == example1.states
    big = build_V(family3)
    assert len(big.inputs) == 10
    assert len(big.states) == 14
    assert validate_fsmc(big) == []


def test_build_v_output_law(example1):
    ch = build_V(example1)
    j_acc = example1.states.index("q3")
    j_non = example1.states.index("q1")
    for c in example1.alphabet:
        # accepting state forwards the data bit
        assert ch.output_law[f"0:{c}"][0][j_acc] == 1
        assert ch.output_law[f"0:{c}"][1][j_acc] == 0
        assert ch.output_law[f"1:{c}"][1][j_acc] == 1
        # non-accepting state is a fair coin regardless of the input
        assert ch.output_law[f"0:{c}"][0][j_non] == H
        assert ch.output_law[f"1:{c}"][0][j_non] == H


def test_build_v_state_law_ignores_data(example1):
    ch = build_V(example1)
    for c in example1.alphabet:
        assert ch.state_law[f"0:{c}"] == ch.state_law[f"1:{c}"] == example1.matrices[c]


def test_build_v_rejects_split_initial():
    split = make_pfa(["s", "t"], ["a"], {"a": [[1, 1], [0, 0]]}, [H, H], ["t"])
    with pytest.raises(FsmcError):
        build_V(split)


@settings(max_examples=100, deadline=None)
@given(small_pfas(), st.data())
def test_unlift_inverts_build_v(p, data):
    start = data.draw(st.integers(0, p.n_states - 1))
    p = dataclasses.replace(p, initial=tuple(F(int(i == start)) for i in range(p.n_states)))
    assert unlift(build_V(p)) == p


@pytest.mark.parametrize("name", ["example1", "amp3", "d_34", "d_25", "family3"])
def test_unlift_inverts_build_v_on_fixtures(name, request):
    p = request.getfixturevalue(name)
    assert unlift(build_V(p)) == p
    if "id" not in p.alphabet:
        assert unlift(build_V(gamma(p))) == gamma(p)


def test_channel_keeps_its_automaton(d_34):
    ch = build_V(gamma(d_34))
    a = ch.automaton
    assert a == unlift(ch) == gamma(d_34) and ch.automaton is a
    # not a field: equality ignores it, and a replaced channel reads its own
    assert ch == build_V(gamma(d_34))
    assert dataclasses.replace(ch).automaton is not a


def test_channel_laws_are_read_only(d_34):
    # the kept automaton is read from these tables, so they cannot change
    ch = build_V(gamma(d_34))
    law = next(iter(ch.state_law.values()))
    for table in (ch.output_law, ch.state_law):
        with pytest.raises(TypeError, match="read-only"):
            table["1:a"] = law
        with pytest.raises(TypeError, match="read-only"):
            table.pop("1:a")
    assert dataclasses.replace(ch, state_law=dict(ch.state_law)) == ch


def test_lift_applies_gamma_unless_present(example1, family3):
    assert lift(example1) == build_V(gamma(example1))
    assert lift(family3) == build_V(family3)
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    id_only = make_pfa(example1.states, example1.alphabet + ("id",),
                       {**example1.matrices, "id": identity}, example1.initial,
                       example1.accepting)
    with pytest.raises(PfaError):
        lift(id_only)
    extended = gamma(example1)
    not_a_reset = make_pfa(extended.states, extended.alphabet,
                           {**extended.matrices, "rt": identity}, extended.initial,
                           extended.accepting)
    with pytest.raises(PfaError):
        lift(not_a_reset)


def _flip_column(table, j, bit):
    """`table` with state j's output column swapped between forwarding
    `bit` and a fair coin."""
    forwarded = (F(int(bit == "0")), F(int(bit == "1")))
    col = (H, H) if (table[0][j], table[1][j]) == forwarded else forwarded
    return tuple(tuple(col[y] if k == j else e for k, e in enumerate(row))
                 for y, row in enumerate(table))


@settings(max_examples=300, deadline=None)
@given(small_pfas(), st.data())
def test_unlift_refuses_as_the_per_state_rules_do(p, data):
    # a lift on one to three controls, with its inputs reordered and one
    # law changed, is read back as the per-state rules read it, or refused
    # by both
    from oracles import naive_unlift
    alphabet = p.alphabet[:data.draw(st.integers(1, len(p.alphabet)))]
    start = data.draw(st.integers(0, p.n_states - 1))
    p = dataclasses.replace(p, alphabet=alphabet,
                            matrices={c: p.matrices[c] for c in alphabet},
                            initial=tuple(F(int(i == start)) for i in range(p.n_states)))
    ch = build_V(p)
    ch = dataclasses.replace(ch, inputs=tuple(data.draw(st.permutations(ch.inputs))))
    sym = data.draw(st.sampled_from(ch.inputs))
    bit, control = sym.split(":")
    other = f"{'1' if bit == '0' else '0'}:{control}"
    output_law, state_law = dict(ch.output_law), dict(ch.state_law)
    change = data.draw(st.sampled_from(["none", "data-blind", "flip", "flip both",
                                        "state law"]))
    if change == "data-blind":
        output_law[sym] = output_law[other]
    elif change.startswith("flip"):
        j = data.draw(st.integers(0, p.n_states - 1))
        for s in (sym, other) if change == "flip both" else (sym,):
            output_law[s] = _flip_column(output_law[s], j, s[0])
    elif change == "state law":
        state_law[f"1:{control}"] = p.matrices[data.draw(st.sampled_from(alphabet))]
    ch = dataclasses.replace(ch, output_law=output_law, state_law=state_law)
    read = [_outcome(f, ch) for f in (unlift, naive_unlift)]
    # refused by both, unlift naming the input and the law, or the same automaton
    assert read[0] == read[1] or all(type(r) is tuple and r[0] is FsmcError for r in read)
    if type(read[0]) is tuple:
        assert re.fullmatch(r"(output|state) law of input '[01]:[abc]' is not the lift of "
                            "the automaton the channel carries", read[0][1])


def _outcome(make, p):
    """make(p), or the type and text of the error it raises."""
    try:
        return make(p)
    except (FsmcError, PfaError) as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(small_pfas(), st.data())
def test_lifted_automaton_reads_as_the_lift(p, data):
    # rename the last symbols to the reserved ones, then sometimes make them
    # the freeze and the reset and the initial law a point mass, so gamma,
    # its refusals, the freeze/reset check and the point-mass check all run
    reserved = data.draw(st.sampled_from([(), ("id",), ("rt",), ("id", "rt")]))
    alphabet = p.alphabet[:len(p.alphabet) - len(reserved)] + reserved
    matrices = dict(zip(alphabet, (p.matrices[c] for c in p.alphabet)))
    initial = p.initial
    if data.draw(st.booleans()):
        start = data.draw(st.integers(0, p.n_states - 1))
        initial = tuple(F(int(i == start)) for i in range(p.n_states))
    n = p.n_states
    if "id" in matrices and data.draw(st.booleans()):
        matrices["id"] = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    if "rt" in matrices and data.draw(st.booleans()):
        matrices["rt"] = tuple(tuple(initial[i] for _ in range(n)) for i in range(n))
    p = dataclasses.replace(p, alphabet=alphabet, matrices=matrices, initial=initial)
    assert _outcome(lifted_automaton, p) == _outcome(lambda q: unlift(lift(q)), p)


def test_lifted_automaton_checks_only_carried_reserved_symbols(monkeypatch, example1):
    # gamma builds the freeze and the reset as they must be; only an
    # automaton that carried both is compared against them, once
    # (`Pfa.reserved_matches`), however often it is lifted
    calls = []
    original = pfa_module.freeze_and_reset
    monkeypatch.setattr(pfa_module, "freeze_and_reset",
                        lambda p: calls.append(p) or original(p))
    extended = lifted_automaton(example1)
    assert calls == [example1]
    assert lifted_automaton(extended) is extended and lifted_automaton(extended) is extended
    assert len(calls) == 2 and calls[1] is extended


def test_sample_deterministic(example1):
    ch = build_V(gamma(example1))
    xs = ("0:a", "1:b", "0:id", "1:rt") * 5
    assert sample(ch, xs, seed=42) == sample(ch, xs, seed=42)
    # two seeds may collide, but not all of ten on a 20-symbol input
    assert len({sample(ch, xs, seed=seed) for seed in range(10)}) >= 2


def test_sample_refuses_a_negative_seed(example1):
    # random.Random(-s) is random.Random(s), so a negative seed would repeat another's draws
    ch = build_V(gamma(example1))
    with pytest.raises(FsmcError, match="seed -5 must be >= 0"):
        sample(ch, ("0:a", "1:b"), seed=-5)


def test_sample_noiseless_when_always_accepting(always_accept):
    ch = build_V(always_accept)
    xs = tuple(f"{i % 2}:a" for i in range(64))
    for seed in (0, 1, 7):
        assert sample(ch, xs, seed=seed) == tuple(str(i % 2) for i in range(64))


def test_sample_uniform_when_never_accepting(never_accept):
    ch = build_V(never_accept)
    n = 100_000
    ys = sample(ch, ("0:a",) * n, seed=2024)
    freq = ys.count("0") / n
    assert abs(freq - 0.5) <= 0.01


def test_lifted_coin_with_a_doubled_state_column_cannot_be_built():
    # a channel whose state law moves mass 2 out of q0 would be a "law" of
    # total mass above 1 for every sequence, rate and demo built on it
    ch = lift(build_D_xy(F(3, 5), F(1, 4)))
    doubled = tuple(tuple(2 * e if j == 0 else e for j, e in enumerate(row))
                    for row in ch.state_law["0:a"])
    with pytest.raises(FsmcError) as err:
        dataclasses.replace(ch, state_law={**ch.state_law, "0:a": doubled, "1:a": doubled})
    assert str(err.value) == ("state table '0:a' column 0 ('q0') sums to 2; "
                              "state table '1:a' column 0 ('q0') sums to 2")


def test_every_channel_construction_checks_once(monkeypatch, example1):
    calls = []
    original = fsmc_module.check_fsmc

    def counting(ch):
        calls.append(ch)
        return original(ch)

    monkeypatch.setattr(fsmc_module, "check_fsmc", counting)
    for make in (lambda: toy_channel(2), lambda: build_V(example1),
                 lambda: lift(example1)):
        calls.clear()
        built = make()
        assert calls == [built]
