"""Finite-state channels in product form p(y|x,s') p(s|x,s').

Includes the lift that turns an automaton into a channel whose data bit is
forwarded noiselessly while the automaton sits in an accepting state and
replaced by a fair coin otherwise, with the control input driving the
automaton, and its inverse, which reads the automaton back from the channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .pfa import (FREEZE_SYMBOL, RESET_SYMBOL, Matrix, Pfa, PfaError, ReadOnlyDict,
                  _columns_equal, _is_identity, duplicate_violations, gamma,
                  membership_violations, table_violations)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

V_INPUT_SEP = ":"


class FsmcError(ValueError):
    """Invalid channel, input symbol or parameter."""


@dataclass(frozen=True)
class Fsmc:
    """Channel with finite input/output alphabets and internal states.

    ``output_law[x][y][s']`` is p(y | x, s') and ``state_law[x][s][s']`` is
    p(s | x, s'); both tables are column-stochastic in s'.  Construction
    checks every invariant and raises FsmcError listing the violations.
    Both laws are stored as ReadOnlyDicts, like `Pfa.matrices`.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: tuple[str, ...]
    output_law: dict[str, Matrix]
    state_law: dict[str, Matrix]
    initial: str

    def __post_init__(self):
        for name in ("output_law", "state_law"):
            if type(getattr(self, name)) is not ReadOnlyDict:
                object.__setattr__(self, name, ReadOnlyDict(getattr(self, name)))
        check_fsmc(self)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise FsmcError(f"unknown state {name!r}") from None

    def input_index(self, sym: str) -> int:
        try:
            return self.inputs.index(sym)
        except ValueError:
            raise FsmcError(f"unknown input {sym!r}") from None

    @cached_property
    def automaton(self) -> Pfa:
        """The automaton a lifted channel carries (`unlift`), read back on
        first use and kept with the channel, so its integer columns are
        built once too.  A channel that is not a lift raises FsmcError on
        every use.  Not a field: ==, repr and dataclasses.replace ignore it."""
        return unlift(self)


def validate_fsmc(ch: Fsmc) -> list[str]:
    out = duplicate_violations(ch.inputs, "input symbols")
    out += membership_violations([ch.initial], ch.states, "initial state")
    for sym in ch.inputs:
        for kind, table, n_rows in (("output", ch.output_law, len(ch.outputs)),
                                    ("state", ch.state_law, ch.n_states)):
            if sym in table:
                out += table_violations(f"{kind} table {sym!r}", table[sym], n_rows, ch.states)
            else:
                out.append(f"no {kind} table for input {sym!r}")
    return out


def check_fsmc(ch: Fsmc) -> Fsmc:
    violations = validate_fsmc(ch)
    if violations:
        raise FsmcError("; ".join(violations))
    return ch


def v_input(bit: str, control: str) -> str:
    return f"{bit}{V_INPUT_SEP}{control}"


def split_v_input(sym: str) -> tuple[str, str]:
    bit, sep, control = sym.partition(V_INPUT_SEP)
    if not sep or bit not in ("0", "1"):
        raise FsmcError(f"input {sym!r} is not of the form <bit>{V_INPUT_SEP}<control>")
    return bit, control


# p(y | data bit) where the data bit is forwarded
_FORWARDED = {"0": (ONE, ZERO), "1": (ZERO, ONE)}


def _initial_state(p: Pfa) -> str:
    """The state the initial law is a point mass on."""
    support = [i for i, e in enumerate(p.initial) if e]
    if len(support) != 1 or p.initial[support[0]] != 1:
        raise FsmcError("channel lift needs a deterministic initial distribution")
    return p.states[support[0]]


def build_V(p: Pfa) -> Fsmc:
    """Channel lift of an automaton.

    Inputs are (data bit, control symbol) pairs written ``d:c``; outputs are
    bits.  The output is the data bit when the current state is accepting and
    a fair coin otherwise; the state moves by the control symbol's matrix.
    Requires a deterministic initial distribution.
    """
    s0 = _initial_state(p)
    n = p.n_states
    accepting = [s in p.accepting for s in p.states]
    inputs = tuple(v_input(d, c) for d in ("0", "1") for c in p.alphabet)
    output_law = {}
    state_law = {}
    for d in ("0", "1"):
        out_cols = [_FORWARDED[d] if accepting[j] else (HALF, HALF) for j in range(n)]
        table = tuple(tuple(out_cols[j][y] for j in range(n)) for y in range(2))
        for c in p.alphabet:
            sym = v_input(d, c)
            output_law[sym] = table
            state_law[sym] = p.matrices[c]
    return Fsmc(inputs=inputs, outputs=("0", "1"), states=p.states,
                output_law=output_law, state_law=state_law, initial=s0)


def unlift(ch: Fsmc) -> Pfa:
    """Inverse of build_V: read the automaton back out of a lifted channel.

    Checks that the outputs are bits, the inputs are a ``d:c`` product, the
    state law ignores the data bit, and every input's output law forwards the
    data bit from accepting states and is a fair coin elsewhere, with each
    state forwarding under every input or under none.  Controls keep the
    order of their first appearance among the inputs.
    """
    if tuple(ch.outputs) != ("0", "1"):
        raise FsmcError("expected a binary-output channel")
    if not ch.inputs:
        raise FsmcError("a lifted channel needs at least one input")
    matrices = {}
    noiseless: dict[int, tuple[str, bool]] = {}
    for sym in ch.inputs:
        bit, control = split_v_input(sym)
        other = v_input("1" if bit == "0" else "0", control)
        if other not in ch.inputs:
            raise FsmcError(f"input {other!r} missing: not a data/control product")
        if ch.state_law[sym] != ch.state_law[other]:
            raise FsmcError(f"state law for control {control!r} depends on the data bit")
        matrices.setdefault(control, ch.state_law[sym])
        law = ch.output_law[sym]
        for j, state in enumerate(ch.states):
            col = (law[0][j], law[1][j])
            if col == _FORWARDED[bit]:
                flag = True
            elif col == (HALF, HALF):
                flag = False
            else:
                raise FsmcError(f"output law of input {sym!r} in state {state!r} neither "
                                "forwards the data bit nor is uniform")
            first_sym, first_flag = noiseless.setdefault(j, (sym, flag))
            if flag != first_flag:
                raise FsmcError(f"state {state!r} forwards the data bit under only one "
                                f"of the inputs {first_sym!r} and {sym!r}")
    s0 = ch.state_index(ch.initial)
    return Pfa(states=ch.states, alphabet=tuple(matrices), matrices=matrices,
               initial=tuple(ONE if i == s0 else ZERO for i in range(ch.n_states)),
               accepting=frozenset(s for j, s in enumerate(ch.states) if noiseless[j][1]))


def lifted_automaton(p: Pfa) -> Pfa:
    """The automaton the channel `lift(p)` carries, as `unlift` reads it
    back, built without the channel and refused wherever `lift` refuses.

    It is gamma(p), unless `p` already has both reserved symbols, which must
    then be the identity and the reset to the initial law; gamma refuses an
    automaton with only one.  The initial law must be a point mass.
    """
    if FREEZE_SYMBOL not in p.alphabet or RESET_SYMBOL not in p.alphabet:
        p = gamma(p)
    _initial_state(p)
    if not (_is_identity(p.matrices[FREEZE_SYMBOL])
            and _columns_equal(p.matrices[RESET_SYMBOL], p.initial)):
        raise PfaError(f"symbols {FREEZE_SYMBOL!r} and {RESET_SYMBOL!r} are not the freeze "
                       "and the reset of the automaton")
    return p


def lift(p: Pfa) -> Fsmc:
    """Channel lift of `p` extended by freeze and reset symbols."""
    return build_V(lifted_automaton(p))


def _draw(rng: random.Random, labels: Sequence[str], probs: Sequence[Fraction]) -> str:
    r = Fraction(rng.getrandbits(53), 1 << 53)
    acc = ZERO
    last = None
    for label, pr in zip(labels, probs):
        if not pr:
            continue
        last = label
        acc += pr
        if r < acc:
            return label
    return last  # guard against accumulated-mass boundary


def sample(ch: Fsmc, xs: Sequence[str], seed: int) -> tuple[str, ...]:
    """One output trajectory; identical seed and inputs give identical output.

    Randomness comes from ``random.Random(seed)`` (Mersenne Twister), with
    each draw made by comparing a 53-bit uniform rational against the exact
    cumulative distribution.
    """
    for x in xs:
        ch.input_index(x)
    rng = random.Random(seed)
    j = ch.state_index(ch.initial)
    ys = []
    for x in xs:
        out = ch.output_law[x]
        mov = ch.state_law[x]
        y = _draw(rng, ch.outputs, [out[yi][j] for yi in range(len(ch.outputs))])
        ys.append(y)
        s2 = _draw(rng, ch.states, [mov[si][j] for si in range(ch.n_states)])
        j = ch.state_index(s2)
    return tuple(ys)
