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
                  _int_columns, duplicate_violations, gamma, membership_violations,
                  raise_violations, table_violations)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

V_INPUT_SEP = ":"


class FsmcError(ValueError):
    """Invalid channel, input symbol or parameter; an invalid construction's
    error also keeps its (section, message) pairs (`pfa.raise_violations`)."""


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


def validate_fsmc(ch: Fsmc) -> list[tuple[str, str]]:
    """Every invariant violation as a (section, message) pair, the section
    being the part of a channel file it concerns: 'inputs', 'outputs',
    'states', 'initial', 'output <input>' or 'state <input>'.  Empty means
    valid."""
    found = [("inputs", duplicate_violations(ch.inputs, "input symbols")),
             ("outputs", duplicate_violations(ch.outputs, "output symbols")),
             ("states", duplicate_violations(ch.states, "state names")),
             ("initial", membership_violations([ch.initial], ch.states, "initial state"))]
    for sym in ch.inputs:
        for kind, table, n_rows in (("output", ch.output_law, len(ch.outputs)),
                                    ("state", ch.state_law, ch.n_states)):
            found.append((f"{kind} {sym}", [f"no {kind} table for input {sym!r}"] if sym not in table
                          else table_violations(f"{kind} table {sym!r}", table[sym], n_rows, ch.states)))
    found += [(f"{kind} {sym}", [f"{kind} table for input {sym!r} not in the inputs"])
              for kind, table in (("output", ch.output_law), ("state", ch.state_law))
              for sym in table if sym not in ch.inputs]
    return [(section, message) for section, messages in found for message in messages]


def check_fsmc(ch: Fsmc) -> Fsmc:
    raise_violations(FsmcError, validate_fsmc(ch))
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


def _lift_laws(p: Pfa) -> tuple[dict[str, Matrix], dict[str, Matrix]]:
    """The lift's output law and state law for each input ``d:c``, all
    inputs with d = 0 first: the output is the data bit when the current
    state is accepting and a fair coin otherwise; the state moves by the
    control symbol's matrix."""
    n = p.n_states
    accepting = [s in p.accepting for s in p.states]
    output_law = {}
    state_law = {}
    for d in ("0", "1"):
        out_cols = [_FORWARDED[d] if accepting[j] else (HALF, HALF) for j in range(n)]
        table = tuple(zip(*out_cols))
        for c in p.alphabet:
            sym = v_input(d, c)
            output_law[sym] = table
            state_law[sym] = p.matrices[c]
    return output_law, state_law


def build_V(p: Pfa) -> Fsmc:
    """Channel lift of an automaton (`_lift_laws`).

    Inputs are (data bit, control symbol) pairs written ``d:c``; outputs are
    bits.  Requires a deterministic initial distribution.
    """
    s0 = _initial_state(p)
    output_law, state_law = _lift_laws(p)
    return Fsmc(inputs=tuple(output_law), outputs=("0", "1"), states=p.states,
                output_law=output_law, state_law=state_law, initial=s0)


def unlift(ch: Fsmc) -> Pfa:
    """Inverse of build_V: read the automaton back out of a lifted channel.

    Checks that the outputs are bits and the inputs a ``d:c`` product, then
    reads the candidate: controls in the order of their first appearance,
    each with its ``0:c`` state law, and the states where the first
    control's ``0:c`` input outputs 0 surely as accepting.  Every input's
    laws must be the ones `_lift_laws` gives for that candidate.
    """
    if tuple(ch.outputs) != ("0", "1"):
        raise FsmcError("expected a binary-output channel")
    if not ch.inputs:
        raise FsmcError("a lifted channel needs at least one input")
    matrices = {}
    for sym in ch.inputs:
        bit, control = split_v_input(sym)
        other = v_input("1" if bit == "0" else "0", control)
        if other not in ch.inputs:
            raise FsmcError(f"input {other!r} missing: not a data/control product")
        matrices.setdefault(control, ch.state_law[v_input("0", control)])
    first = ch.output_law[v_input("0", next(iter(matrices)))]
    s0 = ch.state_index(ch.initial)
    p = Pfa(states=ch.states, alphabet=tuple(matrices), matrices=matrices,
            initial=tuple(ONE if i == s0 else ZERO for i in range(ch.n_states)),
            accepting=frozenset(s for j, s in enumerate(ch.states) if first[0][j] == 1))
    output_law, state_law = _lift_laws(p)
    for sym in ch.inputs:
        for kind, laws, lifted in (("output", ch.output_law, output_law),
                                   ("state", ch.state_law, state_law)):
            if laws[sym] != lifted[sym]:
                raise FsmcError(f"{kind} law of input {sym!r} is not the lift of the "
                                "automaton the channel carries")
    return p


def lifted_automaton(p: Pfa) -> Pfa:
    """The automaton the channel `lift(p)` carries, as `unlift` reads it
    back, built without the channel and refused wherever `lift` refuses.

    It is gamma(p), unless `p` already has both reserved symbols, which must
    then be the identity and the reset to the initial law
    (`Pfa.reserved_matches`); gamma refuses an automaton with only one, and
    builds both as they must be.  The initial law must be a point mass.
    """
    carried = FREEZE_SYMBOL in p.alphabet and RESET_SYMBOL in p.alphabet
    if not carried:
        p = gamma(p)
    _initial_state(p)
    if carried and not (p.reserved_matches(FREEZE_SYMBOL) and p.reserved_matches(RESET_SYMBOL)):
        raise PfaError(f"symbols {FREEZE_SYMBOL!r} and {RESET_SYMBOL!r} are not the freeze "
                       "and the reset of the automaton")
    return p


def lift(p: Pfa) -> Fsmc:
    """Channel lift of `p` extended by freeze and reset symbols."""
    return build_V(lifted_automaton(p))


def _draw(rng: random.Random, column: Sequence[tuple[int, int]], den: int) -> int:
    """Row of the first entry of a sparse integer column over `den` whose
    running sum `acc` passes one 53-bit draw: bits/2^53 < acc/den, on
    integers.  A valid column sums to `den`, so some entry passes."""
    scaled = rng.getrandbits(53) * den
    acc = 0
    for i, x in column:
        acc += x
        if scaled < acc << 53:
            return i


def sample(ch: Fsmc, xs: Sequence[str], seed: int) -> tuple[str, ...]:
    """One output trajectory; identical seed and inputs give identical output.

    Randomness comes from ``random.Random(seed)`` (Mersenne Twister), with
    each draw made by comparing a 53-bit uniform rational against the exact
    cumulative distribution (`_draw`), on the integer columns each distinct
    input's laws are turned into once per call (`pfa._int_columns`).  Seeds
    are nonnegative: Random(-s) is Random(s).
    """
    if seed < 0:
        raise FsmcError(f"seed {seed} must be >= 0")
    distinct = dict.fromkeys(xs)
    for x in distinct:
        ch.input_index(x)
    tables = {x: (_int_columns(ch.output_law[x]), _int_columns(ch.state_law[x])) for x in distinct}
    rng = random.Random(seed)
    j = ch.state_index(ch.initial)
    ys = []
    for x in xs:
        (out, out_den), (mov, mov_den) = tables[x]
        ys.append(ch.outputs[_draw(rng, out[j], out_den)])
        j = _draw(rng, mov[j], mov_den)
    return tuple(ys)
