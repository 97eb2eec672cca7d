"""Finite-state channels in product form p(y|x,s') p(s|x,s').

Includes the lift that turns an automaton into a channel whose data bit is
forwarded noiselessly while the automaton sits in an accepting state and
replaced by a fair coin otherwise, with the control input driving the
automaton.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .pfa import Matrix, Pfa, PfaError, Vector, check_pfa, frac

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

V_INPUT_SEP = ":"

DEFAULT_TABLE_BUDGET = 1 << 22


class FsmcError(ValueError):
    """Invalid channel, input symbol or parameter."""


@dataclass(frozen=True)
class Fsmc:
    """Channel with finite input/output alphabets and internal states.

    ``output_law[x][y][s']`` is p(y | x, s') and ``state_law[x][s][s']`` is
    p(s | x, s'); both tables are column-stochastic in s'.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: tuple[str, ...]
    output_law: dict[str, Matrix]
    state_law: dict[str, Matrix]
    initial: str

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


def validate_fsmc(ch: Fsmc) -> list[str]:
    out = []
    n_s, n_y = len(ch.states), len(ch.outputs)
    if ch.initial not in ch.states:
        out.append(f"initial state {ch.initial!r} is not a state")
    for sym in ch.inputs:
        for kind, table, n_rows in (("output", ch.output_law, n_y), ("state", ch.state_law, n_s)):
            m = table.get(sym)
            if m is None:
                out.append(f"no {kind} table for input {sym!r}")
                continue
            if len(m) != n_rows or any(len(row) != n_s for row in m):
                out.append(f"{kind} table {sym!r} is not {n_rows}x{n_s}")
                continue
            for i, row in enumerate(m):
                for j, e in enumerate(row):
                    if e < 0:
                        out.append(f"{kind} table {sym!r} entry ({i},{j}) is negative")
            for j in range(n_s):
                col = sum((m[i][j] for i in range(n_rows)), ZERO)
                if col != 1:
                    out.append(f"{kind} table {sym!r} column {j} ({ch.states[j]!r}) sums to {col}")
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


def build_V(p: Pfa) -> Fsmc:
    """Channel lift of an automaton.

    Inputs are (data bit, control symbol) pairs written ``d:c``; outputs are
    bits.  The output is the data bit when the current state is accepting and
    a fair coin otherwise; the state moves by the control symbol's matrix.
    Requires a deterministic initial distribution.
    """
    check_pfa(p)
    support = [i for i, e in enumerate(p.initial) if e]
    if len(support) != 1 or p.initial[support[0]] != 1:
        raise FsmcError("channel lift needs a deterministic initial distribution")
    s0 = p.states[support[0]]
    n = p.n_states
    accepting = [s in p.accepting for s in p.states]
    inputs = tuple(v_input(d, c) for d in ("0", "1") for c in p.alphabet)
    output_law = {}
    state_law = {}
    for d in ("0", "1"):
        row_if_acc = {"0": (ONE, ZERO), "1": (ZERO, ONE)}[d]
        out_cols = tuple(
            (row_if_acc[0] if accepting[j] else HALF, row_if_acc[1] if accepting[j] else HALF)
            for j in range(n))
        table = tuple(tuple(out_cols[j][y] for j in range(n)) for y in range(2))
        for c in p.alphabet:
            sym = v_input(d, c)
            output_law[sym] = table
            state_law[sym] = p.matrices[c]
    return Fsmc(inputs=inputs, outputs=("0", "1"), states=p.states,
                output_law=output_law, state_law=state_law, initial=s0)


@dataclass
class SequenceDist:
    """Exact joint law of (output sequence, terminal state) given an input
    sequence."""

    inputs: tuple[str, ...]
    table: dict[tuple[tuple[str, ...], str], Fraction] = field(default_factory=dict)

    def total(self) -> Fraction:
        return sum(self.table.values(), ZERO)

    def output_marginal(self) -> dict[tuple[str, ...], Fraction]:
        out: dict[tuple[str, ...], Fraction] = {}
        for (ys, _s), pr in self.table.items():
            out[ys] = out.get(ys, ZERO) + pr
        return out

    def state_marginal(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for (_ys, s), pr in self.table.items():
            out[s] = out.get(s, ZERO) + pr
        return out


def joint_seq_dist(ch: Fsmc, xs: Sequence[str], budget: int = DEFAULT_TABLE_BUDGET) -> SequenceDist:
    """Unroll the channel recursion exactly over the input sequence."""
    xs = tuple(xs)
    if not xs:
        raise FsmcError("need at least one input symbol")
    for x in xs:
        ch.input_index(x)
    if len(ch.outputs) ** len(xs) * ch.n_states > budget:
        raise FsmcError(
            f"table of {len(ch.outputs)}^{len(xs)} x {ch.n_states} entries exceeds budget {budget}")
    table: dict[tuple[tuple[str, ...], str], Fraction] = {((), ch.initial): ONE}
    for x in xs:
        out = ch.output_law[x]
        mov = ch.state_law[x]
        nxt: dict[tuple[tuple[str, ...], str], Fraction] = {}
        for (ys, s), pr in table.items():
            j = ch.state_index(s)
            for yi, y in enumerate(ch.outputs):
                py = out[yi][j]
                if not py:
                    continue
                for si, s2 in enumerate(ch.states):
                    ps = mov[si][j]
                    if not ps:
                        continue
                    key = (ys + (y,), s2)
                    nxt[key] = nxt.get(key, ZERO) + pr * py * ps
        table = nxt
    return SequenceDist(inputs=xs, table=table)


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
