"""Automata realizing the value dichotomy, the value amplifiers, and the
prime-power codec for rational tuples.

The dichotomy gadget is a two-branch coin-race over the alphabet {a, b}.
The optimistic branch (home q1, hold q2) survives an a-block with
probability x per step and claims success when a b arrives while it is
still at home; the pessimistic branch (home q4, holds q5a/q5n) mirrors it
with 1-x and falls into the shared sink on a b at home.  Success claims
split 2y into the accepting absorber q3 and 1-2y into the sink; escapes on
the pessimistic side split 2y/1-2y across the two hold states so the held
mass carries acceptance weight 2y.  A virtual start state q0 whose columns
average the q1 and q4 columns reproduces the half/half branch split exactly
for every nonempty word while keeping the initial distribution
deterministic, which the channel lift requires.

Consequences enforced by the tests: for block words a^{n1} b ... a^{nt} b
the success-class mass from q1 is 1 - prod(1 - x^{n_i}) and the sink mass
from q4 is 1 - prod(1 - (1-x)^{n_i}); words with a bb factor have value
exactly y; no word exceeds 2y.

The lifted gadget replaces the coin by two embedded copies of a supplied
automaton: an a enters a copy at its initial distribution, the copy then
runs on its own alphabet until the fresh symbol c routes accepting mass one
way and the rest the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .pfa import Matrix, Pfa, PfaError, Vector, check_pfa, frac, gamma

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

SKELETON_STATES = ("q0", "q1", "q2", "q3", "sink", "q4", "q5a", "q5n")
SKELETON_SIZE = len(SKELETON_STATES)

#: Mass reached from q1 in these states is the success class of the
#: optimistic branch (the accepting absorber plus its 1-2y overflow).
TOP_SUCCESS_CLASS = ("q3", "sink")
#: Mass reached from q4 here is the pessimistic branch's failure absorber.
BOTTOM_FAIL_STATE = "sink"
#: Held mass of the pessimistic branch (acceptance weight 2y of it).
BOTTOM_HOLD_CLASS = ("q5a", "q5n")

FAMILY_INNER_STATES = 27
FAMILY_TARGET_STATES = 2 * FAMILY_INNER_STATES + SKELETON_SIZE  # 62


class GadgetError(PfaError):
    """Gadget parameter outside its admissible range."""


def _columns_to_matrix(states: Sequence[str], cols: dict[str, dict[str, Fraction]]) -> Matrix:
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    m = [[ZERO] * n for _ in range(n)]
    for src, targets in cols.items():
        j = idx[src]
        for dst, pr in targets.items():
            m[idx[dst]][j] = m[idx[dst]][j] + pr
    return tuple(tuple(row) for row in m)


def _blend(*weighted_cols: tuple[Fraction, dict[str, Fraction]]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for weight, col in weighted_cols:
        for dst, pr in col.items():
            out[dst] = out.get(dst, ZERO) + weight * pr
    return out


def _check_y(y: Fraction) -> Fraction:
    if not (0 <= y <= HALF):
        raise GadgetError(f"acceptance weight {y} outside [0, 1/2]")
    return y


def build_D_xy(x, y) -> Pfa:
    """Coin-race gadget over {a, b} with per-step survival x and acceptance
    weight 2y on claimed successes."""
    x, y = frac(x), frac(y)
    if not (0 <= x <= 1):
        raise GadgetError(f"survival probability {x} outside [0, 1]")
    _check_y(y)
    cols = {
        "a": {
            "q1": {"q1": x, "q2": 1 - x},
            "q2": {"q2": ONE},
            "q3": {"q3": ONE},
            "sink": {"sink": ONE},
            "q4": {"q4": 1 - x, "q5a": 2 * y * x, "q5n": (1 - 2 * y) * x},
            "q5a": {"q5a": ONE},
            "q5n": {"q5n": ONE},
        },
        "b": {
            "q1": {"q3": 2 * y, "sink": 1 - 2 * y},
            "q2": {"q1": ONE},
            "q3": {"q3": ONE},
            "sink": {"sink": ONE},
            "q4": {"sink": ONE},
            "q5a": {"q4": ONE},
            "q5n": {"q4": ONE},
        },
    }
    for sym in cols:
        cols[sym]["q0"] = _blend((HALF, cols[sym]["q1"]), (HALF, cols[sym]["q4"]))
    matrices = {sym: _columns_to_matrix(SKELETON_STATES, c) for sym, c in cols.items()}
    initial = tuple(ONE if s == "q0" else ZERO for s in SKELETON_STATES)
    return check_pfa(Pfa(states=SKELETON_STATES, alphabet=("a", "b"), matrices=matrices,
                         initial=initial, accepting=frozenset({"q3", "q5a"})))


def build_D_Ay(a: Pfa, y) -> Pfa:
    """Lifted gadget: the coin is replaced by two embedded copies of `a`.

    `a` must use an alphabet inside {a, b}; the composite alphabet is
    {a, b, c}.  Reading a from a branch home enters that branch's copy at
    a's initial distribution; the copy evolves on a's own symbols (other
    symbols hold it) until c routes accepting mass home / to the hold states
    and the rest the other way.  State count is 2*len(a.states) +
    SKELETON_SIZE.

    For protocol words, groups (a w c)^n separated by single b's with the
    trailing group optionally unterminated, the branches race exactly as in
    the coin gadget with x = value(a, w) per group, so the value stays <= y
    whenever every inner value is <= 1/2 and climbs to 2y when some inner
    value exceeds 1/2.  Off-protocol words are weaker: held mass shielded
    inside a copy survives separator pairs, so an inner automaton with
    positive values <= 1/2 admits words above y (value('acabbc') = 3y/2 on
    the two-state uniform mixer).  The all-words bound <= y is guaranteed
    only when the inner automaton has no positive-value word at all.
    """
    check_pfa(a)
    y = _check_y(frac(y))
    if not set(a.alphabet) <= {"a", "b"}:
        raise GadgetError(f"inner alphabet {a.alphabet} must be a subset of {{a, b}}")
    top = tuple(f"t.{s}" for s in a.states)
    bot = tuple(f"u.{s}" for s in a.states)
    states = SKELETON_STATES + top + bot
    enter_top = {top[i]: e for i, e in enumerate(a.initial) if e}
    enter_bot = {bot[i]: e for i, e in enumerate(a.initial) if e}
    matrices = {}
    for sym in ("a", "b", "c"):
        cols: dict[str, dict[str, Fraction]] = {
            "q2": {"q1": ONE} if sym == "b" else {"q2": ONE},
            "q3": {"q3": ONE},
            "sink": {"sink": ONE},
            "q5a": {"q4": ONE} if sym == "b" else {"q5a": ONE},
            "q5n": {"q4": ONE} if sym == "b" else {"q5n": ONE},
        }
        if sym == "a":
            cols["q1"] = dict(enter_top)
            cols["q4"] = dict(enter_bot)
        elif sym == "b":
            cols["q1"] = {"q3": 2 * y, "sink": 1 - 2 * y}
            cols["q4"] = {"sink": ONE}
        else:
            cols["q1"] = {"q1": ONE}
            cols["q4"] = {"q4": ONE}
        if sym == "c":
            for i, s in enumerate(a.states):
                if s in a.accepting:
                    cols[top[i]] = {"q1": ONE}
                    cols[bot[i]] = {"q5a": 2 * y, "q5n": 1 - 2 * y}
                else:
                    cols[top[i]] = {"q2": ONE}
                    cols[bot[i]] = {"q4": ONE}
        elif sym in a.alphabet:
            m = a.matrices[sym]
            for j in range(len(a.states)):
                cols[top[j]] = {top[i]: m[i][j] for i in range(len(a.states)) if m[i][j]}
                cols[bot[j]] = {bot[i]: m[i][j] for i in range(len(a.states)) if m[i][j]}
        else:
            for j in range(len(a.states)):
                cols[top[j]] = {top[j]: ONE}
                cols[bot[j]] = {bot[j]: ONE}
        cols["q0"] = _blend((HALF, cols["q1"]), (HALF, cols["q4"]))
        matrices[sym] = _columns_to_matrix(states, cols)
    initial = tuple(ONE if s == "q0" else ZERO for s in states)
    return check_pfa(Pfa(states=states, alphabet=("a", "b", "c"), matrices=matrices,
                         initial=initial, accepting=frozenset({"q3", "q5a"})))


def gadget_state_count(n_inner: int) -> int:
    return 2 * n_inner + SKELETON_SIZE


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "_"
    return name


def _amplifier(a: Pfa, p: Fraction, sink_accepting: bool) -> Pfa:
    check_pfa(a)
    if not (0 < p < 1):
        raise GadgetError(f"amplification weight {p} outside (0, 1)")
    init = _fresh("init", a.states)
    sink = _fresh("sink", a.states + (init,))
    states = a.states + (init, sink)
    n = len(a.states)
    matrices = {}
    for sym in a.alphabet:
        m = a.matrices[sym]
        first_step = [sum((m[i][j] * a.initial[j] for j in range(n) if a.initial[j]), ZERO)
                      for i in range(n)]
        rows = []
        for i in range(n):
            rows.append(tuple(m[i]) + (p * first_step[i], ZERO))
        rows.append((ZERO,) * n + (ZERO, ZERO))            # nothing re-enters init
        rows.append((ZERO,) * n + (1 - p, ONE))            # leak to the sink, which absorbs
        matrices[sym] = tuple(rows)
    initial = (ZERO,) * n + (ONE, ZERO)
    accepting = set(a.accepting)
    if sink_accepting:
        accepting.add(sink)
    return check_pfa(Pfa(states=states, alphabet=a.alphabet, matrices=matrices,
                         initial=initial, accepting=frozenset(accepting)))


def build_B_p(a: Pfa, p) -> Pfa:
    """Downscaling amplifier: value(B_p, w) = p * value(a, w) for every
    nonempty word."""
    return _amplifier(a, frac(p), sink_accepting=False)


def build_C_p(a: Pfa, p) -> Pfa:
    """Upscaling amplifier: value(C_p, w) = p * value(a, w) + 1 - p for every
    nonempty word."""
    return _amplifier(a, frac(p), sink_accepting=True)


def build_family_member(a: Pfa, lam) -> Pfa:
    """Freeze/reset lift of the dichotomy gadget built on `a` with acceptance
    weight lam/2: the member's value is either >= lam or <= lam/2 according
    to whether some word of `a` exceeds value 1/2."""
    lam = frac(lam)
    if not (0 < lam <= 1):
        raise GadgetError(f"separation parameter {lam} outside (0, 1]")
    if not set(a.alphabet) <= {"a", "b"}:
        raise GadgetError(f"inner alphabet {a.alphabet} must be a subset of {{a, b}}")
    return gamma(build_D_Ay(a, lam / 2))


def dxy_block_word(lengths: Sequence[int]) -> tuple[str, ...]:
    """The word a^{n1} b a^{n2} b ... a^{nt} b."""
    word: list[str] = []
    for n in lengths:
        if n < 1:
            raise GadgetError(f"block length {n} must be >= 1")
        word.extend(["a"] * n)
        word.append("b")
    return tuple(word)


def dxy_reach_closed_form(x, lengths: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact success-class and failure-sink reach probabilities for the block
    word a^{n1} b ... a^{nt} b: (1 - prod(1 - x^{n_i}),
    1 - prod(1 - (1-x)^{n_i}))."""
    x = frac(x)
    survive = ONE
    caught = ONE
    for n in lengths:
        survive *= 1 - x ** n
        caught *= 1 - (1 - x) ** n
    return ONE - survive, ONE - caught


# ---------------------------------------------------------------------------
# Prime-power codec for tuples of positive rationals.
# ---------------------------------------------------------------------------

class SigmaError(ValueError):
    """Value outside the image of the codec."""


@dataclass(frozen=True)
class SigmaCode:
    value: int
    arity: int


def first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def sigma_encode(values: Sequence) -> SigmaCode:
    """Encode positive rationals r_j/s_j as prod p_j^{r_j} prod p_{N+j}^{s_j}
    over the first 2N primes.  Fractions normalize to lowest terms, which
    keeps the map injective."""
    fracs = [frac(v) for v in values]
    if not fracs:
        raise SigmaError("nothing to encode")
    for f in fracs:
        if f <= 0:
            raise SigmaError(f"entry {f} is not positive")
    n = len(fracs)
    primes = first_primes(2 * n)
    total = 1
    for j, f in enumerate(fracs):
        total *= primes[j] ** f.numerator
        total *= primes[n + j] ** f.denominator
    return SigmaCode(value=total, arity=n)


def sigma_decode(code: SigmaCode) -> tuple[Fraction, ...]:
    """Invert the codec; reject anything outside its image."""
    n = code.arity
    if n < 1:
        raise SigmaError(f"arity {n} must be >= 1")
    remaining = code.value
    if remaining < 2:
        raise SigmaError(f"{code.value} is not in the image of the codec")
    primes = first_primes(2 * n)
    exponents = []
    for p in primes:
        e = 0
        while remaining % p == 0:
            remaining //= p
            e += 1
        exponents.append(e)
    if remaining != 1:
        raise SigmaError(f"{code.value} has a prime factor beyond the first {2 * n} primes")
    out = []
    for j in range(n):
        r, s = exponents[j], exponents[n + j]
        if r < 1 or s < 1:
            raise SigmaError(f"{code.value} is missing prime {primes[j] if r < 1 else primes[n + j]}")
        if math.gcd(r, s) != 1:
            raise SigmaError(f"{code.value} encodes {r}/{s}, which is not in lowest terms")
        out.append(Fraction(r, s))
    return tuple(out)
