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
way and the rest the other.  Both gadgets come from one race builder, so the
skeleton, the b separator, the q0 average and the accepting set are written
once; each gadget supplies only its a-moves (and the copies' columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .pfa import Matrix, Pfa, PfaError, frac, gamma

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


def _race(y: Fraction, alphabet: tuple[str, ...], copies: tuple[str, ...],
          moves: dict[str, dict[str, dict[str, Fraction]]]) -> Pfa:
    """The coin race shared by both dichotomy gadgets, over the skeleton
    states followed by `copies`.  Every state holds on every symbol unless
    `moves[sym]` gives its column, except on b: the holds q2/q5a/q5n return
    home, q1 claims 2y into q3 and the rest into the sink, and q4 falls into
    the sink.  q0 averages q1 and q4 on every symbol."""
    states = SKELETON_STATES + copies
    matrices = {}
    for sym in alphabet:
        cols = {s: {s: ONE} for s in states}
        if sym == "b":
            cols.update(q1={"q3": 2 * y, "sink": 1 - 2 * y}, q2={"q1": ONE},
                        q4={"sink": ONE}, q5a={"q4": ONE}, q5n={"q4": ONE})
        cols.update(moves.get(sym, {}))
        cols["q0"] = _blend((HALF, cols["q1"]), (HALF, cols["q4"]))
        matrices[sym] = _columns_to_matrix(states, cols)
    initial = tuple(ONE if s == "q0" else ZERO for s in states)
    return Pfa(states=states, alphabet=alphabet, matrices=matrices,
               initial=initial, accepting=frozenset({"q3", "q5a"}))


def build_D_xy(x, y) -> Pfa:
    """Coin-race gadget over {a, b} with per-step survival x and acceptance
    weight 2y on claimed successes."""
    x, y = frac(x), frac(y)
    if not (0 <= x <= 1):
        raise GadgetError(f"survival probability {x} outside [0, 1]")
    _check_y(y)
    return _race(y, ("a", "b"), (), {"a": {
        "q1": {"q1": x, "q2": 1 - x},
        "q4": {"q4": 1 - x, "q5a": 2 * y * x, "q5n": (1 - 2 * y) * x},
    }})


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
    value exceeds 1/2.  Off-protocol words are not capped: held mass
    shielded inside a copy survives separator pairs, and each further
    (a a c) round moves a share of the remaining mass into the hold class,
    so the values climb to 2y for an inner automaton with any
    positive-value word.  On the unary mixer (value 1/2 on every nonempty
    word), acaabbc (aac)^k has value y (2 - 2^-(k+1)).  The all-words
    bound <= y is guaranteed only when the inner automaton has no
    positive-value word at all; a value bound of y supplied for any other
    member is unsound.
    """
    y = _check_y(frac(y))
    if not set(a.alphabet) <= {"a", "b"}:
        raise GadgetError(f"inner alphabet {a.alphabet} must be a subset of {{a, b}}")
    n = len(a.states)
    top = tuple(f"t.{s}" for s in a.states)
    bot = tuple(f"u.{s}" for s in a.states)
    moves: dict[str, dict[str, dict[str, Fraction]]] = {
        "a": {"q1": {top[i]: e for i, e in enumerate(a.initial) if e},
              "q4": {bot[i]: e for i, e in enumerate(a.initial) if e}},
        "b": {},
        "c": {},
    }
    for sym in a.alphabet:
        m = a.matrices[sym]
        for j in range(n):
            moves[sym][top[j]] = {top[i]: m[i][j] for i in range(n) if m[i][j]}
            moves[sym][bot[j]] = {bot[i]: m[i][j] for i in range(n) if m[i][j]}
    for i, s in enumerate(a.states):
        if s in a.accepting:
            moves["c"][top[i]] = {"q1": ONE}
            moves["c"][bot[i]] = {"q5a": 2 * y, "q5n": 1 - 2 * y}
        else:
            moves["c"][top[i]] = {"q2": ONE}
            moves["c"][bot[i]] = {"q4": ONE}
    return _race(y, ("a", "b", "c"), top + bot, moves)


def gadget_state_count(n_inner: int) -> int:
    return 2 * n_inner + SKELETON_SIZE


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "_"
    return name


def _amplifier(a: Pfa, p: Fraction, sink_accepting: bool) -> Pfa:
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
    return Pfa(states=states, alphabet=a.alphabet, matrices=matrices,
               initial=initial, accepting=frozenset(accepting))


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
    return gamma(build_D_Ay(a, lam / 2))


def dxy_reach_closed_forms(x, lengths: Sequence[int]) -> Iterator[tuple[Fraction, Fraction]]:
    """Exact success-class and failure-sink reach probabilities for the block
    word a^{n1} b ... a^{nt} b of every prefix of `lengths`, the empty one
    first: (1 - prod(1 - x^{n_i}), 1 - prod(1 - (1-x)^{n_i})), as running
    products, one power of x and one of 1-x per block."""
    x = frac(x)
    survive = ONE
    caught = ONE
    yield ZERO, ZERO
    for n in lengths:
        survive *= 1 - x ** n
        caught *= 1 - (1 - x) ** n
        yield ONE - survive, ONE - caught


# ---------------------------------------------------------------------------
# Prime-power codec for tuples of positive rationals.
# ---------------------------------------------------------------------------

class SigmaError(ValueError):
    """Value outside the image of the codec."""


SIGMA_DIGIT_BUDGET = 4300    # codes are decimal text: Python's default int-str digit limit


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
    primes = first_primes(2 * len(fracs))
    exps = [f.numerator for f in fracs] + [f.denominator for f in fracs]
    # log10 of the code, before any power; an exponent capped at 4 budgets is a float and passes it
    if sum(min(e, 4 * SIGMA_DIGIT_BUDGET) * math.log10(p)
           for p, e in zip(primes, exps)) >= SIGMA_DIGIT_BUDGET:
        raise SigmaError(f"the code has more than {SIGMA_DIGIT_BUDGET} digits")
    return SigmaCode(value=math.prod(p ** e for p, e in zip(primes, exps)), arity=len(fracs))


def sigma_decode(code: SigmaCode) -> tuple[Fraction, ...]:
    """Invert the codec; reject anything outside its image."""
    n = code.arity
    if n < 1:
        raise SigmaError(f"arity {n} must be >= 1")
    if math.log10(abs(code.value) or 1) >= SIGMA_DIGIT_BUDGET:
        raise SigmaError(f"the code has more than {SIGMA_DIGIT_BUDGET} digits")
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
