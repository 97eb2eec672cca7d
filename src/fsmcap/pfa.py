"""Exact-rational probabilistic finite automata.

Distributions over states are column vectors of fractions and every
transition matrix is column-stochastic: entry [i][j] is the probability of
moving from state j to state i, so reading a symbol maps a distribution u
to M @ u.  All arithmetic is exact; floats are rejected at the boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

FREEZE_SYMBOL = "id"
RESET_SYMBOL = "rt"

DEFAULT_SEARCH_BUDGET = 5_000_000

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Word = tuple[str, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class PfaError(ValueError):
    """Invalid automaton, state, symbol or parameter."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


def frac(value) -> Fraction:
    """Coerce ints, 'p/q' strings and fractions to Fraction; refuse floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise PfaError(f"refusing float {value!r}: probabilities must be exact rationals")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise PfaError(f"not a rational: {value!r}") from exc


def make_vector(entries) -> Vector:
    return tuple(frac(e) for e in entries)


def make_matrix(rows) -> Matrix:
    return tuple(tuple(frac(e) for e in row) for row in rows)


@dataclass(frozen=True)
class Pfa:
    """Automaton (states, alphabet, one column-stochastic matrix per symbol,
    initial distribution, accepting subset)."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    matrices: dict[str, Matrix]
    initial: Vector
    accepting: frozenset[str]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise PfaError(f"unknown state {name!r}") from None

    def matrix(self, symbol: str) -> Matrix:
        try:
            return self.matrices[symbol]
        except KeyError:
            raise PfaError(f"unknown symbol {symbol!r}") from None

    def accept_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.states) if s in self.accepting)


def make_pfa(states, alphabet, matrices, initial, accepting) -> Pfa:
    return Pfa(
        states=tuple(states),
        alphabet=tuple(alphabet),
        matrices={sym: make_matrix(m) for sym, m in matrices.items()},
        initial=make_vector(initial),
        accepting=frozenset(accepting),
    )


def validate_pfa(p: Pfa) -> list[str]:
    """Return every invariant violation, with its location; empty means valid."""
    out = []
    n = p.n_states
    if len(set(p.states)) != n:
        out.append("duplicate state names")
    if len(set(p.alphabet)) != len(p.alphabet):
        out.append("duplicate alphabet symbols")
    for sym in p.alphabet:
        if sym not in p.matrices:
            out.append(f"no matrix for symbol {sym!r}")
    for sym in p.matrices:
        if sym not in p.alphabet:
            out.append(f"matrix for symbol {sym!r} not in the alphabet")
    for sym in p.alphabet:
        m = p.matrices.get(sym)
        if m is None:
            continue
        if len(m) != n or any(len(row) != n for row in m):
            out.append(f"matrix {sym!r} is not {n}x{n}")
            continue
        for i, row in enumerate(m):
            for j, e in enumerate(row):
                if e < 0:
                    out.append(f"matrix {sym!r} entry ({i},{j}) = {e} is negative")
        for j in range(n):
            col_sum = sum((m[i][j] for i in range(n)), ZERO)
            if col_sum != 1:
                out.append(f"matrix {sym!r} column {j} ({p.states[j]!r}) sums to {col_sum}")
    if len(p.initial) != n:
        out.append(f"initial distribution has {len(p.initial)} entries, expected {n}")
    else:
        for j, e in enumerate(p.initial):
            if e < 0:
                out.append(f"initial entry {j} = {e} is negative")
        total = sum(p.initial, ZERO)
        if total != 1:
            out.append(f"initial distribution sums to {total}")
    for s in sorted(p.accepting):
        if s not in p.states:
            out.append(f"accepting state {s!r} is not a state")
    return out


def check_pfa(p: Pfa) -> Pfa:
    violations = validate_pfa(p)
    if violations:
        raise PfaError("; ".join(violations))
    return p


def mat_vec(m: Matrix, u: Sequence[Fraction]) -> Vector:
    """M @ u, touching only the nonzero u[j] and, in each such column, the
    nonzero m[i][j]; untouched entries stay the Fraction ZERO."""
    out = [ZERO] * len(u)
    for j, uj in enumerate(u):
        if uj:
            for i, row in enumerate(m):
                mij = row[j]
                if mij:
                    term = mij * uj
                    out[i] = out[i] + term if out[i] else term
    return tuple(out)


def evolve(p: Pfa, word: Iterable[str], start: Optional[Sequence[Fraction]] = None) -> Vector:
    """Distribution after reading `word`; the empty word returns the start."""
    dist = tuple(start) if start is not None else p.initial
    for sym in word:
        dist = mat_vec(p.matrix(sym), dist)
    return dist


def accept_mass(p: Pfa, dist: Sequence[Fraction]) -> Fraction:
    return sum((dist[i] for i in p.accept_indices()), ZERO)


def value(p: Pfa, word: Iterable[str]) -> Fraction:
    """Probability that reading `word` from the initial distribution accepts."""
    return accept_mass(p, evolve(p, word))


def point_dist(p: Pfa, state: str) -> Vector:
    i = p.state_index(state)
    return tuple(ONE if j == i else ZERO for j in range(p.n_states))


def reach_prob(p: Pfa, src: str, word: Iterable[str], dst: str) -> Fraction:
    """Probability of sitting in `dst` after reading `word` from `src`."""
    dist = evolve(p, word, start=point_dist(p, src))
    return dist[p.state_index(dst)]


def reach_mass(p: Pfa, src: str, word: Iterable[str], dsts: Iterable[str]) -> Fraction:
    dist = evolve(p, word, start=point_dist(p, src))
    return sum((dist[p.state_index(d)] for d in dsts), ZERO)


@dataclass(frozen=True)
class FreezeReset:
    freeze: Optional[str]
    reset: Optional[str]


def _is_identity(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == (ONE if i == j else ZERO) for i in range(n) for j in range(n))


def _columns_equal(m: Matrix, v: Vector) -> bool:
    n = len(m)
    return all(m[i][j] == v[i] for i in range(n) for j in range(n))


def detect_freeze_reset(p: Pfa) -> FreezeReset:
    """First symbol acting as the identity / first symbol restoring the
    initial distribution from every state, in alphabet order."""
    freeze = reset = None
    for sym in p.alphabet:
        m = p.matrices[sym]
        if freeze is None and _is_identity(m):
            freeze = sym
        if reset is None and _columns_equal(m, p.initial):
            reset = sym
    return FreezeReset(freeze=freeze, reset=reset)


def gamma(p: Pfa) -> Pfa:
    """Extend the alphabet with a freeze symbol (identity matrix) and a reset
    symbol (every column equals the initial distribution)."""
    for reserved in (FREEZE_SYMBOL, RESET_SYMBOL):
        if reserved in p.alphabet:
            raise PfaError(f"alphabet already contains reserved symbol {reserved!r}")
    n = p.n_states
    identity = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    reset = tuple(tuple(p.initial[i] for _ in range(n)) for i in range(n))
    matrices = dict(p.matrices)
    matrices[FREEZE_SYMBOL] = identity
    matrices[RESET_SYMBOL] = reset
    return Pfa(
        states=p.states,
        alphabet=p.alphabet + (FREEZE_SYMBOL, RESET_SYMBOL),
        matrices=matrices,
        initial=p.initial,
        accepting=p.accepting,
    )


def reduce_extended_word(word: Iterable[str], freeze: str = FREEZE_SYMBOL,
                         reset: str = RESET_SYMBOL) -> Word:
    """Drop freeze symbols and everything up to and including the last reset."""
    w = tuple(word)
    if reset in w:
        last = max(i for i, s in enumerate(w) if s == reset)
        w = w[last + 1:]
    return tuple(s for s in w if s != freeze)


def count_words(n_symbols: int, max_len: int) -> int:
    if n_symbols <= 1:
        return max_len + 1
    return (n_symbols ** (max_len + 1) - 1) // (n_symbols - 1)


def iter_words(alphabet: Sequence[str], max_len: int) -> Iterator[Word]:
    """All words of length <= max_len, shortest first, lexicographic within a
    length (in alphabet order)."""
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield combo


@dataclass(frozen=True)
class SearchResult:
    best_word: Word
    best_value: Fraction


def _check_budget(p: Pfa, max_len: int, budget: int) -> None:
    if count_words(len(p.alphabet), max_len) > budget:
        raise BudgetError(
            f"{count_words(len(p.alphabet), max_len)} words of length <= {max_len} "
            f"exceed the budget of {budget}")


def _level_walk(p: Pfa, max_len: int):
    """Yield (word, distribution) once per distinct distribution reachable by
    a word of length <= max_len, breadth-first in alphabet order.

    A child whose distribution was already seen is skipped, so each
    distribution is expanded once.  The first visit is by the distribution's
    shortest-then-lex word: if w.s is that word, w is the least word of its
    own distribution, and parents are expanded in the order of their words.
    A skipped word has the value of an earlier visit, so scanning the visits
    for the first strict improvement or the first value above a threshold
    gives the same word as scanning every word.
    """
    level = [((), p.initial)]
    seen = {p.initial}
    yield level[0]
    for _ in range(max_len):
        nxt = []
        for word, dist in level:
            for sym in p.alphabet:
                child = mat_vec(p.matrices[sym], dist)
                if child in seen:
                    continue
                seen.add(child)
                entry = (word + (sym,), child)
                nxt.append(entry)
                yield entry
        level = nxt


def brute_force_value(p: Pfa, max_len: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Exact maximum of value over all words of length <= max_len.

    Ties break toward the shortest word, then lexicographic in alphabet order.
    The walk visits each distinct distribution once, at its least word in
    that order; every other word repeats the value of an earlier word, so it
    is never a strict improvement and the result equals a scan of every
    word.  The budget still bounds the number of words, checked before any
    work.
    """
    check_pfa(p)
    _check_budget(p, max_len, budget)
    best_word: Word = ()
    best_value = accept_mass(p, p.initial)
    for word, dist in _level_walk(p, max_len):
        val = accept_mass(p, dist)
        if val > best_value:
            best_word, best_value = word, val
    return SearchResult(best_word=best_word, best_value=best_value)


def emptiness_semidecide(p: Pfa, delta, max_len: int,
                         budget: int = DEFAULT_SEARCH_BUDGET) -> Optional[Word]:
    """First word (same order as brute_force_value) with value > delta, or
    None if none exists up to max_len.  None is not an emptiness certificate.
    """
    delta = frac(delta)
    if not (0 <= delta <= 1):
        raise PfaError(f"threshold {delta} outside [0, 1]")
    check_pfa(p)
    _check_budget(p, max_len, budget)
    for word, dist in _level_walk(p, max_len):
        if accept_mass(p, dist) > delta:
            return word
    return None
