"""Exact-rational probabilistic finite automata.

Distributions over states are column vectors of fractions and every
transition matrix is column-stochastic: entry [i][j] is the probability of
moving from state j to state i, so reading a symbol maps a distribution u
to M @ u.  All arithmetic is exact; floats are rejected at the boundary.
"""

from __future__ import annotations

import itertools
import math
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

_EXACT_TYPES = {int, Fraction}


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
    initial distribution, accepting subset).  Construction checks every
    invariant and raises PfaError listing the violations, so every Pfa is
    valid."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    matrices: dict[str, Matrix]
    initial: Vector
    accepting: frozenset[str]

    def __post_init__(self):
        check_pfa(self)

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


def duplicate_violations(names: Sequence[str], what: str) -> list[str]:
    return [f"duplicate {what}"] if len(set(names)) != len(names) else []


def membership_violations(names: Iterable[str], states: Sequence[str], what: str) -> list[str]:
    return [f"{what} {s!r} is not a state" for s in names if s not in states]


def _first_inexact(entries: Sequence) -> Optional[int]:
    """Index of the first entry that is neither an int nor a Fraction."""
    if set(map(type, entries)) <= _EXACT_TYPES:
        return None
    return next((k for k, e in enumerate(entries) if not isinstance(e, (int, Fraction))), None)


def _column_sums(ratios: Sequence[tuple[int, int]], n: int) -> tuple[list[int], int]:
    """Sums of the n interleaved columns of row-major (numerator,
    denominator) pairs, as integer numerators over one common denominator."""
    den = math.lcm(*{d for _, d in ratios})
    totals = [0] * n
    for k, (x, d) in enumerate(ratios):
        if x:
            totals[k % n] += x * (den // d)
    return totals, den


def table_violations(what: str, m, n_rows: int, states: Sequence[str]) -> list[str]:
    """Shape, entry types, negative entries and column sums of a table whose
    columns are laws over `n_rows` outcomes, one column per state.  Signs and
    sums are read off integer numerators; a Fraction is built only for a
    message."""
    n = len(states)
    if len(m) != n_rows or any(len(row) != n for row in m):
        return [f"{what} is not {n_rows}x{n}"]
    entries = [e for row in m for e in row]
    k = _first_inexact(entries)
    if k is not None:
        return [f"{what} entry ({k // n},{k % n}) = {entries[k]!r} is not an int or a Fraction"]
    ratios = [e.as_integer_ratio() for e in entries]
    out = [f"{what} entry ({k // n},{k % n}) = {entries[k]} is negative"
           for k, (x, _) in enumerate(ratios) if x < 0]
    totals, den = _column_sums(ratios, n)
    out += [f"{what} column {j} ({state!r}) sums to {Fraction(totals[j], den)}"
            for j, state in enumerate(states) if totals[j] != den]
    return out


def initial_violations(initial: Sequence[Fraction], n: int) -> list[str]:
    if len(initial) != n:
        return [f"initial distribution has {len(initial)} entries, expected {n}"]
    j = _first_inexact(initial)
    if j is not None:
        return [f"initial entry {j} = {initial[j]!r} is not an int or a Fraction"]
    ratios = [e.as_integer_ratio() for e in initial]
    out = [f"initial entry {j} = {initial[j]} is negative"
           for j, (x, _) in enumerate(ratios) if x < 0]
    (total,), den = _column_sums(ratios, 1)
    if total != den:
        out.append(f"initial distribution sums to {Fraction(total, den)}")
    return out


def validate_pfa(p: Pfa) -> list[str]:
    """Return every invariant violation, with its location; empty means valid."""
    out = duplicate_violations(p.states, "state names")
    out += duplicate_violations(p.alphabet, "alphabet symbols")
    out += [f"no matrix for symbol {sym!r}" for sym in p.alphabet if sym not in p.matrices]
    out += [f"matrix for symbol {sym!r} not in the alphabet"
            for sym in p.matrices if sym not in p.alphabet]
    for sym in p.alphabet:
        if sym in p.matrices:
            out += table_violations(f"matrix {sym!r}", p.matrices[sym], p.n_states, p.states)
    out += initial_violations(p.initial, p.n_states)
    out += membership_violations(sorted(p.accepting), p.states, "accepting state")
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
    if max_len < 0:
        raise PfaError(f"maximum word length {max_len} must be >= 0")
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
    _check_budget(p, max_len, budget)
    for word, dist in _level_walk(p, max_len):
        if accept_mass(p, dist) > delta:
            return word
    return None
