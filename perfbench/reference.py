"""Reference results computed with the benchmark's own exact arithmetic.

Nothing here calls into fsmcap: an automaton is read only as data (state
names, alphabet, matrices, initial vector, accepting set), so a defect in
the program's search or arithmetic cannot hide in its own reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)


def mat_vec(m, u) -> tuple:
    """Column-stochastic step: out[i] = sum_j m[i][j] u[j], exact."""
    n = len(u)
    out = [ZERO] * n
    for j, uj in enumerate(u):
        if not uj:
            continue
        for i in range(n):
            mij = m[i][j]
            if mij:
                out[i] += mij * uj
    return tuple(out)


def words_up_to(n_symbols: int, max_len: int) -> int:
    """Number of words of length <= max_len over n_symbols letters."""
    return sum(n_symbols ** k for k in range(max_len + 1))


@dataclass(frozen=True)
class Walk:
    """Distinct distributions reachable by words of length <= max_len, each
    with its shortest-then-lexicographic word, in that order."""

    alphabet: tuple
    max_len: int
    words: tuple          # minimal word of each distinct distribution
    values: tuple         # its acceptance probability

    @property
    def distinct(self) -> int:
        return len(self.words)

    @property
    def words_covered(self) -> int:
        return words_up_to(len(self.alphabet), self.max_len)

    def best(self) -> tuple[tuple, Fraction]:
        """Exact maximum value and the first word (shortest, then
        lexicographic in alphabet order) that attains it."""
        best_i = 0
        for i, v in enumerate(self.values):
            if v > self.values[best_i]:
                best_i = i
        return self.words[best_i], self.values[best_i]

    def first_above(self, threshold: Fraction) -> Optional[tuple]:
        for word, v in zip(self.words, self.values):
            if v > threshold:
                return word
        return None


def dedup_walk(p, max_len: int) -> Walk:
    """Breadth-first walk over distinct distributions.

    The first visit to a distribution is by its shortest-then-lexicographic
    word: if w.s is that word for D, w must be the minimal word of its own
    distribution, and parents are expanded in the order of their minimal
    words.  So scanning the visits in order reproduces the tie-break of a
    full word enumeration while expanding each distribution once.
    """
    acc = [i for i, s in enumerate(p.states) if s in p.accepting]
    start = tuple(p.initial)
    seen = {start}
    words = [()]
    values = [sum((start[i] for i in acc), ZERO)]
    level = [((), start)]
    for _ in range(max_len):
        nxt = []
        for word, dist in level:
            for sym in p.alphabet:
                child = mat_vec(p.matrices[sym], dist)
                if child in seen:
                    continue
                seen.add(child)
                w = word + (sym,)
                words.append(w)
                values.append(sum((child[i] for i in acc), ZERO))
                nxt.append((w, child))
        level = nxt
    return Walk(alphabet=tuple(p.alphabet), max_len=max_len,
                words=tuple(words), values=tuple(values))


def pfa_key(p) -> tuple:
    """Hashable content of an automaton, for caching per distinct input."""
    return (tuple(p.states), tuple(p.alphabet),
            tuple((s, p.matrices[s]) for s in p.alphabet),
            tuple(p.initial), tuple(sorted(p.accepting)))


def accept_value(p, word) -> Fraction:
    """Acceptance probability of `word` from the initial distribution."""
    dist = tuple(p.initial)
    for sym in word:
        dist = mat_vec(p.matrices[sym], dist)
    return sum((dist[i] for i, s in enumerate(p.states) if s in p.accepting), ZERO)


def _primes(count: int) -> list[int]:
    out: list[int] = []
    k = 2
    while len(out) < count:
        if all(k % q for q in out):
            out.append(k)
        k += 1
    return out


def prime_power_code(values) -> int:
    """prod p_j^{num_j} * prod p_{N+j}^{den_j} over the first 2N primes."""
    fracs = [Fraction(v) for v in values]
    primes = _primes(2 * len(fracs))
    code = 1
    for j, f in enumerate(fracs):
        code *= primes[j] ** f.numerator * primes[len(fracs) + j] ** f.denominator
    return code
