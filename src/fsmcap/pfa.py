"""Exact-rational probabilistic finite automata.

Distributions over states are column vectors of fractions and every
transition matrix is column-stochastic: entry [i][j] is the probability of
moving from state j to state i, so reading a symbol maps a distribution u
to M @ u.  All arithmetic is exact; floats are rejected at the boundary.

Every public function takes and returns Fractions.  Inside, laws and
matrices are integer numerators over one common denominator, and a Fraction
is built only for what is returned.  One kernel holds that form: `_numerators`
converts (the validation checks, `_int_columns`, the start of every walk,
`capacity.agreement_profile`); `_step` moves a row by a symbol's sparse
integer columns (`mat_vec`; `_advance` behind `evolve`, `value` and
`witness`; the word search `_walk`; the acceptance-pattern
walks of `capacity`); `_reduced` divides vectors and their denominator by
their gcd, and `_on_grid` also rounds them up onto a dyadic grid (`_advance`,
the search bound `_HorizonBound`).  An automaton builds its integer columns
and their denominators once, on first use, and keeps them (`Pfa.columns`),
with the bounds that let the word search skip subtrees that cannot beat the
best value so far: the state-observed horizon bound and its blind-lookahead
sets (`_HorizonBound`).  It also keeps, each built on first use, whether its
reserved symbols are the freeze and the reset (`Pfa.reserved_matches`) and
the automaton its channel lift carries (`fsmc.lifted_automaton`).  Its
matrices are a `ReadOnlyDict`, so none of these can go stale.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import le, mul
from typing import Iterable, Optional, Sequence

FREEZE_SYMBOL = "id"
RESET_SYMBOL = "rt"

DEFAULT_SEARCH_BUDGET = 5_000_000

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Word = tuple[str, ...]
# sparse integer columns: column j lists (i, numerator) per nonzero entry
IntColumns = list[list[tuple[int, int]]]
# vectors of integer numerators over one common denominator
Bound = tuple[tuple[tuple[int, ...], ...], int]

ZERO = Fraction(0)
ONE = Fraction(1)

_EXACT_TYPES = {int, Fraction}

# `_advance` divides out the gcd of its laws once their factor passes this
# many bits, and again each time the factor doubles its bit length
_REDUCE_BITS = 64

# the horizon bound is rounded up onto multiples of 2**-_BOUND_BITS once its
# common denominator grows past 2**_BOUND_BITS
_BOUND_BITS = 64

# a walk looks no deeper ahead once a lookahead set holds more vectors
_SET_CAP = 16


class PfaError(ValueError):
    """Invalid automaton, state, symbol or parameter; an invalid construction's
    error also keeps its (section, message) pairs (`raise_violations`)."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


def past_digit_limit(convert, value):
    """convert(value), retried once with Python's int-str digit limit lifted
    if it raises ValueError, as that limit does for a number of more than
    4,300 digits; the limit is restored after the retry."""
    try:
        return convert(value)
    except ValueError:
        # 0: no limit, or a Python before 3.10.7, which has none
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            raise
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(limit)


def frac(value) -> Fraction:
    """Coerce ints, 'p/q' strings and fractions to Fraction; refuse floats.
    Text is parsed past the int-str digit limit (`past_digit_limit`), and a
    refused token is echoed by its first 40 characters only."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise PfaError(f"refusing float {value!r}: probabilities must be exact rationals")
    try:
        return past_digit_limit(Fraction, value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise PfaError(f"not a rational: {clipped_repr(value)}") from exc


def clipped_repr(value) -> str:
    """repr(value), cut to its first 40 characters and '...' past that, so
    that an error line echoing a long token stays short."""
    shown = repr(value)
    return shown[:40] + "..." if len(shown) > 40 else shown


def make_vector(entries) -> Vector:
    return tuple(frac(e) for e in entries)


def make_matrix(rows) -> Matrix:
    return tuple(tuple(frac(e) for e in row) for row in rows)


class ReadOnlyDict(dict):
    """A dict that refuses every change after it is built.  repr, == with a
    dict, pickle and deepcopy work as for a plain dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only: "
                        "make a changed copy with dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class Pfa:
    """Automaton (states, alphabet, one column-stochastic matrix per symbol,
    initial distribution, accepting subset).  Construction checks every
    invariant and raises PfaError listing the violations, so every Pfa is
    valid.  `matrices` is stored as a ReadOnlyDict; make a changed automaton
    with dataclasses.replace, which checks it and builds fresh caches."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    matrices: dict[str, Matrix]
    initial: Vector
    accepting: frozenset[str]

    def __post_init__(self):
        if type(self.matrices) is not ReadOnlyDict:
            object.__setattr__(self, "matrices", ReadOnlyDict(self.matrices))
        check_pfa(self)

    def __repr__(self) -> str:   # accepting sorted: a frozenset's order follows the hash seed
        return (f"Pfa(states={self.states!r}, alphabet={self.alphabet!r}, matrices={self.matrices!r}, "
                f"initial={self.initial!r}, accepting=frozenset({sorted(self.accepting)!r}))")

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

    @cached_property
    def _columns(self) -> dict[str, tuple[IntColumns, int]]:
        # not a field: ==, repr and dataclasses.replace ignore it, and a
        # replaced automaton builds its own on first use
        return {sym: _int_columns(m) for sym, m in self.matrices.items()}

    def columns(self, symbol: str) -> tuple[IntColumns, int]:
        """`matrix(symbol)` as sparse integer columns and their common
        denominator (`_int_columns`), built for every symbol on first use
        and kept with the automaton."""
        try:
            return self._columns[symbol]
        except KeyError:
            raise PfaError(f"unknown symbol {symbol!r}") from None

    @cached_property
    def _horizon(self) -> _HorizonBound:
        # not a field, like _columns
        return _HorizonBound(self)

    @cached_property
    def _reserved(self) -> dict[str, bool]:
        # not a field, like _columns
        built = dict(zip((FREEZE_SYMBOL, RESET_SYMBOL), freeze_and_reset(self)))
        return {sym: self.matrices.get(sym) == m for sym, m in built.items()}

    def reserved_matches(self, symbol: str) -> bool:
        """Whether the matrix of a reserved symbol, `FREEZE_SYMBOL` or
        `RESET_SYMBOL`, is the one `freeze_and_reset` builds: the identity,
        or the reset to the initial law.  Both are compared on first use and
        kept with the automaton; a symbol the automaton lacks raises
        PfaError, as `matrix` does."""
        self.matrix(symbol)
        return self._reserved[symbol]

    @cached_property
    def _lifted(self) -> Pfa:
        # not a field, like _columns: the automaton the channel lift carries
        # (`fsmc.lifted_automaton`, which imports this module), built on
        # first use; an automaton the lift refuses raises on every use
        from .fsmc import lifted_automaton
        return lifted_automaton(self)


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


def _numerators(values: Iterable) -> tuple[list[int], int]:
    """Ints and Fractions as integer numerators over their least common
    denominator, and that denominator; a zero costs no product."""
    ratios = [e.as_integer_ratio() for e in values]
    den = math.lcm(*{d for _, d in ratios})
    return [x * (den // d) if x else 0 for x, d in ratios], den


def _int_columns(m: Sequence[Sequence[Fraction]]) -> tuple[IntColumns, int]:
    """The columns of a table (rows of equal length, at least one) as
    sparse integer columns over one common denominator, and that
    denominator."""
    width = len(m[0])
    nums, den = _numerators([e for row in m for e in row])
    return [[(i, x) for i, x in enumerate(nums[j::width]) if x] for j in range(width)], den


def _step(cols: IntColumns, row: Sequence[int]) -> list[int]:
    """A numerator row moved by integer columns, over the row's denominator
    times theirs."""
    out = [0] * len(row)
    for j, x in enumerate(row):
        if x:
            for i, m in cols[j]:
                out[i] += m * x
    return out


def _reduced(vectors: Sequence[Sequence[int]], den: int) -> Bound:
    """Numerator vectors over `den`, and `den`, divided by their gcd."""
    g = math.gcd(den, *itertools.chain.from_iterable(vectors))
    return tuple([tuple([x // g for x in v]) for v in vectors]), den // g


def _on_grid(vectors: Sequence[Sequence[int]], den: int) -> Bound:
    """`_reduced`, then, with the denominator still past 2**_BOUND_BITS,
    every numerator rounded up onto multiples of 2**-_BOUND_BITS and reduced
    again, so an upper bound stays one and stays at most 1."""
    vectors, den = _reduced(vectors, den)
    if den <= 1 << _BOUND_BITS:
        return vectors, den
    return _reduced([[-((-x << _BOUND_BITS) // den) for x in v] for v in vectors], 1 << _BOUND_BITS)


def table_violations(what: str, m, n_rows: int, states: Sequence[str]) -> list[str]:
    """Shape, entry types, negative entries and column sums of a table whose
    columns are laws over `n_rows` outcomes, one column per state.  Signs and
    sums are read off integer numerators; a Fraction is built only for a
    message."""
    n = len(states)
    if len(m) != n_rows or any(len(row) != n for row in m):
        return [f"{what} is not {n_rows}x{n}"]
    entries = list(itertools.chain.from_iterable(m))
    k = _first_inexact(entries)
    if k is not None:
        return [f"{what} entry ({k // n},{k % n}) = {entries[k]!r} is not an int or a Fraction"]
    nums, den = _numerators(entries)
    out = [f"{what} entry ({k // n},{k % n}) = {entries[k]} is negative"
           for k, x in enumerate(nums) if x < 0] if min(nums, default=0) < 0 else []
    totals = [sum(nums[j::n]) for j in range(n)]
    out += [f"{what} column {j} ({state!r}) sums to {Fraction(totals[j], den)}"
            for j, state in enumerate(states) if totals[j] != den]
    return out


def initial_violations(initial: Sequence[Fraction], n: int) -> list[str]:
    if len(initial) != n:
        return [f"initial distribution has {len(initial)} entries, expected {n}"]
    j = _first_inexact(initial)
    if j is not None:
        return [f"initial entry {j} = {initial[j]!r} is not an int or a Fraction"]
    nums, den = _numerators(initial)
    out = [f"initial entry {j} = {initial[j]} is negative"
           for j, x in enumerate(nums) if x < 0]
    if sum(nums) != den:
        out.append(f"initial distribution sums to {Fraction(sum(nums), den)}")
    return out


def validate_pfa(p: Pfa) -> list[tuple[str, str]]:
    """Every invariant violation as a (section, message) pair, the section
    being the part of an automaton file it concerns: 'states', 'alphabet',
    'initial', 'accepting' or 'matrix <symbol>'.  Empty means valid."""
    found = [("states", duplicate_violations(p.states, "state names")),
             ("alphabet", duplicate_violations(p.alphabet, "alphabet symbols"))]
    found += [(f"matrix {sym}", [f"no matrix for symbol {sym!r}"])
              for sym in p.alphabet if sym not in p.matrices]
    found += [(f"matrix {sym}", [f"matrix for symbol {sym!r} not in the alphabet"])
              for sym in p.matrices if sym not in p.alphabet]
    found += [(f"matrix {sym}", table_violations(f"matrix {sym!r}", p.matrices[sym], p.n_states, p.states))
              for sym in p.alphabet if sym in p.matrices]
    found += [("initial", initial_violations(p.initial, p.n_states)),
              ("accepting", membership_violations(sorted(p.accepting), p.states, "accepting state"))]
    return [(section, message) for section, messages in found for message in messages]


def raise_violations(error: type[ValueError], violations: list[tuple[str, str]]) -> None:
    """Raise `error`, unless there are no (section, message) `violations`:
    their messages on one line, and the pairs as its `violations`."""
    if violations:
        exc = error("; ".join(message for _, message in violations))
        exc.violations = violations
        raise exc


def check_pfa(p: Pfa) -> Pfa:
    raise_violations(PfaError, validate_pfa(p))
    return p


def mat_vec(m: Matrix, u: Sequence[Fraction]) -> Vector:
    """M @ u on the integer kernel (`_int_columns`, `_numerators`, `_step`)."""
    (cols, den), (row, u_den) = _int_columns(m), _numerators(u)
    return tuple(Fraction(x, den * u_den) for x in _step(cols, row))


def _advance(p: Pfa, word: Iterable[str],
             rows: Sequence[Sequence[int]]) -> tuple[Sequence[Sequence[int]], int]:
    """Move laws held as integer numerators over one shared denominator d
    by `word`: the laws after it are the returned rows over d * factor.

    Each step moves every row by the symbol's integer columns (`_step`) and
    multiplies the factor once by their denominator; no Fraction is built.
    Once the factor has doubled its bit length since the last look, the
    rows and the factor are divided by their gcd (`_reduced`), so laws whose
    true denominators stay small (a reset, a uniform mixer) do not carry the
    whole product, and a walk without cancellation takes only a logarithmic
    number of gcds.  The empty word returns the rows and 1.  An unknown
    symbol raises PfaError."""
    factor, limit = 1, _REDUCE_BITS
    for sym in word:
        cols, den = p.columns(sym)
        factor *= den
        rows = [_step(cols, row) for row in rows]
        if factor.bit_length() > limit:
            rows, factor = _reduced(rows, factor)
            limit = max(_REDUCE_BITS, 2 * factor.bit_length())
    return rows, factor


def _moved(p: Pfa, word: Iterable[str], start: Sequence) -> tuple[Sequence[int], int]:
    """`start` (ints or Fractions, a law or not) after `word`, as integer
    numerators over one denominator."""
    row, den = _numerators(start)
    (row,), factor = _advance(p, word, [row])
    return row, den * factor


def evolve(p: Pfa, word: Iterable[str], start: Optional[Sequence[Fraction]] = None) -> Vector:
    """Distribution after reading `word`; the empty word returns the start.
    The walk is on integers (`_advance`); a Fraction is built per entry of
    the result only."""
    start = tuple(start) if start is not None else p.initial
    word = tuple(word)
    if not word:
        return start
    row, den = _moved(p, word, start)
    return tuple([Fraction(x, den) for x in row])


def value(p: Pfa, word: Iterable[str]) -> Fraction:
    """Probability that reading `word` from the initial distribution accepts."""
    row, den = _moved(p, word, p.initial)
    return Fraction(sum(x for s, x in zip(p.states, row) if s in p.accepting), den)


def freeze_and_reset(p: Pfa) -> tuple[Matrix, Matrix]:
    """The freeze matrix (the identity) and the reset matrix (every column
    the initial distribution) of `p`."""
    n = p.n_states
    return (tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)),
            tuple(tuple(p.initial[i] for _ in range(n)) for i in range(n)))


def gamma(p: Pfa) -> Pfa:
    """Extend the alphabet with a freeze and a reset symbol
    (`freeze_and_reset`)."""
    for reserved in (FREEZE_SYMBOL, RESET_SYMBOL):
        if reserved in p.alphabet:
            raise PfaError(f"alphabet already contains reserved symbol {reserved!r}")
    matrices = dict(p.matrices)
    matrices[FREEZE_SYMBOL], matrices[RESET_SYMBOL] = freeze_and_reset(p)
    return Pfa(
        states=p.states,
        alphabet=p.alphabet + (FREEZE_SYMBOL, RESET_SYMBOL),
        matrices=matrices,
        initial=p.initial,
        accepting=p.accepting,
    )


def reduce_extended_word(word: Iterable[str]) -> Word:
    """Drop freeze symbols and everything up to and including the last reset."""
    w = tuple(word)
    if RESET_SYMBOL in w:
        last = max(i for i, s in enumerate(w) if s == RESET_SYMBOL)
        w = w[last + 1:]
    return tuple(s for s in w if s != FREEZE_SYMBOL)


def count_words(n_symbols: int, max_len: int) -> int:
    if n_symbols <= 1:
        return max_len + 1
    return (n_symbols ** (max_len + 1) - 1) // (n_symbols - 1)


@dataclass(frozen=True)
class SearchResult:
    best_word: Word
    best_value: Fraction


def _lowest_terms(nums: list[int]) -> tuple[int, ...]:
    """Integer numerators of a distribution divided by their gcd.  A
    distribution sums to 1, so this tuple is its canonical form, and its sum
    is the common denominator."""
    g = math.gcd(*nums)
    return tuple(nums) if g == 1 else tuple([x // g for x in nums])


class _HorizonBound:
    """Upper bounds on the value of every extension of a distribution.

    The state-observed optimal-stopping value, per horizon: V_0 is the
    accepting indicator and V_k(s) = max(V_{k-1}(s), max over symbols of
    sum_t M[t][s] V_{k-1}(t)), the best chance of acceptance within k more
    letters for a controller that sees the state (Puterman, Markov Decision
    Processes, 1994).  A word cannot see the state, so u.V_k bounds the
    value of every extension of u by at most k letters.

    Keeping the first d of those k letters blind gives a tighter bound, a
    finite-lookahead tightening of this MDP bound (Hauskrecht, JAIR 13,
    2000): with B_v the backward map of word v, the set
    A_k^(d) = {B_v V_{k-d} : |v| = d} | {B_v acc : |v| < d}, pruned to the
    vectors no other one dominates, has max over alpha of u.alpha >= the
    value of every extension of u by at most k letters.  Every alpha is at
    most V_k pointwise, A_k^(0) = {V_k}, and A_k^(k) gives the exact best
    value of the words of length <= k.  The sets are built along diagonals:
    S_m^0 = {V_m} and S_m^i = {acc} | the union over symbols of B_sym
    S_m^(i-1), so that A_k^(d) = S_(k-d)^d (`node`).

    Each V_k and each set is kept as integer numerators over one common
    denominator, in lowest terms.  A denominator past 2**_BOUND_BITS is
    rounded up onto that dyadic grid, which keeps every vector an upper
    bound and at most 1.  Levels are built on demand; once a level equals
    the one before it, it holds for every deeper horizon and no more are
    built.  Sets are built when a walk pays for them (`pick`) and kept.
    `set_work` counts the work spent building sets: backward products plus
    dominance checks.
    """

    def __init__(self, p: Pfa):
        # per symbol and state: the column of the state, on one common
        # denominator; (B_sym alpha)(s) is its alpha-weighted sum.  The
        # matrices side by side make one table whose column k*n + s is
        # column s of symbol k.
        n = p.n_states
        cols, self.scale = _int_columns([[e for sym in p.alphabet for e in p.matrices[sym][i]]
                                         for i in range(n)])
        self.backward = [cols[k:k + n] for k in range(0, len(cols), n)]
        self.levels = [(tuple(int(s in p.accepting) for s in p.states), 1)]
        self.settled = False
        # (m, i) -> (S_m^i as numerator tuples, denominator, work to build it)
        self.sets: dict[tuple[int, int], tuple[tuple[tuple[int, ...], ...], int, int]] = {}
        self.set_work = 0

    def _extend(self) -> None:
        v, den = self.levels[-1]
        nums = [max([x * self.scale, *[sum([m * v[t] for t, m in cols[s]]) for cols in self.backward]])
                for s, x in enumerate(v)]
        (nums,), den = _on_grid([nums], den * self.scale)
        if (nums, den) == self.levels[-1]:
            self.settled = True
        else:
            self.levels.append((nums, den))

    def index(self, k: int, limit: int) -> Optional[int]:
        """The index of the level that is V_k, built to depth at most
        `limit`; None if that cannot show it.  A level equal to the one
        before it shows every deeper one.  Levels built by earlier calls
        beyond `limit` are not used, so the bound a walk gets does not
        depend on them."""
        levels = self.levels
        while len(levels) <= min(k, limit) and not self.settled:
            self._extend()
        top = len(levels) - 1
        if k <= min(top, limit):
            return k
        if self.settled and top < min(k, limit):
            return top
        return None

    def node(self, m: int, i: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
        """S_m^i = A_(m+i)^(i) as (vectors, denominator, work to build it
        from S_m^(i-1)), built once and kept.  V_m must be shown (`index`).
        The candidates are acc, then B_sym alpha per symbol and alpha in
        order, rounded as the levels are; `_undominated` keeps the ones no
        other candidate dominates."""
        got = self.sets.get((m, i))
        if got is None:
            if i == 0:
                nums, den = self.levels[min(m, len(self.levels) - 1)]
                got = ((nums,), den, 0)
            else:
                prev, den, _ = self.node(m, i - 1)
                den *= self.scale
                cands = [[den * x for x in self.levels[0][0]]]
                cands += [[sum([c * a[t] for t, c in col]) for col in cols]
                          for cols in self.backward for a in prev]
                cands, den = _on_grid(cands, den)
                kept, checks = _undominated(cands, _SET_CAP)
                work = len(cands) - 1 + checks
                got = *_reduced(kept, den), work
                self.set_work += work
            self.sets[m, i] = got
        return got

    def pick(self, k: int, limit: int, ledger: _Ledger, work: int) -> tuple[Optional[Bound], float]:
        """The bound for remaining depth k of a walk that has computed
        `work` child products and expanded `limit` - 1 distributions, as
        (vectors, denominator) or None, and the least work at which the walk
        may pay for a deeper set.

        The bound is the deepest set A_k^(d) = S_(k-d)^d the walk has paid
        for, or V_k if `index(k, limit)` shows it and no set is deeper.
        Before it looks, the walk pays for what it can, in this order: the
        exact sets S_0^1, S_0^2, ..., each of which serves its own remaining
        depth with the exact best value; then, for each d deeper than the
        bound, the chain S_(k-d)^1..S_(k-d)^d, if `index` shows V_(k-d)
        (`_pay`).  It stops at the first set it cannot pay for yet."""
        shown = self.index(k, limit) is not None
        deepest = ledger.best.get(k, 0 if shown else -1)
        stuck = math.inf
        if deepest < k:
            stuck = self._pay(0, k, ledger, work)
            # without V_k, V_(k-d) is shown for d >= k - limit
            d = max(ledger.best.get(k, deepest) + 1, 0 if shown else k - limit)
            while stuck == math.inf and d < k:
                stuck = self._pay(k - d, d, ledger, work)
                d += 1
            deepest = ledger.best.get(k, deepest)
        return (None if deepest < 0 else self.node(k - deepest, deepest)[:2]), stuck

    def _pay(self, m: int, d: int, ledger: _Ledger, work: int) -> float:
        """Pay for what the walk can of S_m^1..S_m^d, whose V_m must be
        shown, stopping after a set of more than _SET_CAP vectors.  A set
        not in the walk's `ledger` is paid for only if its most possible
        work (`_most_work`), with what the ledger holds, fits within `work`;
        the ledger then holds its work.  So a walk never pays twice for a
        set, the sets it pays for never cost more than its own work, and
        sets kept from earlier walks are used only once paid for: the bound
        depends on the walk alone.  Returns the work at which the next set
        becomes payable if that stopped it, else infinity."""
        i = ledger.paid.get(m, 0)
        while i < d:
            size = len(self.node(m, i)[0])
            if size > _SET_CAP:
                break
            cost = _most_work(len(self.backward) * size)
            if ledger.spent + cost > work:
                return ledger.spent + cost
            i += 1
            vectors, _, cost = self.node(m, i)
            ledger.spent += cost
            ledger.paid[m] = i
            if len(vectors) <= _SET_CAP and ledger.best.get(m + i, 0) < i:
                ledger.best[m + i] = i
        return math.inf


class _Ledger:
    """What one walk has paid for: per diagonal m, the depth to which it has
    paid for S_m (always a prefix); per remaining depth k, the deepest
    lookahead d it has paid for whose set is within _SET_CAP; and their
    total work."""

    __slots__ = ("paid", "best", "spent")

    def __init__(self):
        self.paid: dict[int, int] = {}
        self.best: dict[int, int] = {}
        self.spent = 0


def _most_work(products: int) -> int:
    """The most work a set built from `products` backward products can
    take: those products, plus a dominance check of the t-th of its
    products + 1 candidates against at most min(t, _SET_CAP) kept ones."""
    top = min(products, _SET_CAP)
    return products + top * (top + 1) // 2 + (products - top) * _SET_CAP


def _undominated(vectors: Sequence[tuple[int, ...]],
                 cap: int) -> tuple[list[tuple[int, ...]], int]:
    """The vectors no other one dominates pointwise, each once, in order of
    decreasing sum (stable), and the number of dominance checks made; once
    more than `cap` are kept, the ones kept so far.  A vector is checked
    against the kept ones in order until one dominates it: whatever
    dominates it has at least its sum, so it comes first, and is kept or
    dominated by a kept vector itself."""
    kept, checks = [], 0
    for v in sorted(vectors, key=sum, reverse=True):
        for w in kept:
            checks += 1
            if all(map(le, v, w)):
                break
        else:
            kept.append(v)
            if len(kept) > cap:
                break
    return kept, checks


def _over_budget(budget: int, length: int, max_len: int) -> BudgetError:
    return BudgetError(
        f"more than {budget} distinct distributions reachable by words of length "
        f"<= {length} (search to length {max_len})")


def _walk(p: Pfa, max_len: int, budget: int, bar: Fraction,
          first: bool) -> Optional[tuple[Word, Fraction]]:
    """Visit each distinct distribution reachable by a word of length <=
    max_len once, breadth-first in alphabet order, except in subtrees that
    cannot beat `bar`.  Return the word and value of the last visit whose
    value beats `bar`, raising `bar` to each such value, or, with `first`,
    of the first such visit; None if no visit beats `bar`.

    A child whose distribution was already seen is skipped, so each
    distribution is expanded once.  The first visit is by the distribution's
    shortest-then-lex word: if w.s is that word, w is the least word of its
    own distribution, and parents are expanded in the order of their words.
    A skipped word has the value of an earlier visit, so the first strict
    improvement, or the first value above a threshold, is the word a scan of
    every word finds.

    A visit u at depth l is not expanded when u.alpha <= `bar` for every
    alpha of the lookahead set the walk has paid for at remaining depth
    max_len - l (`_HorizonBound.pick`): no extension of u within the horizon
    beats `bar`, and `bar` only rises.  It stays seen, so a later copy of u,
    which sits at least as deep, is skipped as well; and a distribution
    first reached below u and reached again elsewhere has a value no
    extension of u beats either.  So the answer is the one of the walk
    without the bound.  V_k is used once the walk has expanded k - 1
    distributions, or once the levels settle that early, and a set of
    vectors built from V_(k-d) only once its work fits within the child
    products the walk has computed, so the bound never costs much more than
    the walk, and it depends only on the automaton, max_len and `bar`.
    The bound is looked up again only when a deeper set may have been paid
    for: when the work passes what `pick` names, or, while the walk has no
    bound, at each new parent, which shows more levels.  The walk also ends
    at the first empty level.

    A distribution is held as a tuple of integer numerators in lowest
    terms, one object that is both its key in the seen set and its entry in
    the level list, and a value acc/total is compared by cross
    multiplication; words are parent and letter indices, spelled out only
    for the word returned.  Only visits kept for expansion get an index, so
    the next level holds the last indices given out.  The tuples freed when a walk
    ends do not pile up: CPython's free lists keep at most 2,000 tuples of
    each length below 20, and longer tuples go straight back to the
    allocator.

    Raises PfaError, before any work, for a negative `max_len` or a
    `budget` below 1, and BudgetError as soon as more than `budget` distinct
    distributions have been seen, expanded or not.
    """
    if max_len < 0:
        raise PfaError(f"maximum word length {max_len} must be >= 0")
    if budget < 1:
        raise PfaError(f"search budget {budget} must be >= 1")
    n = p.n_states
    columns = [p.columns(sym)[0] for sym in p.alphabet]
    accepting = [int(s in p.accepting) for s in p.states]
    horizon = p._horizon
    start = _lowest_terms(_numerators(p.initial)[0])
    seen = {start}
    parent, letter = [-1], [-1]
    bar_num, bar_den = bar.numerator, bar.denominator
    hit = None
    acc, total = sum(map(mul, accepting, start)), sum(start)
    if acc * bar_den > bar_num * total:
        hit = 0, -1
        if first:
            return (), Fraction(acc, total)
        bar_num, bar_den = acc, total
    level = [start]
    ledger = _Ledger()
    # with no symbols only the empty word is walked, and no set is built
    bound = horizon.pick(max_len, 1, ledger, 0)[0] if columns else None
    if bound is not None and all(sum(map(mul, alpha, start)) * bar_den <= bar_num * total * bound[1]
                                 for alpha in bound[0]):
        level = []
    per = len(columns)
    length = 0
    while level and length < max_len:
        length += 1
        need = max_len - length
        # look the bound up at the first child that needs it
        bound, retry, looked = None, 0, -1
        nxt = []
        for k, dist in enumerate(level, len(parent) - len(level)):
            for s, cols in enumerate(columns):
                child = _lowest_terms(_step(cols, dist))
                if child in seen:
                    continue
                seen.add(child)
                if len(seen) > budget:
                    raise _over_budget(budget, length, max_len)
                acc, total = sum(map(mul, accepting, child)), sum(child)
                if acc * bar_den > bar_num * total:
                    if first:
                        return _spell(p, parent, letter, k, s), Fraction(acc, total)
                    hit = k, s
                    bar_num, bar_den = acc, total
                if not need:
                    continue
                # k distributions expanded so far and one being expanded
                work = per * k + s + 1
                if work >= retry or (bound is None and looked != k):
                    bound, retry = horizon.pick(need, k + 2, ledger, work)
                    looked = k
                if bound is not None:
                    top = bar_num * total * bound[1]
                    for alpha in bound[0]:
                        if sum(map(mul, alpha, child)) * bar_den > top:
                            break
                    else:
                        continue
                parent.append(k)
                letter.append(s)
                nxt.append(child)
        level = nxt
    if hit is None:
        return None
    return _spell(p, parent, letter, *hit), Fraction(bar_num, bar_den)


def _spell(p: Pfa, parent: list[int], letter: list[int], k: int, s: int) -> Word:
    """The word of walk node k, read back through its parents, followed by
    the letter of index s (none for s < 0)."""
    out = [p.alphabet[s]] if s >= 0 else []
    while k:
        out.append(p.alphabet[letter[k]])
        k = parent[k]
    return tuple(reversed(out))


def brute_force_value(p: Pfa, max_len: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Exact maximum of value over all words of length <= max_len.

    Ties break toward the shortest word, then lexicographic in alphabet order.
    The walk visits each distinct distribution once, at its least word in
    that order; every other word repeats the value of an earlier word, so it
    is never a strict improvement and the result equals a scan of every
    word.  `budget` bounds the distinct distributions visited, not the
    words; BudgetError is raised the moment the walk passes it.
    """
    # every value beats -1, so the empty word is the first best
    best_word, best_value = _walk(p, max_len, budget, Fraction(-1), first=False)
    return SearchResult(best_word=best_word, best_value=best_value)


def emptiness_semidecide(p: Pfa, delta, max_len: int,
                         budget: int = DEFAULT_SEARCH_BUDGET) -> Optional[Word]:
    """First word (same order as brute_force_value) with value > delta, or
    None if none exists up to max_len.  None is not an emptiness certificate.
    `budget` bounds distinct distributions, as in brute_force_value.
    """
    delta = frac(delta)
    if not (0 <= delta <= 1):
        raise PfaError(f"threshold {delta} outside [0, 1]")
    found = _walk(p, max_len, budget, delta, first=True)
    return found[0] if found is not None else None
