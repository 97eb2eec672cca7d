"""Information measures, Blahut-Arimoto, block-channel achievability and
converse checks, capacity brackets, and the staged concentration demo.

Exact rationals are kept up to the point where logarithms appear; from
there on everything is 64-bit float with the tolerances stated per
operation.  All rates and entropies are in bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import Optional, Sequence

from .fsmc import Fsmc
from .pfa import (FREEZE_SYMBOL, RESET_SYMBOL, IntColumns, Pfa, _numerators, _step,
                  brute_force_value)


class _Numpy:
    """numpy, imported on first use, when this stand-in rebinds `np` to the
    module: only capacity work needs it, and it is most of `import fsmcap`."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()

BLOCK_BUDGET = 14


class CapacityError(ValueError):
    """Invalid distribution, channel or parameter."""


# ---------------------------------------------------------------------------
# Information measures.
# ---------------------------------------------------------------------------

def _as_dist(p, tol: float = 1e-9) -> np.ndarray:
    """p as a 1-dimensional float array, after checking that it is a
    distribution within tol."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise CapacityError("need a 1-dimensional distribution")
    if np.any(arr < -tol):
        raise CapacityError("distribution has negative entries")
    if abs(arr.sum() - 1.0) > tol:
        raise CapacityError(f"distribution sums to {arr.sum()}")
    return np.clip(arr, 0.0, None)


def entropy(p) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    arr = _as_dist(p)
    nz = arr[arr > 0]
    return float(-(nz * np.log2(nz)).sum())


# ---------------------------------------------------------------------------
# Memoryless channels and Blahut-Arimoto.
# ---------------------------------------------------------------------------

def _stochastic_rows(m: np.ndarray) -> np.ndarray:
    """m with tiny negative rounding clipped to 0, after checking that every
    entry is finite and at least -1e-12 and every row sums to 1 within 1e-12."""
    if not np.all(np.isfinite(m)):
        raise CapacityError("channel table has non-finite entries")
    if np.any(m < -1e-12):
        raise CapacityError("channel table has negative entries")
    rows = m.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-12):
        raise CapacityError(f"channel rows sum to {rows.min()}..{rows.max()}")
    return np.clip(m, 0.0, None)


@dataclass(frozen=True)
class DiscreteChannel:
    """Row-stochastic table p[y|x]; rows are inputs."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1:
            raise CapacityError("channel table must be a 2-d array")
        object.__setattr__(self, "matrix", _stochastic_rows(m))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    def output_law(self, r: np.ndarray) -> np.ndarray:
        """q = r P, the output law under the input law r."""
        return r @ self.matrix

    def divergences(self, q: np.ndarray) -> np.ndarray:
        """D(x) = sum_y P[x, y] log2(P[x, y] / q[y]), with 0 log 0 = 0."""
        P = self.matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where((P > 0) & (q > 0), P / np.where(q > 0, q, 1.0), 1.0)
            return np.where(P > 0, P * np.log2(np.where(P > 0, ratio, 1.0)), 0.0).sum(axis=1)


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a vector of 2^n floats, in
    n butterfly passes; applying it twice multiplies by 2^n."""
    a = np.array(a, dtype=float)
    half = 1
    while half < a.size:
        v = a.reshape(-1, 2, half)
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
        half *= 2
    return a


@dataclass(frozen=True)
class BlockChannel:
    """Memoryless channel on blocks of `period` bits (bit t for slot t) whose
    law depends only on the slots where input and output agree:
    p[y|x] = profile[~(x ^ y)].

    Every row and column permutes the profile, so both Blahut-Arimoto
    contractions are XOR convolutions with h[z] = profile[full ^ z], each
    done by fast Walsh-Hadamard transforms in O(period 2^period) time and
    O(2^period) memory."""

    profile: np.ndarray
    _h_hat: np.ndarray = field(init=False, repr=False, compare=False)
    _h_log_h: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.profile, dtype=float)
        if g.ndim != 1 or g.size < 2 or g.size & (g.size - 1):
            raise CapacityError("agreement profile must hold 2^period entries, period >= 1")
        g = _stochastic_rows(g[None, :])[0]   # the x = 0 row is the profile reversed
        h = g[::-1]
        nz = h[h > 0]
        object.__setattr__(self, "profile", g)
        object.__setattr__(self, "_h_hat", _fwht(h))
        object.__setattr__(self, "_h_log_h", float((nz * np.log2(nz)).sum()))

    @property
    def n_inputs(self) -> int:
        return self.profile.size

    def _convolve(self, a: np.ndarray) -> np.ndarray:
        """(a * h)[x] = sum_y a[y] h[x ^ y]."""
        return _fwht(_fwht(a) * self._h_hat) / self.n_inputs

    def output_law(self, r: np.ndarray) -> np.ndarray:
        """q = r P, the output law under the input law r."""
        return self._convolve(r)

    def divergences(self, q: np.ndarray) -> np.ndarray:
        """D(x) = sum_y h[x ^ y] log2(h[x ^ y] / q[y]), for q > 0."""
        return self._h_log_h - self._convolve(np.log2(q))


def bsc(eps) -> DiscreteChannel:
    eps = float(eps)
    return DiscreteChannel(np.array([[1 - eps, eps], [eps, 1 - eps]]))


@dataclass(frozen=True)
class BaResult:
    capacity: float          # certified lower bound at the final iterate
    input_dist: np.ndarray
    gap: float               # upper bound minus lower bound
    iterations: int
    converged: bool
    lower_bounds: tuple[float, ...]


def blahut_arimoto(ch: DiscreteChannel | BlockChannel, tol: float = 1e-9,
                   max_iters: int = 10_000) -> BaResult:
    """Alternating maximization with the classical stopping rule: iterate
    until max_x D(x) - log2 sum_x r(x) 2^{D(x)} <= tol, where D(x) is the
    divergence of row x against the output mixture.  The returned capacity
    is the final lower bound, hence within tol of the true capacity.

    The channel supplies the two contractions, `output_law` and
    `divergences`; a block channel does them without a dense table."""
    if not 0 < tol < math.inf:
        raise CapacityError(f"tolerance {tol} must be positive and finite")
    if max_iters < 1:
        raise CapacityError(f"need max_iters >= 1, got {max_iters}")
    n_in = ch.n_inputs
    r = np.full(n_in, 1.0 / n_in)
    lower_bounds = []
    gap = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        D = ch.divergences(ch.output_law(r))
        weights = r * np.exp2(D)
        total = weights.sum()
        lower = math.log2(total) if total > 0 else 0.0
        upper = float(D.max())
        lower_bounds.append(lower)
        gap = upper - lower
        if gap <= tol:
            return BaResult(capacity=lower, input_dist=r, gap=gap,
                            iterations=iterations, converged=True,
                            lower_bounds=tuple(lower_bounds))
        r = weights / total
    return BaResult(capacity=lower_bounds[-1], input_dist=r, gap=gap,
                    iterations=iterations, converged=False,
                    lower_bounds=tuple(lower_bounds))


# ---------------------------------------------------------------------------
# Control schedules and block channels for lifted automaton channels.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSchedule:
    """Periodic control input: the word for the first m slots, the freeze
    symbol for the next free_slots - 1, the reset symbol on the last slot."""

    word: tuple[str, ...]
    free_slots: int

    def __post_init__(self):
        if self.free_slots < 1:
            raise CapacityError("need at least one free slot for the reset")

    @property
    def period(self) -> int:
        return len(self.word) + self.free_slots

    def controls(self) -> tuple[str, ...]:
        return (tuple(self.word)
                + (FREEZE_SYMBOL,) * (self.free_slots - 1)
                + (RESET_SYMBOL,))


def _pattern_step(cols: IntColumns, accepting: list[int],
                  frontier: dict[int, list[int]], t: int) -> dict[int, list[int]]:
    """One slot of the joint law of (acceptance mask so far, state), on
    integer numerators: split each state vector on whether the state before
    slot t accepts (`accepting` holds 1 or 0 per state), then move each
    nonzero part by the control's integer columns (`pfa._step`).  Most
    vectors sit on one side, and move whole.  Every vector gains the
    columns' denominator, so the frontier stays on one common
    denominator."""
    bit = 1 << t
    nxt: dict[int, list[int]] = {}
    for mask, vec in frontier.items():
        acc = list(map(mul, vec, accepting))
        if acc == vec:
            nxt[mask | bit] = _step(cols, vec)
        elif not any(acc):
            nxt[mask] = _step(cols, vec)
        else:
            nxt[mask | bit] = _step(cols, acc)
            nxt[mask] = _step(cols, list(map(sub, vec, acc)))
    return nxt


def _pattern_law(a: Pfa, controls: Sequence[str]) -> tuple[dict[int, int], int]:
    """Acceptance-pattern law along `controls`, from the initial law, as
    integer numerators per mask over one denominator."""
    accepting = [int(s in a.accepting) for s in a.states]
    start, den = _numerators(a.initial)
    frontier = {0: start}
    for t, c in enumerate(controls):
        cols, factor = a.columns(c)
        frontier = _pattern_step(cols, accepting, frontier, t)
        den *= factor
    return {mask: sum(vec) for mask, vec in frontier.items()}, den


def accept_pattern_dist(ch: Fsmc, controls: Sequence[str]) -> dict[int, Fraction]:
    """Exact law of the per-slot acceptance indicators along a control word.

    Bit t of the mask is set when the state occupied before slot t is
    accepting.  The state trajectory ignores the data input, so this is the
    whole memory the block channel has.
    """
    law, den = _pattern_law(ch.automaton, controls)
    return {mask: Fraction(x, den) for mask, x in law.items()}


def _subset_sums(law: dict[int, int], length: int) -> list[int]:
    """Agreement-profile numerators of an integer mask law: entry E is the
    sum over masks inside E of law[mask] 2^|mask|, by the subset-sum
    transform; over the law's denominator times 2^length it is the
    profile."""
    size = 1 << length
    g = [0] * size
    for mask, x in law.items():
        g[mask] = x << bin(mask).count("1")
    for bit in range(length):
        step = 1 << bit
        for e in range(size):
            if e & step:
                g[e] += g[e ^ step]
    return g


def agreement_profile(pattern_dist: dict[int, Fraction], length: int) -> list[Fraction]:
    """g[E] = p(y|x) for any x, y agreeing exactly on the slot set E:
    2^-L sum over patterns inside E of P(pattern) 2^{|pattern|}.

    The subset-sum transform runs on integer numerators over one common
    denominator (`pfa._numerators`), so no step pays for a gcd."""
    nums, den = _numerators(pattern_dist.values())
    den <<= length
    return [Fraction(x, den) for x in _subset_sums(dict(zip(pattern_dist, nums)), length)]


def _prefix_profiles(a: Pfa,
                     sched: ControlSchedule) -> tuple[list[int], list[int], int, Fraction]:
    """(G0, G1, their denominator, value of the word) of a freeze/reset
    schedule with word length m and n free slots, from one walk of the
    word and the reset; G0 and G1 are integer numerators over the one
    denominator.

    Every free slot sees the state s_m the word leads to, so the period's
    acceptance mask is the word's m-bit prefix mask plus n copies of
    acc(s_m), and its agreement profile factors exactly as

        g[E] = 2^-n G0[E_pre] + [E_suf = full] G1[E_pre],

    with E_pre the low m bits of E, E_suf the high n, and G_b the m-bit
    agreement profile of P(prefix mask, acc(s_m) = b).  The word's value is
    the mass of acc(s_m) = 1.  The cost is O(2^m) exact work, whatever n.
    Consecutive periods are i.i.d. because the reset sends every state to
    the initial law, which is checked on its matrix, as the freeze is, once
    per automaton (`Pfa.reserved_matches`).  The walk spans m + 1 slots,
    which the block budget bounds."""
    m = len(sched.word)
    if m + 1 > BLOCK_BUDGET:
        raise CapacityError(f"word of length {m} walks {m + 1} slots, over the block "
                            f"budget {BLOCK_BUDGET}")
    if sched.free_slots > 1 and not a.reserved_matches(FREEZE_SYMBOL):
        raise CapacityError(f"control {FREEZE_SYMBOL!r} is not the identity, so the free "
                            "slots do not hold the state the word reaches")
    if not a.reserved_matches(RESET_SYMBOL):
        raise CapacityError("consecutive blocks are not identically distributed "
                            "(schedule does not end in a reset?)")
    # slot m outputs by acc(s_m); its control, the reset, moves the state
    # after that, to where the period ends
    law, den = _pattern_law(a, tuple(sched.word) + (RESET_SYMBOL,))
    laws: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for mask, x in law.items():
        laws[mask >> m][mask & ((1 << m) - 1)] = x
    return (_subset_sums(laws[0], m), _subset_sums(laws[1], m), den << m,
            Fraction(sum(laws[1].values()), den))


def _floats(nums: Sequence[int], den: int) -> np.ndarray:
    """nums / den as floats, each one correctly rounded `int / int`: the
    float `Fraction.__float__` gives, without building the Fraction."""
    return np.array([x / den for x in nums])


def _float_prefix_profiles(a: Pfa,
                           sched: ControlSchedule) -> tuple[np.ndarray, np.ndarray, Fraction]:
    g0, g1, den, v = _prefix_profiles(a, sched)
    return _floats(g0, den), _floats(g1, den), v


def _block_numerators(ch: Fsmc, sched: ControlSchedule) -> tuple[list[int], list[int], int]:
    """The 2^(m+1) distinct entries of one schedule period's agreement
    profile, after the period's budget guard: the numerators of 2^-n G0
    (rows E_suf != full) and of 2^-n G0 + G1 (the last row), see
    `_prefix_profiles`, over one denominator."""
    if sched.period > BLOCK_BUDGET:
        raise CapacityError(f"period {sched.period} exceeds the block budget {BLOCK_BUDGET}")
    g0, g1, den, _ = _prefix_profiles(ch.automaton, sched)
    n = sched.free_slots
    return g0, [x + (y << n) for x, y in zip(g0, g1)], den << n


def block_profile(ch: Fsmc, sched: ControlSchedule) -> list[Fraction]:
    """Agreement profile of one schedule period, all 2^period entries,
    expanded from the factored law (see `_prefix_profiles`), with the same
    block-stationarity check; the block budget bounds the period.  Slot t
    is bit t, so E = E_pre + 2^m E_suf."""
    low, full, den = _block_numerators(ch, sched)
    low = [Fraction(x, den) for x in low]
    return low * ((1 << sched.free_slots) - 1) + [Fraction(x, den) for x in full]


def induced_block_channel(ch: Fsmc, sched: ControlSchedule) -> BlockChannel:
    """Memoryless channel on data blocks of one schedule period: inputs and
    outputs are bit sequences of length m+n, transition probabilities exact
    until each of the 2^(m+1) distinct entries of the agreement profile
    becomes a float (the floats of `block_profile`), tiled to all 2^period.
    Memory grows as 2^(m+n)."""
    low, full, den = _block_numerators(ch, sched)
    return BlockChannel(np.concatenate([np.tile(_floats(low, den), (1 << sched.free_slots) - 1),
                                        _floats(full, den)]))


def _row_entropy(g0: np.ndarray, g1: np.ndarray, n: int) -> float:
    """Entropy in bits of a block-channel row: 2^n - 1 copies of each
    2^-n g0[e], and each 2^-n g0[e] + g1[e] once.  2^-n x log2(2^-n x) is
    written through log2 x - n, so nothing overflows or underflows at any n."""
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.where(g0 > 0, g0 * (n - np.log2(g0)), 0.0)
        full = g1 + np.ldexp(g0, -n)
        last = np.where(g1 > 0, -full * np.log2(full), np.ldexp(spread, -n))
    return float((1.0 - math.ldexp(1.0, -n)) * spread.sum() + last.sum())


@dataclass(frozen=True)
class ChainReport:
    """The achievability entropy chain, evaluated on one block channel."""

    m: int
    n: int
    word_value: float
    h_total: float                # H(Y_block | X_block, controls)
    h_prefix: float               # H(first m outputs | X)
    h_suffix_given_prefix: float
    h_suffix: float
    final_bound: float            # 1 + (1 - word_value) * n

    @property
    def chain_holds(self) -> bool:
        tol = 1e-9
        return (self.h_prefix <= self.m + tol
                and self.h_suffix_given_prefix <= self.h_suffix + tol
                and self.h_suffix <= self.final_bound + tol
                and self.h_total <= self.m + 1 + (1 - self.word_value) * self.n + tol)


def _chain_report(sched: ControlSchedule, g0: np.ndarray, g1: np.ndarray,
                  v: Fraction) -> ChainReport:
    """The chain from the factored law and the word's value v.  Summing the
    n suffix slots out of the row leaves G0 + G1 on the prefix; summing the
    prefix out leaves 2^n - 1 suffix outcomes of mass 2^-n (1 - v) and one
    of 2^-n (1 - v) + v, a row of the same shape with m = 0."""
    n_free = sched.free_slots
    h_total = _row_entropy(g0, g1, n_free)
    h_prefix = entropy(g0 + g1)
    h_suffix = _row_entropy(np.array([float(1 - v)]), np.array([float(v)]), n_free)
    val_w = float(v)
    return ChainReport(m=len(sched.word), n=n_free, word_value=val_w, h_total=h_total,
                       h_prefix=h_prefix, h_suffix_given_prefix=h_total - h_prefix,
                       h_suffix=h_suffix, final_bound=1 + (1 - val_w) * n_free)


def _chained_uniform_rate(sched: ControlSchedule, g0: np.ndarray, g1: np.ndarray,
                          v: Fraction) -> float:
    """The uniform block rate from the factored law, after the entropy
    chain check."""
    chain = _chain_report(sched, g0, g1, v)
    if not chain.chain_holds:
        raise CapacityError(f"entropy chain violated: {chain}")
    return (sched.period - chain.h_total) / sched.period


def achievable_rate(ch: Fsmc, word: Sequence[str], free_slots: int,
                    input_mode: str = "uniform", ba_tol: float = 1e-6) -> float:
    """Block mutual information per use for the schedule (word, free_slots).

    'uniform' evaluates the exact symmetric-channel formula and verifies the
    entropy chain bound; 'ba' optimizes the input on the block channel, which
    can only improve the rate.
    """
    sched = ControlSchedule(word=tuple(word), free_slots=free_slots)
    if input_mode == "uniform":
        return _chained_uniform_rate(sched, *_float_prefix_profiles(ch.automaton, sched))
    if input_mode == "ba":
        block = induced_block_channel(ch, sched)
        result = blahut_arimoto(block, tol=ba_tol * sched.period)
        return result.capacity / sched.period
    raise CapacityError(f"unknown input mode {input_mode!r}")


# ---------------------------------------------------------------------------
# Converse checks.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConverseReport:
    n: int
    trials: int
    horizon: int
    val_horizon: float
    entropy_bound: float          # n * (1 - val_horizon)
    min_conditional_entropy: float
    max_rate: float
    violations: int
    raised_horizon: Optional[int]
    raised_val: Optional[float]

    @property
    def passed(self) -> bool:
        return self.violations == 0


# The converse's float pass takes trials in chunks whose largest
# intermediate holds about this many float64 entries (128 KiB), or one
# trial's worth where that is more (512 KiB at n = 6 with four controls).
# A trial's floats do not depend on its chunk, so the size moves only speed
# and memory: 2^16 would run 64 trials a chunk at n = 4, not 16, and 100
# trials on a lifted coin took 1.24 ms against 1.43 ms (best of 30
# alternating runs, 2-core x86), for four times the memory.
_CONVERSE_CHUNK_ENTRIES = 1 << 14


def _control_pattern_laws(a: Pfa, n: int) -> np.ndarray:
    """laws[w, A]: law of the acceptance mask A along each control word w of
    length n, exact until each mass becomes one correctly rounded float.
    The slot-0 control is w's most significant base-|C| digit.  Words that
    share a prefix share its walk: level t holds the (mask, state) frontier
    of every length-t prefix, on integer numerators, with its denominator."""
    steps = [a.columns(c) for c in a.alphabet]
    accepting = [int(s in a.accepting) for s in a.states]
    start, den = _numerators(a.initial)
    level = [({0: start}, den)]
    for t in range(n - 1):
        level = [(_pattern_step(cols, accepting, frontier, t), den * factor)
                 for frontier, den in level for cols, factor in steps]
    # the last control moves the state only after the last output, and a
    # move keeps each part's mass, so every choice of it gives the same mask
    # law: split the last frontier without moving it, copy for all
    laws = np.zeros((len(level), 1 << n))
    bit = 1 << (n - 1)
    for w, (frontier, den) in enumerate(level):
        for mask, vec in frontier.items():
            acc = sum(map(mul, vec, accepting))
            laws[w, mask | bit] = acc / den
            laws[w, mask] = (sum(vec) - acc) / den
    return np.repeat(laws, len(a.alphabet), axis=0)


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a nonnegative array, 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0, p * np.log2(p), 0.0).sum(axis=-1)


def _converse_trial_stats(a: Pfa, n: int, trials: int, seed: int):
    """H(Y|X,C) and rate (H(Y) - H(Y|X,C))/n for random product input laws.

    Trial k draws, per slot t, a joint law slots[k, t, d, c] over (data bit,
    control).  Given the control word w, the acceptance mask A does not
    depend on the data, and slot t outputs the data bit when t is in A and a
    fair coin otherwise.  The joint law over (control word, data word) is a
    product across slots, so

        p(y) = sum over (w, A) of P_w(A) prod_t phi_t(c_t, a_t)[y_t],

    with phi_t(c, 1) = slots[k, t, :, c] and phi_t(c, 0) uniform with mass
    slots[k, t, :, c].sum().  That sum is contracted one slot at a time.
    """
    n_c = len(a.alphabet)
    m = 2 * n_c
    laws = _control_pattern_laws(a, n)
    # agreement profiles g[w, E] by the subset-sum transform; each row of the
    # block channel for word w permutes g[w], so H(Y|X, C=w) is its entropy
    popcount = np.array([bin(mask).count("1") for mask in range(1 << n)])
    g = laws * np.exp2(popcount)
    for bit in range(n):
        half = g.reshape(len(g), -1, 2, 1 << bit)
        half[:, :, 1, :] += half[:, :, 0, :]
    rows = _row_entropies(g / (1 << n))
    # joint[(c_0, a_0), ..., (c_{n-1}, a_{n-1})] = P_w(A), slot 0 most significant
    axes = [ax for t in range(n) for ax in (t, 2 * n - 1 - t)]
    joint = laws.reshape((n_c,) * n + (2,) * n).transpose(axes).reshape(-1, m)

    rng = np.random.default_rng(seed)
    slots = rng.random((trials, n, 2, n_c))      # the per-trial draws, in stream order
    slots /= slots.sum(axis=(2, 3), keepdims=True)
    marginal = slots.sum(axis=2)                 # (trial, slot, control)
    phi = np.empty((trials, n, 2, n_c, 2))
    phi[..., 1] = slots
    phi[..., 0] = marginal[:, :, None, :] / 2
    phi = phi.reshape(trials, n, 2, m)

    h_y_given_x = np.empty(trials)
    h_y = np.empty(trials)
    chunk = max(1, _CONVERSE_CHUNK_ENTRIES // max(2 * m ** (n - 1), n_c ** n))
    for lo in range(0, trials, chunk):
        f = phi[lo:lo + chunk]
        k = len(f)
        p_c = np.ones((k, 1))
        for t in range(n):
            p_c = (p_c[:, :, None] * marginal[lo:lo + k, t, None, :]).reshape(k, -1)
        # a row-wise sum, not a product with the chunk: the floats must not
        # depend on how many trials share it
        h_y_given_x[lo:lo + k] = (p_c * rows).sum(axis=1)
        # p_y[k, r, y]: slots t.. contracted into y, slots ..t-1 still in r
        p_y = joint @ f[:, n - 1].swapaxes(1, 2)
        for t in reversed(range(n - 1)):
            p_y = f[:, t, None] @ p_y.reshape(k, m ** t, m, -1)
            p_y = p_y.reshape(k, m ** t, -1)
        h_y[lo:lo + k] = _row_entropies(p_y.reshape(k, -1))
    return list(zip(h_y_given_x.tolist(), ((h_y - h_y_given_x) / n).tolist()))


def converse_check(ch: Fsmc, n: int, trials: int, seed: int = 0) -> ConverseReport:
    """For random product input laws, verify H(Y^n|X^n C^n) >= n (1 - val)
    and rate <= val within 1e-9, with val the brute-force value at horizon n.

    A violation means the horizon underestimated the value or the engine is
    wrong; the report re-runs the search with a deeper horizon to tell the
    two apart.
    """
    if n < 1 or trials < 1:
        raise CapacityError(f"converse check needs n >= 1 and trials >= 1, "
                            f"got n={n}, trials={trials}")
    if n > 6:
        raise CapacityError(f"converse check is exact-enumeration only (n <= 6), got {n}")
    if seed < 0:
        raise CapacityError(f"seed {seed} must be >= 0")
    a = ch.automaton
    val = float(brute_force_value(a, n).best_value)
    stats = _converse_trial_stats(a, n, trials, seed)
    bound = n * (1 - val)
    violations = sum(1 for h, rate in stats
                     if h < bound - 1e-9 or rate > val + 1e-9)
    raised_horizon = raised_val = None
    if violations:
        raised_horizon = n + 2
        raised_val = float(brute_force_value(a, raised_horizon).best_value)
    return ConverseReport(
        n=n, trials=trials, horizon=n, val_horizon=val,
        entropy_bound=bound,
        min_conditional_entropy=min(h for h, _ in stats),
        max_rate=max(rate for _, rate in stats),
        violations=violations, raised_horizon=raised_horizon, raised_val=raised_val)


# ---------------------------------------------------------------------------
# Capacity brackets.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BracketBudget:
    word_len: int = 8
    block: int = 12


# the bracket's search budget: it bounds the distinct distributions the word
# search visits, which never outnumber the words
_BRACKET_SEARCH_BUDGET = 200_000


@dataclass(frozen=True)
class CapacityBracket:
    lower: float
    upper: float
    gap: float
    val_estimate: float
    certificate: str            # 'value-1 word' | 'supplied value bound' | 'trivial'
    provenance: dict


def capacity_bracket(a: Pfa, delta, budget: BracketBudget = BracketBudget(),
                     val_bound=None) -> CapacityBracket:
    """Certified achievable rate and upper bound for the channel lift of `a`.

    The lower bound is the best exact block rate over schedules built from
    the brute-force search word; the upper bound is 1 unless certified
    tighter (a value-1 word saturates it; gadget builders can pass the value
    bound their parameters prove).  The raw search value is reported as the
    heuristic estimate either way.
    """
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise CapacityError(f"delta {delta} must be positive and finite")
    if val_bound is not None and not 0 <= val_bound <= 1:
        raise CapacityError(f"value bound {val_bound} outside [0, 1]")
    if budget.block < 1:    # the shortest schedule is the reset alone
        raise CapacityError(f"period 1 exceeds the block budget {budget.block}")
    search_len = min(budget.word_len, budget.block - 1)
    result = brute_force_value(a, search_len, budget=_BRACKET_SEARCH_BUDGET)
    val_estimate = float(result.best_value)

    if result.best_value == 1:
        upper, certificate = 1.0, "value-1 word"
    elif val_bound is not None:
        upper, certificate = float(val_bound), "supplied value bound"
    else:
        upper, certificate = 1.0, "trivial"

    word = result.best_word
    m = len(word)
    v = val_estimate
    n_max = budget.block - m
    # clamp before rounding up: at a tiny delta the quotient is infinite
    suggested = math.ceil(min(n_max, (1 + max(0.0, v - 2 * delta) * m) / delta))
    candidates = {n_max, max(1, suggested)}
    # the factored law depends on the word alone; building it for the
    # longest schedule runs the word, freeze and reset guards once for all,
    # on the lifted automaton that `a` builds once and keeps
    profiles = _float_prefix_profiles(
        a._lifted, ControlSchedule(word=word, free_slots=max(candidates)))
    lower = 0.0
    provenance = {"m": m, "n": 0, "delta": delta, "word": "".join(word)}
    for n_free in sorted(candidates):
        rate = _chained_uniform_rate(ControlSchedule(word=word, free_slots=n_free), *profiles)
        if rate > lower:
            lower = rate
            provenance = {"m": m, "n": n_free, "delta": delta, "word": "".join(word)}
    if lower > upper + 1e-9:
        # the search horizon undershot the value; the achieved rate is itself
        # a sound estimate from below
        upper = lower
        certificate += " (raised to the achieved rate)"
    return CapacityBracket(lower=lower, upper=upper, gap=upper - lower,
                           val_estimate=val_estimate, certificate=certificate,
                           provenance=provenance)


# ---------------------------------------------------------------------------
# Stability schedules and the concentration demo.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityStage:
    t: int
    n_t: int
    m_t: int
    m_formula: int
    m_floor: int      # (n_{t+1})^2


@dataclass(frozen=True)
class StabilitySchedule:
    val: float
    delta: float
    stages: tuple[StabilityStage, ...]


def stability_schedule(val, delta, n_list: Sequence[int]) -> StabilitySchedule:
    """Stage sizes m_t = max(ceil((2^t/(n_t delta)) (sum_{i<t} m_i n_i delta
    (2^-i - 2^-(t-1)) + n_{t+1} (val - delta 2^-(t-1)))), (n_{t+1})^2)."""
    val = float(val)
    delta = float(delta)
    if not (0 < val <= 1):
        raise CapacityError(f"val {val} outside (0, 1]")
    if not 0 < delta < math.inf:
        raise CapacityError(f"delta {delta} must be positive and finite")
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2:
        raise CapacityError("need n_t for at least two stages (t and t+1)")
    if min(n_list) < 1:
        raise CapacityError(f"stage lengths {n_list} must be at least 1")
    if any(b < a for a, b in zip(n_list, n_list[1:])):
        raise CapacityError(f"stage lengths {n_list} must be nondecreasing")
    stages = []
    ms: list[int] = []
    for t in range(1, len(n_list)):
        n_t = n_list[t - 1]
        n_next = n_list[t]
        acc = sum(ms[i - 1] * n_list[i - 1] * delta * (2.0 ** -i - 2.0 ** -(t - 1))
                  for i in range(1, t))
        acc += n_next * (val - delta * 2.0 ** -(t - 1))
        m_formula = math.ceil((2.0 ** t / (n_t * delta)) * acc)
        m_floor = n_next ** 2
        m_t = max(m_formula, m_floor)
        ms.append(m_t)
        stages.append(StabilityStage(t=t, n_t=n_t, m_t=m_t,
                                     m_formula=m_formula, m_floor=m_floor))
    return StabilitySchedule(val=val, delta=delta, stages=tuple(stages))


def block_spectrum(ch: Fsmc, sched: ControlSchedule):
    """Information-density atoms of one block under uniform data: the output
    is uniform, so the density at agreement set E is period + log2 g(E) with
    probability g(E).  Equal g(E) form one atom, in order of their first E.
    By the factored law the rows E_suf != full repeat 2^-n G0 (2^n - 1
    times) and the last row is 2^-n G0 + G1, so the atoms come from 2^m
    values of each kind, whatever n.  A free length past the float exponent
    range, where every 2^-n G0 atom underflows, raises CapacityError before
    any n-bit integer is built, and so does any atom whose g(E) leaves the
    normal float range."""
    n = sched.free_slots
    limit = 1 - sys.float_info.min_exp      # 2^-limit is the least normal float
    if n > limit:
        raise CapacityError(f"free length {n} is past the float exponent range "
                            f"({limit}): a 2^-n atom underflows a float")
    g0, g1, den, _ = _prefix_profiles(ch.automaton, sched)
    counts: dict[int, int] = {}     # numerator of 2^n g(E) over den -> number of such E
    for x in g0:
        if x:
            counts[x] = counts.get(x, 0) + (1 << n) - 1
    for x, y in zip(g0, g1):
        key = x + (y << n)
        if key:
            counts[key] = counts.get(key, 0) + 1
    den <<= n
    values, probs = [], []
    for key, count in counts.items():
        g = key / den
        if g < sys.float_info.min:
            raise CapacityError(f"an information-density atom at free length {n} "
                                "underflows a float")
        values.append(sched.period + math.log2(g))
        probs.append(key * count / den)
    probs = np.array(probs)
    return np.array(values), probs / probs.sum()


@dataclass(frozen=True)
class SpectrumDemoReport:
    eta: float
    delta: float
    n_total: int
    samples: int
    block_rate: float            # exact block mutual information per use
    val: float                   # normalizer supplied by the caller
    empirical_tail_val: float    # P[|i/(n val) - 1| >= eta delta], sampled
    empirical_tail_rate: float   # same with the block rate as normalizer
    analytic_val: float
    analytic_rate: float


def _hoeffding_bound(n: int, c_n: float, delta: float, eta: float, val: float) -> float:
    margin = eta - 1.0 / val
    if margin <= 0:
        return 2.0
    return min(2.0, 2.0 * math.exp(-2.0 * (n * c_n * delta * margin) ** 2 / n ** 1.5))


# The demo draws its uniforms in row blocks of about this many entries
# (256 KiB of float64), and finds an atom by counting the cut points at or
# below the uniform, in uint8, when the spectrum has at most this many
# atoms, by binary search above it.  Counting makes one pass per cut point
# and binary search about log2(atoms); in the demo's row blocks on a 2-core
# x86 machine (numpy 2.4.6, 640k draws, best of 6 to 14 alternating runs,
# both paths gathering through an intp index) counting took 46 ms against
# 50 ms at 192 atoms and 35-54 ms against 42-55 ms at 224, while at 240
# and 255 either path came out ahead by run.  A cutoff past 192 would gain
# little against that noise on spectra that size, so it stays, well inside
# what uint8 can count.
_DEMO_BLOCK_ENTRIES = 1 << 15
_DEMO_COUNT_ATOMS = 192


def _density_sums(values: np.ndarray, probs: np.ndarray, m_blocks: int, samples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-sample sums of m_blocks i.i.d. draws from the atoms (values,
    probs), the same floats as summing `rng.choice(values, size=(samples,
    take), p=probs)` row by row over column chunks of `take` blocks.

    `Generator.choice` with `p` returns values[cdf.searchsorted(u,
    'right')], with cdf = probs.cumsum() / its last entry and u =
    rng.random(shape).  Here u comes in row blocks of each chunk, which in
    row-major order are the same uniforms, and the index searchsorted finds,
    the number of cut points at or below u, is counted directly when there
    are few atoms.  The last cut point is 1 > u, so it never counts.  The
    uint8 counts are widened to intp before the gather, which numpy does
    about three times faster through an intp index (0.56 against 1.78 ms
    for 640k draws on a 2-core x86) than through a uint8 one."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    count = len(cdf) <= _DEMO_COUNT_ATOMS
    sums = np.zeros(samples)
    # the column chunks set the order of the float additions
    chunk = max(1, min(m_blocks, (1 << 22) // samples))
    done = 0
    while done < m_blocks:
        take = min(chunk, m_blocks - done)
        rows = max(1, _DEMO_BLOCK_ENTRIES // take)
        for lo in range(0, samples, rows):
            u = rng.random((min(rows, samples - lo), take))
            if count:
                idx = np.zeros(u.shape, dtype=np.uint8)
                for cut in cdf[:-1]:
                    idx += u >= cut
                idx = idx.astype(np.intp)
            else:
                idx = cdf.searchsorted(u, side="right")
            sums[lo:lo + len(u)] += values[idx].sum(axis=1)
        done += take
    return sums


def spectrum_concentration_demo(ch: Fsmc, sched: ControlSchedule, m_blocks: int,
                                eta, delta, samples: int, seed: int,
                                val: Optional[float] = None) -> SpectrumDemoReport:
    """Sample the information density of the staged source's first stage
    (m_blocks i.i.d. copies of one block) and compare the deviation tail
    against the two-sided Hoeffding expression with the stage-1 margin
    eta - 1/val, normalized both by the supplied value and by the exact
    block rate."""
    (report,) = spectrum_concentration_demos(ch, sched, m_blocks, (eta,), delta,
                                             samples, seed, val)
    return report


def spectrum_concentration_demos(ch: Fsmc, sched: ControlSchedule, m_blocks: int,
                                 etas: Sequence, delta, samples: int, seed: int,
                                 val: Optional[float] = None) -> list[SpectrumDemoReport]:
    """`spectrum_concentration_demo` for each eta, in order, from one
    spectrum and one draw: only the threshold eta * delta depends on eta,
    so each report equals the one-eta call with the same seed.  Every eta
    is checked before any work starts."""
    if m_blocks < 1 or samples < 1:
        raise CapacityError("need at least one block and one sample")
    if seed < 0:
        raise CapacityError(f"seed {seed} must be >= 0")
    etas = [float(eta) for eta in etas]
    delta = float(delta)
    if not etas:
        raise CapacityError("need at least one eta")
    for eta in etas:
        if not math.isfinite(eta):
            raise CapacityError(f"eta {eta} must be finite")
    if not 0 < delta < math.inf:
        raise CapacityError(f"delta {delta} must be positive and finite")
    values, probs = block_spectrum(ch, sched)
    n_block = sched.period
    mean_block = float((values * probs).sum())
    c_n = mean_block / n_block
    if val is None:
        val = c_n
    val = float(val)
    if not (c_n > 0 and val > 0):
        raise CapacityError(f"the tails are normalized by the block rate {c_n} and the value "
                            f"{val}; both must be positive")
    n_total = m_blocks * n_block
    sums = _density_sums(values, probs, m_blocks, samples, np.random.default_rng(seed))
    dev_val = np.abs(sums / (n_total * val) - 1.0)
    dev_rate = np.abs(sums / (n_total * c_n) - 1.0)
    return [SpectrumDemoReport(
        eta=eta, delta=delta, n_total=n_total, samples=samples,
        block_rate=c_n, val=val,
        empirical_tail_val=float(np.mean(dev_val >= eta * delta)),
        empirical_tail_rate=float(np.mean(dev_rate >= eta * delta)),
        analytic_val=_hoeffding_bound(n_total, c_n, delta, eta, val),
        analytic_rate=_hoeffding_bound(n_total, c_n, delta, eta, c_n)) for eta in etas]
