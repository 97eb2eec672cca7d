"""Near-optimal word synthesis for the dichotomy gadgets.

When the per-block survival probability x exceeds 1/2, the block word
a^{n_2} b a^{n_3} b ... b a^{n_k} with n_i = ceil(log_x(1/i) + C_eps) drives
the optimistic branch's success mass toward 1 while the pessimistic branch's
failure mass stays below eps; C_eps = (1/b) log_x(eps (b-1)/b) where b > 1
solves x^b = 1 - x.  The exponents are computed in floating point, the block
lengths are then integers, and everything downstream is exact again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import gadgets
from .pfa import Pfa, Word, _advance, _numerators, frac, value

ONE = Fraction(1)
HALF = Fraction(1, 2)


class WitnessError(ValueError):
    """Parameters outside the synthesis preconditions."""


class ClosedFormMismatch(RuntimeError):
    """Exact simulation disagreed with the closed forms: gadget wiring bug."""


def solve_b(x) -> float:
    """The b > 1 with x^b = 1 - x, which is log(1 - x) / log(x)."""
    x = frac(x)
    if not (HALF < x < 1):
        raise WitnessError(f"survival probability {x} outside (1/2, 1)")
    xf = float(x)
    if 0.5 < xf < 1.0:
        b = math.log(1.0 - xf) / math.log(xf)
        if b > 1.0:
            return b
    raise WitnessError(f"survival probability {x} is too close to 1/2 or 1 to resolve "
                       "b > 1 in floating point")


def c_epsilon(x, eps) -> float:
    """The additive offset (1/b) log_x(eps (b-1)/b), with b = solve_b(x)."""
    x = frac(x)
    eps = frac(eps)
    if not (0 < eps < x):
        raise WitnessError(f"tolerance {eps} outside (0, x)")
    b = solve_b(x)
    arg = float(eps) * (b - 1.0) / b
    return math.log(arg) / (b * math.log(float(x)))


def witness_lengths(x, eps, k: int) -> list[int]:
    """Block lengths n_i = ceil(log_x(1/i) + C_eps) for i = 2..k, clamped to
    at least 1; nondecreasing in i."""
    x = frac(x)
    if k < 2:
        raise WitnessError(f"need k >= 2, got {k}")
    c_eps = c_epsilon(x, eps)
    log_x = math.log(float(x))
    return [max(1, math.ceil(math.log(1.0 / i) / log_x + c_eps)) for i in range(2, k + 1)]


def zeta_tail_bound(b: float) -> float:
    """Upper bound b/(b-1) on sum_{n>=1} n^-b for b > 1."""
    if b <= 1:
        raise WitnessError(f"tail bound needs b > 1, got {b}")
    return b / (b - 1)


@dataclass(frozen=True)
class WitnessReport:
    lengths: tuple[int, ...]
    word: Word
    p_q1_q3: Fraction
    p_q4_q6: Fraction
    p_q4_hold: Fraction
    value: Fraction
    requirement1_met: bool   # p_q4_q6 <= eps
    requirement2_met: bool   # p_q1_q3 >= 1 - eps
    x: Fraction
    eps: Fraction
    y: Fraction
    k: int
    b: Optional[float]


def synthesize_word(x=None, eps=None, k: int = 2, y=HALF,
                    inner: Optional[Pfa] = None,
                    inner_word: Optional[Sequence[str]] = None) -> WitnessReport:
    """Build the schedule word, simulate it exactly on the actual gadget, and
    cross-check every probability against the closed forms.

    Plain mode (no `inner`) targets the coin gadget with survival x; lifted
    mode targets the embedded gadget with x = value(inner, inner_word), which
    must exceed 1/2.  The inner word must avoid the separator symbol b, since
    a b inside a block would recall held mass mid-block and no closed form
    describes that.  Any simulation/closed-form disagreement raises.
    """
    *_, last = synthesize_words(x, eps, k, y, inner, inner_word)
    return last


def synthesize_words(x=None, eps=None, k: int = 2, y=HALF,
                     inner: Optional[Pfa] = None,
                     inner_word: Optional[Sequence[str]] = None) -> Iterator[WitnessReport]:
    """The reports `synthesize_word` gives for 2, 3, ..., k, from one pass.

    The block lengths n_i do not depend on k, so word k+1 is word k, a
    separator and one more block.  The pass advances the laws from q1, from
    q4 and from the initial state block by block and checks each k against
    the closed forms for that k.  Arguments are checked before the first
    report is asked for."""
    eps = frac(eps)
    y = frac(y)
    if inner is not None:
        if inner_word is None:
            raise WitnessError("lifted mode needs an inner word")
        inner_word = tuple(inner_word)
        if "b" in inner_word:
            raise WitnessError("inner word must avoid the separator symbol 'b'")
        x = value(inner, inner_word)
        if x <= HALF:
            raise WitnessError(f"inner word has value {x}, need > 1/2")
        gadget = gadgets.build_D_Ay(inner, y)
        block = ("a",) + inner_word + ("c",)
    else:
        x = frac(x)
        if not (HALF < x <= 1):
            raise WitnessError(f"survival probability {x} outside (1/2, 1]")
        gadget = gadgets.build_D_xy(x, y)
        block = ("a",)

    if not (0 < eps < x):
        raise WitnessError(f"tolerance {eps} outside (0, x)")
    if x == 1:
        if k < 2:
            raise WitnessError(f"need k >= 2, got {k}")
        b = None
        lengths = [1] * (k - 1)
    else:
        b = solve_b(x)
        lengths = witness_lengths(x, eps, k)
    return _reports(gadget, block, lengths, x, eps, y, b)


def _reports(gadget: Pfa, block: Word, lengths: Sequence[int], x: Fraction,
             eps: Fraction, y: Fraction, b: Optional[float]) -> Iterator[WitnessReport]:
    """The laws from q1, from q4 and from the start, as integer rows over
    one denominator moved piece by piece (`pfa._advance`), checked per k
    against closed forms that are running products
    (`gadgets.dxy_reach_closed_forms`).  Per k only the four reported
    Fractions are built."""
    index = gadget.state_index
    top = [index(s) for s in gadgets.TOP_SUCCESS_CLASS]
    sink = index(gadgets.BOTTOM_FAIL_STATE)
    hold = [index(s) for s in gadgets.BOTTOM_HOLD_CLASS]
    accepting = [j for j, s in enumerate(gadget.states) if s in gadget.accepting]
    from_start, den = _numerators(gadget.initial)
    rows = [[den if j == home else 0 for j in range(gadget.n_states)]
            for home in (index("q1"), index("q4"))] + [from_start]
    closed = gadgets.dxy_reach_closed_forms(x, lengths)
    word: Word = ()
    for i, (n, (cf_top, cf_sink)) in enumerate(zip(lengths, closed)):
        piece = (("b",) if i else ()) + block * n
        word += piece
        rows, factor = _advance(gadget, piece, rows)
        den *= factor
        from_q1, from_q4, from_start = rows
        p_top = Fraction(sum([from_q1[j] for j in top]), den)
        p_sink = Fraction(from_q4[sink], den)
        p_hold = Fraction(sum([from_q4[j] for j in hold]), den)
        val = Fraction(sum([from_start[j] for j in accepting]), den)

        # the blocks before the last end in a separator; the last one does not
        cf_hold = ONE - cf_sink - (1 - cf_sink) * (1 - x) ** n
        cf_val = y * (cf_top + cf_hold)
        mismatches = [
            (name, got, want)
            for name, got, want in (
                ("success class from q1", p_top, cf_top),
                ("failure sink from q4", p_sink, cf_sink),
                ("hold mass from q4", p_hold, cf_hold),
                ("word value", val, cf_val),
            )
            if got != want
        ]
        if mismatches:
            detail = "; ".join(f"{name}: simulated {got}, closed form {want}"
                               for name, got, want in mismatches)
            raise ClosedFormMismatch(detail)

        yield WitnessReport(
            lengths=tuple(lengths[:i + 1]), word=word,
            p_q1_q3=p_top, p_q4_q6=p_sink, p_q4_hold=p_hold, value=val,
            requirement1_met=p_sink <= eps,
            requirement2_met=p_top >= 1 - eps,
            x=x, eps=eps, y=y, k=i + 2, b=b)
