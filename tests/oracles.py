"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written against the definitions, not the
library code paths: naive nested-loop matrix products, explicit path
enumeration, and a 50-digit evaluation of the length formulas.
"""

from fractions import Fraction

import mpmath


def naive_value(automaton, word) -> Fraction:
    """Acceptance probability via an explicit nested-loop matrix product."""
    n = len(automaton.states)
    product = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for sym in word:
        m = automaton.matrices[sym]
        nxt = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = Fraction(0)
                for k in range(n):
                    acc += m[i][k] * product[k][j]
                nxt[i][j] = acc
        product = nxt
    total = Fraction(0)
    for i, state in enumerate(automaton.states):
        if state in automaton.accepting:
            for j in range(n):
                total += product[i][j] * automaton.initial[j]
    return total


def naive_mat_vec(m, u) -> list:
    """Matrix-vector product by the nested loop over every entry, zeros
    included."""
    n = len(u)
    out = []
    for i in range(n):
        acc = Fraction(0)
        for j in range(n):
            acc += m[i][j] * u[j]
        out.append(acc)
    return out


def naive_reach(automaton, src, word, dst) -> Fraction:
    """Same nested-loop product, but from a point mass on src."""
    dist = [Fraction(int(s == src)) for s in automaton.states]
    for sym in word:
        dist = naive_mat_vec(automaton.matrices[sym], dist)
    return dist[automaton.states.index(dst)]


def enum_paths_joint(ch, xs):
    """Joint law of (outputs, terminal state) by brute force over every
    (output sequence, state sequence) path."""
    import itertools

    table = {}
    n = len(xs)
    for ys in itertools.product(ch.outputs, repeat=n):
        for states in itertools.product(ch.states, repeat=n):
            prob = Fraction(1)
            prev = ch.initial
            for t in range(n):
                x = xs[t]
                j = ch.states.index(prev)
                prob *= ch.output_law[x][ch.outputs.index(ys[t])][j]
                prob *= ch.state_law[x][ch.states.index(states[t])][j]
                if not prob:
                    break
                prev = states[t]
            if prob:
                key = (ys, states[-1])
                table[key] = table.get(key, Fraction(0)) + prob
    return table


def mp_witness_lengths(x, eps, k):
    """Length formula evaluated at 50 significant digits."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        em = mpmath.mpf(eps.numerator) / mpmath.mpf(eps.denominator)
        b = mpmath.log(1 - xm) / mpmath.log(xm)
        c_eps = mpmath.log(em * (b - 1) / b) / (b * mpmath.log(xm))
        out = []
        for i in range(2, k + 1):
            raw = mpmath.log(mpmath.mpf(1) / i) / mpmath.log(xm) + c_eps
            out.append(max(1, int(mpmath.ceil(raw))))
        return out


def mp_partial_sum_bound(x, lengths):
    """High-precision pair (sum of x^{b n_i}, x^{b C_eps} b/(b-1)) is not
    needed in full; return the exact partial sum of x^{b n_i} at 50 digits
    for comparison against the analytic ceiling."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        b = mpmath.log(1 - xm) / mpmath.log(xm)
        return sum(xm ** (b * n) for n in lengths), b
