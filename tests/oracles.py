"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written against the definitions, not the
library code paths: naive nested-loop matrix products, explicit
enumeration of words and acceptance patterns, and a 50-digit evaluation of
the length formulas.
"""

import itertools
import math
from dataclasses import dataclass
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


def naive_law(automaton, src, word) -> dict:
    """Nested-loop products from a point mass on src: the law after `word`,
    keyed by state."""
    dist = [Fraction(int(s == src)) for s in automaton.states]
    for sym in word:
        dist = naive_mat_vec(automaton.matrices[sym], dist)
    return dict(zip(automaton.states, dist))


def naive_reach(automaton, src, word, dst) -> Fraction:
    return naive_law(automaton, src, word)[dst]


def naive_mass(automaton, src, word, dsts) -> Fraction:
    """Mass the law after `word` from a point mass on src puts on `dsts`."""
    law = naive_law(automaton, src, word)
    return sum((law[d] for d in dsts), Fraction(0))


def shortlex_words(alphabet, max_len):
    """All words of length <= max_len, shortest first, lexicographic within
    a length (in alphabet order)."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def block_word(lengths) -> tuple:
    """The coin gadget's block word a^{n1} b a^{n2} b ... a^{nt} b."""
    return tuple(s for n in lengths for s in ("a",) * n + ("b",))


@dataclass(frozen=True)
class NaiveSearch:
    """Every visit of the walk, in order: (shortest-then-lex word, value)
    of each distinct distribution.  A walk to L holds the walk to every
    shorter horizon as the visits of words no longer than it.  `work` is
    the number of child distributions the walk computed."""

    visits: list
    work: int = 0

    def upto(self, max_len=None) -> list:
        return [(w, v) for w, v in self.visits if max_len is None or len(w) <= max_len]

    def result(self, max_len=None):
        from fsmcap.pfa import SearchResult

        visits = self.upto(max_len)
        best_word, best_value = visits[0]
        for word, v in visits:
            if v > best_value:
                best_word, best_value = word, v
        return SearchResult(best_word=best_word, best_value=best_value)

    def first_above(self, threshold, max_len=None):
        return next((w for w, v in self.upto(max_len) if v > threshold), None)


BOUND_BITS = 64


def _grid_up(vectors):
    """Round every entry up onto multiples of 2**-BOUND_BITS if the least
    common denominator of all of them passes 2**BOUND_BITS."""
    grid = 2 ** BOUND_BITS
    if math.lcm(*(x.denominator for v in vectors for x in v)) > grid:
        return [tuple(Fraction(math.ceil(x * grid), grid) for x in v) for v in vectors]
    return vectors


def naive_horizon(automaton, depth):
    """V_0, ..., V_depth of the state-observed stopping problem on Fractions,
    stopping at the first level equal to the one before it: V_0 is the
    accepting indicator and V_k(s) the larger of V_{k-1}(s) and, over the
    symbols, the V_{k-1}-weighted column of s.  A level whose least common
    denominator passes 2**BOUND_BITS is rounded up onto that grid.  Returns
    (levels, settled)."""
    states, n = automaton.states, len(automaton.states)
    levels = [tuple(Fraction(int(s in automaton.accepting)) for s in states)]
    while len(levels) <= depth:
        v = levels[-1]
        nxt = []
        for s in range(n):
            best = v[s]
            for sym in automaton.alphabet:
                m = automaton.matrices[sym]
                best = max(best, sum((m[t][s] * v[t] for t in range(n)), Fraction(0)))
            nxt.append(best)
        (nxt,) = _grid_up([tuple(nxt)])
        if nxt == v:
            return levels, True
        levels.append(nxt)
    return levels, False


def naive_backward(automaton, sym, alpha):
    """(B_sym alpha)(s) = sum over t of M_sym[t][s] alpha(t): the alpha-
    weighted value after reading sym from state s."""
    m, n = automaton.matrices[sym], len(automaton.states)
    return tuple(sum((m[t][s] * alpha[t] for t in range(n)), Fraction(0)) for s in range(n))


def naive_undominated(vectors, cap):
    """(kept, checks): the vectors taken in order of decreasing sum (stable),
    each kept unless a kept one is at least it everywhere, stopping once
    more than `cap` are kept; checks counts the comparisons made."""
    kept, checks = [], 0
    for v in sorted(vectors, key=sum, reverse=True):
        dominated = False
        for w in kept:
            checks += 1
            if all(x <= y for x, y in zip(v, w)):
                dominated = True
                break
        if not dominated:
            kept.append(v)
            if len(kept) > cap:
                break
    return kept, checks


class NaiveLookahead:
    """The lookahead sets S_m^0 = {V_m} and S_m^i = the undominated rounded
    vectors of {acc} and B_sym S_m^(i-1) over the symbols, on Fractions, with
    the work to build each: the backward products plus the dominance checks
    (`naive_undominated`)."""

    def __init__(self, automaton, levels, cap):
        self.automaton, self.levels, self.cap = automaton, levels, cap
        self.acc = tuple(Fraction(int(s in automaton.accepting)) for s in automaton.states)
        self.sets = {}

    def node(self, m, i):
        if (m, i) not in self.sets:
            if i == 0:
                self.sets[m, 0] = ([self.levels[min(m, len(self.levels) - 1)]], 0)
            else:
                prev, _ = self.node(m, i - 1)
                cands = [self.acc] + [naive_backward(self.automaton, sym, a)
                                      for sym in self.automaton.alphabet for a in prev]
                kept, checks = naive_undominated(_grid_up(cands), self.cap)
                self.sets[m, i] = (kept, len(cands) - 1 + checks)
        return self.sets[m, i]

    def most_work(self, m, i):
        """Products plus the most dominance checks of S_m^(i+1): the t-th
        candidate against at most min(t, cap) kept vectors."""
        products = len(self.automaton.alphabet) * len(self.node(m, i)[0])
        return products + sum(min(t, self.cap) for t in range(products + 1))


def naive_search(automaton, max_len, pruned=False, threshold=None) -> NaiveSearch:
    """The breadth-first word search on Fraction tuples, as the engine ran
    it before it moved to integer numerators: each distinct distribution is
    visited once, at its shortest-then-lexicographic word.

    With `pruned`, a visit at depth l with remaining depth k = max_len - l
    is not expanded when its alpha-weighted mass is at most the bar for
    every alpha of its bound: the `threshold`, at which the walk stops at
    the first visit above it, or else the best value so far.  The bound is
    looked up afresh for every such visit, after w child distributions and
    i expanded visits (the root: 0 and 0), from a ledger of what the walk
    has paid for.  V_j (`naive_horizon`) is shown if it is at depth <= i + 1
    or the levels settle before both.  First the walk pays, in order, for
    S_0^1, S_0^2, ... up to S_0^k; then for S_(k-d)^1..S_(k-d)^d, for each
    d from one past its bound up to k - 1 whose V_(k-d) is shown.  Each set
    not yet paid for is paid for, adding its work to the ledger, if the
    ledger plus its most possible work is at most w; the walk stops paying
    at the first set that does not fit, and goes on to the next d after a
    set of more than pfa._SET_CAP vectors.  The bound is then the deepest
    S_(k-d)^d paid for, of at most _SET_CAP vectors, or else V_k if shown.
    The visits are every distribution the pruned walk sees, expanded or
    not."""
    from fsmcap import pfa

    accepting = [i for i, s in enumerate(automaton.states) if s in automaton.accepting]
    levels, settled = naive_horizon(automaton, max_len) if pruned else ([], False)
    top = len(levels) - 1
    sets = NaiveLookahead(automaton, levels, pfa._SET_CAP)
    paid, best, spent = {}, {}, [0]

    def val(dist):
        return sum((dist[i] for i in accepting), Fraction(0))

    def shown(j, limit):
        return j <= min(top, limit) or (settled and top < min(j, limit))

    def pay(m, d, work):
        """False if the walk stopped at a set it cannot pay for yet."""
        while paid.get(m, 0) < d:
            i = paid.get(m, 0)
            if len(sets.node(m, i)[0]) > sets.cap:
                return True
            if spent[0] + sets.most_work(m, i) > work:
                return False
            kept, cost = sets.node(m, i + 1)
            spent[0] += cost
            paid[m] = i + 1
            if len(kept) <= sets.cap:
                best[m + i + 1] = max(best.get(m + i + 1, 0), i + 1)
        return True

    def bound(k, limit, work):
        if pay(0, k, work):
            for d in range(best.get(k, 0) + 1, k):
                if shown(k - d, limit) and not pay(k - d, d, work):
                    break
        if k in best:
            return sets.node(k - best[k], best[k])[0]
        return [levels[min(k, top)]] if shown(k, limit) else []

    def expand(dist, depth, limit, work, bar):
        if not pruned:
            return True
        vectors = bound(max_len - depth, limit, work)
        return not vectors or any(sum((x * y for x, y in zip(dist, a)), Fraction(0)) > bar
                                  for a in vectors)

    bar = threshold if threshold is not None else Fraction(-1)
    start = tuple(automaton.initial)
    visits = [((), val(start))]
    if pruned and visits[0][1] > bar:
        if threshold is not None:
            return NaiveSearch(visits)
        bar = visits[0][1]
    seen = {start}
    level = [((), start)] if expand(start, 0, 1, 0, bar) else []
    expanded = work = 0
    for depth in range(1, max_len + 1):
        nxt = []
        for word, dist in level:
            expanded += 1
            for sym in automaton.alphabet:
                child = tuple(naive_mat_vec(automaton.matrices[sym], dist))
                work += 1
                if child in seen:
                    continue
                seen.add(child)
                visits.append((word + (sym,), val(child)))
                if pruned and visits[-1][1] > bar:
                    if threshold is not None:
                        return NaiveSearch(visits, work)
                    bar = visits[-1][1]
                if depth < max_len and expand(child, depth, expanded + 1, work, bar):
                    nxt.append((word + (sym,), child))
        level = nxt
    return NaiveSearch(visits, work)


def naive_agreement_profile(pattern_dist, length) -> list:
    """g[E] = 2^-L sum over patterns inside E of P(pattern) 2^|pattern|,
    as a Fraction sum over every (E, pattern) pair."""
    out = []
    for e in range(1 << length):
        acc = Fraction(0)
        for mask, pr in pattern_dist.items():
            if mask & e == mask:
                acc += Fraction(pr) * 2 ** bin(mask).count("1")
        out.append(acc / 2 ** length)
    return out


def naive_block_table(prof, length):
    """The dense block table p[y|x] = g[~(x ^ y)] as it was built before
    block channels were structured: the float profile indexed by the
    agreement mask of every (x, y) pair."""
    import numpy as np

    gf = np.array([float(x) for x in prof])
    idx = np.arange(1 << length)
    agree = (~(idx[:, None] ^ idx[None, :])) & ((1 << length) - 1)
    return gf[agree]


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


def naive_converse_trial_stats(ch, n, trials, seed):
    """Converse trial statistics by the per-trial loop over every control
    word: for each trial, p(y) and H(Y|X,C) accumulate word by word from
    the word's full block table.  Controls are taken in order of first
    appearance among the channel's `d:c` inputs."""
    import itertools

    import numpy as np

    from fsmcap.capacity import accept_pattern_dist, agreement_profile

    def entropy(p):
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum())

    controls = list(dict.fromkeys(sym.partition(":")[2] for sym in ch.inputs))
    n_c = len(controls)
    rows = {}
    g_tables = {}
    for cw in itertools.product(range(n_c), repeat=n):
        prof = agreement_profile(accept_pattern_dist(ch, [controls[i] for i in cw]), n)
        # g_tables[cw][x, y] = p(y|x) for data word x, output word y
        g_tables[cw] = naive_block_table(prof, n)
        rows[cw] = entropy(g_tables[cw][0])
    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(trials):
        # per-slot joint law over (data bit, control symbol)
        slot = rng.random((n, 2, n_c))
        slot /= slot.sum(axis=(1, 2), keepdims=True)
        h_y_given_x = 0.0
        p_y = np.zeros(1 << n)
        for cw, g in g_tables.items():
            p_c = 1.0
            p_d = np.ones(1)
            for t in range(n):
                col = slot[t, :, cw[t]]
                p_c *= col.sum()
                # data words index slot t at bit t (LSB first)
                p_d = np.concatenate([p_d * (col[0] / col.sum()), p_d * (col[1] / col.sum())])
            h_y_given_x += p_c * rows[cw]
            p_y += p_c * (p_d @ g)
        stats.append((h_y_given_x, (entropy(p_y) - h_y_given_x) / n))
    return stats


def _naive_pattern_walk(automaton, controls, start):
    """(acceptance-mask law, end state law) along `controls` from the state
    law `start`: before slot t each state vector splits on whether the state
    accepts (bit t set) or not, and both parts move by naive_mat_vec."""
    accepting = [s in automaton.accepting for s in automaton.states]
    frontier = {0: list(start)}
    for t, c in enumerate(controls):
        nxt = {}
        for mask, vec in frontier.items():
            for bit, keep in ((1 << t, True), (0, False)):
                part = [e if accepting[i] == keep else Fraction(0) for i, e in enumerate(vec)]
                if any(part):
                    nxt[mask | bit] = naive_mat_vec(automaton.matrices[c], part)
        frontier = nxt
    law = {mask: sum(vec, Fraction(0)) for mask, vec in frontier.items()}
    end = [sum(col, Fraction(0)) for col in zip(*frontier.values())]
    return law, end


def naive_block_profile(ch, sched):
    """Agreement profile of one schedule period by walking the whole period
    twice, as block profiles were built before the factored law: the law of
    the second period, started from the state law the first period ends in,
    must equal the first exactly."""
    from fsmcap.capacity import BLOCK_BUDGET, CapacityError, agreement_profile
    from fsmcap.fsmc import unlift

    n = sched.period
    if n > BLOCK_BUDGET:
        raise CapacityError(f"period {n} exceeds the block budget {BLOCK_BUDGET}")
    controls = sched.controls()
    a = unlift(ch)
    first, end = _naive_pattern_walk(a, controls, a.initial)
    second, _ = _naive_pattern_walk(a, controls, end)
    if first != second:
        raise CapacityError("consecutive blocks are not identically distributed "
                            "(schedule does not end in a reset?)")
    return agreement_profile(first, n)


def _naive_row(prof, n):
    """p(y|x=0...0) over outputs y encoded as bit masks (slot t = bit t)."""
    import numpy as np

    full = (1 << n) - 1
    return np.array([float(prof[(~y) & full]) for y in range(1 << n)])


def naive_uniform_rate(prof, n):
    """(period - row entropy) / period from the expanded row."""
    from fsmcap.capacity import entropy

    return (n - entropy(_naive_row(prof, n))) / n


def naive_chain_fields(prof, sched):
    """(h_total, h_prefix, h_suffix) with the marginals summed out of the
    expanded 2^n_free x 2^m table."""
    from fsmcap.capacity import entropy

    m = len(sched.word)
    row = _naive_row(prof, sched.period)
    table = row.reshape(1 << sched.free_slots, 1 << m)   # axis 0: suffix, axis 1: prefix
    return entropy(row), entropy(table.sum(axis=0)), entropy(table.sum(axis=1))


def naive_block_spectrum(prof, n):
    """Density atoms grouped by equal profile value in order of first
    appearance, from the expanded profile."""
    import math

    import numpy as np

    groups = {}
    for g in prof:
        if g > 0:
            groups[g] = groups.get(g, Fraction(0)) + g
    values = np.array([n + math.log2(float(g)) for g in groups])
    probs = np.array([float(p) for p in groups.values()])
    return values, probs / probs.sum()


def naive_table_violations(what, m, n_rows, states) -> list:
    """Shape, negative entries and column sums of a table, with every
    column summed as Fractions."""
    n = len(states)
    if len(m) != n_rows or any(len(row) != n for row in m):
        return [f"{what} is not {n_rows}x{n}"]
    out = [f"{what} entry ({i},{j}) = {e} is negative"
           for i, row in enumerate(m) for j, e in enumerate(row) if e < 0]
    for j, state in enumerate(states):
        total = sum((row[j] for row in m), Fraction(0))
        if total != 1:
            out.append(f"{what} column {j} ({state!r}) sums to {total}")
    return out


def naive_initial_violations(initial, n) -> list:
    if len(initial) != n:
        return [f"initial distribution has {len(initial)} entries, expected {n}"]
    out = [f"initial entry {j} = {e} is negative" for j, e in enumerate(initial) if e < 0]
    total = sum(initial, Fraction(0))
    if total != 1:
        out.append(f"initial distribution sums to {total}")
    return out


def naive_violations(states, alphabet, matrices, initial, accepting) -> list:
    """Every violation of an automaton's invariants, in the order the
    validator reports them, from the Fraction-sum checks above."""
    out = ["duplicate state names"] if len(set(states)) != len(states) else []
    out += ["duplicate alphabet symbols"] if len(set(alphabet)) != len(alphabet) else []
    out += [f"no matrix for symbol {sym!r}" for sym in alphabet if sym not in matrices]
    out += [f"matrix for symbol {sym!r} not in the alphabet"
            for sym in matrices if sym not in alphabet]
    for sym in alphabet:
        if sym in matrices:
            out += naive_table_violations(f"matrix {sym!r}", matrices[sym], len(states), states)
    out += naive_initial_violations(initial, len(states))
    out += [f"accepting state {s!r} is not a state" for s in sorted(accepting)
            if s not in states]
    return out


def naive_concentration_demo(ch, sched, m_blocks, eta, delta, samples, seed, val=None):
    """The concentration demo with its draws made by `Generator.choice`, as
    the demo drew them before it counted cut points: each column chunk of
    at most 2^22 / samples blocks is one (samples, take) array of atoms,
    summed row by row into the per-sample densities."""
    import numpy as np

    from fsmcap.capacity import SpectrumDemoReport, _hoeffding_bound, block_spectrum

    values, probs = block_spectrum(ch, sched)
    c_n = float((values * probs).sum()) / sched.period
    val = c_n if val is None else float(val)
    n_total = m_blocks * sched.period
    rng = np.random.default_rng(seed)
    sums = np.zeros(samples)
    chunk = max(1, min(m_blocks, (1 << 22) // samples))
    done = 0
    while done < m_blocks:
        take = min(chunk, m_blocks - done)
        sums += rng.choice(values, size=(samples, take), p=probs).sum(axis=1)
        done += take
    eta, delta = float(eta), float(delta)
    return SpectrumDemoReport(
        eta=eta, delta=delta, n_total=n_total, samples=samples, block_rate=c_n, val=val,
        empirical_tail_val=float(np.mean(np.abs(sums / (n_total * val) - 1.0) >= eta * delta)),
        empirical_tail_rate=float(np.mean(np.abs(sums / (n_total * c_n) - 1.0) >= eta * delta)),
        analytic_val=_hoeffding_bound(n_total, c_n, delta, eta, val),
        analytic_rate=_hoeffding_bound(n_total, c_n, delta, eta, c_n))


def naive_unlift(ch):
    """The automaton a lifted channel carries, read back by rules stated
    state by state, as `unlift` checked them before it compared against the
    lift's own laws: the outputs are bits, the inputs a `d:c` product, the
    state law ignores the data bit, and every output column forwards the
    data bit or is a fair coin, the same way under every input.  Raises
    FsmcError where a rule fails."""
    from fsmcap.fsmc import FsmcError, split_v_input, v_input
    from fsmcap.pfa import Pfa

    half, one, zero = Fraction(1, 2), Fraction(1), Fraction(0)
    forwarded = {"0": (one, zero), "1": (zero, one)}
    if tuple(ch.outputs) != ("0", "1"):
        raise FsmcError("expected a binary-output channel")
    if not ch.inputs:
        raise FsmcError("a lifted channel needs at least one input")
    matrices = {}
    noiseless = {}
    for sym in ch.inputs:
        bit, control = split_v_input(sym)
        other = v_input("1" if bit == "0" else "0", control)
        if other not in ch.inputs:
            raise FsmcError(f"input {other!r} missing")
        if ch.state_law[sym] != ch.state_law[other]:
            raise FsmcError(f"state law for control {control!r} depends on the data bit")
        matrices.setdefault(control, ch.state_law[sym])
        law = ch.output_law[sym]
        for j in range(len(ch.states)):
            col = (law[0][j], law[1][j])
            if col == forwarded[bit]:
                flag = True
            elif col == (half, half):
                flag = False
            else:
                raise FsmcError(f"output law of input {sym!r} neither forwards nor is a coin")
            if noiseless.setdefault(j, flag) != flag:
                raise FsmcError(f"state {j} forwards under only some inputs")
    s0 = ch.states.index(ch.initial)
    return Pfa(states=ch.states, alphabet=tuple(matrices), matrices=matrices,
               initial=tuple(one if i == s0 else zero for i in range(len(ch.states))),
               accepting=frozenset(s for j, s in enumerate(ch.states) if noiseless[j]))
