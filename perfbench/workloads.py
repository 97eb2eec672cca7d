"""Seeded inputs, jobs and correctness checks for the three workloads.

Every workload is a closed loop of single jobs run one at a time in one
process, which is how fsmcap is used.  The workload seed only chooses the
content of the inputs (automaton entries, coin biases, control words,
program seeds); the sizes and the order of job kinds are fixed, so that
runs with different seeds do the same amount of work.

Jobs call fsmcap through module attributes (``pfa.brute_force_value``), never
through names imported into this file, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from fsmcap import capacity, cli, fixtures, formats, fsmc, gadgets, pfa

from . import reference

HALF = Fraction(1, 2)
GOLDENS = Path(__file__).resolve().parent / "goldens" / "cli.json"
FIXTURE_FILES = ("example1.pfa", "amp3.pfa", "d_34.pfa", "d_25.pfa", "family3.pfa", "bsc11.dmc")


@dataclass
class Job:
    """One unit of work.  `run` is timed; `reference` and `check` are not.

    `check(result, ref)` returns None when the result is correct, else a
    one-line reason.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], Optional[str]]
    reference: Callable[[], Any] = lambda: None


@dataclass
class Workload:
    jobs: list[Job]
    inputs: dict                      # what was generated, for the record
    close: Callable[[], None] = lambda: None


def _expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# search: exact value search on family members and coin gadgets.
# ---------------------------------------------------------------------------

SEARCH_SIZES = {
    # one coin search at L=12 costs about what one family search at L=5 does
    "full": dict(families=8, coins=8, family_len=5, coin_len=12),
    "tiny": dict(families=1, coins=2, family_len=2, coin_len=5),
}

# Coin biases p/q with q <= 8, split at 1/2: above it the coin race can beat
# y and emptiness stops early, at or below it every word is capped at y and
# the walk is exhaustive.  Coins alternate between the two, so every seed
# gives the same mix of short and exhaustive emptiness jobs.
_BIASES = sorted({Fraction(p, q) for q in range(2, 9) for p in range(1, q)})
_HIGH = [x for x in _BIASES if x > HALF]
_LOW = [x for x in _BIASES if x <= HALF]


def _random_column(rng: random.Random, n: int) -> list[Fraction]:
    """A distribution over n states split between two of them, k/d and
    (d-k)/d with d <= 4."""
    d = rng.randint(2, 4)
    k = rng.randint(1, d - 1)
    i, j = rng.sample(range(n), 2)
    col = [Fraction(0)] * n
    col[i], col[j] = Fraction(k, d), Fraction(d - k, d)
    return col


def random_inner(rng: random.Random, n: int, high: bool) -> pfa.Pfa:
    """Random n-state automaton over {a, b} with denominators <= 4.

    high: the initial distribution puts more than 1/2 on accepting states,
    so the family member has a short word above y and emptiness stops
    early.  Otherwise every column and the initial distribution put at most
    1/2 there, so no inner value exceeds 1/2 and (at L = 5) emptiness walks
    every word.  These are the two sides of the dichotomy; two-state
    columns keep the cost of a search nearly the same across seeds.
    """
    states = [f"s{i}" for i in range(n)]
    acc = set(rng.sample(range(n), rng.randint(1, n - 1)))

    def column(keep) -> list[Fraction]:
        while True:
            col = _random_column(rng, n)
            if keep(sum(col[i] for i in acc)):
                return col

    def at_most_half(mass):
        return mass <= HALF
    matrices = {}
    for sym in ("a", "b"):
        cols = [column((lambda mass: True) if high else at_most_half) for _ in range(n)]
        matrices[sym] = [[cols[j][i] for j in range(n)] for i in range(n)]
    initial = column((lambda mass: mass > HALF) if high else at_most_half)
    return pfa.make_pfa(states, ("a", "b"), matrices, initial, [states[i] for i in sorted(acc)])


def search_inputs(seed: int, size: str) -> list[tuple[str, pfa.Pfa, Fraction, int]]:
    """(label, automaton, threshold y, horizon L) for every search input.

    Family members cycle through (3 states, low), (4, high), (3, high),
    (4, low); coins alternate between x > 1/2 and x <= 1/2."""
    cfg = SEARCH_SIZES[size]
    rng = random.Random(f"search/{seed}")
    out = []
    for i in range(cfg["families"]):
        inner = random_inner(rng, 3 + i % 2, high=i % 4 in (1, 2))
        lam = rng.choice((HALF, Fraction(3, 4), Fraction(1)))
        member = gadgets.build_family_member(inner, lam)
        out.append((f"family{i}", member, lam / 2, cfg["family_len"]))
    for i in range(cfg["coins"]):
        x = rng.choice(_HIGH if i % 2 == 0 else _LOW)
        coin = gadgets.build_D_xy(x, HALF)
        out.append((f"coin{i}", coin, HALF, cfg["coin_len"]))
    return out


def search_workload(seed: int, size: str = "full") -> Workload:
    inputs = search_inputs(seed, size)
    by_label = {label: (p, L) for label, p, _, L in inputs}
    walk = functools.cache(lambda label: reference.dedup_walk(*by_label[label]))

    def brute_job(label, p, L):
        def check(res, ref):
            return _expect((res.best_word, res.best_value), ref.best(), "best word/value")
        return Job("brute_force_value", label, lambda: pfa.brute_force_value(p, L),
                   check, lambda: walk(label))

    def empty_job(label, p, y, L):
        def check(res, ref):
            return _expect(res, ref.first_above(y), f"first word above {y}")
        return Job("emptiness_semidecide", label,
                   lambda: pfa.emptiness_semidecide(p, y, L), check, lambda: walk(label))

    fams = [t for t in inputs if t[0].startswith("family")]
    coins = [t for t in inputs if t[0].startswith("coin")]
    jobs: list[Job] = []
    # interleave kinds so that any prefix of the job list has the same mix
    for i in range(max(len(fams), len(coins))):
        for group in (fams, coins):
            if i < len(group):
                label, p, _, L = group[i]
                jobs.append(brute_job(label, p, L))
        for group in (fams, coins):
            if i < len(group):
                label, p, y, L = group[i]
                jobs.append(empty_job(label, p, y, L))
    record = {label: {"states": p.n_states, "symbols": len(p.alphabet), "L": L,
                      "threshold": str(y)} for label, p, y, L in inputs}
    return Workload(jobs, record)


# ---------------------------------------------------------------------------
# channel: capacity work on lifted coin gadgets.
# ---------------------------------------------------------------------------

CHANNEL_SIZES = {
    "full": dict(inputs=8, n=4, trials=100, uniform_period=13, ba_period=11, word_lens=(3, 5),
                 blocks=(12, 13, 14), demo_samples=10_000, demo_blocks=64),
    "tiny": dict(inputs=2, n=2, trials=5, uniform_period=6, ba_period=5, word_lens=(1, 2),
                 blocks=(6,), demo_samples=200, demo_blocks=4),
}
BA_TOL = 1e-6


def _ab_word(rng: random.Random, length: int) -> tuple[str, ...]:
    return tuple(rng.choice("ab") for _ in range(length))


def channel_workload(seed: int, size: str = "full") -> Workload:
    cfg = CHANNEL_SIZES[size]
    rng = random.Random(f"channel/{seed}")
    jobs: list[Job] = []
    record = {}
    for i in range(cfg["inputs"]):
        x = rng.choice(_HIGH if i % 2 == 0 else _LOW)
        label = f"coin{i}"
        coin = gadgets.build_D_xy(x, HALF)
        ch = fsmc.build_V(pfa.gamma(coin))
        n, trials, trial_seed = cfg["n"], cfg["trials"], rng.randrange(1 << 16)
        uni_word = _ab_word(rng, rng.randint(*cfg["word_lens"]))
        uni_free = cfg["uniform_period"] - len(uni_word)
        ba_word = _ab_word(rng, rng.randint(*cfg["word_lens"]))
        ba_free = cfg["ba_period"] - len(ba_word)
        block = cfg["blocks"][i % len(cfg["blocks"])]
        delta = rng.choice((0.05, 0.1, 0.2))
        demo_sched = capacity.ControlSchedule(word=_ab_word(rng, 2), free_slots=7)
        eta, demo_seed = rng.choice((1.5, 2.0, 3.0)), rng.randrange(1 << 16)
        record[label] = {"x": str(x), "trial_seed": trial_seed, "uniform_word": "".join(uni_word),
                         "ba_word": "".join(ba_word), "block": block, "delta": delta,
                         "demo_word": "".join(demo_sched.word), "eta": eta}

        jobs.append(Job(
            "converse_check", label,
            lambda ch=ch, n=n, trials=trials, s=trial_seed: capacity.converse_check(ch, n, trials, seed=s),
            _check_converse,
            lambda coin=coin, n=n: reference.dedup_walk(pfa.gamma(coin), n).best()[1]))
        jobs.append(Job(
            "achievable_rate.uniform", label,
            lambda ch=ch, w=uni_word, f=uni_free: capacity.achievable_rate(ch, w, f),
            lambda rate, _ref: None if 0.0 <= rate <= 1.0 else f"rate {rate} outside [0, 1]"))
        jobs.append(Job(
            "achievable_rate.ba", label,
            lambda ch=ch, w=ba_word, f=ba_free: capacity.achievable_rate(
                ch, w, f, input_mode="ba", ba_tol=BA_TOL),
            lambda rate, ref, p=cfg["ba_period"]: (
                None if abs(rate - ref) <= BA_TOL * p
                else f"ba rate {rate} vs uniform {ref}: beyond {BA_TOL}*{p}"),
            lambda ch=ch, w=ba_word, f=ba_free: capacity.achievable_rate(ch, w, f)))
        budget = capacity.BracketBudget(block=block)
        jobs.append(Job(
            "capacity_bracket", label,
            lambda coin=coin, d=delta, b=budget: capacity.capacity_bracket(coin, d, b),
            _check_bracket,
            lambda coin=coin, b=budget: reference.dedup_walk(
                coin, min(b.word_len, b.block - 1)).best()))
        jobs.append(Job(
            "spectrum_concentration_demo", label,
            lambda ch=ch, s=demo_sched, m=cfg["demo_blocks"], e=eta, ds=demo_seed:
                capacity.spectrum_concentration_demo(ch, s, m, e, 0.1, cfg["demo_samples"], ds),
            lambda rep, _ref, m=cfg["demo_blocks"], s=demo_sched: _check_demo(rep, m * s.period)))
    return Workload(jobs, record)


def _check_converse(rep, val) -> Optional[str]:
    if rep.violations:
        return f"{rep.violations} converse violations"
    return _expect(rep.val_horizon, float(val), "value at horizon")


def _check_bracket(br, ref) -> Optional[str]:
    word, val = ref
    if not br.lower <= br.upper:
        return f"bracket lower {br.lower} above upper {br.upper}"
    return (_expect(br.val_estimate, float(val), "bracket value estimate")
            or _expect(br.provenance["word"], "".join(word), "bracket search word"))


def _check_demo(rep, n_total: int) -> Optional[str]:
    if rep.n_total != n_total:
        return f"demo length {rep.n_total}, expected {n_total}"
    for name in ("empirical_tail_val", "empirical_tail_rate", "block_rate"):
        v = getattr(rep, name)
        if not 0.0 <= v <= 1.0:
            return f"demo {name} {v} outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# cli: the README session, in-process through fsmcap.cli.main.
# ---------------------------------------------------------------------------

# (id, argv, files written).  Every README command once (converse on both
# coin fixtures); outputs go to the workload's scratch directory so that
# manifests are written too.  The slowest commands are witness (about 1.5 s
# here) and the two converse runs (about 1 s): with two converse per witness
# the sample with ten beyond it (`job_s.tail`) stays among the converse runs
# for anything from 4 to 10 cycles a run, instead of jumping between the
# clusters as the machine speeds up or slows down.
README_SESSION = (
    ("converse-d25", ["capacity", "converse", "--pfa", "d_25.pfa", "--n", "4", "--trials", "100",
                      "--seed", "1"], ()),
    ("validate", ["pfa", "validate", "--pfa", "example1.pfa"], ()),
    ("value", ["pfa", "value", "--pfa", "example1.pfa", "--word", "baa"], ()),
    ("search", ["pfa", "search", "--pfa", "amp3.pfa", "--max-len", "11"], ()),
    ("search-above", ["pfa", "search", "--pfa", "d_34.pfa", "--max-len", "8", "--above", "1/2"], ()),
    ("gadget-dxy", ["gadget", "dxy", "--x", "3/4", "--y", "1/2", "--out", "d.pfa"], ("d.pfa",)),
    ("gadget-day", ["gadget", "day", "--pfa", "amp3.pfa", "--y", "1/2", "--out", "day.pfa"], ("day.pfa",)),
    ("gadget-bp", ["gadget", "bp", "--pfa", "amp3.pfa", "--p", "1/2", "--out", "bp.pfa"], ("bp.pfa",)),
    ("gadget-cp", ["gadget", "cp", "--pfa", "amp3.pfa", "--p", "1/2", "--out", "cp.pfa"], ("cp.pfa",)),
    ("gadget-family", ["gadget", "family", "--pfa", "amp3.pfa", "--lam", "1", "--out", "fam.pfa"],
     ("fam.pfa",)),
    ("witness-lifted", ["witness", "--pfa", "amp3.pfa", "--word", "aaa", "--eps", "1/10",
                        "--k", "6", "--csv", "wl.csv"], ("wl.csv",)),
    ("channel-build", ["channel", "build", "--pfa", "d_34.pfa", "--out", "v.fsmc"], ("v.fsmc",)),
    ("channel-sample", ["channel", "sample", "--channel", "v.fsmc", "--input", "1:b 0:a",
                        "--seed", "7", "--count", "3", "--out", "s.txt"], ("s.txt",)),
    ("converse-d34", ["capacity", "converse", "--pfa", "d_34.pfa", "--n", "4", "--trials", "100",
                      "--seed", "1"], ()),
    ("bracket", ["capacity", "bracket", "--pfa", "d_25.pfa", "--delta", "0.1", "--block", "12",
                 "--val-bound", "1/2", "--csv", "b.csv"], ("b.csv",)),
    ("ba", ["capacity", "ba", "--channel", "bsc11.dmc", "--tol", "1e-9"], ()),
    ("stability", ["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8"], ()),
    ("stability-demo", ["capacity", "stability", "--val", "0.55", "--delta", "0.1", "--n-list", "8,8",
                        "--demo", "--pfa", "d_34.pfa", "--word", "a b", "--free", "7",
                        "--etas", "1.5,2,3", "--samples", "10000", "--seed", "0", "--csv", "st.csv"],
     ("st.csv",)),
    ("sigma-encode", ["sigma", "encode", "1/2", "2/3"], ()),
    ("sigma-decode", ["sigma", "decode", "30870", "--arity", "2"], ()),
    ("witness", ["witness", "--x", "3/4", "--eps", "1/10", "--k", "24", "--csv", "w.csv"], ("w.csv",)),
)
# The tiny size keeps the commands that take milliseconds.
CLI_TINY = ("validate", "value", "search-above", "gadget-dxy", "gadget-family",
            "channel-build", "channel-sample", "ba", "stability", "sigma-encode", "sigma-decode")


def _written(files) -> tuple[str, ...]:
    return tuple(f for name in files for f in (name, name + ".manifest.json"))


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_workload(seed: int, size: str, scratch: Path) -> Workload:
    """Runs in `scratch`, which the caller makes the working directory for
    the jobs; file arguments are relative so that manifests are portable."""
    goldens = json.loads(GOLDENS.read_text())
    for name in FIXTURE_FILES:
        (scratch / name).write_text(fixtures.fixture_text(name))
    rng = random.Random(f"cli/{seed}")
    example1 = formats.parse_pfa((scratch / "example1.pfa").read_text())
    word = "".join(rng.choice(example1.alphabet) for _ in range(rng.randint(6, 10)))
    rationals = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(2, 3))]
    code = reference.prime_power_code(rationals)
    seeded = (
        ("value-seeded", ["pfa", "value", "--pfa", "example1.pfa", "--word", word],
         lambda: str(reference.accept_value(example1, word)) + "\n"),
        ("sigma-encode-seeded", ["sigma", "encode"] + [str(r) for r in rationals],
         lambda: f"{code}\n"),
        ("sigma-decode-seeded", ["sigma", "decode", str(code), "--arity", str(len(rationals))],
         lambda: " ".join(str(r) for r in rationals) + "\n"),
    )
    session = [c for c in README_SESSION if size == "full" or c[0] in CLI_TINY]

    def golden_check(cid, argv, files):
        def check(res, gold):
            code_, out = res
            if gold["argv"] != argv:
                return f"golden for {cid} was captured from other arguments"
            problem = _expect(code_, gold["exit"], "exit status") or _expect(out, gold["stdout"], "stdout")
            for f in _written(files):
                problem = problem or _expect((scratch / f).read_text(), gold["files"][f], f)
            return problem
        return check

    jobs = [Job(cid, cid, lambda a=argv: run_cli(a), golden_check(cid, argv, files),
                lambda g=goldens[cid]: g)
            for cid, argv, files in session]
    jobs[1:1] = [Job(cid, cid, lambda a=argv: run_cli(a),
                     lambda res, want: _expect(res, (0, want), "exit/stdout"), ref)
                 for cid, argv, ref in seeded]
    record = {"word": word, "rationals": [str(r) for r in rationals], "commands": len(jobs)}
    return Workload(jobs, record, close=lambda: shutil.rmtree(scratch, ignore_errors=True))


def capture_goldens(scratch: Path) -> dict:
    """Run every README command once in `scratch` and record its exit
    status, stdout and written files (the cwd must be `scratch`)."""
    for name in FIXTURE_FILES:
        (scratch / name).write_text(fixtures.fixture_text(name))
    out = {}
    for cid, argv, files in README_SESSION:
        code, stdout = run_cli(argv)
        out[cid] = {"argv": argv, "exit": code, "stdout": stdout,
                    "files": {f: (scratch / f).read_text() for f in _written(files)}}
    return out


WORKLOADS = {"search": search_workload, "channel": channel_workload, "cli": cli_workload}

