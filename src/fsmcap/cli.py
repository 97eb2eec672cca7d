"""Command-line entry point.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 usage error.  Rationals print as p/q, reals with 12 significant digits.
Commands that write files also write a `<file>.manifest.json` next to each
output recording the argv, parameters, input digests, seed and tool
version; re-running the recorded argv reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, capacity, formats, fsmc, gadgets, pfa, witness

REAL_FMT = "{:.12g}"


class CliError(ValueError):
    pass


def _real(x) -> str:
    return REAL_FMT.format(float(x))


def _rat(x) -> str:
    return formats.format_rational(x)


def _number(kind, token: str, what: str):
    """int(token) or float(token), with a malformed token as a CliError."""
    try:
        return kind(token)
    except ValueError:
        raise CliError(f"{what}: {token!r} is not a valid {kind.__name__}") from None


def parse_word(text: str, alphabet) -> tuple[str, ...]:
    """Whitespace/comma separated symbols; a single token that is not a
    symbol splits per character when every character of it is a symbol."""
    tokens = [t for t in text.replace(",", " ").split() if t]
    if len(tokens) == 1 and tokens[0] not in alphabet and all(c in alphabet for c in tokens[0]):
        tokens = list(tokens[0])
    for t in tokens:
        if t not in alphabet:
            raise CliError(f"symbol {t!r} is not in the alphabet {list(alphabet)}")
    return tuple(tokens)


class Run:
    """Collects parameters, input files and outputs for the manifest."""

    def __init__(self, command: str, argv: list[str]):
        self.command = command
        self.argv = argv
        self.parameters: dict = {}
        self.inputs: dict[str, str] = {}
        self.seed = None

    def param(self, **kwargs):
        self.parameters.update({k: v for k, v in kwargs.items() if v is not None})

    def load(self, parse, path):
        """parse(text, source) of input file `path`, read once: the manifest
        records the SHA-256 of the bytes parsed."""
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CliError(f"{path}: cannot read ({exc.strerror})") from None
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return parse(formats.decode_text(data, path), source=str(path))

    def manifest(self) -> dict:
        return {
            "tool": "fsmcap",
            "version": __version__,
            "command": self.command,
            "argv": self.argv,
            "parameters": self.parameters,
            "inputs": self.inputs,
            "seed": self.seed,
        }

    def write_output(self, path, text: str) -> None:
        path = Path(path)
        manifest_path = Path(str(path) + ".manifest.json")
        try:
            path.write_text(text)
            manifest_path.write_text(json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise CliError(f"{exc.filename}: cannot write ({exc.strerror})") from None


def _load_pfa(run: Run, path) -> pfa.Pfa:
    return run.load(formats.parse_pfa, path)


def _fail(message) -> int:
    """Exit status 1, after the one-line diagnostic on stderr."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _emit(run: Run, text: str, out) -> None:
    if out:
        run.write_output(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def cmd_pfa_validate(run: Run, args) -> int:
    _load_pfa(run, args.pfa)   # the parser raises the first violation, line-anchored
    print("valid")
    return 0


def cmd_pfa_value(run: Run, args) -> int:
    automaton = _load_pfa(run, args.pfa)
    word = parse_word(args.word, automaton.alphabet)
    print(_rat(pfa.value(automaton, word)))
    return 0


def cmd_pfa_search(run: Run, args) -> int:
    automaton = _load_pfa(run, args.pfa)
    if args.above is not None:
        witness_word = pfa.emptiness_semidecide(automaton, pfa.frac(args.above),
                                                args.max_len, budget=args.budget)
        if witness_word is None:
            print(f"no word of length <= {args.max_len} has value > {args.above}")
        else:
            print(" ".join(witness_word) if witness_word else "<empty>")
        return 0
    result = pfa.brute_force_value(automaton, args.max_len, budget=args.budget)
    word = " ".join(result.best_word) if result.best_word else "<empty>"
    print(f"best word: {word}")
    print(f"value: {_rat(result.best_value)}")
    return 0


def cmd_gadget(run: Run, args) -> int:
    kind = args.gadget_kind
    if kind == "dxy":
        run.param(x=args.x, y=args.y)
        out_pfa = gadgets.build_D_xy(pfa.frac(args.x), pfa.frac(args.y))
    elif kind == "day":
        run.param(y=args.y)
        inner = _load_pfa(run, args.pfa)
        out_pfa = gadgets.build_D_Ay(inner, pfa.frac(args.y))
    elif kind in ("bp", "cp"):
        run.param(p=args.p)
        inner = _load_pfa(run, args.pfa)
        build = gadgets.build_B_p if kind == "bp" else gadgets.build_C_p
        out_pfa = build(inner, pfa.frac(args.p))
    else:  # family
        run.param(lam=args.lam)
        inner = _load_pfa(run, args.pfa)
        out_pfa = gadgets.build_family_member(inner, pfa.frac(args.lam))
        expected = gadgets.gadget_state_count(inner.n_states)
        note = ""
        if inner.n_states == gadgets.FAMILY_INNER_STATES:
            note = f" (target {gadgets.FAMILY_TARGET_STATES})"
        print(f"states: {len(out_pfa.states)} = 2*{inner.n_states}+{gadgets.SKELETON_SIZE}"
              f" = {expected}{note}", file=sys.stderr)
        print(f"alphabet size: {len(out_pfa.alphabet)}", file=sys.stderr)
    _emit(run, formats.serialize_pfa(out_pfa), args.out)
    return 0


def cmd_witness(run: Run, args) -> int:
    if args.pfa and args.x is not None:
        raise CliError("--x is for plain mode; with --pfa, x is the value of --word")
    if not args.pfa and args.word is not None:
        raise CliError("--word is for lifted mode and needs --pfa")
    run.param(x=args.x, eps=args.eps, k=args.k, y=args.y, word=args.word)
    kwargs = dict(eps=pfa.frac(args.eps), y=pfa.frac(args.y))
    if args.pfa:
        inner = _load_pfa(run, args.pfa)
        kwargs["inner"] = inner
        if args.word is not None:
            kwargs["inner_word"] = parse_word(args.word, inner.alphabet)
    else:
        if args.x is None:
            raise CliError("plain mode needs --x")
        kwargs["x"] = pfa.frac(args.x)
    rows = ["k,p_q1_q3,p_q4_q6"]
    for report in witness.synthesize_words(k=args.k, **kwargs):
        rows.append(f"{report.k},{_real(report.p_q1_q3)},{_real(report.p_q4_q6)}")
    print(f"x: {_rat(report.x)}  eps: {_rat(report.eps)}  y: {_rat(report.y)}  k: {report.k}")
    if report.b is not None:
        print(f"b: {_real(report.b)}  zeta tail bound: {_real(witness.zeta_tail_bound(report.b))}")
    print(f"lengths: {' '.join(str(n) for n in report.lengths)}")
    print(f"word length: {len(report.word)}")
    print(f"p_q1_q3: {_rat(report.p_q1_q3)} ({_real(report.p_q1_q3)})")
    print(f"p_q4_q6: {_rat(report.p_q4_q6)} ({_real(report.p_q4_q6)})")
    print(f"value: {_rat(report.value)} ({_real(report.value)})")
    print(f"requirement 1 (p_q4_q6 <= eps): {'met' if report.requirement1_met else 'not met'}")
    print(f"requirement 2 (p_q1_q3 >= 1-eps): {'met' if report.requirement2_met else 'not met'}")
    if args.csv:
        run.write_output(args.csv, "\n".join(rows) + "\n")
    return 0


def cmd_channel_build(run: Run, args) -> int:
    ch = fsmc.build_V(_load_pfa(run, args.pfa))
    print(f"inputs: {len(ch.inputs)}  states: {len(ch.states)}", file=sys.stderr)
    _emit(run, formats.serialize_fsmc(ch), args.out)
    return 0


def cmd_channel_sample(run: Run, args) -> int:
    if args.count < 1:
        raise CliError(f"--count {args.count} must be at least 1")
    ch = run.load(formats.parse_fsmc, args.channel)
    run.param(input=args.input, count=args.count)
    run.seed = args.seed
    xs = parse_word(args.input, ch.inputs)
    lines = []
    for i in range(args.count):
        ys = fsmc.sample(ch, xs, seed=args.seed + i)
        lines.append("".join(ys) if all(len(y) == 1 for y in ys) else " ".join(ys))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        run.write_output(args.out, text)
    return 0


def cmd_capacity_bracket(run: Run, args) -> int:
    automaton = _load_pfa(run, args.pfa)
    run.param(delta=args.delta, max_word_len=args.max_word_len, block=args.block,
              val_bound=args.val_bound)
    budget = capacity.BracketBudget(word_len=args.max_word_len, block=args.block)
    bracket = capacity.capacity_bracket(
        automaton, args.delta, budget,
        val_bound=pfa.frac(args.val_bound) if args.val_bound else None)
    print(f"lower: {_real(bracket.lower)}  (m={bracket.provenance['m']},"
          f" n={bracket.provenance['n']}, delta={_real(args.delta)})")
    print(f"upper: {_real(bracket.upper)}  [{bracket.certificate}]")
    print(f"gap: {_real(bracket.gap)}")
    print(f"value estimate at horizon: {_real(bracket.val_estimate)}")
    if args.csv:
        block_size = bracket.provenance["m"] + bracket.provenance["n"]
        rows = ["block,lower,upper",
                f"{block_size},{_real(bracket.lower)},{_real(bracket.upper)}"]
        run.write_output(args.csv, "\n".join(rows) + "\n")
    return 0


def cmd_capacity_ba(run: Run, args) -> int:
    rows = run.load(formats.parse_dmc, args.channel)
    run.param(tol=args.tol, max_iters=args.max_iters)
    result = capacity.blahut_arimoto(capacity.DiscreteChannel(rows),
                                     tol=args.tol, max_iters=args.max_iters)
    print(f"capacity: {_real(result.capacity)}")
    print(f"certified gap: {_real(result.gap)}")
    print(f"iterations: {result.iterations}{'' if result.converged else ' (not converged)'}")
    print("input distribution: " + " ".join(_real(p) for p in result.input_dist))
    if result.converged:
        return 0
    return _fail(f"Blahut-Arimoto did not converge in {result.iterations} iterations "
                 f"(certified gap {_real(result.gap)} > tol {_real(args.tol)})")


def cmd_capacity_converse(run: Run, args) -> int:
    automaton = _load_pfa(run, args.pfa)
    run.param(n=args.n, trials=args.trials)
    run.seed = args.seed
    report = capacity.converse_check(fsmc.lift(automaton), args.n, args.trials, seed=args.seed)
    print(f"value at horizon {report.horizon}: {_real(report.val_horizon)}")
    print(f"entropy bound n(1-val): {_real(report.entropy_bound)}")
    print(f"min conditional entropy: {_real(report.min_conditional_entropy)}")
    print(f"max rate: {_real(report.max_rate)}")
    print(f"violations: {report.violations}/{report.trials}")
    if not report.violations:
        return 0
    print(f"re-check at horizon {report.raised_horizon}: value {_real(report.raised_val)}")
    return _fail(f"{report.violations}/{report.trials} trials violate the converse; value at "
                 f"horizon n + 2 = {report.raised_horizon}: {_real(report.raised_val)}")


def cmd_capacity_stability(run: Run, args) -> int:
    """Schedule table, then with --demo one line per eta; every demo runs
    before anything is printed, so a bad argument leaves stdout empty.
    Without --demo, the demo's --pfa, --word and --csv are refused."""
    if not args.demo:
        for flag, given in (("--pfa", args.pfa), ("--word", args.word), ("--csv", args.csv)):
            if given is not None:
                raise CliError(f"{flag} is for the demo and needs --demo")
    n_list = [_number(int, tok, "--n-list") for tok in args.n_list.replace(",", " ").split()]
    run.param(val=args.val, delta=args.delta, n_list=n_list)
    schedule = capacity.stability_schedule(args.val, args.delta, n_list)
    lines = ["t,n_t,m_t,m_formula,m_floor"]
    for stage in schedule.stages:
        lines.append(f"{stage.t},{stage.n_t},{stage.m_t},{stage.m_formula},{stage.m_floor}")
    if not args.demo:
        print("\n".join(lines))
        return 0
    if not args.pfa:
        raise CliError("--demo needs --pfa (and usually --word/--free)")
    etas = [_number(float, tok, "--etas") for tok in args.etas.replace(",", " ").split()]
    if not etas:
        raise CliError("--etas: no values given")
    ch = fsmc.lift(_load_pfa(run, args.pfa))
    word = parse_word(args.word, ch.automaton.alphabet) if args.word else ()
    sched = capacity.ControlSchedule(word=word, free_slots=args.free)
    run.param(word=args.word, free=args.free, etas=args.etas, samples=args.samples)
    run.seed = args.seed
    m_blocks = schedule.stages[0].m_t
    rows = ["eta,empirical,analytic"]
    for rep in capacity.spectrum_concentration_demos(ch, sched, m_blocks, etas, args.delta,
                                                     samples=args.samples, seed=args.seed,
                                                     val=args.val):
        rows.append(f"{_real(rep.eta)},{_real(rep.empirical_tail_val)},{_real(rep.analytic_val)}")
        lines.append(f"eta={_real(rep.eta)}: n={rep.n_total} block_rate={_real(rep.block_rate)} "
                     f"empirical={_real(rep.empirical_tail_val)} analytic={_real(rep.analytic_val)}")
    print("\n".join(lines))
    if args.csv:
        run.write_output(args.csv, "\n".join(rows) + "\n")
    return 0


def cmd_sigma(run: Run, args) -> int:
    if args.sigma_kind == "encode":
        code = gadgets.sigma_encode([pfa.frac(tok) for tok in args.rationals])
        print(code.value)
    else:
        if sum(map(str.isdigit, args.value)) > gadgets.SIGMA_DIGIT_BUDGET:
            raise CliError(f"sigma code has more than {gadgets.SIGMA_DIGIT_BUDGET} digits")
        code = gadgets.SigmaCode(value=_number(int, args.value, "sigma code"), arity=args.arity)
        values = gadgets.sigma_decode(code)
        print(" ".join(_rat(v) for v in values))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument parser, built once per process: parse_args leaves
    it unchanged, so every call to main reuses it."""
    parser = argparse.ArgumentParser(prog="fsmcap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pfa", help="validate, evaluate and search automata")
    psub = p.add_subparsers(dest="pfa_cmd", required=True)
    q = psub.add_parser("validate")
    q.add_argument("--pfa", required=True)
    q.set_defaults(handler=cmd_pfa_validate)
    q = psub.add_parser("value")
    q.add_argument("--pfa", required=True)
    q.add_argument("--word", required=True)
    q.set_defaults(handler=cmd_pfa_value)
    q = psub.add_parser("search")
    q.add_argument("--pfa", required=True)
    q.add_argument("--max-len", type=int, required=True)
    q.add_argument("--budget", type=int, default=pfa.DEFAULT_SEARCH_BUDGET)
    q.add_argument("--above", help="report the first word with value above this threshold")
    q.set_defaults(handler=cmd_pfa_search)

    p = sub.add_parser("gadget", help="emit gadget automata")
    gsub = p.add_subparsers(dest="gadget_kind", required=True)
    q = gsub.add_parser("dxy")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--out")
    q.set_defaults(handler=cmd_gadget)
    q = gsub.add_parser("day")
    q.add_argument("--pfa", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--out")
    q.set_defaults(handler=cmd_gadget)
    for kind in ("bp", "cp"):
        q = gsub.add_parser(kind)
        q.add_argument("--pfa", required=True)
        q.add_argument("--p", required=True)
        q.add_argument("--out")
        q.set_defaults(handler=cmd_gadget)
    q = gsub.add_parser("family")
    q.add_argument("--pfa", required=True)
    q.add_argument("--lam", required=True)
    q.add_argument("--out")
    q.set_defaults(handler=cmd_gadget)

    p = sub.add_parser("witness", help="synthesize near-optimal gadget words")
    p.add_argument("--x", help="survival probability (plain mode)")
    p.add_argument("--eps", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--y", default="1/2")
    p.add_argument("--pfa", help="inner automaton (lifted mode)")
    p.add_argument("--word", help="inner word (lifted mode)")
    p.add_argument("--csv")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("channel", help="build and sample lifted channels")
    csub = p.add_subparsers(dest="channel_cmd", required=True)
    q = csub.add_parser("build")
    q.add_argument("--pfa", required=True)
    q.add_argument("--out")
    q.set_defaults(handler=cmd_channel_build)
    q = csub.add_parser("sample")
    q.add_argument("--channel", required=True)
    q.add_argument("--input", required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--count", type=int, default=1)
    q.add_argument("--out")
    q.set_defaults(handler=cmd_channel_sample)

    p = sub.add_parser("capacity", help="rates, brackets and stability")
    ksub = p.add_subparsers(dest="capacity_cmd", required=True)
    q = ksub.add_parser("bracket")
    q.add_argument("--pfa", required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--max-word-len", type=int, default=8)
    q.add_argument("--block", type=int, default=12)
    q.add_argument("--val-bound")
    q.add_argument("--csv")
    q.set_defaults(handler=cmd_capacity_bracket)
    q = ksub.add_parser("ba")
    q.add_argument("--channel", required=True)
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--max-iters", type=int, default=10_000)
    q.set_defaults(handler=cmd_capacity_ba)
    q = ksub.add_parser("converse")
    q.add_argument("--pfa", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(handler=cmd_capacity_converse)
    q = ksub.add_parser("stability")
    q.add_argument("--val", type=float, required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--n-list", required=True)
    q.add_argument("--demo", action="store_true")
    q.add_argument("--pfa")
    q.add_argument("--word")
    q.add_argument("--free", type=int, default=4)
    q.add_argument("--etas", default="2")
    q.add_argument("--samples", type=int, default=10_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--csv")
    q.set_defaults(handler=cmd_capacity_stability)

    p = sub.add_parser("sigma", help="prime-power codec for rational tuples")
    ssub = p.add_subparsers(dest="sigma_kind", required=True)
    q = ssub.add_parser("encode")
    q.add_argument("rationals", nargs="+")
    q.set_defaults(handler=cmd_sigma)
    q = ssub.add_parser("decode")
    q.add_argument("value")
    q.add_argument("--arity", type=int, required=True)
    q.set_defaults(handler=cmd_sigma)

    return parser


DOMAIN_ERRORS = (CliError, pfa.PfaError, pfa.BudgetError, gadgets.SigmaError,
                 witness.WitnessError, fsmc.FsmcError, capacity.CapacityError,
                 formats.FormatError)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    command = " ".join(tok for tok in (
        args.command,
        getattr(args, f"{args.command}_cmd", None) or getattr(args, f"{args.command}_kind", None),
    ) if tok)
    run = Run(command=command, argv=argv)
    run.param(threads=1)
    try:
        return args.handler(run, args)
    except DOMAIN_ERRORS as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
