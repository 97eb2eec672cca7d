"""Text formats for automata, channels and memoryless-channel tables.

Automaton files look like::

    states: q1 q2 q3
    alphabet: a b
    initial: 1 0 0
    accepting: q3
    matrix a:
    1/2 1 0
    1/2 0 1/2
    0 0 1/2

Rationals are written ``p/q`` or as integers.  Matrices are row-major;
columns index the source state, rows the target state.  Channel files mirror
the layout with ``output <x>:`` (|Y| x |S| table of p(y|x,s')) and
``state <x>:`` (|S| x |S| table of p(s|x,s')) sections per input symbol.
Every invariant violation is rejected with a line-anchored message: each
section is checked as it is read, by the same checks as ``validate_pfa`` and
``validate_fsmc``, so the first violation in file order is reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

from .fsmc import Fsmc
from .pfa import (Pfa, PfaError, clipped_repr, duplicate_violations, frac,
                  initial_violations, membership_violations, past_digit_limit,
                  table_violations)


class FormatError(ValueError):
    """Malformed or invalid file content, annotated with source:line."""


def format_rational(value: Fraction) -> str:
    """p/q in full, also past Python's int-to-str digit limit
    (`past_digit_limit`), so that `frac` reads every printed value back."""
    return past_digit_limit(str, Fraction(value))


def _clean_lines(text: str):
    """(lineno, content) pairs with comments and blank lines removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class _Reader:
    def __init__(self, text: str, source: str):
        self.lines = list(_clean_lines(text))
        self.pos = 0
        self.source = source

    def error(self, lineno: int, message: str) -> FormatError:
        return FormatError(f"{self.source}:{lineno}: {message}")

    def check(self, lineno: int, violations: list[str]) -> None:
        """Raise the first violation found in the section starting at lineno."""
        if violations:
            raise self.error(lineno, violations[0])

    def rationals(self, lineno: int, tokens: list[str], what: str) -> list[Fraction]:
        try:
            return [frac(tok) for tok in tokens]
        except PfaError as exc:
            raise self.error(lineno, f"{what}: {exc}") from None

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def take(self):
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def take_section(self, keyword: str) -> tuple[int, list[str]]:
        if self.done():
            raise FormatError(f"{self.source}: missing '{keyword}:' section")
        lineno, line = self.take()
        head, sep, rest = line.partition(":")
        if not sep or head.strip() != keyword:
            raise self.error(lineno, f"expected '{keyword}:', found {line!r}")
        return lineno, rest.split()

    def take_rational_rows(self, n_rows: int, n_cols: int, what: str) -> list[tuple[Fraction, ...]]:
        rows = []
        for _ in range(n_rows):
            if self.done():
                raise FormatError(f"{self.source}: unexpected end of file inside {what}")
            lineno, line = self.take()
            tokens = line.split()
            if len(tokens) != n_cols:
                raise self.error(lineno, f"{what}: expected {n_cols} entries, found {len(tokens)}")
            rows.append(tuple(self.rationals(lineno, tokens, what)))
        return rows


def parse_pfa(text: str, source: str = "<string>") -> Pfa:
    reader = _Reader(text, source)
    states_line, states = reader.take_section("states")
    if not states:
        raise reader.error(states_line, "no states given")
    reader.check(states_line, duplicate_violations(states, "state names"))
    alpha_line, alphabet = reader.take_section("alphabet")
    reader.check(alpha_line, duplicate_violations(alphabet, "alphabet symbols"))
    init_line, init_tokens = reader.take_section("initial")
    if len(init_tokens) != len(states):
        raise reader.error(init_line, f"initial: expected {len(states)} entries, found {len(init_tokens)}")
    initial = reader.rationals(init_line, init_tokens, "initial")
    reader.check(init_line, initial_violations(initial, len(states)))
    acc_line, accepting = reader.take_section("accepting")
    reader.check(acc_line, membership_violations(accepting, states, "accepting state"))

    matrices = {}
    n = len(states)
    while not reader.done():
        lineno, line = reader.take()
        head, sep, _ = line.partition(":")
        parts = head.split()
        if not sep or len(parts) != 2 or parts[0] != "matrix":
            raise reader.error(lineno, f"expected 'matrix <symbol>:', found {line!r}")
        sym = parts[1]
        if sym not in alphabet:
            raise reader.error(lineno, f"matrix for symbol {sym!r} not in the alphabet")
        if sym in matrices:
            raise reader.error(lineno, f"duplicate matrix for symbol {sym!r}")
        rows = reader.take_rational_rows(n, n, f"matrix {sym!r}")
        reader.check(lineno, table_violations(f"matrix {sym!r}", rows, n, states))
        matrices[sym] = tuple(rows)
    for sym in alphabet:
        if sym not in matrices:
            raise FormatError(f"{source}: no matrix for symbol {sym!r}")

    return Pfa(states=tuple(states), alphabet=tuple(alphabet), matrices=matrices,
               initial=tuple(initial), accepting=frozenset(accepting))


def serialize_pfa(p: Pfa) -> str:
    lines = [
        "states: " + " ".join(p.states),
        "alphabet: " + " ".join(p.alphabet),
        "initial: " + " ".join(format_rational(e) for e in p.initial),
        "accepting: " + " ".join(s for s in p.states if s in p.accepting),
    ]
    for sym in p.alphabet:
        lines.append(f"matrix {sym}:")
        for row in p.matrices[sym]:
            lines.append(" ".join(format_rational(e) for e in row))
    return "\n".join(lines) + "\n"


def decode_text(data: bytes, source) -> str:
    """The bytes of file `source` as UTF-8 text."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source}: not a UTF-8 text file ({exc.reason})") from None


def _read_text(path: Path) -> str:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror})") from None
    return decode_text(data, path)


def load_pfa(path) -> Pfa:
    path = Path(path)
    return parse_pfa(_read_text(path), source=str(path))


def parse_fsmc(text: str, source: str = "<string>") -> Fsmc:
    reader = _Reader(text, source)
    inputs_line, inputs = reader.take_section("inputs")
    reader.check(inputs_line, duplicate_violations(inputs, "input symbols"))
    outputs_line, outputs = reader.take_section("outputs")
    reader.check(outputs_line, duplicate_violations(outputs, "output symbols"))
    states_line, states = reader.take_section("states")
    if not states:
        raise reader.error(states_line, "no states given")
    reader.check(states_line, duplicate_violations(states, "state names"))
    init_line, init_tokens = reader.take_section("initial")
    if len(init_tokens) != 1:
        raise reader.error(init_line, "initial: expected a single state name")
    reader.check(init_line, membership_violations(init_tokens, states, "initial state"))

    output_law = {}
    state_law = {}
    while not reader.done():
        lineno, line = reader.take()
        head, sep, trailer = line.rpartition(":")   # input symbols may contain ':'
        parts = head.split(None, 1)
        if not sep or trailer or len(parts) != 2 or parts[0] not in ("output", "state"):
            raise reader.error(lineno, f"expected 'output <input>:' or 'state <input>:', found {line!r}")
        kind, sym = parts
        if sym not in inputs:
            raise reader.error(lineno, f"{kind} table for input {sym!r} not in the inputs")
        target = output_law if kind == "output" else state_law
        if sym in target:
            raise reader.error(lineno, f"duplicate {kind} table for input {sym!r}")
        n_rows = len(outputs) if kind == "output" else len(states)
        what = f"{kind} table {sym!r}"
        rows = reader.take_rational_rows(n_rows, len(states), what)
        reader.check(lineno, table_violations(what, rows, n_rows, states))
        target[sym] = tuple(rows)
    for sym in inputs:
        if sym not in output_law:
            raise FormatError(f"{source}: no output table for input {sym!r}")
        if sym not in state_law:
            raise FormatError(f"{source}: no state table for input {sym!r}")

    return Fsmc(inputs=tuple(inputs), outputs=tuple(outputs), states=tuple(states),
                output_law=output_law, state_law=state_law, initial=init_tokens[0])


def serialize_fsmc(ch: Fsmc) -> str:
    lines = [
        "inputs: " + " ".join(ch.inputs),
        "outputs: " + " ".join(ch.outputs),
        "states: " + " ".join(ch.states),
        "initial: " + ch.initial,
    ]
    for sym in ch.inputs:
        lines.append(f"output {sym}:")
        for row in ch.output_law[sym]:
            lines.append(" ".join(format_rational(e) for e in row))
        lines.append(f"state {sym}:")
        for row in ch.state_law[sym]:
            lines.append(" ".join(format_rational(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_dmc(text: str, source: str = "<string>"):
    """Memoryless channel table: one line per input, entries p(y|x) as
    rationals or decimals.  Returns a list of float rows."""
    rows = []
    width = None
    for lineno, line in _clean_lines(text):
        tokens = line.split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise FormatError(f"{source}:{lineno}: expected {width} entries, found {len(tokens)}")
        row = []
        for tok in tokens:
            try:
                entry = float(past_digit_limit(Fraction, tok))
            except (ValueError, ZeroDivisionError, OverflowError):
                try:
                    entry = float(tok)
                except ValueError:
                    raise FormatError(
                        f"{source}:{lineno}: not a number: {clipped_repr(tok)}") from None
            if not math.isfinite(entry):
                raise FormatError(f"{source}:{lineno}: not a finite number: {clipped_repr(tok)}")
            row.append(entry)
        rows.append(row)
    if not rows:
        raise FormatError(f"{source}: empty channel table")
    return rows
