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
Layout errors are raised at the line where they are read.  The file then
builds its `Pfa` or `Fsmc` once, and the construction's first violation in
file order is raised, with the validator's text, at the line of its section
(a missing table against the file alone).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .fsmc import Fsmc, FsmcError
from .pfa import Matrix, Pfa, PfaError, clipped_repr, frac, past_digit_limit

# table kind -> its name in messages, what its symbol is, where symbols are declared
_TABLES = {"matrix": ("matrix", "symbol", "alphabet"),
           "output": ("output table", "input", "inputs"),
           "state": ("state table", "input", "inputs")}


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
        self.sections: dict[str, int] = {}   # section -> line of its header

    def error(self, lineno: Optional[int], message: str) -> FormatError:
        return FormatError(f"{self.source}:{lineno}: {message}" if lineno else f"{self.source}: {message}")

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
            raise self.error(None, f"missing '{keyword}:' section")
        lineno, line = self.take()
        head, sep, rest = line.partition(":")
        if not sep or head.strip() != keyword:
            raise self.error(lineno, f"expected '{keyword}:', found {line!r}")
        self.sections[keyword] = lineno
        return lineno, rest.split()

    def take_rational_rows(self, n_rows: int, n_cols: int, what: str) -> Matrix:
        rows = []
        for _ in range(n_rows):
            if self.done():
                raise self.error(None, f"unexpected end of file inside {what}")
            lineno, line = self.take()
            tokens = line.split()
            if len(tokens) != n_cols:
                raise self.error(lineno, f"{what}: expected {n_cols} entries, found {len(tokens)}")
            rows.append(tuple(self.rationals(lineno, tokens, what)))
        return tuple(rows)

    def take_tables(self, split, n_rows: dict[str, int], n_cols: int,
                    symbols: list[str]) -> dict[str, dict[str, Matrix]]:
        """The rest of the file as tables by kind and symbol: a header line,
        which `split` cuts into [kind, symbol], then n_rows[kind] rows of n_cols
        rationals.  Each header's line is kept as section '<kind> <symbol>'."""
        tables = {kind: {} for kind in n_rows}
        while not self.done():
            lineno, line = self.take()
            parts = split(line)
            if len(parts) != 2 or parts[0] not in n_rows:
                expected = " or ".join(f"'{kind} <{_TABLES[kind][1]}>:'" for kind in n_rows)
                raise self.error(lineno, f"expected {expected}, found {line!r}")
            kind, sym = parts
            name, of, declared = _TABLES[kind]
            if sym not in symbols:
                raise self.error(lineno, f"{name} for {of} {sym!r} not in the {declared}")
            if sym in tables[kind]:
                raise self.error(lineno, f"duplicate {name} for {of} {sym!r}")
            self.sections[f"{kind} {sym}"] = lineno
            tables[kind][sym] = self.take_rational_rows(n_rows[kind], n_cols, f"{name} {sym!r}")
        return tables

    def build(self, cls, **fields):
        """cls(**fields), with the first of its violations in file order
        raised at the line of its section, or against the file when that
        section is missing."""
        try:
            return cls(**fields)
        except (PfaError, FsmcError) as exc:
            section, message = min(exc.violations, key=lambda v: self.sections.get(v[0], math.inf))
            raise self.error(self.sections.get(section), message) from None


def parse_pfa(text: str, source: str = "<string>") -> Pfa:
    reader = _Reader(text, source)
    states_line, states = reader.take_section("states")
    if not states:
        raise reader.error(states_line, "no states given")
    _, alphabet = reader.take_section("alphabet")
    init_line, init_tokens = reader.take_section("initial")
    if len(init_tokens) != len(states):
        raise reader.error(init_line, f"initial: expected {len(states)} entries, found {len(init_tokens)}")
    initial = reader.rationals(init_line, init_tokens, "initial")
    _, accepting = reader.take_section("accepting")
    tables = reader.take_tables(lambda line: line.split(":", 1)[0].split() if ":" in line else [],
                                {"matrix": len(states)}, len(states), alphabet)
    return reader.build(Pfa, states=tuple(states), alphabet=tuple(alphabet),
                        matrices=tables["matrix"], initial=tuple(initial),
                        accepting=frozenset(accepting))


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


def parse_fsmc(text: str, source: str = "<string>") -> Fsmc:
    reader = _Reader(text, source)
    _, inputs = reader.take_section("inputs")
    _, outputs = reader.take_section("outputs")
    states_line, states = reader.take_section("states")
    if not states:
        raise reader.error(states_line, "no states given")
    init_line, init_tokens = reader.take_section("initial")
    if len(init_tokens) != 1:
        raise reader.error(init_line, "initial: expected a single state name")
    # input symbols may contain ':', so a table header ends at the last one
    tables = reader.take_tables(lambda line: line[:-1].split(None, 1) if line.endswith(":") else [],
                                {"output": len(outputs), "state": len(states)}, len(states), inputs)
    return reader.build(Fsmc, inputs=tuple(inputs), outputs=tuple(outputs), states=tuple(states),
                        output_law=tables["output"], state_law=tables["state"],
                        initial=init_tokens[0])


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
