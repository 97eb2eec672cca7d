"""In-memory spans around calls into fsmcap's public functions.

The tracer wraps functions from the benchmark's side: every fsmcap module
that holds a wrapped function under any name gets the wrapper, so calls
across modules (``capacity.brute_force_value``, ``witness.value``, ...) are
counted as well as calls inside the defining module.  Nothing under
``src/`` changes.  A span is (name, start, end, parent); a layer's self
time is its span time minus the time of its direct child spans.

fsmcap is single-threaded and has no queues or retries, so the layers have
no waiting time or retry counts to report.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from . import reference

# (module, function) pairs that get a span; `calls` and `self_s` are
# reported for each.
SPANNED = (
    ("pfa", "brute_force_value"), ("pfa", "emptiness_semidecide"), ("pfa", "mat_vec"),
    ("pfa", "evolve"), ("pfa", "check_pfa"),
    ("gadgets", "build_D_xy"), ("gadgets", "build_D_Ay"), ("gadgets", "build_B_p"),
    ("gadgets", "build_C_p"), ("gadgets", "build_family_member"),
    ("witness", "synthesize_word"),
    ("fsmc", "build_V"), ("fsmc", "sample"),
    ("capacity", "converse_check"), ("capacity", "accept_pattern_dist"),
    ("capacity", "agreement_profile"), ("capacity", "block_profile"),
    ("capacity", "achievable_rate"), ("capacity", "blahut_arimoto"),
    ("capacity", "capacity_bracket"), ("capacity", "spectrum_concentration_demo"),
    ("formats", "parse_pfa"), ("formats", "parse_fsmc"), ("formats", "parse_dmc"),
    ("formats", "serialize_pfa"), ("formats", "serialize_fsmc"),
    ("cli", "main"), ("cli", "Run.write_output"),
)

# Counters derived at the layer boundaries: name -> (unit, better, meaning).
COUNTERS = {
    "pfa.search.words_covered": ("count", "higher", "sum of count_words(|alphabet|, L) over search calls"),
    "pfa.search.distinct_share": ("ratio", "lower", "distinct reachable distributions / words, over the distinct search inputs"),
    "pfa.value_den_bits.max": ("bits", "lower", "largest denominator bit length among returned values"),
    "witness.word_symbols": ("count", "higher", "symbols in synthesized words"),
    "fsmc.sample.symbols": ("count", "higher", "input symbols sampled"),
    "capacity.converse.trials": ("count", "higher", "converse trials run"),
    "capacity.converse.control_words": ("count", "higher", "sum of |C|^n over converse calls"),
    "capacity.accept_pattern_dist.patterns": ("count", "lower", "acceptance patterns returned"),
    "capacity.blahut_arimoto.iterations": ("count", "lower", "Blahut-Arimoto iterations"),
    "capacity.block_profile.per_rate": ("ratio", "lower", "block_profile calls per achievable_rate call"),
    "capacity.induced_block_channel.table_bytes": ("bytes", "lower", "computed as 8*4^period per block table, not measured"),
    "formats.bytes_parsed": ("bytes", "higher", "text bytes given to the parsers"),
    "cli.bytes_written": ("bytes", "lower", "output and manifest bytes written by Run.write_output"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall time of one pass: (median traced/untraced ratio over the job pairs - 1) * untraced pass time"),
}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for mod, fn in SPANNED:
        specs.append((f"{mod}.{fn}.calls", "count", "lower"))
        specs.append((f"{mod}.{fn}.self_s", "s", "lower"))
    specs.extend((name, unit, better) for name, (unit, better, _) in COUNTERS.items())
    return specs


# Wrapped names whose arguments or results feed a counter.
PROBED = frozenset({
    "pfa.brute_force_value", "pfa.emptiness_semidecide", "pfa.value", "witness.synthesize_word",
    "fsmc.sample", "capacity.converse_check", "capacity.accept_pattern_dist",
    "capacity.blahut_arimoto", "capacity.induced_block_channel", "formats.parse_pfa",
    "formats.parse_fsmc", "formats.parse_dmc", "cli.Run.write_output",
})


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.searches: dict = {}          # pfa_key -> (pfa, max_len)
        self._patches: list = []

    # -- probes: counters read from arguments and results -------------------

    def _den_bits(self, value) -> None:
        bits = value.denominator.bit_length()
        self.counters["pfa.value_den_bits.max"] = max(self.counters["pfa.value_den_bits.max"], bits)

    def _probe(self, name, fn, args, kwargs, result) -> None:
        c = self.counters
        if name in ("pfa.brute_force_value", "pfa.emptiness_semidecide"):
            a = _bound(fn, args, kwargs)
            p, L = a["p"], a["max_len"]
            c["pfa.search.words_covered"] += reference.words_up_to(len(p.alphabet), L)
            self.searches.setdefault((reference.pfa_key(p), L), (p, L))
            if name == "pfa.brute_force_value":
                self._den_bits(result.best_value)
        elif name == "pfa.value":
            self._den_bits(result)
        elif name == "witness.synthesize_word":
            c["witness.word_symbols"] += len(result.word)
        elif name == "fsmc.sample":
            c["fsmc.sample.symbols"] += len(_bound(fn, args, kwargs)["xs"])
        elif name == "capacity.converse_check":
            a = _bound(fn, args, kwargs)
            controls = {sym.partition(":")[2] for sym in a["ch"].inputs}
            c["capacity.converse.trials"] += a["trials"]
            c["capacity.converse.control_words"] += len(controls) ** a["n"]
        elif name == "capacity.accept_pattern_dist":
            c["capacity.accept_pattern_dist.patterns"] += len(result)
        elif name == "capacity.blahut_arimoto":
            c["capacity.blahut_arimoto.iterations"] += result.iterations
        elif name == "capacity.induced_block_channel":
            period = _bound(fn, args, kwargs)["sched"].period
            c["capacity.induced_block_channel.table_bytes"] += 8 * 4 ** period
        elif name.startswith("formats.parse_"):
            c["formats.bytes_parsed"] += len(_bound(fn, args, kwargs)["text"].encode())
        elif name == "cli.Run.write_output":
            a = _bound(fn, args, kwargs)
            manifest = Path(str(a["path"]) + ".manifest.json")
            c["cli.bytes_written"] += len(a["text"].encode()) + manifest.stat().st_size

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack
        probe = self._probe if name in PROBED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if probe is not None:
                probe(name, fn, args, kwargs, result)
            return result
        return wrapper

    def _probed(self, name, fn):
        probe = self._probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            probe(name, fn, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target in every fsmcap module that binds it."""
        import fsmcap.cli  # noqa: F401  (loads every fsmcap module)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "fsmcap" or name.startswith("fsmcap.")}
        targets = [(f"{m}.{f}", m, f, True) for m, f in SPANNED]
        targets += [("pfa.value", "pfa", "value", False),
                    ("capacity.induced_block_channel", "capacity", "induced_block_channel", False)]
        for name, mod, attr, spanned in targets:
            owner = mods[f"fsmcap.{mod}"]
            if "." in attr:                      # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig, self._spanned(name, orig)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._spanned(name, orig) if spanned else self._probed(name, orig)
            self._patches += [(m, key, orig, wrapper) for m in mods.values()
                              for key, val in vars(m).items() if val is orig]
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Switch between the wrappers and the original functions."""
        for owner, key, orig, wrapper in self._patches:
            setattr(owner, key, wrapper if on else orig)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += (end - start) - child[i]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def search_inputs(self) -> list[dict]:
        """Distinct share of every distinct search input, by the
        benchmark's own dedup walk."""
        out = []
        for p, L in self.searches.values():
            walk = reference.dedup_walk(p, L)
            out.append({"states": len(p.states), "symbols": len(p.alphabet), "L": L,
                        "words": walk.words_covered, "distinct": walk.distinct,
                        "share": walk.distinct / walk.words_covered})
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, overhead_s: float, workload: str) -> tuple[dict, dict]:
    """Every per-layer metric by name -> value, plus the metrics that do not
    apply to this workload with the reason."""
    totals = tracer.layer_totals()
    values: dict[str, float] = {}
    not_applicable: dict[str, str] = {}
    for mod, fn in SPANNED:
        name = f"{mod}.{fn}"
        calls, self_s = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        if not calls:
            reason = f"{name} is not called by the {workload} workload"
            not_applicable[f"{name}.calls"] = not_applicable[f"{name}.self_s"] = reason
    inputs = tracer.search_inputs()
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    words = sum(i["words"] for i in inputs)
    values["pfa.search.distinct_share"] = sum(i["distinct"] for i in inputs) / words if words else 0.0
    rates = totals.get("capacity.achievable_rate", (0, 0.0))[0]
    profiles = totals.get("capacity.block_profile", (0, 0.0))[0]
    values["capacity.block_profile.per_rate"] = profiles / rates if rates else 0.0
    values["trace.overhead_s"] = overhead_s
    for name in COUNTERS:
        if not values[name] and name != "trace.overhead_s":
            not_applicable[name] = f"no {name.rsplit('.', 1)[0]} work in the {workload} workload"
    return values, {"not_applicable": not_applicable, "search_inputs": inputs,
                    "waiting_and_retries": "none: fsmcap is single-threaded with no queues or retries"}
