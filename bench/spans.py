"""In-memory spans around the package's public functions, and the per-layer
metrics computed from them.

A traced pass swaps each function named in `TARGETS` for a wrapper in the
namespace its callers look it up in (the package imports some functions by
name, so `ciore.fo_prover.check_proof` is patched beside
`ciore.sequents.check_proof`). The originals come back when the pass ends.
A call opens a span unless a span of the same name is already open: for a
recursive or layer-internal call only the outermost one counts. Every call,
nested or not, is also logged with its arguments and result, so counters are
computed after the pass and not inside the timed spans.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from ciore import fo_prover, fo_semantics, matrix, parsing, prop_prover, sequents, serialize

import reference
import workloads

# (module, attribute, span name). Span names are layers, except the two
# fo_prover phases, which get their own spans below the decide_fo span.
TARGETS = [
    (parsing, "parse_sequent", "parsing"),
    (prop_prover, "decide", "prop_prover"),
    (prop_prover, "sequent_satisfied", "matrix"),
    (sequents, "check_proof", "sequents"),
    (fo_prover, "check_proof", "sequents"),
    (serialize, "verdict_to_json", "serialize"),
    (workloads, "dump_verdict", "serialize"),
    (matrix, "find_countermodel", "matrix"),
    (fo_semantics, "fo_sequent_valid_in", "fo_semantics"),
    (fo_semantics, "fo_sequent_satisfied", "fo_semantics"),
    (fo_prover, "fo_sequent_satisfied", "fo_semantics"),
    (fo_prover, "decide_fo", "fo_prover"),
    (fo_prover, "build_reduction_tree", "fo_prover.tree"),
    (fo_prover, "extract_countermodel", "fo_prover.extract"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, goal id]
        self.calls: list = []  # (span name, function name, args, result, seconds or None if nested)
        self.goal = None
        self._paused = False
        self._open: list[int] = []
        self._open_names: Counter = Counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if self._open_names[name]:
                result = fn(*args, **kwargs)
                self.calls.append((name, fn.__name__, args, result, None))
                return result
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None, self.goal])
            self._open.append(index)
            self._open_names[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self._open_names[name] -= 1
                self.spans[index][1:3] = start, end
            self.calls.append((name, fn.__name__, args, result, end - start))
            return result

        return traced

    @contextmanager
    def paused(self):
        """Calls made meanwhile, such as the benchmark's own checks, leave no trace."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for module, attr, name in TARGETS:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, goal in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "goal": goal}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, goal in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, goal) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def proof_size(proof) -> int:
    count, stack = 0, [proof]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counters and busy times of one traced pass, name -> (value, unit)."""
    spans = tracer.spans
    busy: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent, goal in spans:
        busy[name] += end - start
        calls[name] += 1
    selfs = self_times(spans)
    fo_check = sum(
        end - start
        for i, (name, start, end, parent, goal) in enumerate(spans)
        if name == "sequents" and _has_ancestor(spans, i, "fo_prover")
    )
    fo_self = sum(t for (name, *_), t in zip(spans, selfs) if name == "fo_prover")

    n: Counter = Counter()
    for name, fn, args, result, seconds in tracer.calls:
        if fn == "decide":
            n["proof_nodes"] += proof_size(result.proof) if isinstance(result, prop_prover.Proved) else 0
            n["proved" if isinstance(result, prop_prover.Proved) else "refuted"] += 1
        elif fn in ("check_proof", "proof_error"):
            n["nodes_checked"] += proof_size(args[0])
            n["check_failed"] += (not result) if fn == "check_proof" else result is not None
        elif fn == "find_countermodel":
            names = reference.sequent_atoms(args[0])
            cm = None if result is None else {k: reference.RANK[v.value] for k, v in result.items()}
            n["valuations"] += reference.valuations_examined(names, cm)
            n["valid_s" if result is None else "invalid_s"] += seconds or 0.0
        elif fn == "dump_verdict":
            n["bytes"] += len(result)
        elif fn == "fo_sequent_satisfied":
            n["assignments"] += 1
        elif fn == "build_reduction_tree":
            n["tree_nodes"] += result.node_count
            n["stages"] += result.stages
            n["status_" + result.status] += 1
        elif fn == "extract_countermodel":
            n["extract_calls"] += 1
            n["extract_hits"] += result is not None

    return {
        "parsing.calls": (calls["parsing"], "count"),
        "parsing.busy_s": (busy["parsing"], "s"),
        "prop_prover.calls": (calls["prop_prover"], "count"),
        "prop_prover.busy_s": (busy["prop_prover"], "s"),
        "prop_prover.proof_nodes": (n["proof_nodes"], "count"),
        "prop_prover.proved": (n["proved"], "count"),
        "prop_prover.refuted": (n["refuted"], "count"),
        "sequents.calls": (calls["sequents"], "count"),
        "sequents.busy_s": (busy["sequents"], "s"),
        "sequents.nodes_checked": (n["nodes_checked"], "count"),
        "sequents.failed": (n["check_failed"], "count"),
        "serialize.busy_s": (busy["serialize"], "s"),
        "serialize.bytes": (n["bytes"], "bytes"),
        "matrix.calls": (calls["matrix"], "count"),
        "matrix.busy_s": (busy["matrix"], "s"),
        "matrix.valid_busy_s": (n["valid_s"], "s"),
        "matrix.invalid_busy_s": (n["invalid_s"], "s"),
        "matrix.valuations": (n["valuations"], "count"),
        "matrix.valuations_per_s": (n["valuations"] / busy["matrix"] if busy["matrix"] else 0.0, "1/s"),
        "fo_semantics.calls": (calls["fo_semantics"], "count"),
        "fo_semantics.busy_s": (busy["fo_semantics"], "s"),
        "fo_semantics.assignments": (n["assignments"], "count"),
        "fo_prover.calls": (calls["fo_prover"], "count"),
        "fo_prover.busy_s": (busy["fo_prover"], "s"),
        "fo_prover.tree_busy_s": (busy["fo_prover.tree"], "s"),
        "fo_prover.tree_nodes": (n["tree_nodes"], "count"),
        "fo_prover.stages": (n["stages"], "count"),
        "fo_prover.closed": (n["status_closed"], "count"),
        "fo_prover.refuted": (n["status_refuted"], "count"),
        "fo_prover.stalled": (n["status_stalled"], "count"),
        "fo_prover.budget": (n["status_budget"], "count"),
        "fo_prover.extract_calls": (n["extract_calls"], "count"),
        "fo_prover.extract_hit_ratio": (n["extract_hits"] / n["extract_calls"] if n["extract_calls"] else 0.0, "ratio"),
        "fo_prover.check_busy_s": (fo_check, "s"),
        "fo_prover.assemble_self_s": (fo_self, "s"),
    }
