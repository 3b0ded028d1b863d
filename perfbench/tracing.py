"""Per-layer spans recorded around each layer's public function.

:func:`traced` swaps each layer entry point (``tokenize``, ``parse``,
``scan_includes``, ``check_program``, ...) for a wrapper that records a
span — name, start, end, parent and task id — in memory, plus the
layer's work counts, then puts the originals back.  Nothing in ``src/``
changes: the wrappers replace module attributes, and every ``repro``
module that imported the function by name gets the wrapper too.

Traced passes run inline (``--jobs 1``), so every span lands in this
process and every count is a deterministic function of the inputs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.websari.pipeline import count_statements

_clock = time.perf_counter

#: Layer entry points: (module, attribute, span name).  ``Class.method``
#: attributes are patched on the class.
LAYER_FUNCTIONS = (
    ("repro.engine.worker", "execute_task", "task"),
    ("repro.php.lexer", "tokenize", "php.lexer"),
    ("repro.php.parser", "parse", "php.parser"),
    ("repro.php.parsecache", "ParseCache.parse", "php.parsecache"),
    ("repro.php.includes", "scan_includes", "php.includes.scan"),
    ("repro.php.includes", "resolve_includes", "php.includes"),
    ("repro.ir.filter", "filter_program", "ir.filter"),
    ("repro.typestate.ts", "analyze_commands", "typestate"),
    ("repro.ai.translate", "translate_filter_result", "ai"),
    ("repro.ai.renaming", "rename", "ai.rename"),
    ("repro.bmc.encoder", "ConstraintGenerator.encode_all", "bmc.encode"),
    ("repro.bmc.checker", "check_program", "bmc.check"),
    ("repro.analysis.grouping", "group_errors", "analysis.grouping"),
    ("repro.replay", "replay_for_task", "replay"),
    ("repro.interp.interpreter", "run_php", "interp"),
    ("repro.engine.cache", "ResultCache.get", "engine.cache.read"),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.write"),
    ("repro.engine.cache", "HotResultCache.get", "engine.cache.read"),
    ("repro.engine.cache", "HotResultCache.put", "engine.cache.write"),
    ("repro.daemon.watcher", "TreeWatcher.poll", "daemon.poll"),
)

#: Per-layer metrics: name → unit, in report order.
PER_LAYER_UNITS = {
    "php.lexer.s": "s",
    "php.lexer.tokens": "count",
    "php.lexer.mb_per_s": "MB/s",
    "php.parser.s": "s",
    "php.parser.statements": "count",
    "php.parser.calls": "count",
    "php.includes.s": "s",
    "php.includes.edges": "count",
    "php.parsecache.s": "s",
    "php.parsecache.hits": "count",
    "php.parsecache.hit_ratio": "ratio",
    "ir.filter.s": "s",
    "ir.filter.commands": "count",
    "typestate.s": "s",
    "typestate.errors": "count",
    "ai.s": "s",
    "ai.assertions": "count",
    "ai.branches": "count",
    "bmc.encode.s": "s",
    "bmc.encode.vars": "count",
    "bmc.encode.clauses": "count",
    "bmc.check.s": "s",
    "bmc.check.counterexamples": "count",
    "bmc.check.truncated": "count",
    "sat.s": "s",
    "sat.solve_calls": "count",
    "sat.decisions": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.cache.hits": "count",
    "sat.cache.misses": "count",
    "sat.cache.hit_ratio": "ratio",
    "sat.cache.overhead_s": "s",
    "analysis.grouping.s": "s",
    "analysis.grouping.groups": "count",
    "replay.s": "s",
    "replay.traces": "count",
    "replay.confirmed_ratio": "ratio",
    "replay.parse_s": "s",
    "interp.s": "s",
    "engine.overhead_s": "s",
    "engine.pool_start_s": "s",
    "engine.cache.hits": "count",
    "engine.cache.read_s": "s",
    "engine.cache.write_s": "s",
    "daemon.poll_s": "s",
    "daemon.invalidated": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

class SpanRecorder:
    """Spans kept in memory: ``[id, parent, task, name, start, end, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task: str | None = None
        #: While positive, wrappers call straight through (used for the
        #: cache-less re-check that measures the SAT cache's overhead).
        self.suspended = 0

    def open(self, name: str, task: str | None = None) -> list:
        if task is not None:
            self._task = task
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._task, name, _clock(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[5] = _clock()
        self._stack.pop()

    def bookkeeping(self, started: float) -> None:
        """Record time the tracer itself spent (counting work) as a span of
        its own, so it is not charged to the enclosing layer."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, self._task, "trace", started, _clock(), None])

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "task", "name", "start", "end", "attrs")
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]))


def _counts(name: str, args, kwargs, result, before) -> dict | None:
    """Work counts for one finished call of a layer function."""
    if name == "php.lexer":
        return {"tokens": len(result), "bytes": len(args[0] if args else kwargs["source"])}
    if name == "php.parser":
        return {"statements": count_statements(result)}
    if name == "php.parsecache":
        return {"hit": args[0].hits - before}
    if name == "php.includes":
        return {"edges": len(result.edges)}
    if name == "ir.filter":
        return {"commands": len(result.commands.commands)}
    if name == "typestate":
        return {"errors": result.num_violations}
    if name == "ai":
        return {"assertions": result.num_assertions, "branches": result.num_branches}
    if name == "bmc.encode":
        return {"vars": args[0].cnf.num_vars, "clauses": args[0].cnf.num_clauses}
    if name == "bmc.check":
        stats = result.solver_stats
        counts = {
            "counterexamples": len(result.all_counterexamples()),
            "truncated": sum(1 for a in result.assertions if a.truncated),
            "solve_calls": result.num_solve_calls,
            "decisions": stats.get("decisions", 0),
            "conflicts": stats.get("conflicts", 0),
            "propagations": stats.get("propagations", 0),
        }
        cache = kwargs.get("sat_cache")
        if cache is not None:
            counts["cache_hits"] = cache.hits - before[0]
            counts["cache_misses"] = cache.misses - before[1]
        return counts
    if name == "analysis.grouping":
        return {"groups": result.num_groups}
    if name == "replay":
        return {
            "traces": result.get("confirmed", 0)
            + result.get("refuted", 0)
            + result.get("unsupported", 0),
            "confirmed": result.get("confirmed", 0),
        }
    return None


def _before(name: str, args, kwargs):
    if name == "php.parsecache":
        return args[0].hits
    if name == "bmc.check" and kwargs.get("sat_cache") is not None:
        return kwargs["sat_cache"].hits, kwargs["sat_cache"].misses
    return None


def _wrap(recorder: SpanRecorder, name: str, original):
    def wrapper(*args, **kwargs):
        if recorder.suspended:
            return original(*args, **kwargs)
        task = getattr(args[0], "filename", None) if name == "task" else None
        before = _before(name, args, kwargs)
        span = recorder.open(name, task)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        started = _clock()
        span[6] = _counts(name, args, kwargs, result, before)
        if name == "bmc.check" and kwargs.get("sat_cache") is not None:
            # The same check without the SAT cache: its cost against the
            # cached call is the cache's overhead (negative when it pays).
            recorder.suspended += 1
            try:
                plain = _clock()
                original(*args, **{**kwargs, "sat_cache": None})
                span[6]["uncached_s"] = _clock() - plain
            finally:
                recorder.suspended -= 1
        recorder.bookkeeping(started)
        return result

    wrapper.__wrapped__ = original
    return wrapper


@contextmanager
def traced(recorder: SpanRecorder):
    """Patch every layer entry point to record into ``recorder``."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attribute, span_name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, _wrap(recorder, span_name, original))
                continue
            original = getattr(module, attribute)
            wrapper = _wrap(recorder, span_name, original)
            # Every repro module that imported the function by name.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro"):
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            undo.append((loaded, name, original))
                            setattr(loaded, name, wrapper)
        yield recorder
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts from one traced pass's spans."""
    duration = {s[0]: s[5] - s[4] for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            covered[s[1]] += duration[s[0]]
    by_name: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s[3]
        by_name[name] += duration[s[0]] - covered[s[0]]
        total[name] += duration[s[0]]
        calls[name] += 1
        for key, value in (s[6] or {}).items():
            counts[f"{name}.{key}"] += value

    names = {s[0]: s[3] for s in spans}
    parents = {s[0]: s[1] for s in spans}

    def under(span_id: int, ancestor: str) -> bool:
        parent = parents[span_id]
        while parent is not None:
            if names[parent] == ancestor:
                return True
            parent = parents[parent]
        return False

    parse_in = {"replay": 0.0, "interp": 0.0}
    for s in spans:
        if s[3] == "php.parser":
            for ancestor in parse_in:
                if under(s[0], ancestor):
                    parse_in[ancestor] += duration[s[0]]

    lexer_s = by_name["php.lexer"]
    hits = counts["php.parsecache.hit"]
    lookups = calls["php.parsecache"]
    sat_hits = counts["bmc.check.cache_hits"]
    sat_lookups = sat_hits + counts["bmc.check.cache_misses"]
    traces = counts["replay.traces"]
    return {
        "php.lexer.s": lexer_s,
        "php.lexer.tokens": counts["php.lexer.tokens"],
        "php.lexer.mb_per_s": counts["php.lexer.bytes"] / 1e6 / lexer_s if lexer_s else 0.0,
        "php.parser.s": by_name["php.parser"],
        "php.parser.statements": counts["php.parser.statements"],
        "php.parser.calls": calls["php.parser"],
        "php.includes.s": by_name["php.includes"] + by_name["php.includes.scan"],
        "php.includes.edges": counts["php.includes.edges"],
        "php.parsecache.s": by_name["php.parsecache"],
        "php.parsecache.hits": hits,
        "php.parsecache.hit_ratio": hits / lookups if lookups else 0.0,
        "ir.filter.s": by_name["ir.filter"],
        "ir.filter.commands": counts["ir.filter.commands"],
        "typestate.s": by_name["typestate"],
        "typestate.errors": counts["typestate.errors"],
        "ai.s": by_name["ai"] + by_name["ai.rename"],
        "ai.assertions": counts["ai.assertions"],
        "ai.branches": counts["ai.branches"],
        "bmc.encode.s": by_name["bmc.encode"],
        "bmc.encode.vars": counts["bmc.encode.vars"],
        "bmc.encode.clauses": counts["bmc.encode.clauses"],
        "bmc.check.s": total["bmc.check"],
        "bmc.check.counterexamples": counts["bmc.check.counterexamples"],
        "bmc.check.truncated": counts["bmc.check.truncated"],
        "sat.s": by_name["bmc.check"],
        "sat.solve_calls": counts["bmc.check.solve_calls"],
        "sat.decisions": counts["bmc.check.decisions"],
        "sat.conflicts": counts["bmc.check.conflicts"],
        "sat.propagations": counts["bmc.check.propagations"],
        "sat.cache.hits": sat_hits,
        "sat.cache.misses": counts["bmc.check.cache_misses"],
        "sat.cache.hit_ratio": sat_hits / sat_lookups if sat_lookups else 0.0,
        "sat.cache.overhead_s": total["bmc.check"] - counts["bmc.check.uncached_s"],
        "analysis.grouping.s": by_name["analysis.grouping"],
        "analysis.grouping.groups": counts["analysis.grouping.groups"],
        "replay.s": total["replay"],
        "replay.traces": traces,
        "replay.confirmed_ratio": counts["replay.confirmed"] / traces if traces else 0.0,
        "replay.parse_s": parse_in["replay"],
        "interp.s": total["interp"] - parse_in["interp"],
        "engine.cache.read_s": by_name["engine.cache.read"],
        "engine.cache.write_s": by_name["engine.cache.write"],
        "daemon.poll_s": by_name["daemon.poll"],
        "trace.spans": len(spans),
    }
