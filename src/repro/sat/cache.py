"""SAT-level query memoization: the cold-run accelerator.

The engine's file-level :class:`~repro.engine.cache.ResultCache` only
pays off when an *identical file* is re-audited.  Real PHP corpora (and
the Figure-10 generator) are full of structurally identical code shapes
under different identifier names: every such file re-runs the same CDCL
queries against a CNF that differs only in absolute variable indices.
This module memoizes at that level.

**Canonical CNF fingerprint.**  A :class:`CachingSatSolver` observes the
exact clause stream fed to the backend solver and renames variables by
first occurrence (clauses in insertion order, literals in clause order).
Two clause streams that are identical up to a variable renaming that
preserves emission order — which is what the deterministic
filter → AI → Tseitin pipeline produces for repeated code shapes — hash
to the same SHA-256 fingerprint.  The hash is maintained *incrementally*
(one update per added clause, ``hash.copy()`` per query), so a solve
call costs O(new clauses + assumptions) to fingerprint, not O(formula).
Each ``solve(assumptions)`` query is keyed by the running clause-stream
hash extended with the canonically renamed assumptions, which makes the
whole blocked-enumeration sequence of the BMC checker cacheable: the
k-th query of an assertion's counterexample loop in file B hits the
entry the k-th query in shape-identical file A stored.

**Stored outcome.**  ``UNSAT`` entries store the verdict alone; ``SAT``
entries store the model restricted to the canonical variables, renamed.
On a hit the model is renamed back through the (bijective) canonical map
and completed with ``False`` for variables that appear in no clause —
exactly the value both backend solvers assign to unconstrained
variables, so replayed enumerations are verdict- and trace-identical to
solved ones.

**Sharing.**  :class:`SatQueryCache` is the store: an in-memory LRU for
one process/run plus optional on-disk persistence using the same
git-object fan-out layout and atomic write discipline as the engine's
result cache (``<dir>/<key[:2]>/<key>.json``), so concurrent workers and
consecutive runs can share a directory safely.  Keys embed
:data:`SAT_CACHE_VERSION` and the backend name, so format changes and
backend-specific models never alias.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

from repro.sat.cnf import CNF
from repro.sat.solver import SolveResult, SolverStats

__all__ = ["SAT_CACHE_VERSION", "SatQueryCache", "CachingSatSolver"]

#: Bump whenever the fingerprint scheme or record layout changes; stale
#: on-disk entries then become misses instead of wrong answers.
#: (2: learned-clause records joined the keyspace and the CDCL backend
#: became incremental, which changes the counters embedded in records.
#: Learned-clause records are no longer written or read; query records
#: are unchanged, so warm version-2 caches stay valid.)
SAT_CACHE_VERSION = "2"


class SatQueryCache:
    """Fingerprint → solve-outcome store shared across solver instances.

    In-memory LRU bounded by ``max_entries``; with ``persist_dir`` set,
    entries are additionally written to disk (atomic temp-file + rename,
    tolerating concurrent writers) and disk lookups backfill the LRU.
    Picklable: the LRU contents are dropped on pickling so shipping the
    cache to spawn-start workers stays cheap — workers re-warm from disk.
    """

    def __init__(self, persist_dir: str | Path | None = None, max_entries: int = 65536) -> None:
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        self.max_entries = max_entries
        self._memo: OrderedDict[str, dict] = OrderedDict()
        #: Process-local probe counters (informational; the per-solve
        #: counters that feed reports live in SolverStats).
        self.hits = 0
        self.misses = 0

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "persist_dir": self.persist_dir,
            "max_entries": self.max_entries,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["persist_dir"], state["max_entries"])

    # -- store ------------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.persist_dir is not None
        return self.persist_dir / key[:2] / f"{key}.json"

    @staticmethod
    def _valid(record: object) -> bool:
        return (
            isinstance(record, dict)
            and isinstance(record.get("sat"), bool)
            and isinstance(record.get("true"), list)
            and all(isinstance(v, int) for v in record["true"])
        )

    def get(self, key: str) -> dict | None:
        record = self._memo.get(key)
        if record is not None:
            self._memo.move_to_end(key)
            self.hits += 1
            return record
        if self.persist_dir is not None:
            path = self._path(key)
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                record = None
            if record is not None and self._valid(record):
                self._remember(key, record)
                self.hits += 1
                return record
            if record is not None:  # corrupt: evict
                try:
                    path.unlink()
                except OSError:
                    pass
        self.misses += 1
        return None

    def put(self, key: str, record: dict) -> None:
        self._remember(key, record)
        if self.persist_dir is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(record, handle, sort_keys=True)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        except OSError:
            pass  # persistence is best-effort; the LRU entry stands

    def _remember(self, key: str, record: dict) -> None:
        self._memo[key] = record
        self._memo.move_to_end(key)
        while len(self._memo) > self.max_entries:
            self._memo.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memo)


class CachingSatSolver:
    """Memoizing facade over a backend solver.

    Implements the incremental-solver surface the BMC checker uses
    (``add_formula`` / ``add_clause`` / ``solve(assumptions)``) and
    delegates to ``inner`` (a :class:`~repro.sat.solver.CDCLSolver` or
    :class:`~repro.sat.dpll.IncrementalDPLL`) on misses.  Hits skip the
    backend entirely and replay the stored model through the inverse
    canonical renaming.  Per-call :class:`SolverStats` report exactly one
    of ``cache_hits``/``cache_misses`` per solve, so existing stats
    plumbing surfaces the hit rate end to end.
    """

    def __init__(
        self,
        inner,
        cache: SatQueryCache,
        backend: str = "cdcl",
    ) -> None:
        self._inner = inner
        self._cache = cache
        self._canon: dict[int, int] = {}  # original var -> canonical var
        self._max_var = 0
        #: Clauses not yet fed to ``inner``: the backend is materialized
        #: lazily, on the first cache *miss*.  A fully-warm enumeration
        #: never pays the backend's clause-database / watch-list setup —
        #: on repeated-shape corpora that setup dominates the hit path.
        self._pending: list[CNF | tuple[int, ...]] = []
        seed = hashlib.sha256()
        seed.update(b"repro-sat-cache\x00")
        seed.update(SAT_CACHE_VERSION.encode())
        seed.update(b"\x00")
        seed.update(backend.encode())
        seed.update(b"\x00")
        self._hash = seed
        self.stats = SolverStats()
        #: Canonical-CNF fingerprint of the most recent solve() — the slow-
        #: query ledger's stable cross-node query identity.
        self.last_query_key: str | None = None

    # -- canonicalization --------------------------------------------------

    def _feed(self, literals: Iterable[int]) -> None:
        canon = self._canon
        parts: list[str] = []
        max_var = self._max_var
        for lit in literals:
            var = abs(lit)
            if var > max_var:
                max_var = var
            c = canon.get(var)
            if c is None:
                c = len(canon) + 1
                canon[var] = c
            parts.append(str(c) if lit > 0 else str(-c))
        self._max_var = max_var
        self._hash.update(",".join(parts).encode())
        self._hash.update(b";")

    # -- solver surface ----------------------------------------------------

    def add_formula(self, formula: CNF) -> None:
        for clause in formula.clauses:
            self._feed(clause)
        self._max_var = max(self._max_var, formula.num_vars)
        self._pending.append(formula)

    def add_clause(self, literals: Iterable[int]) -> None:
        lits = tuple(literals)
        self._feed(lits)
        self._pending.append(lits)

    def _flush(self) -> None:
        for item in self._pending:
            if isinstance(item, CNF):
                self._inner.add_formula(item)
            else:
                self._inner.add_clause(item)
        self._pending.clear()

    def solve(self, assumptions: Iterable[int] = ()) -> SolveResult:
        assumptions = tuple(assumptions)
        key = self._query_key(assumptions)
        # Exposed for observability: the BMC checker records this as the
        # slow-query ledger fingerprint, tying hard queries back to their
        # canonical-CNF cache entries.
        self.last_query_key = key
        record = self._cache.get(key)
        if record is not None:
            self.stats = SolverStats(cache_hits=1)
            if not record["sat"]:
                return SolveResult(satisfiable=False, stats=self.stats)
            return SolveResult(
                satisfiable=True,
                model=self._replay_model(record["true"], assumptions),
                stats=self.stats,
            )
        self._flush()
        result = self._inner.solve(assumptions=assumptions)
        self.stats = result.stats
        result.stats.cache_misses += 1
        if result.satisfiable:
            self._cache.put(
                key,
                {
                    "sat": True,
                    "true": sorted(
                        c for orig, c in self._canon.items() if result.model.get(orig)
                    ),
                },
            )
        else:
            self._cache.put(key, {"sat": False, "true": []})
        return result

    def _query_key(self, assumptions: tuple[int, ...]) -> str:
        """Clause-stream hash extended with the renamed assumptions.

        Assumption variables that never appeared in a clause get
        per-query overlay ids (not committed to the canonical map, so a
        later clause mentioning them still canonicalizes identically
        whether or not this query happened).
        """
        query = self._hash.copy()
        overlay: dict[int, int] = {}
        parts: list[str] = []
        for lit in assumptions:
            var = abs(lit)
            c = self._canon.get(var)
            if c is None:
                c = overlay.get(var)
                if c is None:
                    c = len(self._canon) + len(overlay) + 1
                    overlay[var] = c
            parts.append(str(c) if lit > 0 else str(-c))
        query.update(b"|")
        query.update(",".join(parts).encode())
        return query.hexdigest()

    def _replay_model(
        self, true_canon: list[int], assumptions: tuple[int, ...]
    ) -> dict[int, bool]:
        true_set = set(true_canon)
        model = {orig: c in true_set for orig, c in self._canon.items()}
        for var in range(1, self._max_var + 1):
            model.setdefault(var, False)
        # Assumption variables outside every clause are unconstrained
        # except by the assumption itself; honor it.
        for lit in assumptions:
            if abs(lit) not in self._canon:
                model[abs(lit)] = lit > 0
        return model
