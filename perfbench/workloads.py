"""The benchmark's workloads: seeded inputs, one pass of work, known answers.

Every workload is a closed loop over the real pipeline entry points
(``AuditEngine.run`` over closure-scoped project tasks, or
``WatchLoop.run_cycle``).  The seed only renames project directories and
picks the edit order, so every seed does the same amount
of work and the expected answers never come from the analyzer:

* Figure-10 projects: each project's TS and BMC totals equal its row of
  ``repro.corpus.catalog`` (the paper's table).
* Replay: every replayed counterexample is confirmed and its patched
  re-run is refuted.
* Watch: after every edit cycle the edited project still matches its
  catalog row (the edits only rewrite a comment).
"""

from __future__ import annotations

import random
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.corpus import FIGURE_10
from repro.corpus.generator import generate_catalog_project
from repro.daemon.loop import WatchLoop
from repro.engine import AuditEngine, AuditTask, EngineConfig, HotResultCache, ResultCache
from repro.engine.worker import project_content_digest
from repro.php.includes import SourceProject, scan_includes
from repro.php.parsecache import IncludeGraph, ParseCache
from repro.sat.cache import SatQueryCache
from repro.websari.pipeline import WebSSARI

#: Catalog indices of the projects that ``fig10-replay`` replays and
#: ``watch-edit`` edits: the odd rows, 19 projects that leave out the
#: two largest (PHP Surveyor, InfoCentral) and keep a pass near 3-4 s.
SUBSET = tuple(range(1, len(FIGURE_10), 2))

#: The replay answer: each trace's verdict, and its patched re-run's.
EXPECTED_TRACE = "confirmed"
EXPECTED_PATCHED = "refuted"

#: The edit marker every watched file ends with.  Cycles rewrite its
#: number, so a file's size never changes and no verdict can.
_MARK_WIDTH = 8


@dataclass
class PassResult:
    """What one pass did, and how its verdicts compared with the answers."""

    wall: float
    cpu: float
    #: Seconds to each verdict: per entry, or per cycle for ``watch-edit``.
    latencies: list[float]
    attempted: int
    failed: int
    #: Stage-by-stage verdicts, compared between traced and untraced passes.
    signature: list[tuple]
    #: Summed per-task analysis seconds (the workers' stage timings).
    task_seconds: float = 0.0
    cache_hits: int = 0
    invalidated: int = 0
    problems: list[str] = field(default_factory=list)


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def outcome_signature(outcome) -> tuple:
    replay = outcome.replay or {}
    return (
        outcome.filename,
        outcome.status,
        outcome.safe,
        outcome.ts_errors,
        outcome.bmc_groups,
        outcome.num_statements,
        outcome.num_ai_branches,
        outcome.num_ai_assertions,
        tuple(
            replay.get(key, 0)
            for key in ("confirmed", "refuted", "unsupported", "patched_refuted", "skipped")
        ),
    )


class VerdictClock:
    """Per-entry time to a verdict as the scheduler sees it.

    An entry's clock starts when its task reaches the head of a worker's
    queue: when the scheduler sends it to an idle worker, or when it
    finalizes the task queued ahead of it on that worker.  It stops when
    ``AuditEngine._finalize`` (result-cache put included) returns.  So it
    holds the pickle and send of the task, the worker's run, the result's
    trip back and the finalize.  Inline entries, which are never sent,
    take the worker-side duration plus their finalize.

    :meth:`installed` wraps the two ``AuditEngine`` methods on the class
    for the length of one pass; nothing in ``src/`` changes.
    """

    def __init__(self) -> None:
        self.latencies: dict[int, float] = {}
        self._sent: dict[int, tuple[int, float]] = {}
        self._rearmed: dict[int, float] = {}

    @contextmanager
    def installed(self):
        dispatch, finalize = AuditEngine._dedupe_for_pipe, AuditEngine._finalize
        clock = self

        def timed_dispatch(engine, task, shipped, stats):
            # ``shipped`` is the worker's own set: it names the worker.
            clock._sent[task.index] = (id(shipped), time.perf_counter())
            return dispatch(engine, task, shipped, stats)

        def timed_finalize(engine, outcome, task, *rest):
            began = time.perf_counter()
            finalize(engine, outcome, task, *rest)
            ended = time.perf_counter()
            sent = clock._sent.pop(task.index, None)
            if sent is None:
                clock.latencies[task.index] = outcome.duration + ended - began
                return
            worker, at = sent
            head = max(at, clock._rearmed.get(worker, at))
            clock._rearmed[worker] = began
            clock.latencies[task.index] = ended - head

        AuditEngine._dedupe_for_pipe, AuditEngine._finalize = timed_dispatch, timed_finalize
        try:
            yield self
        finally:
            AuditEngine._dedupe_for_pipe, AuditEngine._finalize = dispatch, finalize


# -- Figure-10 tree ------------------------------------------------------------


def fig10_tree(seed: int, indices=None) -> tuple[dict[str, str], dict[str, int]]:
    """The catalog projects as one tree: ``(files, catalog index by dir)``.

    Directory names carry a seeded tag; the project sources are the
    catalog generator's own.  Projects stay in catalog order: the order
    decides which large entries run side by side on the two workers, and
    a seeded order would make the tail latency depend on the seed.
    """
    tag = f"{random.Random(seed).getrandbits(32):08x}"
    files: dict[str, str] = {}
    dirs: dict[str, int] = {}
    for index in range(len(FIGURE_10)) if indices is None else indices:
        generated = generate_catalog_project(FIGURE_10[index])
        directory = f"p{index:02d}-{tag}"
        dirs[directory] = index
        for path in generated.project.paths():
            files[f"{directory}/{path}"] = generated.project.source(path)
    return files, dirs


def write_tree(root: Path, files: dict[str, str]) -> None:
    for path, text in files.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


def read_projects(root: Path, dirs) -> dict[str, SourceProject]:
    """Each project read from disk, rooted at its own directory (the way
    ``repro.corpus`` projects reach ``verify_project``), in the given order."""
    projects = {}
    for directory in dirs:
        base = root / directory
        project = SourceProject()
        for path in sorted(base.rglob("*.php")):
            project.add_file(str(path.relative_to(base)), path.read_text())
        projects[directory] = project
    return projects


def project_tasks(projects: dict[str, SourceProject], parse_hook) -> list[AuditTask]:
    """Closure-scoped entry tasks of every project, built the way
    ``verify_project`` builds them.  A task's filename is ``<dir>/<entry>``."""
    tasks: list[AuditTask] = []
    for directory, project in projects.items():
        files = {path: project.source(path) for path in project.paths()}
        whole_digest = None
        for path in project.paths():
            scan = scan_includes(project, path, parse_hook=parse_hook)
            if scan.widened:
                if whole_digest is None:
                    whole_digest = project_content_digest(files)
                closure, digest = files, whole_digest
            else:
                closure, digest = {p: files[p] for p in sorted(scan.closure)}, None
            tasks.append(
                AuditTask(
                    index=len(tasks),
                    filename=f"{directory}/{path}",
                    project_files=closure,
                    entry=path,
                    closure_widened=scan.widened,
                    project_digest=digest,
                )
            )
    return tasks


def catalog_mismatches(totals: dict[str, list[int]], dirs: dict[str, int]) -> list[str]:
    """Projects whose (TS, BMC) totals differ from their catalog row."""
    problems = []
    for directory, index in dirs.items():
        entry = FIGURE_10[index]
        got = totals.get(directory, [0, 0])
        if got != [entry.ts_errors, entry.bmc_groups]:
            problems.append(
                f"{entry.name}: TS/BMC {got[0]}/{got[1]}, "
                f"catalog {entry.ts_errors}/{entry.bmc_groups}"
            )
    return problems


def replay_failures(outcome) -> tuple[int, int, list[str]]:
    """(traces replayed, traces failing the answer, problems) for one entry:
    a vulnerable entry must be replayed, each trace confirmed and its
    patched re-run refuted."""
    section = outcome.replay or {}
    traces = section.get("traces", [])
    problems = [
        f"{outcome.filename}: trace {t.get('verdict')}, patched {t.get('patched')}"
        for t in traces
        if t.get("verdict") != EXPECTED_TRACE or t.get("patched") != EXPECTED_PATCHED
    ]
    if "error" in section:
        problems.append(f"{outcome.filename}: replay error {section['error']}")
    if outcome.safe is False and not traces:
        problems.append(f"{outcome.filename}: vulnerable but nothing was replayed")
    return len(traces), len(problems), problems


# -- workloads -----------------------------------------------------------------


class Workload:
    """One named workload.  ``setup`` builds its inputs under ``root``;
    ``run_pass`` does one full pass and checks it against the answers."""

    name = ""
    jobs = 1
    #: Catalog rows of the Figure-10 workloads (None: all 38).
    indices = None

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self._passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, jobs: int | None = None) -> PassResult:
        raise NotImplementedError


class Fig10Audit(Workload):
    """The 38 Figure-10 projects through ``AuditEngine.run`` with
    ``repro audit``'s default caches, fresh per pass."""

    name = "fig10-cold"
    jobs = 2
    replay = False

    def setup(self) -> None:
        files, self.dirs = fig10_tree(self.seed, self.indices)
        self.tree = self.root / "tree"
        write_tree(self.tree, files)

    def run_pass(self, jobs: int | None = None) -> PassResult:
        """One ``AuditEngine.run`` with ``repro audit``'s default caches in
        a fresh empty directory, checked against the catalog."""
        self._passes += 1
        cache_dir = self.root / f"cache-{self._passes}"
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        websari = WebSSARI(sat_cache=SatQueryCache(), parse_cache=ParseCache(), replay=self.replay)
        websari.attach_persistent_sat_cache(cache_dir)
        websari.attach_persistent_parse_cache(cache_dir)
        config = EngineConfig(jobs=jobs or self.jobs, cache=ResultCache(cache_dir))
        tasks = project_tasks(read_projects(self.tree, self.dirs), websari.parse_cache.parse)
        with VerdictClock().installed() as clock:
            result = AuditEngine(websari=websari, config=config).run(tasks)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        shutil.rmtree(cache_dir, ignore_errors=True)

        totals: dict[str, list[int]] = {}
        problems: list[str] = []
        failed = traces = 0
        for outcome in result.outcomes:
            if outcome.status != "ok":
                problems.append(f"{outcome.filename}: {outcome.status} {outcome.error}")
                failed += 1
                continue
            row = totals.setdefault(outcome.filename.split("/", 1)[0], [0, 0])
            row[0] += outcome.ts_errors
            row[1] += outcome.bmc_groups
            if self.replay:
                count, bad, why = replay_failures(outcome)
                traces += count
                failed += bad
                problems += why
        mismatches = catalog_mismatches(totals, self.dirs)
        problems += mismatches
        failed += len(mismatches)
        attempted = max(traces, 1) if self.replay else len(result.outcomes)
        return PassResult(
            wall=wall,
            cpu=cpu,
            latencies=[clock.latencies[task.index] for task in tasks],
            attempted=attempted,
            failed=min(failed, attempted),
            signature=[outcome_signature(o) for o in result.outcomes],
            task_seconds=sum(sum(o.timings.values()) for o in result.outcomes),
            cache_hits=result.stats.cache_hits,
            problems=problems,
        )


class Fig10Replay(Fig10Audit):
    """The ``SUBSET`` projects, as ``fig10-cold`` but with witness replay on."""

    name = "fig10-replay"
    replay = True
    indices = SUBSET


def _marked(path: str, text: str, number: int) -> str:
    """``text`` ending in the edit marker: a line comment where the file
    ends inside PHP, a PHP block holding it where the file ends in HTML."""
    mark = f"perfbench edit {number:0{_MARK_WIDTH}d}"
    if text.rfind("?>") < text.rfind("<?php"):
        return f"{text}// {mark}\n"
    return f"{text}<?php /* {mark} */ ?>\n"


class WatchEdit(Workload):
    """``WatchLoop.run_cycle`` over the Figure-10 tree, one edit per cycle."""

    name = "watch-edit"
    jobs = 2
    indices = SUBSET

    def setup(self) -> None:
        files, self.dirs = fig10_tree(self.seed, self.indices)
        self.texts = {path: _marked(path, text, 0) for path, text in files.items()}
        self.tree = self.root / "tree"
        write_tree(self.tree, self.texts)
        # Two cycles per project: its shared library (every includer
        # re-audits) and one seeded leaf page.
        rng = random.Random(self.seed ^ 0x5EED)
        self.edits: list[str] = []
        for directory in self.dirs:
            pages = sorted(
                p for p in files if p.startswith(directory + "/page") and p.endswith(".php")
            )
            pair = [f"{directory}/lib/common.php", rng.choice(pages)]
            rng.shuffle(pair)
            self.edits += pair
        cache_dir = self.root / "cache"
        websari = WebSSARI(sat_cache=SatQueryCache(), parse_cache=ParseCache())
        websari.attach_persistent_sat_cache(cache_dir)
        websari.attach_persistent_parse_cache(cache_dir)
        self.loop = WatchLoop(
            self.tree,
            websari,
            cache=HotResultCache(cache_dir),
            jobs=self.jobs,
            debounce=0.0,
            include_graph=IncludeGraph(cache_dir / "include-graph.json"),
        )
        self.records: dict[str, tuple[int, int]] = {}
        self.number = 0
        # The cold cycle that audits the whole tree and fills the caches.
        cycle = self.loop.run_cycle()
        problems = self._record(cycle)
        if cycle is None or len(cycle.result.outcomes) != len(files):
            problems.append("warm-up cycle did not audit the whole tree")
        totals = self._totals(self.dirs)
        problems += catalog_mismatches(totals, self.dirs)
        if problems:
            raise RuntimeError("watch-edit warm-up: " + "; ".join(problems[:5]))

    def _record(self, cycle) -> list[str]:
        if cycle is None:
            return ["cycle saw no change"]
        problems = []
        for outcome in cycle.result.outcomes:
            rel = str(Path(outcome.filename).relative_to(self.tree))
            if outcome.status != "ok":
                problems.append(f"{rel}: {outcome.status} {outcome.error}")
                self.records.pop(rel, None)
                continue
            self.records[rel] = (outcome.ts_errors, outcome.bmc_groups)
        return problems

    def _totals(self, dirs) -> dict[str, list[int]]:
        totals: dict[str, list[int]] = {}
        for rel, (ts, bmc) in self.records.items():
            directory = rel.split("/", 1)[0]
            if directory in dirs:
                row = totals.setdefault(directory, [0, 0])
                row[0] += ts
                row[1] += bmc
        return totals

    def run_pass(self, jobs: int | None = None) -> PassResult:
        self.loop.jobs = jobs or self.jobs
        latencies: list[float] = []
        signature: list[tuple] = []
        problems: list[str] = []
        failed = hits = invalidated = 0
        task_seconds = 0.0
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for path in self.edits:
            self.number += 1
            text = _marked(path, self.texts[path], self.number)
            began = time.perf_counter()
            (self.tree / path).write_text(text)
            cycle = self.loop.run_cycle()
            latencies.append(time.perf_counter() - began)
            why = self._record(cycle)
            directory = path.split("/", 1)[0]
            why += catalog_mismatches(self._totals({directory}), {directory: self.dirs[directory]})
            if why:
                failed += 1
                problems += why
            if cycle is not None:
                hits += cycle.result.stats.cache_hits
                invalidated += len(cycle.invalidated)
                task_seconds += sum(sum(o.timings.values()) for o in cycle.result.outcomes)
                signature.append(
                    (path, len(cycle.invalidated))
                    + tuple(outcome_signature(o)[1:] for o in cycle.result.outcomes)
                )
        wall = time.perf_counter() - start
        return PassResult(
            wall=wall,
            cpu=cpu_seconds() - cpu0,
            latencies=latencies,
            attempted=len(self.edits),
            failed=failed,
            signature=signature,
            task_seconds=task_seconds,
            cache_hits=hits,
            invalidated=invalidated,
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (Fig10Audit, Fig10Replay, WatchEdit)}
