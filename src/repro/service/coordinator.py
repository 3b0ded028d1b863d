"""The ``repro serve`` coordinator: an HTTP audit service.

One :class:`Coordinator` process owns the corpus state; any number of
``repro work --connect`` nodes pull from it.  The flow:

1. A client **submits** a project — inline JSON files, a tar archive, or
   a path local to the coordinator.  Each ``.php`` file becomes one
   task in a :class:`~repro.service.leases.LeaseQueue`.
2. Worker nodes **register** (policy fingerprints must agree — a node
   running a different prelude would merge incomparable verdicts),
   then **lease** task batches, audit them through their local worker
   pool, and **report** one JSON outcome record per task.
3. Node loss is handled by the lease clock: no heartbeat → leases
   expire → tasks re-queue → another node completes them.  First result
   wins; duplicates are rejected, so the merged stream has exactly one
   record per file.
4. Clients stream **merged JSONL** per job: file records in submission
   order (each attributed to the node that produced it), one per-node
   ``stats`` trailer, and — once the job is complete — a global
   ``stats`` trailer identical in shape to a single-box ``repro audit
   --jsonl`` run, so ``repro report`` (and ``--diff``) consume it
   unchanged.

Observability mirrors the in-process engine: ``/metrics`` serves a live
Prometheus snapshot, ``/healthz`` a liveness JSON, and with a tracer
attached each reported outcome is stitched into a per-file span whose
children reconstruct the worker's stage timings — one trace for the
whole fleet.

Endpoints (all request/response bodies JSON unless noted)::

    POST /api/submit            {"files": {path: source}, "name"?} |
                                {"path": dir-on-coordinator} |
                                raw tar body (Content-Type: */x-tar)
    POST /api/workers/register  {"node": name, "policy"?: fingerprint}
    POST /api/workers/heartbeat {"worker_id", "metrics"?: snapshot}
    POST /api/workers/release   {"worker_id", "metrics"?: snapshot}
    POST /api/lease             {"worker_id", "max"?: n, "metrics"?: snapshot}
    POST /api/result            {"worker_id", "task_id", "record"}
    GET  /api/jobs              job summaries
    GET  /api/jobs/<id>         one job's status counters
    GET  /api/jobs/<id>/results merged JSONL stream (application/x-ndjson)
    GET  /metrics               Prometheus text (fleet + service series)
    GET  /healthz               liveness JSON

``metrics`` payloads are cumulative :meth:`MetricsRegistry.snapshot`
dicts; the coordinator delta-merges them (node-restart tolerant) into
node-labelled and fleet-summed series on its ``/metrics`` endpoint.

See docs/SERVICE.md for the architecture and failure model.
"""

from __future__ import annotations

import io
import json
import tarfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.jsonl import JsonlSink
from repro.engine.stats import EngineStats
from repro.engine.worker import FileOutcome
from repro.obs import STAGES, FleetMetrics, MetricsRegistry, Span, Tracer
from repro.obs.ledger import SlowQueryLedger
from repro.obs.metrics import DEFAULT_QUANTILES, PROMETHEUS_CONTENT_TYPE
from repro.service.httpbase import HttpEndpoint, HttpError
from repro.service.leases import LeaseQueue

__all__ = ["Coordinator", "ServiceTask", "AuditJob", "WorkerInfo"]


@dataclass
class ServiceTask:
    """One file-level unit of distributed work."""

    task_id: str
    job_id: str
    index: int
    filename: str
    source: str
    #: Outcome record as reported by a node (None until settled).
    record: dict | None = None
    #: Name of the node whose result was accepted.
    node: str | None = None

    def wire_payload(self) -> dict:
        return {
            "task_id": self.task_id,
            "filename": self.filename,
            "source": self.source,
        }


@dataclass
class AuditJob:
    """One submitted corpus and its tasks."""

    job_id: str
    name: str
    created: float
    tasks: list[ServiceTask] = field(default_factory=list)
    finished: float | None = None

    @property
    def done_count(self) -> int:
        return sum(1 for task in self.tasks if task.record is not None)

    @property
    def complete(self) -> bool:
        return bool(self.tasks) and self.done_count == len(self.tasks)

    def status(self) -> dict:
        return {
            "job_id": self.job_id,
            "name": self.name,
            "tasks": len(self.tasks),
            "done": self.done_count,
            "complete": self.complete,
        }


@dataclass
class WorkerInfo:
    """One registered worker node."""

    worker_id: str
    node: str
    registered: float
    last_seen: float
    completed: int = 0
    rejected: int = 0
    #: The node has seen the drain flag on a lease response (it will make
    #: no further lease requests and is about to exit 0).
    saw_drain: bool = False
    #: The node handed its leases back (clean exit completed).
    released: bool = False


class Coordinator(HttpEndpoint):
    """HTTP coordinator for a fleet of ``repro work`` nodes."""

    thread_name = "repro-serve-coordinator"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = 60.0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        jsonl_dir: str | Path | None = None,
        clock=time.monotonic,
    ) -> None:
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Delta-merges node registry snapshots (piggybacked on heartbeat /
        #: lease / release requests) into ``self.metrics`` as node-labelled
        #: plus fleet-summed series, so one scrape covers the whole fleet.
        self.fleet = FleetMetrics(self.metrics)
        self.tracer = tracer
        self.jsonl_dir = Path(jsonl_dir) if jsonl_dir is not None else None
        self.queue = LeaseQueue(timeout=lease_timeout, clock=clock)
        self.draining = threading.Event()
        self._state = threading.RLock()
        self._jobs: dict[str, AuditJob] = {}
        self._tasks: dict[str, ServiceTask] = {}
        self._workers: dict[str, WorkerInfo] = {}
        self._policy_fp: str | None = None
        self._job_seq = 0
        self._worker_seq = 0
        super().__init__(host, port)

    # -- job intake ---------------------------------------------------------

    def submit_files(self, files: dict[str, str], name: str = "") -> AuditJob:
        """Create a job from ``{path: source}`` and enqueue its tasks.

        Paths are sorted so task order (and therefore the merged stream
        order) is deterministic regardless of submission dict order.
        """
        php = {path: text for path, text in files.items() if path.endswith(".php")}
        if not php:
            raise HttpError(400, "submission contains no .php files")
        with self._state:
            self._job_seq += 1
            job_id = f"job-{self._job_seq:04d}"
            job = AuditJob(job_id=job_id, name=name or job_id, created=self.clock())
            for index, path in enumerate(sorted(php)):
                task = ServiceTask(
                    task_id=f"{job_id}:{index:06d}",
                    job_id=job_id,
                    index=index,
                    filename=path,
                    source=php[path],
                )
                job.tasks.append(task)
                self._tasks[task.task_id] = task
                self.queue.add(task.task_id)
            self._jobs[job_id] = job
        self.metrics.counter(
            "repro_service_jobs_total", "submitted audit jobs"
        ).inc()
        self.metrics.counter(
            "repro_service_tasks_total", "file-level tasks by event"
        ).inc(len(job.tasks), event="enqueued")
        return job

    def submit_path(self, root: str | Path, name: str = "") -> AuditJob:
        """Submit a directory (or single file) local to the coordinator."""
        root = Path(root)
        if root.is_dir():
            files = {
                str(path): path.read_text()
                for path in sorted(root.rglob("*.php"))
                if path.is_file()
            }
        elif root.is_file():
            files = {str(root): root.read_text()}
        else:
            raise HttpError(400, f"no such path on coordinator: {root}")
        return self.submit_files(files, name=name or str(root))

    def submit_tar(self, payload: bytes, name: str = "") -> AuditJob:
        """Submit a tar archive (member paths become task filenames)."""
        files: dict[str, str] = {}
        try:
            with tarfile.open(fileobj=io.BytesIO(payload)) as archive:
                for member in archive.getmembers():
                    if not member.isfile() or not member.name.endswith(".php"):
                        continue
                    handle = archive.extractfile(member)
                    if handle is None:
                        continue
                    files[member.name] = handle.read().decode(errors="replace")
        except tarfile.TarError as exc:
            raise HttpError(400, f"unreadable tar submission: {exc}")
        return self.submit_files(files, name=name)

    # -- worker lifecycle ---------------------------------------------------

    def register_worker(self, node: str, policy_fp: str | None = None) -> WorkerInfo:
        with self._state:
            if policy_fp:
                if self._policy_fp is None:
                    self._policy_fp = policy_fp
                elif policy_fp != self._policy_fp:
                    raise HttpError(
                        409,
                        "policy fingerprint mismatch: node runs a different "
                        "prelude/options than this fleet; verdicts would not "
                        "be comparable",
                    )
            self._worker_seq += 1
            now = self.clock()
            worker = WorkerInfo(
                worker_id=f"{node}#{self._worker_seq}",
                node=node,
                registered=now,
                last_seen=now,
            )
            self._workers[worker.worker_id] = worker
        self.metrics.counter(
            "repro_service_workers_registered_total", "worker node registrations"
        ).inc()
        return worker

    def _touch_worker(self, worker_id: str) -> WorkerInfo:
        with self._state:
            worker = self._workers.get(worker_id)
            if worker is None:
                raise HttpError(404, f"unknown worker {worker_id!r}; re-register")
            worker.last_seen = self.clock()
            return worker

    # -- leasing and results ------------------------------------------------

    def lease_tasks(self, worker_id: str, max_tasks: int = 1) -> dict:
        worker = self._touch_worker(worker_id)
        self.queue.extend(worker_id)
        requeued_before = self.queue.requeues
        leased: list[dict] = []
        if self.draining.is_set():
            worker.saw_drain = True
        else:
            for task_id in self.queue.lease(worker_id, max_tasks=max_tasks):
                leased.append(self._tasks[task_id].wire_payload())
        requeued = self.queue.requeues - requeued_before
        if requeued:
            self.metrics.counter(
                "repro_service_tasks_total", "file-level tasks by event"
            ).inc(requeued, event="requeued")
        if leased:
            self.metrics.counter(
                "repro_service_tasks_total", "file-level tasks by event"
            ).inc(len(leased), event="leased")
        self._observe_gauges()
        return {
            "tasks": leased,
            "draining": self.draining.is_set(),
            "idle": not leased and self.queue.outstanding == 0,
            "lease_timeout": self.queue.timeout,
        }

    def report_result(self, worker_id: str, task_id: str, record: dict) -> bool:
        """Settle one task with a node's outcome record.

        Returns False (and drops the record) when the task was already
        settled by someone else — the exactly-once half of the lease
        protocol.
        """
        worker = self._touch_worker(worker_id)
        task = self._tasks.get(task_id)
        if task is None:
            raise HttpError(404, f"unknown task {task_id!r}")
        if not isinstance(record, dict) or record.get("filename") != task.filename:
            raise HttpError(400, f"malformed outcome record for {task_id!r}")
        accepted = self.queue.complete(task_id)
        if not accepted:
            worker.rejected += 1
            self.metrics.counter(
                "repro_service_results_total", "reported task results"
            ).inc(accepted="false", node=worker.node)
            return False
        job_complete = False
        with self._state:
            task.record = dict(record)
            task.node = worker.node
            worker.completed += 1
            job = self._jobs[task.job_id]
            if job.complete and job.finished is None:
                job.finished = self.clock()
                job_complete = True
        self.metrics.counter(
            "repro_service_results_total", "reported task results"
        ).inc(accepted="true", node=worker.node)
        self.metrics.counter(
            "repro_service_tasks_total", "file-level tasks by event"
        ).inc(event="done")
        if self.tracer is not None and self.tracer.enabled:
            self._stitch_span(task)
        if job_complete and self.jsonl_dir is not None:
            self._write_job_stream(self._jobs[task.job_id])
        self._observe_gauges()
        return True

    def release_worker(self, worker_id: str) -> list[str]:
        """A draining node hands its unfinished leases back."""
        worker = self._touch_worker(worker_id)
        worker.released = True
        released = self.queue.release(worker_id)
        if released:
            self.metrics.counter(
                "repro_service_tasks_total", "file-level tasks by event"
            ).inc(len(released), event="requeued")
        return released

    # -- merged output ------------------------------------------------------

    def job_records(self, job: AuditJob) -> list[dict]:
        """The job's merged JSONL records, in submission order.

        Always ends with per-node ``stats`` trailers; the global
        ``stats`` trailer appears only once the job is complete, so an
        in-progress stream reads as truncated (exactly like a killed
        single-box audit) rather than silently final.
        """
        with self._state:
            settled = [task for task in job.tasks if task.record is not None]
            lines: list[dict] = [
                {"type": "file", **task.record, "node": task.node}
                for task in settled
            ]
            per_node: dict[str, dict] = {}
            node_ledgers: dict[str, SlowQueryLedger] = {}
            for task in settled:
                entry = per_node.setdefault(
                    task.node,
                    {"files": 0, "safe": 0, "vulnerable": 0, "failed": 0},
                )
                entry["files"] += 1
                record = task.record
                if record.get("status") == "ok":
                    entry["safe" if record.get("safe") else "vulnerable"] += 1
                else:
                    entry["failed"] += 1
                queries = record.get("slow_queries") or []
                if queries:
                    ledger = node_ledgers.setdefault(task.node, SlowQueryLedger())
                    ledger.merge(
                        {**query, "node": task.node}
                        for query in queries
                        if isinstance(query, dict)
                    )
            for node in sorted(per_node):
                node_ledger = node_ledgers.get(node)
                lines.append(
                    {
                        "type": "stats",
                        "node": node,
                        "job": job.job_id,
                        **per_node[node],
                        "slow_queries": node_ledger.records() if node_ledger else [],
                    }
                )
            if job.complete:
                stats = EngineStats(total=len(job.tasks))
                for task in job.tasks:
                    stats.record(FileOutcome.from_record(task.record))
                stats.wall_seconds = (job.finished or self.clock()) - job.created
                trailer = stats.as_dict()
                # Rebuild the fleet ledger from the node-annotated records
                # so the global trailer attributes every query to its node.
                fleet_ledger = SlowQueryLedger()
                for node_ledger in node_ledgers.values():
                    fleet_ledger.merge(node_ledger.records())
                trailer["slow_queries"] = fleet_ledger.records()
                trailer["job"] = job.job_id
                trailer["nodes"] = len(per_node)
                lines.append({"type": "stats", **trailer})
            return lines

    def render_job_stream(self, job: AuditJob) -> str:
        return "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self.job_records(job)
        )

    def _write_job_stream(self, job: AuditJob) -> Path:
        path = self.jsonl_dir / f"{job.job_id}.jsonl"
        with JsonlSink(path) as sink:
            for record in self.job_records(job):
                sink.write(record)
        return path

    # -- observability ------------------------------------------------------

    def _ingest_metrics(self, worker: WorkerInfo, payload: dict) -> None:
        """Fold a node's piggybacked registry snapshot into the fleet.

        Incompatible snapshots (histogram bucket boundaries that disagree
        with the node's own history or with the fleet registry) are
        rejected with a 400 carrying the mismatch detail — merging them
        would corrupt every fleet-summed bucket series.
        """
        snapshot = payload.get("metrics")
        if not isinstance(snapshot, dict):
            return
        try:
            self.fleet.ingest(worker.node, snapshot)
        except ValueError as exc:
            raise HttpError(400, f"metrics snapshot rejected: {exc}")

    def _stitch_span(self, task: ServiceTask) -> None:
        """Rebuild one file's span tree from its reported stage timings.

        Worker nodes report flat timing dicts, not serialized spans (the
        wire stays JSON); the coordinator lays the stages out
        sequentially under a per-file root so a fleet-wide run still
        renders as one coherent trace, one track per node.
        """
        record = task.record or {}
        timings = record.get("timings") or {}
        duration = float(record.get("duration") or 0.0)
        end = self.tracer.now()
        start = end - max(duration, sum(
            t for t in timings.values() if isinstance(t, (int, float))
        ))
        root = Span(
            "file:" + task.filename,
            start=start,
            duration=end - start,
            attrs={
                "filename": task.filename,
                "status": record.get("status"),
                "node": task.node,
                "task_id": task.task_id,
            },
            tid=hash(task.node) & 0x7FFF,
        )
        if record.get("safe") is not None:
            root.attrs["safe"] = record["safe"]
        cursor = start
        for stage in STAGES:
            seconds = timings.get(stage)
            if not isinstance(seconds, (int, float)):
                continue
            child = Span(stage, start=cursor, duration=float(seconds), tid=root.tid)
            root.children.append(child)
            cursor += float(seconds)
        self.tracer.add(root)

    def _observe_gauges(self) -> None:
        self.metrics.gauge(
            "repro_service_queue_depth", "pending (unleased) tasks"
        ).set(self.queue.pending_count)
        self.metrics.gauge(
            "repro_service_leased_tasks", "tasks currently leased to nodes"
        ).set(self.queue.leased_count)
        with self._state:
            workers = len(self._workers)
        self.metrics.gauge(
            "repro_service_workers", "registered worker nodes"
        ).set(workers)

    def health(self) -> dict:
        with self._state:
            jobs = len(self._jobs)
            complete = sum(1 for job in self._jobs.values() if job.complete)
            workers = len(self._workers)
        return {
            "status": "draining" if self.draining.is_set() else "ok",
            "jobs": jobs,
            "jobs_complete": complete,
            "workers": workers,
            "tasks_pending": self.queue.pending_count,
            "tasks_leased": self.queue.leased_count,
            "tasks_done": self.queue.done_count,
            "lease_requeues": self.queue.requeues,
        }

    # -- drain --------------------------------------------------------------

    def drain(self) -> None:
        """Stop leasing; nodes observe ``draining`` and exit cleanly."""
        self.draining.set()

    def wait_for_leases(self, grace: float, poll: float = 0.05) -> bool:
        """Block until every outstanding lease settles or ``grace`` runs
        out (the SIGTERM path: let in-flight node batches finish)."""
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            self.queue.reap()
            if self.queue.leased_count == 0:
                return True
            time.sleep(poll)
        return self.queue.leased_count == 0

    def wait_for_drain(self, grace: float, poll: float = 0.05) -> bool:
        """Block until leases settle AND every live node has acknowledged
        the drain (its next lease poll, after which it exits 0), so
        closing the listener doesn't turn clean node shutdowns into
        connection-refused failures.  Nodes silent for longer than one
        lease timeout are presumed dead and not waited for.
        """
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            self.queue.reap()
            with self._state:
                now = self.clock()
                unacked = [
                    worker
                    for worker in self._workers.values()
                    if not (worker.saw_drain or worker.released)
                    and now - worker.last_seen <= self.queue.timeout
                ]
            if self.queue.leased_count == 0 and not unacked:
                return True
            time.sleep(poll)
        return False

    # -- HTTP dispatch ------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        if method == "GET":
            return self._handle_get(path)
        if method == "POST":
            return self._handle_post(path, body)
        raise HttpError(405, f"method {method} not allowed")

    def _handle_get(self, path: str) -> tuple[int, str, bytes]:
        if path in ("/metrics", "/"):
            return 200, PROMETHEUS_CONTENT_TYPE, (
                self.metrics.render(quantiles=DEFAULT_QUANTILES).encode()
            )
        if path == "/healthz":
            return self.json_reply(self.health())
        if path == "/api/jobs":
            with self._state:
                jobs = [job.status() for job in self._jobs.values()]
            return self.json_reply({"jobs": jobs})
        if path.startswith("/api/jobs/"):
            rest = path[len("/api/jobs/"):]
            job_id, _, tail = rest.partition("/")
            with self._state:
                job = self._jobs.get(job_id)
            if job is None:
                raise HttpError(404, f"unknown job {job_id!r}")
            if not tail:
                status = job.status()
                status["queue"] = {
                    "pending": self.queue.pending_count,
                    "leased": self.queue.leased_count,
                    "requeues": self.queue.requeues,
                }
                return self.json_reply(status)
            if tail == "results":
                return 200, "application/x-ndjson", self.render_job_stream(job).encode()
        raise HttpError(404, f"no such endpoint: {path}")

    def _handle_post(self, path: str, body: bytes) -> tuple[int, str, bytes]:
        if path == "/api/submit":
            return self._handle_submit(body)
        if path == "/api/workers/register":
            payload = self.read_json(body)
            node = str(payload.get("node") or "").strip()
            if not node:
                raise HttpError(400, "registration needs a non-empty node name")
            worker = self.register_worker(node, payload.get("policy"))
            return self.json_reply(
                {
                    "worker_id": worker.worker_id,
                    "lease_timeout": self.queue.timeout,
                }
            )
        if path == "/api/workers/heartbeat":
            payload = self.read_json(body)
            worker = self._touch_worker(str(payload.get("worker_id")))
            self._ingest_metrics(worker, payload)
            extended = self.queue.extend(worker.worker_id)
            return self.json_reply(
                {"ok": True, "extended": extended, "draining": self.draining.is_set()}
            )
        if path == "/api/workers/release":
            payload = self.read_json(body)
            worker = self._touch_worker(str(payload.get("worker_id")))
            self._ingest_metrics(worker, payload)
            released = self.release_worker(worker.worker_id)
            return self.json_reply({"released": released})
        if path == "/api/lease":
            payload = self.read_json(body)
            max_tasks = payload.get("max", 1)
            if not isinstance(max_tasks, int) or max_tasks < 1:
                raise HttpError(400, "lease max must be a positive integer")
            worker = self._touch_worker(str(payload.get("worker_id")))
            self._ingest_metrics(worker, payload)
            return self.json_reply(self.lease_tasks(worker.worker_id, max_tasks))
        if path == "/api/result":
            payload = self.read_json(body)
            accepted = self.report_result(
                str(payload.get("worker_id")),
                str(payload.get("task_id")),
                payload.get("record"),
            )
            return self.json_reply({"accepted": accepted})
        raise HttpError(404, f"no such endpoint: {path}")

    def _handle_submit(self, body: bytes) -> tuple[int, str, bytes]:
        if self.draining.is_set():
            raise HttpError(503, "coordinator is draining; not accepting jobs")
        stripped = body.lstrip()
        if stripped.startswith(b"{"):
            payload = self.read_json(body)
            name = str(payload.get("name") or "")
            if isinstance(payload.get("files"), dict):
                files = {
                    str(path): str(text)
                    for path, text in payload["files"].items()
                }
                job = self.submit_files(files, name=name)
            elif payload.get("path"):
                job = self.submit_path(str(payload["path"]), name=name)
            else:
                raise HttpError(400, 'submission needs "files" or "path"')
        else:
            job = self.submit_tar(body)
        return self.json_reply(
            {"job_id": job.job_id, "tasks": len(job.tasks)}, status=201
        )
