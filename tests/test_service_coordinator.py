"""The audit coordinator and its lease queue: submission, leasing,
exactly-once completion, lease expiry/re-queue, policy agreement, drain,
and the merged-JSONL stream contract."""

import io
import json
import tarfile
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, Tracer, load_audit
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.service import Coordinator, LeaseQueue
from repro.service.httpbase import HttpError


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def record_for(filename, safe=True, status="ok", **extra):
    record = {
        "filename": filename,
        "status": status,
        "safe": safe if status == "ok" else None,
        "duration": 0.01,
        "timings": {"parse": 0.004, "sat": 0.006},
    }
    record.update(extra)
    return record


CORPUS = {
    "a.php": "<?php echo $a; ?>",
    "b.php": "<?php echo $b; ?>",
    "c.php": "<?php echo $c; ?>",
}


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def coord(clock):
    coordinator = Coordinator(lease_timeout=10.0, clock=clock)
    try:
        yield coordinator
    finally:
        coordinator.close()


class TestLeaseQueue:
    def test_fifo_lease_and_complete(self, clock):
        queue = LeaseQueue(timeout=5.0, clock=clock)
        for task in ("t1", "t2", "t3"):
            queue.add(task)
        assert queue.lease("w1", max_tasks=2) == ["t1", "t2"]
        assert queue.owner_of("t1") == "w1"
        assert queue.complete("t1") is True
        assert queue.complete("t1") is False  # exactly once
        assert queue.outstanding == 2

    def test_expiry_requeues_to_front(self, clock):
        queue = LeaseQueue(timeout=5.0, clock=clock)
        queue.add("t1")
        queue.add("t2")
        assert queue.lease("w1") == ["t1"]
        clock.advance(6.0)
        # The dead node's task is re-leasable ahead of the backlog.
        assert queue.lease("w2", max_tasks=2) == ["t1", "t2"]
        assert queue.requeues == 1

    def test_heartbeat_extends_leases(self, clock):
        queue = LeaseQueue(timeout=5.0, clock=clock)
        queue.add("t1")
        queue.lease("w1")
        clock.advance(4.0)
        assert queue.extend("w1") == 1
        clock.advance(4.0)
        assert queue.reap() == []  # extension kept it alive
        assert queue.owner_of("t1") == "w1"

    def test_zombie_completion_accepted_once_while_open(self, clock):
        """A node finishing after its lease expired still settles the
        task (verdicts are deterministic) — but only the first result."""
        queue = LeaseQueue(timeout=5.0, clock=clock)
        queue.add("t1")
        queue.lease("w1")
        clock.advance(6.0)
        queue.reap()
        assert queue.complete("t1") is True  # zombie's result, task open
        assert queue.lease("w2") == []  # nothing left to hand out
        assert queue.complete("t1") is False

    def test_release_hands_leases_back(self, clock):
        queue = LeaseQueue(timeout=5.0, clock=clock)
        queue.add("t1")
        queue.lease("w1")
        assert queue.release("w1") == ["t1"]
        assert queue.lease("w2") == ["t1"]

    def test_unknown_completion_rejected(self, clock):
        queue = LeaseQueue(clock=clock)
        assert queue.complete("never-added") is False


class TestSubmission:
    def test_files_sorted_into_tasks(self, coord):
        job = coord.submit_files({"z.php": "<?php ?>", "a.php": "<?php ?>"})
        assert [task.filename for task in job.tasks] == ["a.php", "z.php"]
        assert [task.task_id for task in job.tasks] == [
            f"{job.job_id}:000000",
            f"{job.job_id}:000001",
        ]

    def test_non_php_filtered_and_empty_rejected(self, coord):
        with pytest.raises(HttpError) as err:
            coord.submit_files({"notes.txt": "hello"})
        assert err.value.status == 400

    def test_tar_submission_over_http(self, coord):
        coord.start()
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as archive:
            for name, text in CORPUS.items():
                data = text.encode()
                info = tarfile.TarInfo(name=f"proj/{name}")
                info.size = len(data)
                archive.addfile(info, io.BytesIO(data))
        request = urllib.request.Request(
            coord.url + "/api/submit",
            data=buffer.getvalue(),
            headers={"Content-Type": "application/x-tar"},
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            reply = json.loads(response.read())
        assert response.status == 201 and reply["tasks"] == 3

    def test_submit_rejected_while_draining(self, coord):
        coord.drain()
        with pytest.raises(HttpError) as err:
            coord._handle_submit(b'{"files": {"a.php": "<?php ?>"}}')
        assert err.value.status == 503


class TestWorkerProtocol:
    def test_policy_fingerprint_first_wins_then_409(self, coord):
        coord.register_worker("n1", policy_fp="abc")
        coord.register_worker("n2", policy_fp="abc")
        with pytest.raises(HttpError) as err:
            coord.register_worker("n3", policy_fp="different")
        assert err.value.status == 409

    def test_unknown_worker_404(self, coord):
        with pytest.raises(HttpError) as err:
            coord.lease_tasks("ghost#1")
        assert err.value.status == 404

    def test_lease_report_merge_roundtrip(self, coord, tmp_path):
        job = coord.submit_files(CORPUS)
        worker = coord.register_worker("n1")
        lease = coord.lease_tasks(worker.worker_id, max_tasks=10)
        assert [t["filename"] for t in lease["tasks"]] == ["a.php", "b.php", "c.php"]
        for task in lease["tasks"]:
            safe = task["filename"] != "b.php"
            assert coord.report_result(
                worker.worker_id, task["task_id"], record_for(task["filename"], safe)
            )
        records = coord.job_records(job)
        kinds = [record["type"] for record in records]
        assert kinds == ["file", "file", "file", "stats", "stats"]
        assert all(record["node"] == "n1" for record in records[:3])
        node_trailer, global_trailer = records[3], records[4]
        assert node_trailer["node"] == "n1" and node_trailer["files"] == 3
        assert "node" not in global_trailer
        assert global_trailer["safe"] == 2 and global_trailer["vulnerable"] == 1

        # The merged stream is a valid repro-report input.
        path = tmp_path / "merged.jsonl"
        path.write_text(coord.render_job_stream(job))
        run = load_audit(path)
        assert not run.truncated
        assert run.stats["total"] == 3
        assert run.node_stats["n1"]["files"] == 3

    def test_stitched_span_keeps_replay_stage(self, clock):
        tracer = Tracer(enabled=True)
        coordinator = Coordinator(lease_timeout=10.0, clock=clock, tracer=tracer)
        try:
            coordinator.submit_files({"a.php": "<?php echo $_GET['q'];"})
            worker = coordinator.register_worker("n1")
            task = coordinator.lease_tasks(worker.worker_id)["tasks"][0]
            record = record_for("a.php", safe=False)
            record["timings"] = {"parse": 0.001, "sat": 0.002, "replay": 0.003}
            assert coordinator.report_result(worker.worker_id, task["task_id"], record)
        finally:
            coordinator.close()
        (root,) = tracer.take_roots()
        assert [child.name for child in root.children] == ["parse", "sat", "replay"]

    def test_duplicate_result_rejected(self, coord):
        coord.submit_files({"a.php": "<?php ?>"})
        worker = coord.register_worker("n1")
        task = coord.lease_tasks(worker.worker_id)["tasks"][0]
        assert coord.report_result(worker.worker_id, task["task_id"], record_for("a.php"))
        assert not coord.report_result(
            worker.worker_id, task["task_id"], record_for("a.php")
        )
        assert coord._workers[worker.worker_id].rejected == 1

    def test_malformed_record_400(self, coord):
        coord.submit_files({"a.php": "<?php ?>"})
        worker = coord.register_worker("n1")
        task = coord.lease_tasks(worker.worker_id)["tasks"][0]
        with pytest.raises(HttpError) as err:
            coord.report_result(worker.worker_id, task["task_id"], record_for("wrong.php"))
        assert err.value.status == 400

    def test_lease_expiry_moves_task_to_live_node(self, coord, clock):
        """The worker-loss story end to end: n1 leases, dies (never
        heartbeats), the lease expires, n2 gets the task and completes
        it; n1's late result is then rejected — exactly one record."""
        job = coord.submit_files({"a.php": "<?php ?>"})
        dead = coord.register_worker("n1")
        live = coord.register_worker("n2")
        task = coord.lease_tasks(dead.worker_id)["tasks"][0]
        assert coord.lease_tasks(live.worker_id)["tasks"] == []
        clock.advance(11.0)  # lease_timeout is 10
        retried = coord.lease_tasks(live.worker_id)["tasks"]
        assert [t["task_id"] for t in retried] == [task["task_id"]]
        assert coord.report_result(live.worker_id, task["task_id"], record_for("a.php"))
        assert not coord.report_result(dead.worker_id, task["task_id"], record_for("a.php"))
        records = coord.job_records(job)
        assert [r["node"] for r in records if r["type"] == "file"] == ["n2"]
        assert coord.queue.requeues == 1

    def test_heartbeat_keeps_lease_alive(self, coord, clock):
        coord.submit_files({"a.php": "<?php ?>"})
        worker = coord.register_worker("n1")
        coord.lease_tasks(worker.worker_id)
        clock.advance(8.0)
        coord._touch_worker(worker.worker_id)
        coord.queue.extend(worker.worker_id)
        clock.advance(8.0)
        other = coord.register_worker("n2")
        assert coord.lease_tasks(other.worker_id)["tasks"] == []


class TestDrain:
    def test_drain_flag_on_lease_and_ack_tracking(self, coord):
        coord.submit_files({"a.php": "<?php ?>"})
        worker = coord.register_worker("n1")
        coord.drain()
        reply = coord.lease_tasks(worker.worker_id)
        assert reply["draining"] is True and reply["tasks"] == []
        assert coord._workers[worker.worker_id].saw_drain
        assert coord.wait_for_drain(grace=1.0)

    def test_wait_for_drain_times_out_on_silent_live_node(self, coord):
        coord.register_worker("n1")  # never polls after drain
        coord.drain()
        assert not coord.wait_for_drain(grace=0.2)

    def test_release_counts_as_ack(self, coord):
        worker = coord.register_worker("n1")
        coord.drain()
        coord.release_worker(worker.worker_id)
        assert coord.wait_for_drain(grace=1.0)


class TestFleetObservability:
    def heartbeat(self, coord, worker, registry):
        body = json.dumps(
            {"worker_id": worker.worker_id, "metrics": registry.snapshot()}
        ).encode()
        return coord.handle("POST", "/api/workers/heartbeat", body)

    def node_registry(self, files):
        registry = MetricsRegistry()
        registry.counter("repro_files_total", "files").inc(files)
        registry.histogram("repro_file_seconds", "seconds").observe(0.01 * files)
        return registry

    def test_heartbeat_snapshots_roll_up_per_node_and_fleet(self, coord):
        a = coord.register_worker("nodeA")
        b = coord.register_worker("nodeB")
        self.heartbeat(coord, a, self.node_registry(2))
        self.heartbeat(coord, b, self.node_registry(3))
        status, content_type, body = coord.handle("GET", "/metrics", b"")
        text = body.decode()
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert 'repro_files_total{node="nodeA"} 2' in text
        assert 'repro_files_total{node="nodeB"} 3' in text
        assert "\nrepro_files_total 5" in text
        assert 'repro_file_seconds_count{node="nodeA"} 1' in text

    def test_repeated_cumulative_snapshots_not_double_counted(self, coord):
        worker = coord.register_worker("nodeA")
        registry = self.node_registry(4)
        self.heartbeat(coord, worker, registry)
        self.heartbeat(coord, worker, registry)
        text = coord.handle("GET", "/metrics", b"")[2].decode()
        assert 'repro_files_total{node="nodeA"} 4' in text

    def test_bucket_mismatch_snapshot_rejected_with_400(self, coord):
        worker = coord.register_worker("nodeA")
        self.heartbeat(coord, worker, self.node_registry(1))
        odd = MetricsRegistry()
        odd.histogram("repro_file_seconds", buckets=(0.5, 5.0)).observe(0.1)
        with pytest.raises(HttpError) as err:
            self.heartbeat(coord, worker, odd)
        assert err.value.status == 400
        assert "metrics snapshot rejected" in err.value.message

    def test_metrics_render_quantile_gauges(self, coord):
        worker = coord.register_worker("nodeA")
        self.heartbeat(coord, worker, self.node_registry(1))
        text = coord.handle("GET", "/metrics", b"")[2].decode()
        assert "# TYPE repro_file_seconds_quantile gauge" in text

    def test_trailers_carry_slow_query_ledgers(self, coord, tmp_path):
        job = coord.submit_files(CORPUS)
        worker = coord.register_worker("n1")
        for task in coord.lease_tasks(worker.worker_id, max_tasks=10)["tasks"]:
            record = record_for(task["filename"])
            record["slow_queries"] = [
                {"seconds": 0.05, "file": task["filename"], "assert_id": 1}
            ]
            coord.report_result(worker.worker_id, task["task_id"], record)
        records = coord.job_records(job)
        node_trailer, global_trailer = records[-2], records[-1]
        assert len(node_trailer["slow_queries"]) == 3
        assert all(q["node"] == "n1" for q in node_trailer["slow_queries"])
        assert len(global_trailer["slow_queries"]) == 3
        # The merged stream round-trips through the report loader.
        path = tmp_path / "merged.jsonl"
        path.write_text(coord.render_job_stream(job))
        run = load_audit(path)
        assert {q["node"] for q in run.slow_queries()} == {"n1"}

    def test_empty_ledger_trailer_is_explicit_empty_list(self, coord):
        """Nodes whose records carry no slow queries still get a
        ``slow_queries`` key — consumers need not special-case."""
        job = coord.submit_files({"a.php": "<?php ?>"})
        worker = coord.register_worker("n1")
        task = coord.lease_tasks(worker.worker_id)["tasks"][0]
        coord.report_result(worker.worker_id, task["task_id"], record_for("a.php"))
        records = coord.job_records(job)
        node_trailer, global_trailer = records[-2], records[-1]
        assert node_trailer["slow_queries"] == []
        assert global_trailer["slow_queries"] == []


class TestIncompleteStream:
    def test_partial_job_reads_as_truncated(self, coord, tmp_path):
        job = coord.submit_files(CORPUS)
        worker = coord.register_worker("n1")
        task = coord.lease_tasks(worker.worker_id)["tasks"][0]
        coord.report_result(worker.worker_id, task["task_id"], record_for("a.php"))
        path = tmp_path / "partial.jsonl"
        path.write_text(coord.render_job_stream(job))
        run = load_audit(path)
        # Node trailer present, global trailer absent: truncated, and the
        # node trailer must not masquerade as run-level stats.
        assert run.truncated and run.stats is None
        assert run.node_stats["n1"]["files"] == 1
