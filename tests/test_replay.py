"""Unit tests for the witness-replay subsystem (``src/repro/replay/``).

Covers the three layers in isolation: the sentinel's
survive-every-sanitizer design, the span→condition solver, and the
replayer's verdict semantics — confirmed/refuted/unsupported, the
optimistic-confirmation rule, the patched re-run, and the guarantee
that replay degrades instead of failing an audit.
"""

import json

import pytest

from repro.interp import HttpRequest, run_php
from repro.php import SourceProject
from repro.php.parser import parse
from repro.replay import (
    MAX_REPLAYED_TRACES,
    SENTINEL,
    canonical_request_text,
    collect_input_keys,
    index_conditions,
    replay_counterexamples,
    replay_for_task,
    replay_source,
    sentinel_observed,
    solve_condition,
    summarize_replays,
    synthesize_request,
)
from repro.replay.conditions import ABSENT
from repro.websari.pipeline import WebSSARI


def verify_and_replay(source, filename="test.php", **kwargs):
    report = WebSSARI().verify_source(source, filename=filename)
    return report, replay_source(source, report, filename, **kwargs)


class TestSentinel:
    """Every sanitizer in the subset must destroy the sentinel."""

    @pytest.mark.parametrize(
        "sanitizer",
        [
            "htmlspecialchars($x, ENT_QUOTES)",
            "htmlentities($x)",
            "addslashes($x)",
            "mysql_escape_string($x)",
            "strip_tags($x)",
            "intval($x)",
        ],
    )
    def test_sanitizers_break_the_sentinel(self, sanitizer):
        source = f"<?php $x = $_GET['q']; echo {sanitizer};\n"
        env = run_php(source, HttpRequest(get={"q": SENTINEL}))
        assert sentinel_observed(env) is None, (
            f"{sanitizer} left the sentinel intact: {env.response_body()!r}"
        )

    def test_unsanitized_echo_is_observed_on_response(self):
        env = run_php("<?php echo $_GET['q'];\n", HttpRequest(get={"q": SENTINEL}))
        assert sentinel_observed(env) == "response"

    def test_sql_channel_is_scoped_to_the_run(self):
        env = run_php(
            "<?php mysql_query(\"SELECT '{$_GET['q']}'\");\n",
            HttpRequest(get={"q": SENTINEL}),
        )
        assert sentinel_observed(env) == "sql"
        # Pretend these queries came from an earlier run sharing the
        # database: scoping past them must empty the sql channel (the
        # per-run sink_log still carries the call — that is fresh state).
        from repro.replay.sentinel import observation_channels

        scoped = observation_channels(
            env, sql_log_start=len(env.database.query_log)
        )
        assert SENTINEL not in scoped["sql"]
        assert SENTINEL in scoped["sink"]

    def test_sentinel_is_truthy_and_nonnumeric(self):
        assert SENTINEL not in ("", "0")
        assert "'" in SENTINEL and '"' in SENTINEL
        assert "<" in SENTINEL and ">" in SENTINEL


class TestConditionSolver:
    def condition(self, source):
        program = parse(source, "cond.php")
        table = index_conditions(program)
        assert len(table) == 1, table
        return next(iter(table.values()))

    def test_superglobal_truthiness(self):
        cond = self.condition("<?php if ($_GET['go']) {}\n")
        assert solve_condition(cond, True) == {("get", "go"): SENTINEL}
        assert solve_condition(cond, False) == {("get", "go"): ABSENT}

    def test_negation(self):
        cond = self.condition("<?php if (!$_POST['stop']) {}\n")
        assert solve_condition(cond, True) == {("post", "stop"): ABSENT}
        assert solve_condition(cond, False) == {("post", "stop"): SENTINEL}

    def test_equality_against_literal(self):
        cond = self.condition("<?php if ($_GET['mode'] == 'admin') {}\n")
        assert solve_condition(cond, True) == {("get", "mode"): "admin"}
        assert solve_condition(cond, False) == {("get", "mode"): SENTINEL}

    def test_isset_and_empty(self):
        cond = self.condition("<?php if (isset($_COOKIE['sid'])) {}\n")
        assert solve_condition(cond, True) == {("cookie", "sid"): SENTINEL}
        assert solve_condition(cond, False) == {("cookie", "sid"): ABSENT}
        cond = self.condition("<?php if (empty($_GET['q'])) {}\n")
        assert solve_condition(cond, True) == {("get", "q"): ABSENT}

    def test_boolean_connectives(self):
        cond = self.condition("<?php if ($_GET['a'] && !$_GET['b']) {}\n")
        assert solve_condition(cond, True) == {
            ("get", "a"): SENTINEL,
            ("get", "b"): ABSENT,
        }

    def test_unsolvable_shapes_return_none(self):
        for source in (
            "<?php if ($local) {}\n",
            "<?php if (strlen($_GET['q']) > 3) {}\n",
            "<?php while ($row = mysql_fetch_array($r)) {}\n",
        ):
            assert solve_condition(self.condition(source), True) is None

    def test_referer_reads_map_to_the_referer_field(self):
        program = parse("<?php echo $HTTP_REFERER . $_SERVER['HTTP_REFERER'];\n", "r.php")
        assert collect_input_keys(program) == [("referer", "")]


class TestRequestSynthesis:
    def synthesize(self, source, trace):
        program = parse(source, "syn.php")
        return synthesize_request(
            index_conditions(program), collect_input_keys(program), trace
        )

    def trace_for(self, source, filename="syn.php"):
        report = WebSSARI().verify_source(source, filename=filename)
        traces = report.bmc.all_counterexamples()
        assert traces
        return traces[0]

    def test_baseline_plants_sentinel_on_every_input(self):
        source = "<?php echo $_GET['a'] . $_POST['b'] . $_COOKIE['c'];\n"
        trace = self.trace_for(source)
        request, unsolved = self.synthesize(source, trace)
        assert unsolved == []
        assert request.get == {"a": SENTINEL}
        assert request.post == {"b": SENTINEL}
        assert request.cookies == {"c": SENTINEL}

    def test_deciding_branch_steers_the_request(self):
        source = "<?php if ($_GET['mode'] == 'admin') { echo $_GET['q']; }\n"
        trace = self.trace_for(source)
        assert trace.deciding_branches, "witness must decide the branch"
        request, unsolved = self.synthesize(source, trace)
        assert unsolved == []
        assert request.get == {"mode": "admin", "q": SENTINEL}

    def test_canonical_request_text_is_sorted_and_stable(self):
        source = "<?php echo $_GET['z'] . $_GET['a'];\n"
        trace = self.trace_for(source)
        request, _ = self.synthesize(source, trace)
        text = canonical_request_text(request)
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert list(json.loads(text)["get"]) == ["a", "z"]


class TestVerdicts:
    def test_plain_leak_confirms_and_patch_refutes(self):
        _, results = verify_and_replay("<?php echo $_GET['q'];\n")
        assert [r.verdict for r in results] == ["confirmed"]
        assert results[0].channel == "response"
        assert results[0].patched == "refuted"

    def test_unsolved_branch_still_confirms_optimistically(self):
        # The deciding branch reads a computed local — unsolvable — but
        # the sentinel-everywhere baseline still drives the payload to
        # the sink, and an observed exploit is an exploit.
        source = "<?php $root = 0; if (!$root) { echo $_GET['q']; }\n"
        _, results = verify_and_replay(source)
        assert results and results[0].verdict == "confirmed"
        assert results[0].unsolved == ["b1"]

    def test_unsolved_branch_without_a_leak_is_unsupported(self):
        # Steering fails (computed local is falsy at runtime) and no
        # sentinel arrives: neither confirmed nor refuted.
        source = "<?php $flag = 0; if ($flag) { echo $_GET['q']; }\n"
        report = WebSSARI().verify_source(source, "u.php")
        if report.safe:
            pytest.skip("pipeline already proves this safe")
        _, results = verify_and_replay(source)
        assert all(r.verdict == "unsupported" for r in results)

    def test_runtime_error_degrades_to_unsupported(self):
        source = "<?php nonexistent_fn_xyz($_GET['q']); echo $_GET['q'];\n"
        report = WebSSARI().verify_source(source, "e.php")
        results = replay_source(source, report, "e.php")
        if not results:
            pytest.skip("no counterexamples to replay")
        assert all(r.verdict == "unsupported" for r in results)
        assert all("interpreter" in r.reason or ":" in r.reason for r in results)

    def test_max_traces_cap_is_respected(self):
        source = "<?php echo $_GET['q'];\n"
        report = WebSSARI().verify_source(source, "cap.php")
        traces = report.bmc.all_counterexamples()
        results = replay_counterexamples(
            {"cap.php": source}, "cap.php", traces, report.grouping, max_traces=0
        )
        assert results == []
        assert MAX_REPLAYED_TRACES >= 1


class TestIncludePaths:
    def test_subdirectory_entry_includes_its_sibling(self):
        # 'lib.php' written in sub/page.php names sub/lib.php for the
        # static resolver; replay must execute that same file, not the
        # safe lib.php at the project root.
        files = {
            "sub/page.php": "<?php include 'lib.php';\n",
            "sub/lib.php": "<?php echo $_GET['q'];\n",
            "lib.php": "<?php echo htmlspecialchars($_GET['q']);\n",
        }
        project = SourceProject(files)
        report = WebSSARI().verify_project(project, entries=["sub/page.php"]).reports[0]
        traces = report.bmc.all_counterexamples()
        assert traces
        results = replay_counterexamples(files, "sub/page.php", traces, report.grouping)
        assert [r.verdict for r in results] == ["confirmed"] * len(traces)
        assert all(r.patched == "refuted" for r in results)


class TestSummaries:
    def test_summarize_counts_verdicts_and_patched(self):
        _, results = verify_and_replay("<?php echo $_GET['q'];\n")
        summary = summarize_replays(results, skipped=2)
        assert summary["confirmed"] == 1
        assert summary["refuted"] == 0
        assert summary["unsupported"] == 0
        assert summary["patched_refuted"] == 1
        assert summary["skipped"] == 2
        assert len(summary["traces"]) == 1
        json.dumps(summary)  # must be JSON-safe for the JSONL stream

    def test_replay_for_task_never_raises(self):
        class BrokenTask:
            project_files = None
            filename = "broken.php"
            source = None  # type error downstream

        class BrokenReport:
            class bmc:  # noqa: N801 - stub
                @staticmethod
                def all_counterexamples():
                    return [object(), object()]

            grouping = None

        summary = replay_for_task(BrokenTask(), BrokenReport())
        assert summary["unsupported"] == 2
        assert "error" in summary

    def test_trace_canonical_is_deterministic(self):
        source = "<?php if ($_GET['go']) { echo $_GET['q']; }\n"

        def canon():
            report = WebSSARI().verify_source(source, "det.php")
            return [t.canonical() for t in report.bmc.all_counterexamples()]

        first = canon()
        assert first and first == canon()
        assert all(isinstance(text, str) for text in first)
