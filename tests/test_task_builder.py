"""One task builder for every entry point: the task shape each project
entry gets, ``repro audit`` resolving includes the way ``verify_project``
does, and ``repro audit`` / ``repro watch`` sharing cache entries."""

import json

from repro.cli import main
from repro.corpus import FIGURE_10
from repro.corpus.generator import generate_catalog_project
from repro.engine import TaskBuilder
from repro.engine.worker import project_content_digest
from repro.php import SourceProject

#: Small Figure-10 rows whose vulnerabilities partly sit in included
#: files (GBook MX, Booby, Crafty Syntax Live Help, PHPList).
INCLUDE_ROWS = (0, 5, 15, 32)


def jsonl_files(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [record for record in lines if record["type"] == "file"]


class TestTaskShapes:
    def test_include_free_entry_is_standalone(self):
        project = SourceProject({"a.php": "<?php echo 1;\n"})
        task, scan = TaskBuilder(project).build(0, "a.php", filename="site/a.php")
        assert task.source == "<?php echo 1;\n" and task.project_files is None
        assert task.filename == "site/a.php"
        assert scan.closure == {"a.php"}

    def test_bounded_closure_carries_only_the_closure(self):
        project = SourceProject({
            "index.php": "<?php include 'lib.php'; echo $x;\n",
            "lib.php": "<?php $x = $_GET['q'];\n",
            "other.php": "<?php echo 2;\n",
        })
        task, _ = TaskBuilder(project).build(3, "index.php")
        assert task.index == 3 and task.entry == "index.php"
        assert sorted(task.project_files) == ["index.php", "lib.php"]
        assert not task.closure_widened and task.project_digest is None

    def test_missing_or_self_include_keeps_project_shape(self):
        for text in ("<?php include 'gone.php'; echo 1;\n", "<?php include 'index.php';\n"):
            project = SourceProject({"index.php": text})
            task, _ = TaskBuilder(project).build(0, "index.php")
            assert task.project_files == {"index.php": text}

    def test_widened_entries_share_one_whole_project_digest(self):
        files = {
            "a.php": "<?php include $page;\n",
            "b.php": "<?php include $other;\n",
            "c.php": "<?php echo 1;\n",
        }
        builder = TaskBuilder(SourceProject(files))
        first, _ = builder.build(0, "a.php")
        second, _ = builder.build(1, "b.php")
        assert first.closure_widened and second.closure_widened
        assert first.project_files == files
        assert first.project_digest == second.project_digest == project_content_digest(files)

    def test_entry_name_is_part_of_the_key(self):
        files = {
            "index.php": "<?php include 'lib.php';\n",
            "lib.php": "<?php $x = 1;\n",
        }
        builder = TaskBuilder(SourceProject(files))
        one, _ = builder.build(0, "index.php", filename="a/index.php")
        two, _ = builder.build(0, "index.php", filename="b/index.php")
        assert one.cache_material() != two.cache_material()


class TestAuditResolvesIncludes:
    def test_audit_matches_catalog_rows(self, tmp_path):
        root = tmp_path / "fig10"
        for index in INCLUDE_ROWS:
            project = generate_catalog_project(FIGURE_10[index]).project
            for path in project.paths():
                target = root / f"p{index:02d}" / path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(project.source(path))
        out = tmp_path / "audit.jsonl"
        rc = main(
            ["audit", str(root), "--quiet", "--no-cache",
             "--cache-dir", str(tmp_path / "cache"), "--jsonl", str(out)]
        )
        assert rc == 1
        records = jsonl_files(out)
        assert all(record["status"] == "ok" for record in records)
        assert sum(r["ts_errors"] for r in records) == sum(
            FIGURE_10[i].ts_errors for i in INCLUDE_ROWS
        )
        assert sum(r["bmc_groups"] for r in records) == sum(
            FIGURE_10[i].bmc_groups for i in INCLUDE_ROWS
        )
        includers = [r for r in records if r["includes"]]
        assert includers, "no entry was audited with its includes"
        assert all(r["includes"]["included_files"] >= 1 for r in includers)

    def test_audit_then_watch_hits_every_entry(self, tmp_path, capsys):
        root = tmp_path / "site"
        (root / "lib").mkdir(parents=True)
        (root / "lib" / "common.php").write_text("<?php $q = $_GET['q'];\n")
        (root / "index.php").write_text("<?php include 'lib/common.php'; echo $q;\n")
        (root / "about.php").write_text(
            "<?php include 'lib/common.php'; echo htmlspecialchars($q);\n"
        )
        (root / "plain.php").write_text("<?php echo 'hello';\n")
        cache = str(tmp_path / "cache")
        main(["audit", str(root), "--quiet", "--cache-dir", cache])
        out = tmp_path / "cycles"
        main(["watch", str(root), "--once", "--quiet", "--cache-dir", cache,
              "--out-dir", str(out)])
        capsys.readouterr()
        records = jsonl_files(out / "cycle-000001.jsonl")
        assert len(records) == 4
        assert all(record["cached"] for record in records), [
            record["filename"] for record in records if not record["cached"]
        ]
