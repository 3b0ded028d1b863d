"""Tests for the SAT-level query cache (repro.sat.cache).

Covers the store (LRU bound, disk persistence, corruption tolerance,
pickling) and the :class:`CachingSatSolver` facade (canonical
fingerprinting, hit/miss accounting, model replay fidelity across
variable renamings and both backends).
"""

import json
import pickle

import pytest

from repro.sat.cache import SAT_CACHE_VERSION, CachingSatSolver, SatQueryCache
from repro.sat.cnf import CNF
from repro.sat.dpll import IncrementalDPLL
from repro.sat.solver import CDCLSolver


def caching(cache, backend="cdcl"):
    inner = CDCLSolver() if backend == "cdcl" else IncrementalDPLL()
    return CachingSatSolver(inner, cache, backend=backend)


class TestSatQueryCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = SatQueryCache()
        assert cache.get("k1") is None
        cache.put("k1", {"sat": True, "true": [1, 3]})
        assert cache.get("k1") == {"sat": True, "true": [1, 3]}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_oldest(self):
        cache = SatQueryCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, {"sat": False, "true": []})
        assert len(cache) == 2
        assert cache.get("a") is None  # evicted
        assert cache.get("c") is not None

    def test_get_refreshes_lru_order(self):
        cache = SatQueryCache(max_entries=2)
        cache.put("a", {"sat": False, "true": []})
        cache.put("b", {"sat": False, "true": []})
        cache.get("a")  # a is now most-recent
        cache.put("c", {"sat": False, "true": []})
        assert cache.get("b") is None and cache.get("a") is not None

    def test_disk_persistence_across_instances(self, tmp_path):
        first = SatQueryCache(persist_dir=tmp_path / "sat")
        first.put("ab" + "0" * 62, {"sat": True, "true": [2]})
        second = SatQueryCache(persist_dir=tmp_path / "sat")
        assert second.get("ab" + "0" * 62) == {"sat": True, "true": [2]}
        # Fan-out layout: <dir>/<key[:2]>/<key>.json
        assert (tmp_path / "sat" / "ab" / ("ab" + "0" * 62 + ".json")).is_file()

    def test_corrupt_disk_entry_is_evicted_not_served(self, tmp_path):
        cache = SatQueryCache(persist_dir=tmp_path / "sat")
        key = "cd" + "0" * 62
        path = tmp_path / "sat" / "cd" / (key + ".json")
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        path.write_text(json.dumps({"sat": "yes", "true": [1]}))  # wrong shape
        assert cache.get(key) is None
        assert not path.exists(), "invalid entries must be evicted"

    def test_pickling_drops_memo_keeps_config(self, tmp_path):
        cache = SatQueryCache(persist_dir=tmp_path / "sat", max_entries=7)
        cache.put("k", {"sat": False, "true": []})
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.persist_dir == cache.persist_dir
        assert clone.max_entries == 7
        assert len(clone) == 0  # memo dropped...
        assert clone.get("k") == {"sat": False, "true": []}  # ...re-warmed from disk


class TestCachingSatSolver:
    def test_first_solve_misses_second_identical_shape_hits(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1, 2], [-1, 2]], num_vars=2))
        ra = a.solve()
        assert ra.satisfiable is True
        assert ra.stats.cache_misses == 1 and ra.stats.cache_hits == 0

        # Same shape under a different variable numbering: must hit.
        b = caching(cache)
        b.add_formula(CNF([[5, 9], [-5, 9]], num_vars=9))
        rb = b.solve()
        assert rb.satisfiable is True
        assert rb.stats.cache_hits == 1 and rb.stats.cache_misses == 0

    def test_replayed_model_satisfies_renamed_formula(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1, 2], [-1, 3], [-2, -3]], num_vars=3))
        assert a.solve().satisfiable is True

        formula_b = CNF([[4, 7], [-4, 8], [-7, -8]], num_vars=8)
        b = caching(cache)
        b.add_formula(formula_b)
        rb = b.solve()
        assert rb.stats.cache_hits == 1
        assert formula_b.evaluate(rb.model)

    def test_unsat_is_cached(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1], [-1]], num_vars=1))
        assert a.solve().satisfiable is False
        b = caching(cache)
        b.add_formula(CNF([[3], [-3]], num_vars=3))
        rb = b.solve()
        assert rb.satisfiable is False and rb.stats.cache_hits == 1

    def test_misses_persist_only_query_records(self, tmp_path):
        # A search-heavy miss (pigeonhole 5-into-4) stores its verdict and
        # nothing else: the store holds one record per solved query.
        holes, pigeons = 4, 5
        cnf = CNF(num_vars=holes * pigeons)
        for p in range(pigeons):
            cnf.add_clause([p * holes + h + 1 for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause((-(p1 * holes + h + 1), -(p2 * holes + h + 1)))
        s = caching(SatQueryCache(persist_dir=tmp_path))
        s.add_formula(cnf)
        result = s.solve()
        assert result.satisfiable is False and result.stats.conflicts >= 8
        records = [json.loads(p.read_text()) for p in tmp_path.rglob("*.json")]
        assert records == [{"sat": False, "true": []}]

    def test_assumptions_distinguish_queries(self):
        cache = SatQueryCache()
        s = caching(cache)
        s.add_formula(CNF([[1, 2]], num_vars=2))
        assert s.solve(assumptions=[1]).satisfiable is True
        r = s.solve(assumptions=[-1])
        # Different assumptions: a fresh query, not a (wrong) hit.
        assert r.stats.cache_misses == 1
        assert r.satisfiable is True and r.model[2] is True

    def test_incremental_clause_addition_extends_key(self):
        cache = SatQueryCache()
        s = caching(cache)
        s.add_formula(CNF([[1, 2]], num_vars=2))
        assert s.solve().stats.cache_misses == 1
        s.add_clause([-1])
        r = s.solve()
        assert r.stats.cache_misses == 1, "grown formula must not alias the old key"
        assert r.model[2] is True

    def test_unconstrained_variables_replay_false(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1]], num_vars=5))  # vars 2..5 in no clause
        ra = a.solve()
        b = caching(cache)
        b.add_formula(CNF([[1]], num_vars=5))
        rb = b.solve()
        assert rb.stats.cache_hits == 1
        for var in range(2, 6):
            assert rb.model[var] is ra.model[var] is False

    def test_backends_never_alias(self):
        cache = SatQueryCache()
        c = caching(cache, backend="cdcl")
        c.add_formula(CNF([[1, 2]], num_vars=2))
        assert c.solve().stats.cache_misses == 1
        d = caching(cache, backend="dpll")
        d.add_formula(CNF([[1, 2]], num_vars=2))
        assert d.solve().stats.cache_misses == 1, "backend name is part of the key"

    def test_dpll_inner_replays_identically(self):
        cache = SatQueryCache()
        a = caching(cache, backend="dpll")
        formula = CNF([[1, 2], [-1, 3], [-2, -3]], num_vars=3)
        a.add_formula(formula)
        ra = a.solve()
        b = caching(cache, backend="dpll")
        b.add_formula(formula)
        rb = b.solve()
        assert rb.stats.cache_hits == 1
        assert rb.model == ra.model

    def test_version_is_part_of_the_key_seed(self, monkeypatch):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1]], num_vars=1))
        a.solve()
        monkeypatch.setattr("repro.sat.cache.SAT_CACHE_VERSION", SAT_CACHE_VERSION + "x")
        b = caching(cache)
        b.add_formula(CNF([[1]], num_vars=1))
        assert b.solve().stats.cache_misses == 1


class TestCheckerIntegration:
    def test_cross_file_hits_with_identical_verdicts(self):
        from repro.websari.pipeline import WebSSARI

        shape = (
            "<?php\n"
            "$out{0} = 'ok';\n"
            "if ($_GET['q{0}']) {{ $out{0} = $out{0} . $_GET['q{0}']; }}\n"
            "echo $out{0};\n"
        )
        cache = SatQueryCache()
        websari = WebSSARI(sat_cache=cache)
        baseline = WebSSARI()
        for i in range(3):
            source = shape.format(i)
            cached_report = websari.verify_source(source, f"f{i}.php")
            plain_report = baseline.verify_source(source, f"f{i}.php")
            assert cached_report.safe is plain_report.safe is False
            assert cached_report.bmc_group_count == plain_report.bmc_group_count
            assert cached_report.summary() == plain_report.summary()
        assert cache.hits > 0, "files 2..3 must replay file 1's queries"

    def test_solver_stats_surface_hit_counters(self):
        from repro.websari.pipeline import WebSSARI

        cache = SatQueryCache()
        websari = WebSSARI(sat_cache=cache)
        source = "<?php if ($_GET['a']) { echo $_GET['a']; }\n"
        first = websari.verify_source(source, "a.php")
        second = websari.verify_source(source, "b.php")
        assert first.bmc.solver_stats.get("cache_misses", 0) > 0
        assert second.bmc.solver_stats.get("cache_hits", 0) > 0
        assert second.bmc.solver_stats.get("cache_misses", 0) == 0
