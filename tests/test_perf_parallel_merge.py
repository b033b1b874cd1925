"""Merge edge cases of the parallel driver (repro.resilience.supervisor).

test_perf_parallel.py covers bulk serial/parallel equivalence on
generated circuits; this module pins the merge corners: shards that
contribute nothing, a single-origin circuit (jobs clamp), stats
merging across empty shards, and the max_paths truncation point.
"""

from __future__ import annotations

import pytest

from repro.core.sta import TruePathSTA
from repro.netlist.circuit import Circuit


def _key(path):
    return (path.nets, path.vector_signature,
            tuple(pytest.approx(p.arrival) for p in path.polarities()))


def _dead_input_circuit(library):
    """b's cone is blocked: NAND2(m, !m) is constantly 1, so the shard
    for origin b finds zero paths while a's shard is live."""
    c = Circuit("deadshard", library)
    c.add_input("a")
    c.add_input("b")
    c.add_gate("INV", "x", {"A": "a"})
    c.add_gate("INV", "m", {"A": "b"})
    c.add_gate("INV", "mn", {"A": "m"})
    c.add_gate("NAND2", "blocked", {"A": "m", "B": "mn"})
    c.add_gate("AND2", "out", {"A": "x", "B": "blocked"})
    c.add_output("out")
    c.check()
    return c


class TestEmptyShard:
    def test_merge_skips_empty_shard(self, charlib_small_90, library):
        circuit = _dead_input_circuit(library)
        serial = TruePathSTA(circuit, charlib_small_90).enumerate_paths()
        assert serial, "sanity: the live origin must yield paths"
        assert all(p.nets[0] == "a" for p in serial)
        result = TruePathSTA(circuit, charlib_small_90).analyze(jobs=2)
        paths, stats = result.paths, result.stats
        assert [_key(p) for p in paths] == [_key(p) for p in serial]
        assert stats.paths_found == len(serial)

    def test_stats_merge_counts_empty_shard_effort(self, charlib_small_90,
                                                   library):
        """The blocked origin's search effort (extensions, conflicts)
        still lands in the merged stats even though it found nothing."""
        circuit = _dead_input_circuit(library)
        sta = TruePathSTA(circuit, charlib_small_90)
        sta.enumerate_paths()
        serial_stats = sta.last_stats
        merged = TruePathSTA(circuit, charlib_small_90).analyze(jobs=2).stats
        assert merged.extensions_tried == serial_stats.extensions_tried
        assert merged.conflicts == serial_stats.conflicts

    def test_no_live_origin_at_all(self, charlib_small_90, library):
        c = Circuit("allblocked", library)
        c.add_input("b")
        c.add_gate("INV", "m", {"A": "b"})
        c.add_gate("INV", "mn", {"A": "m"})
        c.add_gate("NAND2", "out", {"A": "m", "B": "mn"})
        c.add_output("out")
        c.check()
        result = TruePathSTA(c, charlib_small_90).analyze(jobs=2)
        paths, stats = result.paths, result.stats
        assert paths == []
        assert stats.paths_found == 0


class TestSingleOrigin:
    def _chain(self, library):
        c = Circuit("mono", library)
        c.add_input("a")
        c.add_gate("INV", "x", {"A": "a"})
        c.add_gate("INV", "y", {"A": "x"})
        c.add_gate("BUF", "out", {"A": "y"})
        c.add_output("out")
        c.check()
        return c

    def test_jobs_clamped_to_origin_count(self, charlib_small_90, library):
        circuit = self._chain(library)
        serial = TruePathSTA(circuit, charlib_small_90).enumerate_paths()
        # jobs=8 on a one-input circuit must clamp, not spawn idle
        # workers or duplicate the shard.
        result = TruePathSTA(circuit, charlib_small_90).analyze(jobs=8)
        paths, stats = result.paths, result.stats
        assert [_key(p) for p in paths] == [_key(p) for p in serial]
        assert stats.paths_found == len(serial)

    def test_jobs_zero_rejected(self, charlib_small_90, library):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            TruePathSTA(self._chain(library), charlib_small_90).analyze(jobs=0)


class TestOrderAndTruncation:
    def test_merge_preserves_origin_declaration_order(self, charlib_poly_90):
        from repro.netlist.generate import c17

        serial = TruePathSTA(c17(), charlib_poly_90).enumerate_paths()
        paths = TruePathSTA(c17(), charlib_poly_90).analyze(jobs=3).paths
        assert [_key(p) for p in paths] == [_key(p) for p in serial]

    def test_max_paths_truncates_merged_stream(self, charlib_poly_90):
        from repro.netlist.generate import c17

        serial = TruePathSTA(c17(), charlib_poly_90).enumerate_paths()
        limit = max(1, len(serial) // 2)
        paths = TruePathSTA(c17(), charlib_poly_90).analyze(
            jobs=2, max_paths=limit).paths
        assert len(paths) == limit
        # The kept prefix is origin-ordered like an early-stopped
        # serial run (per-shard streams are serial-identical).
        serial_by_key = {(_p.nets, _p.vector_signature) for _p in serial}
        assert all((p.nets, p.vector_signature) in serial_by_key
                   for p in paths)
