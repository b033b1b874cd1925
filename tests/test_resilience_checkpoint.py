"""Checkpoint/resume: atomic snapshots, fingerprint guard, exact resume.

The pinned acceptance case for ISSUE 5: a run killed mid-flight and
resumed from its checkpoint reproduces the exact path set of an
uninterrupted run.
"""

import json

import pytest

from repro.core.report import path_from_dict, path_to_dict
from repro.core.sta import TruePathSTA
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap
from repro.resilience.checkpoint import (
    CheckpointWriter,
    config_fingerprint,
    load_checkpoint,
)
from repro.resilience.errors import CheckpointError, SearchInterrupted
from repro.verify.faults import FaultPlan
from repro.verify.metamorphic import _path_identity


def _circuit(seed=31, gates=30):
    return techmap(random_dag(f"ckpt{seed}", 6, gates, seed=seed,
                              n_outputs=3))


class TestFingerprint:
    def test_stable_for_identical_config(self):
        kwargs = {"max_paths": 10, "budgets": None}
        assert (config_fingerprint("c", ["a", "b"], kwargs)
                == config_fingerprint("c", ["a", "b"], dict(kwargs)))

    def test_differs_on_any_axis(self):
        base = config_fingerprint("c", ["a"], {"max_paths": 10})
        assert base != config_fingerprint("d", ["a"], {"max_paths": 10})
        assert base != config_fingerprint("c", ["b"], {"max_paths": 10})
        assert base != config_fingerprint("c", ["a"], {"max_paths": 11})

    def test_built_only_for_a_checkpoint_or_a_resume(
            self, charlib_poly_90, monkeypatch):
        from repro.resilience import supervisor

        def refuse(*_args):
            raise AssertionError("fingerprint built without a reader")

        monkeypatch.setattr(supervisor, "config_fingerprint", refuse)
        sta = TruePathSTA(_circuit(), charlib_poly_90)
        assert sta.analyze(n_worst=3, max_paths=50).paths


class TestPathRoundTrip:
    def test_json_round_trip_is_bit_exact(self, charlib_poly_90):
        circuit = _circuit()
        paths = TruePathSTA(circuit, charlib_poly_90).enumerate_paths()
        assert paths
        for path in paths:
            # Through dict AND through JSON text: Python floats
            # round-trip exactly via repr, so arrivals stay bit-equal.
            wire = json.loads(json.dumps(path_to_dict(path)))
            clone = path_from_dict(wire)
            assert _path_identity(clone) == _path_identity(path)


class TestCheckpointFile:
    def test_writer_load_round_trip(self, tmp_path, charlib_poly_90):
        circuit = _circuit()
        paths = TruePathSTA(circuit, charlib_poly_90).enumerate_paths()
        target = tmp_path / "run.json"
        writer = CheckpointWriter(str(target), circuit.name, "fp123")
        writer.record("I0", "complete", paths[:2], {"paths_found": 2},
                      {"delaycalc.arc_evaluations": 5})
        writer.flush()
        loaded = load_checkpoint(str(target), "fp123")
        assert loaded.completed_origins() == ["I0"]
        status, got, stats, deltas = loaded.shard_result("I0")
        assert status == "complete"
        assert [_path_identity(p) for p in got] \
            == [_path_identity(p) for p in paths[:2]]
        assert stats["paths_found"] == 2
        assert deltas["delaycalc.arc_evaluations"] == 5

    def test_partial_shards_are_not_adoptable(self, tmp_path):
        target = tmp_path / "run.json"
        writer = CheckpointWriter(str(target), "c", "fp")
        writer.record("I0", "partial", [], {}, {})
        writer.flush()
        assert load_checkpoint(str(target), "fp").completed_origins() == []

    def test_no_stale_tmp_file_left(self, tmp_path):
        target = tmp_path / "run.json"
        writer = CheckpointWriter(str(target), "c", "fp")
        writer.record("I0", "complete", [], {}, {})
        writer.flush()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "run.json"]
        assert leftovers == []

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(target), "fp")

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.json"), "fp")

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        target = tmp_path / "run.json"
        writer = CheckpointWriter(str(target), "c", "fp-a")
        writer.record("I0", "complete", [], {}, {})
        writer.flush()
        with pytest.raises(CheckpointError):
            load_checkpoint(str(target), "fp-b")


class TestResumeEquivalence:
    """Pinned: interrupt + resume == uninterrupted run, exactly."""

    def test_killed_run_resumes_to_exact_path_set(
            self, tmp_path, charlib_poly_90):
        circuit = _circuit(seed=33)
        reference = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=2)
        reference_ids = [_path_identity(p) for p in reference.paths]

        checkpoint = tmp_path / "killed.json"
        with pytest.raises(SearchInterrupted):
            TruePathSTA(circuit, charlib_poly_90).analyze(
                jobs=2, checkpoint=str(checkpoint),
                fault_plan=FaultPlan(interrupt_after=2))
        resumed = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, resume=str(checkpoint))
        assert [_path_identity(p) for p in resumed.paths] == reference_ids
        assert resumed.resumed_shards >= 2
        assert resumed.completeness.complete

    def test_resume_rejects_different_search_config(
            self, tmp_path, charlib_poly_90):
        circuit = _circuit(seed=33)
        checkpoint = tmp_path / "cfg.json"
        TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=1, checkpoint=str(checkpoint))
        with pytest.raises(CheckpointError):
            TruePathSTA(circuit, charlib_poly_90).analyze(
                jobs=1, max_paths=3, resume=str(checkpoint))

    def test_resume_then_checkpoint_carries_adopted_shards(
            self, tmp_path, charlib_poly_90):
        """Resuming into a new checkpoint must re-record adopted shards
        so the new snapshot is complete on its own."""
        circuit = _circuit(seed=33)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        with pytest.raises(SearchInterrupted):
            TruePathSTA(circuit, charlib_poly_90).analyze(
                jobs=2, checkpoint=str(first),
                fault_plan=FaultPlan(interrupt_after=2))
        TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, resume=str(first), checkpoint=str(second))
        reference = TruePathSTA(circuit, charlib_poly_90).analyze(jobs=2)
        final = TruePathSTA(circuit, charlib_poly_90).analyze(
            jobs=2, resume=str(second))
        assert final.resumed_shards == len(circuit.inputs)
        assert ([_path_identity(p) for p in final.paths]
                == [_path_identity(p) for p in reference.paths])
