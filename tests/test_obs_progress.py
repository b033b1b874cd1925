"""Heartbeat publishing and the progress board (repro.obs.progress)."""

from __future__ import annotations

import io

import pytest

from repro.obs.progress import (
    HeartbeatPublisher,
    ProgressBoard,
    ProgressRenderer,
)


class _Finder:
    """Minimal stand-in for PathFinder's progress-facing surface."""

    def __init__(self, extensions=0, paths=0, best=None):
        class _Stats:
            pass

        self.stats = _Stats()
        self.stats.extensions_tried = extensions
        self.stats.paths_found = paths
        self.best_arrival = best


class TestHeartbeatPublisher:
    def test_beats_carry_origin_phase_and_counts(self):
        beats = []
        publisher = HeartbeatPublisher(beats.append, "I4", min_interval=0.0)
        publisher.started()
        publisher(_Finder(extensions=100, paths=3, best=1.5e-10))
        publisher.done(extensions=250, paths=7, best=2.0e-10)

        assert [b["phase"] for b in beats] == ["started", "running", "done"]
        assert all(b["origin"] == "I4" for b in beats)
        assert beats[1]["extensions"] == 100
        done = beats[2]
        assert done["extensions"] == 250
        assert done["paths"] == 7
        assert done["best"] == pytest.approx(2.0e-10)
        assert done["ts"] > 0

    def test_periodic_beats_are_wall_throttled(self):
        beats = []
        publisher = HeartbeatPublisher(beats.append, "I0",
                                       min_interval=3600.0)
        publisher(_Finder(extensions=1))
        publisher(_Finder(extensions=2))
        publisher(_Finder(extensions=3))
        assert len(beats) == 1  # first passes, the rest are throttled

    def test_broken_sink_never_raises(self):
        def sink(_beat):
            raise BrokenPipeError("parent gone")

        publisher = HeartbeatPublisher(sink, "I0", min_interval=0.0)
        publisher.started()
        publisher(_Finder(extensions=1))
        publisher.done()


class TestProgressBoard:
    def test_done_beat_count_is_authoritative(self):
        """A stale throttled running count must not shadow the final
        extension count in the done beat (regression: the board showed
        ext 87 for a 224-extension run)."""
        board = ProgressBoard(total_origins=2)
        publisher = HeartbeatPublisher(board.update, "I0", min_interval=0.0)
        publisher.started()
        publisher(_Finder(extensions=10))  # stale periodic beat
        publisher.done(extensions=100, paths=4)
        assert board.extensions == 100
        assert board.done == 1
        assert board.paths == 4

    def test_running_counts_sum_live(self):
        board = ProgressBoard(total_origins=3)
        for origin, ext in (("I0", 10), ("I1", 20)):
            HeartbeatPublisher(board.update, origin,
                               min_interval=0.0)(_Finder(extensions=ext))
        assert board.extensions == 30
        assert board.done == 0

    def test_mark_done_banks_given_counts(self):
        board = ProgressBoard(total_origins=1)
        board.mark_done("I0", paths=5, extensions=42)
        assert board.done == 1
        assert board.paths == 5
        assert board.extensions == 42

    def test_mark_done_falls_back_to_live_count(self):
        board = ProgressBoard(total_origins=1)
        board.update({"origin": "I0", "phase": "running", "extensions": 9})
        board.mark_done("I0")
        assert board.extensions == 9

    def test_best_folds_maximum(self):
        board = ProgressBoard(total_origins=2)
        board.update({"origin": "I0", "phase": "running", "best": 1e-10})
        board.update({"origin": "I1", "phase": "running", "best": 3e-10})
        board.update({"origin": "I0", "phase": "running", "best": 2e-10})
        assert board.best == 3e-10

    def test_beat_age_tracks_last_beat(self):
        board = ProgressBoard(total_origins=1)
        assert board.beat_age("I0") is None
        board.update({"origin": "I0", "phase": "started"})
        age = board.beat_age("I0")
        assert age is not None and age >= 0.0

    def test_eta_only_between_first_and_last_origin(self):
        board = ProgressBoard(total_origins=2)
        assert board.eta_seconds() is None
        board.mark_done("I0")
        assert board.eta_seconds() is not None
        board.mark_done("I1")
        assert board.eta_seconds() is None

    def test_summary_mentions_origins_and_extensions(self):
        board = ProgressBoard(total_origins=4)
        board.mark_done("I0", paths=2, extensions=1_500_000)
        line = board.summary()
        assert "origins 1/4" in line
        assert "ext 1.5M" in line
        assert "paths 2" in line


class TestProgressRenderer:
    def test_non_tty_appends_lines(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, min_interval=0.0)
        board = ProgressBoard(total_origins=1, renderer=renderer)
        board.mark_done("I0")
        board.close()
        text = stream.getvalue()
        assert "\r" not in text
        assert text.endswith("origins 1/1\n")

    def test_renderer_throttles(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, min_interval=3600.0)
        board = ProgressBoard(total_origins=3, renderer=renderer)
        board.mark_done("I0")
        board.mark_done("I1")
        # Only the close() line is guaranteed beyond the first render.
        board.close()
        assert stream.getvalue().count("\n") <= 2
