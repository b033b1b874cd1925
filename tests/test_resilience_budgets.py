"""Anytime-search budgets: ledger mechanics and degraded-mode results.

The integration half is the degraded-mode contract (ISSUE 5,
satellite c): a budget-exhausted search returns a *partial* path list
whose every entry is a true path of the unbudgeted run, tags each
origin with a completeness status, and attaches a GBA bound that
dominates anything the search did or could have returned.
"""

import pytest

from repro.core.sta import TruePathSTA
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap
from repro.resilience.budgets import (
    BudgetLedger,
    CompletenessReport,
    OriginOutcome,
    SearchBudgets,
    WALL_POLL_INTERVAL,
)
from repro.verify.metamorphic import GBA_REL_TOL, _path_identity


def _circuit(seed=5, gates=40):
    return techmap(random_dag(f"bud{seed}", 8, gates, seed=seed,
                              n_outputs=4))


class TestBudgetLedger:
    def test_unbounded_by_default(self):
        assert not SearchBudgets().bounded()
        assert SearchBudgets(max_extensions=1).bounded()
        assert SearchBudgets(wall_seconds=1.0).bounded()
        assert SearchBudgets(max_backtracks=1).bounded()

    def test_extension_budget_trips(self):
        ledger = BudgetLedger(SearchBudgets(max_extensions=3))
        assert all(ledger.charge_extension() for _ in range(3))
        assert not ledger.charge_extension()
        assert ledger.exhausted
        assert ledger.exhausted_axis == "extensions"
        # Once tripped, every further charge is refused.
        assert not ledger.charge_extension()
        assert not ledger.charge_backtracks(1)

    def test_backtrack_budget_trips(self):
        ledger = BudgetLedger(SearchBudgets(max_backtracks=10))
        assert ledger.charge_backtracks(10)
        assert not ledger.charge_backtracks(1)
        assert ledger.exhausted_axis == "backtracks"

    def test_wall_budget_polls_periodically(self):
        ledger = BudgetLedger(SearchBudgets(wall_seconds=0.0))
        # The hot loop only pays a clock read every WALL_POLL_INTERVAL
        # extensions, so an expired wall budget trips within one window.
        trips = 0
        for _ in range(WALL_POLL_INTERVAL + 1):
            if not ledger.charge_extension():
                trips += 1
        assert trips >= 1
        assert ledger.exhausted_axis == "wall_seconds"

    def test_as_dict_round_trip(self):
        budgets = SearchBudgets(wall_seconds=1.5, max_extensions=100)
        assert SearchBudgets(**budgets.as_dict()) == budgets


class TestCompletenessReport:
    def test_outcome_round_trip(self):
        outcome = OriginOutcome("I3", "partial", paths_found=7,
                                gba_bound=1.25e-10)
        assert OriginOutcome(**outcome.as_dict()) == outcome

    def test_summary_orders_statuses(self):
        report = CompletenessReport()
        report.origins["a"] = OriginOutcome("a", "complete")
        report.origins["b"] = OriginOutcome("b", "partial")
        report.origins["c"] = OriginOutcome("c", "failed")
        assert report.summary() == "1 complete, 1 partial, 1 failed"
        assert not report.complete
        assert set(report.degraded_origins()) == {"b", "c"}

    def test_capped_is_not_a_degradation(self):
        report = CompletenessReport()
        report.origins["a"] = OriginOutcome("a", "complete")
        report.origins["b"] = OriginOutcome("b", "capped")
        report.origins["c"] = OriginOutcome("c", "capped")
        assert report.complete
        assert report.degraded_origins() == {}
        assert report.summary() == "1 complete, 2 capped"

    def test_empty_report_is_complete(self):
        report = CompletenessReport()
        assert report.complete
        assert report.summary() == "no origins"


class TestDegradedSearch:
    """Completeness accounting of the session's search."""

    def test_unbudgeted_run_reports_all_complete(self, charlib_poly_90):
        circuit = _circuit(seed=6, gates=25)
        sta = TruePathSTA(circuit, charlib_poly_90)
        sta.enumerate_paths()
        assert sta.last_completeness.complete
        assert sta.last_stats.budget_trips == 0


class TestAnalyzeDegraded:
    """The supervised analyze() entry point (ISSUE 5 acceptance)."""

    def test_gba_bound_dominates_partial_arrivals(self, charlib_poly_90):
        circuit = _circuit(seed=9, gates=35)
        sta = TruePathSTA(circuit, charlib_poly_90)
        reference = sta.enumerate_paths()

        analysis = sta.analyze(budgets=SearchBudgets(max_extensions=10))
        assert analysis.degraded
        degraded = analysis.completeness.degraded_origins()
        assert degraded
        # Soundness under exhaustion: everything returned is a true
        # path of the unbudgeted run.
        assert ({_path_identity(p) for p in analysis.paths}
                <= {_path_identity(p) for p in reference})
        by_origin = {}
        for path in reference:
            origin = path.nets[0]
            by_origin[origin] = max(by_origin.get(origin, 0.0),
                                    path.worst_arrival)
        for name, outcome in degraded.items():
            assert outcome.gba_bound is not None
            # The bound must dominate every arrival the origin could
            # still produce (up to the documented GBA model noise) --
            # including the ones the budgeted search did return.
            if name in by_origin:
                assert (outcome.gba_bound * (1.0 + GBA_REL_TOL)
                        >= by_origin[name])
        for path in analysis.paths:
            outcome = analysis.completeness.origins[path.nets[0]]
            if outcome.status != "complete":
                assert (outcome.gba_bound * (1.0 + GBA_REL_TOL)
                        >= path.worst_arrival)
        text = analysis.describe_completeness()
        assert "origin completeness" in text
        assert "GBA bound" in text

    def test_gba_bound_comes_from_the_hot_session(self, charlib_poly_90,
                                                  clean_obs):
        """The bound is the session's own forward pass -- the same float
        as a fresh GraphSTA's worst endpoint arrival -- and computing it
        leaves the session's later searches unchanged."""
        from repro.core.graphsta import GraphSTA

        circuit = _circuit(seed=9, gates=35)
        sta = TruePathSTA(circuit, charlib_poly_90)
        analysis = sta.analyze(budgets=SearchBudgets(max_extensions=10))
        gba = GraphSTA(circuit, charlib_poly_90).run()
        want = max(gba.worst_arrival(output) for output in circuit.outputs)
        bounds = {outcome.gba_bound for outcome
                  in analysis.completeness.degraded_origins().values()}
        assert bounds == {want}

        def work(session):
            clean_obs.reset()
            session.analyze(n_worst=3)
            return {key: value for key, value in clean_obs.snapshot().items()
                    if key.startswith("pathfinder.") and "cpu" not in key
                    or key.startswith("delaycalc.arc_evaluations")}

        assert work(sta) == work(TruePathSTA(circuit, charlib_poly_90))

    def test_degraded_origins_metric_published(self, charlib_poly_90,
                                               clean_obs):
        circuit = _circuit(seed=9, gates=35)
        sta = TruePathSTA(circuit, charlib_poly_90)
        analysis = sta.analyze(budgets=SearchBudgets(max_extensions=10))
        assert analysis.degraded
        registry = clean_obs.metrics.REGISTRY
        assert registry.counter("resilience.degraded_origins").value > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_expired_wall_deadline_skips_every_origin(
            self, charlib_poly_90, clean_obs, jobs):
        """The wall axis is one deadline per analyze() call, shared by
        every shard: once it has passed, an origin is skipped before its
        first extension, in-process or on a pooled worker."""
        circuit = _circuit(seed=9, gates=35)
        sta = TruePathSTA(circuit, charlib_poly_90)
        analysis = sta.analyze(jobs=jobs,
                               budgets=SearchBudgets(wall_seconds=1e-9))
        assert analysis.stats.extensions_tried == 0
        assert clean_obs.snapshot()["pathfinder.extensions_tried"] == 0
        assert analysis.paths == []
        origins = analysis.completeness.origins
        assert list(origins) == list(circuit.inputs)
        for outcome in origins.values():
            assert outcome.status == "skipped"
            assert outcome.gba_bound is not None
