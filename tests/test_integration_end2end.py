"""End-to-end integration: both tools vs the electrical golden reference.

This is the Tables 7-9 pipeline in miniature -- one circuit, a couple of
electrically simulated paths -- asserting the paper's qualitative
outcome: the vector-resolved polynomial tool tracks the golden delays
much more closely than the vector-blind LUT baseline on multi-vector
paths.
"""

import pytest

from repro.core.delaycalc import DelayCalculator
from repro.core.sta import TruePathSTA
from repro.eval.fig4 import fig4_circuit
from repro.eval.golden import estimate_path_with, simulate_timed_path
from repro.eval.exp_accuracy import measure_circuit, select_paths
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap


@pytest.fixture(scope="module")
def fig4_setup(charlib_poly_90):
    circuit = fig4_circuit()
    sta = TruePathSTA(circuit, charlib_poly_90)
    paths = sta.enumerate_paths()
    return circuit, sta, paths


class TestGoldenAgreement:
    def test_model_tracks_golden_on_fig4(self, fig4_setup, tech90,
                                         charlib_poly_90):
        circuit, _sta, paths = fig4_setup
        from repro.eval.fig4 import CRITICAL_NETS

        critical = [p for p in paths if p.nets == CRITICAL_NETS]
        path = max(critical, key=lambda p: p.worst_arrival)
        polarity = max(path.polarities(), key=lambda p: p.arrival)
        golden = simulate_timed_path(
            circuit, charlib_poly_90, tech90, path, polarity,
            steps_per_window=250,
        )
        rel = abs(polarity.arrival - golden.path_delay) / golden.path_delay
        assert rel < 0.08  # paper: mean path error a few percent

    def test_golden_vector_ordering_matches_model(self, fig4_setup, tech90,
                                                  charlib_poly_90):
        """The model ranks the three AO22 vectors like the golden sim."""
        from repro.eval.fig4 import CRITICAL_NETS

        circuit, _sta, paths = fig4_setup
        critical = [p for p in paths if p.nets == CRITICAL_NETS]
        critical.sort(key=lambda p: p.worst_arrival)
        goldens = []
        for p in critical:
            pol = max(p.polarities(), key=lambda q: q.arrival)
            goldens.append(
                simulate_timed_path(circuit, charlib_poly_90, tech90, p, pol,
                                    steps_per_window=250).path_delay
            )
        assert goldens == sorted(goldens)


class TestBaselineWorseThanDeveloped:
    def test_accuracy_gap(self, tech90, charlib_poly_90, charlib_lut_90):
        circuit = fig4_circuit()
        row = measure_circuit(
            "fig4", circuit, tech90, charlib_poly_90, charlib_lut_90,
            paths_per_circuit=3, steps_per_window=250,
        )
        assert row.developed.mean_path_error < row.baseline.mean_path_error
        assert row.developed.mean_path_error < 0.10

    def test_blind_estimate_differs_on_nondefault_vector(
        self, fig4_setup, charlib_lut_90
    ):
        circuit, sta, paths = fig4_setup
        from repro.eval.fig4 import CRITICAL_NETS

        lut_calc = DelayCalculator(sta.ec, charlib_lut_90)
        critical = [p for p in paths if p.nets == CRITICAL_NETS]
        worst = max(critical, key=lambda p: p.worst_arrival)
        easy = min(critical, key=lambda p: p.worst_arrival)
        pol = max(worst.polarities(), key=lambda q: q.arrival)
        blind_total, _ = estimate_path_with(lut_calc, sta.ec, worst, pol)
        # The blind estimate cannot distinguish worst from easy vector.
        pol_easy = max(easy.polarities(), key=lambda q: q.arrival)
        blind_easy, _ = estimate_path_with(lut_calc, sta.ec, easy, pol_easy)
        assert blind_total == pytest.approx(blind_easy, rel=0.02)
        # ...but the vector-resolved arrival does distinguish them.
        assert worst.worst_arrival > easy.worst_arrival * 1.05


class TestSelectPaths:
    def test_prefers_multi_vector(self, charlib_poly_90):
        circuit = techmap(random_dag("sel", 14, 90, seed=23))
        sta = TruePathSTA(circuit, charlib_poly_90)
        paths = sta.enumerate_paths(max_paths=400)
        chosen = select_paths(paths, 5)
        assert len(chosen) == 5
        if any(p.multi_vector for p in paths):
            assert any(p.multi_vector for p in chosen)

    def test_keeps_worst_path(self, charlib_poly_90):
        circuit = techmap(random_dag("sel2", 14, 90, seed=29))
        sta = TruePathSTA(circuit, charlib_poly_90)
        paths = sta.enumerate_paths(max_paths=400)
        chosen = select_paths(paths, 4)
        worst = max(paths, key=lambda p: p.worst_arrival)
        pool_has_worst = worst.multi_vector or all(
            not p.multi_vector for p in paths
        )
        if pool_has_worst:
            assert worst in chosen
