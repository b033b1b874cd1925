"""CLI hardening: error taxonomy exit codes and resilience flags."""

import json

import pytest

from repro.cli import main
from repro.netlist.bench import C17_BENCH
from repro.resilience.errors import (
    EXIT_CONFIG,
    EXIT_DATAERR,
    EXIT_NOINPUT,
)


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "c17.bench"
    path.write_text(C17_BENCH)
    return str(path)


class TestExitCodes:
    def test_missing_netlist_is_noinput(self, capsys):
        rc = main(["analyze", "/no/such/netlist.bench"])
        assert rc == EXIT_NOINPUT
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_suite_circuit_is_dataerr(self, capsys):
        rc = main(["analyze", "iscas:nonexistent"])
        assert rc == EXIT_DATAERR
        assert "error:" in capsys.readouterr().err

    def test_malformed_netlist_is_dataerr(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text("OUTPUT(y)\ny = FROB(a, b)\n")
        rc = main(["analyze", str(bad)])
        assert rc == EXIT_DATAERR
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_mismatch_is_config_error(
            self, bench_file, tmp_path, capsys, charlib_poly_90):
        checkpoint = tmp_path / "run.json"
        assert main(["analyze", bench_file, "--no-map",
                     "--checkpoint", str(checkpoint)]) == 0
        rc = main(["analyze", bench_file, "--no-map", "--max-paths", "3",
                   "--resume", str(checkpoint)])
        assert rc == EXIT_CONFIG
        assert "fingerprint" in capsys.readouterr().err

    def test_bad_missing_arc_policy_is_config_error(
            self, bench_file, capsys, charlib_poly_90):
        """Satellite: an invalid policy must exit through the taxonomy
        (EX_CONFIG), not argparse's generic exit 2."""
        rc = main(["analyze", bench_file, "--no-map",
                   "--missing-arc-policy", "bogus"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_jobs_zero_is_config_error(self, bench_file, capsys,
                                       charlib_poly_90):
        rc = main(["analyze", bench_file, "--no-map", "--jobs", "0"])
        assert rc == EXIT_CONFIG
        assert "jobs" in capsys.readouterr().err

    def test_config_error_is_both_taxonomized_and_a_value_error(self):
        from repro.resilience.errors import ConfigError, ResilienceError

        exc = ConfigError("boom")
        assert isinstance(exc, ResilienceError)
        assert isinstance(exc, ValueError)  # legacy callers catch this
        assert exc.exit_code == EXIT_CONFIG

    def test_debug_log_level_keeps_the_stack(self, clean_obs):
        with pytest.raises(FileNotFoundError):
            main(["analyze", "/no/such/netlist.bench",
                  "--log-level", "debug"])


class TestResilienceFlags:
    def test_budget_run_reports_completeness_and_bounds(
            self, capsys, clean_obs, charlib_poly_90, tmp_path):
        metrics = tmp_path / "metrics.json"
        rc = main(["analyze", "iscas:c432@0.1", "--extension-budget", "3",
                   "--metrics-json", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "origin completeness" in out
        assert "partial" in out
        assert "GBA bound" in out
        data = json.loads(metrics.read_text())
        assert data["resilience.degraded_origins"] > 0
        assert data["pathfinder.budget_trips"] >= 1

    def test_checkpoint_resume_round_trip(self, bench_file, tmp_path,
                                          capsys, charlib_poly_90):
        checkpoint = tmp_path / "ck.json"
        assert main(["analyze", bench_file, "--no-map",
                     "--checkpoint", str(checkpoint)]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", bench_file, "--no-map",
                     "--resume", str(checkpoint)]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[:5] == second.splitlines()[:5]

    def test_warn_substitute_policy_flag_accepted(self, bench_file,
                                                  capsys, charlib_poly_90):
        rc = main(["analyze", bench_file, "--no-map",
                   "--missing-arc-policy", "warn-substitute"])
        assert rc == 0
        assert "True-path report" in capsys.readouterr().out

    def test_supervised_n_worst_matches_plain(self, bench_file, capsys,
                                              charlib_poly_90):
        assert main(["analyze", bench_file, "--no-map",
                     "--n-worst", "3"]) == 0
        plain = capsys.readouterr().out
        # Any resilience flag routes through the supervised pipeline;
        # the report must not change.
        assert main(["analyze", bench_file, "--no-map", "--n-worst", "3",
                     "--shard-retries", "1", "--extension-budget",
                     "1000000"]) == 0
        supervised = capsys.readouterr().out
        assert plain.splitlines()[:4] == supervised.splitlines()[:4]


class TestWarnSubstituteEquivalence:
    def test_serial_and_parallel_substitutions_identical(
            self, charlib_poly_90):
        """Satellite (c): under warn-substitute on a corrupted library,
        serial and parallel runs pick identical substitute arcs."""
        from repro.netlist.generate import random_dag
        from repro.netlist.techmap import techmap
        from repro.core.sta import TruePathSTA
        from repro.verify.faults import corrupt_charlib
        from repro.verify.metamorphic import _path_identity

        circuit = techmap(random_dag("sub7", 6, 30, seed=7, n_outputs=3))
        corrupted, dropped = corrupt_charlib(charlib_poly_90, circuit,
                                             seed=2)
        assert dropped
        serial = TruePathSTA(
            circuit, corrupted, missing_arc_policy="warn-substitute",
        ).analyze(jobs=1)
        parallel = TruePathSTA(
            circuit, corrupted, missing_arc_policy="warn-substitute",
        ).analyze(jobs=2)
        assert ([_path_identity(p) for p in serial.paths]
                == [_path_identity(p) for p in parallel.paths])


class TestToolMissingArcPolicy:
    @pytest.mark.parametrize(
        "tool, compare, charlib_name, header",
        [("gba", False, "charlib_poly_90", "GBA endpoint arrivals"),
         ("gba", True, "charlib_poly_90", "GBA endpoint arrivals"),
         ("baseline", False, "charlib_lut_90", "two-step baseline:")],
        ids=["gba", "gba-compare", "baseline"],
    )
    def test_tool_honours_the_request_policy(self, request, tool, compare,
                                             charlib_name, header):
        """``--tool gba`` (and its ``--compare`` true-path side) and
        ``--tool baseline`` analyze under the request's missing-arc
        policy, which is part of the context key: warn-substitute
        renders, error still raises."""
        from repro.core.delaycalc import MissingArcsError
        from repro.service.requests import (
            AnalysisContext, AnalysisRequest, execute_analysis, load_circuit,
        )
        from repro.verify.faults import corrupt_charlib

        charlib = request.getfixturevalue(charlib_name)

        def run(policy):
            circuit = load_circuit("iscas:c432@0.1")
            corrupted, dropped = corrupt_charlib(charlib, circuit, seed=3)
            assert dropped
            analysis = AnalysisRequest(
                "iscas:c432@0.1", tool=tool, compare=compare,
                missing_arc_policy=policy,
            )
            return execute_analysis(
                analysis, AnalysisContext(circuit=circuit, charlib=corrupted),
            )

        report = run("warn-substitute").report
        assert report.startswith(header)
        assert ("gba_pessimism vs" in report) == compare
        with pytest.raises(MissingArcsError):
            run("error")
