"""Tests for the paired wall-time gates and the exact work pins.

No wall-clock bound is asserted here: the gates' 3% bounds are below a
shared host's resolution, so ``python -m repro bench`` judges them on
a quiet machine.  These tests pin the deterministic work instead.
"""

from dataclasses import replace

import pytest

from repro.perf import (
    CHECKPOINT,
    JOBS,
    TELEMETRY,
    BenchError,
    Gate,
    Work,
    fuzz_loop,
    measure,
)

#: Deterministic fuzz-loop counters at fixed iteration budgets: the
#: same on every machine, so any change is a change in the work done.
#: quickstart-pruned equals quickstart because no BOOM channel is
#: statically dead, so pruning must be a no-op.
PINS = {
    "quickstart@60": Work(60, 861358, 35144, 41218, 6365, 20),
    "contract-ablation@40": Work(40, 696987, 24642, 35643, 5941, 0),
    "spec-cpu-quickstart@120": Work(120, 126675, 1528, 817, 130, 61),
    "composed-clauses@40": Work(40, 267603, 10956, 13147, 5443, 0),
    "quickstart-pruned@60": Work(60, 861358, 35144, 41218, 6365, 20),
}


@pytest.mark.parametrize("request_", sorted(PINS))
def test_deterministic_counts_are_pinned(request_):
    scenario, _, iterations = request_.partition("@")
    _seconds, work = fuzz_loop(scenario, int(iterations))
    assert work == PINS[request_]


def _impossible(result):
    return replace(result, gate=replace(result.gate, max_ratio=0.0))


# measure() raises BenchError unless both sides of every pair did equal
# Work, so each paired test below also checks that instrumentation
# observes and does not perturb.
class TestTelemetryOverhead:
    def test_paired_measurement_and_gate(self):
        result = measure(replace(TELEMETRY, iterations=3), pairs=2)
        assert result.work.iterations == 3
        assert len(result.ratios) == 2
        assert all(ratio > 0 for ratio in result.ratios)
        assert not _impossible(result).passed
        assert "FAIL" in _impossible(result).render()

    def test_instrumented_bench_restores_the_null_recorder(self):
        from repro import telemetry

        fuzz_loop("quickstart", 2, telemetry=True)
        assert not telemetry.enabled()


class TestCheckpointOverhead:
    def test_paired_measurement_and_gate(self):
        result = measure(replace(CHECKPOINT, iterations=4, b={
            "checkpoint_every": 2}), pairs=2)
        assert result.work.iterations == 4
        assert not _impossible(result).passed


class TestScaling:
    @pytest.fixture(scope="class")
    def scaling(self):
        return measure(replace(JOBS, iterations=3), pairs=2)

    def test_scaling_measures_every_jobs_count(self, scaling):
        assert len(scaling.ratios) == 2
        assert all(ratio > 0 for ratio in scaling.ratios)
        assert scaling.ratio == pytest.approx(sum(scaling.ratios) / 2)

    def test_scaling_merges_are_deterministic(self, scaling):
        # measure() raises unless report.txt is byte-identical across
        # jobs=1 and jobs=2 in every pair.
        assert scaling.work.startswith(b"== Specure campaign report ==")

    def test_check_scaling_gates_speedup_and_determinism(self, scaling):
        assert not _impossible(scaling).passed
        leaky = Gate("leaky", lambda _scenario, _iterations, side:
                     (1.0, side), {"side": "a"}, {"side": "b"}, 1.0)
        with pytest.raises(BenchError, match="leaky"):
            measure(leaky, pairs=1)


class TestBenchCli:
    def test_bench_takes_no_options(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_:
            main(["bench", "--iterations", "3"])
        assert exit_.value.code == 2

    def test_failed_gate_is_named(self, monkeypatch, capsys):
        import repro.perf
        from repro.__main__ import main

        def constant(_scenario, _iterations, seconds):
            return seconds, "same work"

        monkeypatch.setattr(repro.perf, "GATES", (
            Gate("fast", constant, {"seconds": 2.0}, {"seconds": 1.0}, 1.0),
            Gate("slow", constant, {"seconds": 1.0}, {"seconds": 2.0}, 1.0),
        ))
        assert main(["bench"]) == 1
        out, err = capsys.readouterr()
        assert "fast: median B/A wall time 0.500" in out
        assert "failed: slow" in err
