"""Tests for coverage metrics: toggle, points, FSM, code, LP."""

import pytest

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.coverage.branchcov import bucket, point_items
from repro.coverage.code import CodeCoverage
from repro.coverage.fsm import fsm_items
from repro.coverage.lp import LpCoverage
from repro.coverage.toggle import toggle_items
from repro.core.offline import run_offline
from repro.fuzz.seeds import mispredict_seed
from repro.rtl.trace import SignalTrace


@pytest.fixture(scope="module")
def core():
    return BoomCore(BoomConfig.small(VulnConfig.all()))


@pytest.fixture(scope="module")
def offline(core):
    return run_offline(core.netlist)


@pytest.fixture(scope="module")
def seed_result(core):
    return core.run(mispredict_seed())


class TestToggleItems:
    def test_bits_from_events(self):
        trace = SignalTrace(["a"], [0])
        trace.record(0, 0, 0, 0b101)
        items = set(toggle_items(trace))
        assert items == {("tog", 0, 0), ("tog", 0, 2)}

    def test_deduplicated(self):
        trace = SignalTrace(["a"], [0])
        trace.record(0, 0, 0, 1)
        trace.record(1, 0, 1, 0)
        assert len(list(toggle_items(trace))) == 1

    def test_bit_cap(self):
        trace = SignalTrace(["a"], [0])
        trace.record(0, 0, 0, (1 << 40) | 1)
        items = list(toggle_items(trace, max_bits_per_signal=16))
        assert items == [("tog", 0, 0)]


class TestPointItems:
    def test_bucket_levels(self):
        assert bucket(0) == 0
        assert bucket(3) == 3
        assert bucket(5) == 4
        assert bucket(100) == 7
        assert bucket(1000) == 8

    def test_items_accumulate_with_count(self):
        few = set(point_items({"dcache.hits": 2}))
        many = set(point_items({"dcache.hits": 50}))
        assert few < many

    def test_fsm_excluded(self):
        items = list(point_items({"fsm.rob_low": 5, "exec.alu": 1}))
        assert all(name != "fsm.rob_low" for _, name, _ in items)


class TestFsmItems:
    def test_only_fsm_states(self):
        items = set(fsm_items({"fsm.rob_low": 2, "exec.alu": 9}))
        assert items == {("fsm", "fsm.rob_low")}


class TestCodeCoverage:
    def test_nonempty_on_real_run(self, seed_result):
        items = CodeCoverage().items(seed_result)
        kinds = {item[0] for item in items}
        assert kinds == {"tog", "pt", "fsm"}
        assert len(items) > 100

    def test_items_are_hashable(self, seed_result):
        assert len(set(CodeCoverage().items(seed_result))) > 0


class TestLpCoverage:
    def test_total_matches_pdlc(self, offline, core):
        lp = LpCoverage(offline.pdlc, list(core.netlist.signals))
        assert lp.total == len(offline.pdlc)

    def test_covered_nonempty_on_speculative_seed(self, offline, core, seed_result):
        lp = LpCoverage(offline.pdlc, list(core.netlist.signals))
        covered = lp.covered(seed_result)
        assert covered
        assert all(0 <= index < lp.total for index in covered)

    def test_no_windows_no_coverage(self, offline, core):
        from repro.fuzz.input import TestProgram
        from repro.isa.assembler import assemble

        words = assemble("addi t0, zero, 1\naddi t1, t0, 2\necall\n")
        result = core.run(TestProgram(words=words))
        assert not result.windows
        lp = LpCoverage(offline.pdlc, list(core.netlist.signals))
        assert lp.covered(result) == set()

    def test_items_shape(self, offline, core, seed_result):
        lp = LpCoverage(offline.pdlc, list(core.netlist.signals))
        items = lp.items(seed_result)
        assert all(tag == "lp" for tag, _ in items)
        assert len(items) == len(lp.covered(seed_result))

    def test_covered_subset_of_togglecounted(self, offline, core, seed_result):
        """A covered PDLC's source toggled inside some speculative
        window (the window views' toggled sets are the ground truth)."""
        names = list(core.netlist.signals)
        lp = LpCoverage(offline.pdlc, names)
        covered = lp.covered(seed_result)
        assert covered
        trace = seed_result.trace
        toggled = {
            names[signal]
            for window in seed_result.windows
            for signal in trace.window_view(window.start, window.end).toggled()
        }
        assert {offline.pdlc[i].source for i in covered} <= toggled

    def test_deterministic(self, offline, core):
        lp = LpCoverage(offline.pdlc, list(core.netlist.signals))
        first = lp.covered(core.run(mispredict_seed()))
        second = lp.covered(core.run(mispredict_seed()))
        assert first == second
