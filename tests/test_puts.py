"""The first-class PUT abstraction: both backends under one protocol.

Pins the three contracts the abstraction introduces:

* **dispatch** — `build_put`/`statics_key` route each configuration
  type to its backend and key the per-process shared statics;
* **protocol equivalence** — driving a backend through
  `reset`/`step`/`finish` is byte-identical to the batch `run` form,
  for BOOM and for the Verilog core;
* **model fidelity** — the spec-cpu golden model commits the same
  architectural path (PCs and stores) as the RTL, over the seed corpus
  and random programs, which is what makes the contract detector's
  equal-model input classes sound on the Verilog route.
"""

import random

import pytest

from repro.boom.config import BoomConfig
from repro.boom.core import BoomCore
from repro.contracts.hwtrace import HardwareTraceCollector
from repro.core.specure import Specure, stop_on_kind
from repro.fuzz.input import TestProgram
from repro.fuzz.seeds import special_seeds
from repro.puts.base import (
    Put,
    boom_signal_map,
    build_put,
    design_of,
    statics_key,
)
from repro.puts.rtl import RtlPut, RtlPutConfig
from repro.puts.spec_cpu import (
    SPEC_CPU_CLAUSES,
    spec_cpu_contract_trace,
    spec_cpu_seeds,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioError, ScenarioSpec


def result_fingerprint(result):
    """Every observable field of a CoreResult, comparable for equality."""
    return (
        result.trace.initial,
        result.trace.columns(),
        result.commits,
        result.windows,
        result.coverage_points,
        result.cycles,
        result.instret,
        result.halt_reason,
        result.arch_regs,
        result.csr_values,
        result.squashed_count,
    )


class TestDispatch:
    def test_boom_config_builds_boom_core(self):
        put = build_put(BoomConfig.small())
        assert isinstance(put, BoomCore)
        assert put.design == "boom"

    def test_rtl_config_builds_rtl_put(self):
        put = build_put(RtlPutConfig())
        assert isinstance(put, RtlPut)
        assert isinstance(put, Put)
        assert put.design == "spec-cpu"

    def test_unknown_config_type_is_rejected(self):
        with pytest.raises(TypeError, match="no PUT backend"):
            build_put(object())

    def test_unknown_rtl_design_is_rejected(self):
        with pytest.raises(ValueError, match="unknown RTL design"):
            RtlPut(RtlPutConfig(design="mystery-core"))

    def test_statics_keys_never_alias_across_designs(self):
        assert design_of(BoomConfig.small()) == "boom"
        assert design_of(RtlPutConfig()) == "spec-cpu"
        assert statics_key(BoomConfig.small()) != statics_key(RtlPutConfig())
        assert statics_key(BoomConfig.small()) == \
            statics_key(BoomConfig.small())


class TestProtocolEquivalence:
    def test_boom_stepwise_equals_batch_run(self):
        program = special_seeds()[0]
        batch = BoomCore(BoomConfig.small()).run(program)
        core = BoomCore(BoomConfig.small())
        core.reset(program)
        while core.step():
            pass
        stepped = core.finish()
        assert result_fingerprint(stepped) == result_fingerprint(batch)

    def test_boom_step_stays_false_after_the_run_ends(self):
        core = BoomCore(BoomConfig.small())
        core.reset(special_seeds()[0])
        while core.step():
            pass
        assert core.step() is False
        assert core.step() is False

    def test_rtl_stepwise_equals_batch_run(self):
        program = spec_cpu_seeds(RtlPutConfig())[0]
        batch = RtlPut(RtlPutConfig()).run(program)
        put = RtlPut(RtlPutConfig())
        put.reset(program)
        while put.step():
            pass
        stepped = put.finish()
        assert result_fingerprint(stepped) == result_fingerprint(batch)

    def test_rtl_put_is_exact_under_reuse(self):
        put = RtlPut(RtlPutConfig())
        program = spec_cpu_seeds(RtlPutConfig())[0]
        first = put.run(program)
        second = put.run(program)
        assert result_fingerprint(first) == result_fingerprint(second)


class TestBoomSignalMap:
    def test_names_match_the_netlist_helpers(self):
        from repro.boom import netlist as nl

        config = BoomConfig.small()
        signal_map = boom_signal_map(config)
        assert signal_map.arch_pc == nl.sig_arch_pc()
        assert signal_map.arch_reg(7) == nl.sig_arch_x(7)
        for s in range(config.dcache_sets):
            for w in range(config.dcache_ways):
                assert signal_map.dcache.tag_name(s, w) == nl.sig_dc_tag(s, w)
                assert signal_map.dcache.valid_name(s, w) == \
                    nl.sig_dc_valid(s, w)

    def test_collector_watches_the_same_signals_either_way(self):
        core = BoomCore(BoomConfig.small())
        names = core.signal_names()
        historic = HardwareTraceCollector(core.config, names)
        mapped = HardwareTraceCollector(core.config, names,
                                        signal_map=core.signal_map())
        assert historic._watched == mapped._watched
        assert historic._dc_role == mapped._dc_role


class TestSpecCpuWindows:
    def test_gadget_seed_opens_a_mispredicted_window(self):
        put = RtlPut(RtlPutConfig())
        result = put.run(spec_cpu_seeds(RtlPutConfig())[0])
        assert result.halt_reason == "ecall"
        assert any(w.mispredicted for w in result.windows)
        assert any(c.is_halt for c in result.commits)

    def test_wrong_path_loads_never_commit(self):
        put = RtlPut(RtlPutConfig())
        program = spec_cpu_seeds(RtlPutConfig())[0]
        result = put.run(program)
        model = spec_cpu_contract_trace(program, clause="ct-seq")
        model_loads = {v for k, v in model.observations if k == "load"}
        hw_loads = {c.load_addr for c in result.commits
                    if c.load_addr is not None}
        assert hw_loads <= model_loads


class TestModelFidelity:
    """The golden model commits the RTL's exact architectural path."""

    def assert_matches(self, put, program):
        hw = put.run(program)
        model = spec_cpu_contract_trace(program, clause="ct-seq")
        model_pcs = [v for k, v in model.observations if k == "pc"]
        hw_pcs = [c.pc for c in hw.commits]
        # The model's pc stream may run one fetch past the last commit
        # (it observes the halting fetch; the RTL stops at the commit).
        assert model_pcs[: len(hw_pcs)] == hw_pcs
        assert [v for k, v in model.observations if k == "store"] == \
            [c.store_addr for c in hw.commits if c.store_addr is not None]

    def test_seed_corpus(self):
        put = RtlPut(RtlPutConfig())
        for program in spec_cpu_seeds(RtlPutConfig()):
            self.assert_matches(put, program)

    def test_random_programs(self):
        put = RtlPut(RtlPutConfig())
        rng = random.Random(0xC0FFEE)
        for _ in range(25):
            words = [rng.getrandbits(32)
                     for _ in range(rng.randint(2, 10))]
            regs = [0] * 32
            for i in range(1, 8):
                regs[i] = 0x8100_0000 + rng.randrange(0, 0x200, 4)
            program = TestProgram(words=words, reg_init=regs,
                                  data_seed=rng.getrandbits(16),
                                  max_cycles=80)
            self.assert_matches(put, program)


class TestSpecCpuCampaign:
    def test_both_detectors_find_the_seeded_leak(self):
        specure = Specure(RtlPutConfig(), seed=3, monitor_dcache=True,
                          detector="both", contract="ct-seq",
                          inputs_per_class=2)
        report = specure.campaign(40, stop_when=stop_on_kind("spectre_v1"))
        kinds = {r.kind for r in report.reports}
        assert "spectre_v1" in kinds
        assert "contract_ct_seq" in kinds

    def test_sharded_merge_matches_inline(self):
        from repro.scenarios import ScenarioSpec, run_scenario

        spec = ScenarioSpec(name="spec-cpu-sharded", design="spec-cpu",
                            vulns=(), seed=7, monitor_dcache=True,
                            iterations=4, shards=2)
        inline, procs = (
            run_scenario(spec, jobs=jobs, minimize=False).report
            for jobs in (1, 2)
        )
        assert procs.fuzz.iterations == inline.fuzz.iterations == 8
        assert procs.render(mst_limit=None, include_timings=False) == \
            inline.render(mst_limit=None, include_timings=False)

    def test_unsupported_clause_is_rejected_at_wiring_time(self):
        specure = Specure(RtlPutConfig(), detector="contract",
                          contract="ct-cond")
        with pytest.raises(ValueError, match="not supported"):
            specure.build_online()


class TestSpecCpuScenarios:
    def test_registry_rows_exist(self):
        quickstart = get_scenario("spec-cpu-quickstart")
        assert quickstart.design == "spec-cpu"
        hunt = get_scenario("spec-cpu-spectre-v1")
        assert hunt.detector == "both"
        assert hunt.stop_kind == "spectre_v1"
        assert isinstance(hunt.build_config(), RtlPutConfig)

    def test_vuln_hooks_are_rejected_on_the_verilog_core(self):
        with pytest.raises(ScenarioError, match="no vulnerability emulation"):
            ScenarioSpec(name="x", design="spec-cpu",
                         vulns=("mwait",))

    def test_unsupported_contract_clause_is_rejected(self):
        assert "ct-cond" not in SPEC_CPU_CLAUSES
        with pytest.raises(ScenarioError, match="implements only"):
            ScenarioSpec(name="x", design="spec-cpu", vulns=(),
                         detector="contract", contract="ct-cond")
