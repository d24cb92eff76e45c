"""The Specure facade: offline phase + online phase + hardware fuzzer.

One object wires the full pipeline of the paper's Figure 1 and runs
campaigns:

    specure = Specure(BoomConfig.small(VulnConfig.all()), seed=7)
    report = specure.campaign(iterations=500)
    print(report.render())

Configuration knobs map one-to-one onto the paper's experiments:
``coverage`` selects LP vs traditional code coverage (Figure 2),
``monitor_dcache`` adds the data cache to the monitored observables
(the Spectre experiments), ``use_special_seeds`` toggles the speculative
seed corpus (the with/without-seeds detection-time numbers), and
``splice_probability``/``mutation_rounds`` tune the mutation engine.
``detector`` selects the detection pathway — the IFT/PDLC detector
(``"ift"``), the model-based relational contract detector
(``"contract"``, configured by ``contract``/``inputs_per_class``/
``max_spec_window``; see :mod:`repro.contracts`), or ``"both"`` for
cross-validation.

The same knobs travel two ways: directly through this constructor,
and declaratively as :class:`~repro.scenarios.spec.ScenarioSpec`
bundles that the scenario runner shards across worker processes,
persists and resumes (:mod:`repro.scenarios`).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.boom.config import BoomConfig
from repro.core.offline import OfflineArtifacts, run_offline
from repro.core.online import OnlinePhase
from repro.core.report import CampaignReport
from repro.fuzz.categories import validate_categories, words_in_categories
from repro.fuzz.crash import CRASH_KIND
from repro.fuzz.fuzzer import CampaignResult, Fuzzer, FuzzFinding
from repro.fuzz.input import TestProgram
from repro.fuzz.mutations import MutationEngine
from repro.fuzz.seeds import random_seed
from repro.puts.base import build_put
from repro.utils.rng import DeterministicRng


class SpecureCampaign:
    """A configured, reusable campaign runner (one fuzzer instance)."""

    def __init__(self, online: OnlinePhase, fuzzer: Fuzzer,
                 offline: OfflineArtifacts):
        self.online = online
        self.fuzzer = fuzzer
        self.offline = offline

    def run(
        self,
        iterations: int,
        stop_when: Callable[[list[FuzzFinding]], bool] | None = None,
        observer=None,  # FuzzObserver (telemetry heartbeats, progress)
        *,
        checkpoint_every: int = 0,
        on_checkpoint=None,     # (next_iteration, CampaignResult) -> None
        start_iteration: int = 0,
        resume_result: CampaignResult | None = None,
    ) -> CampaignReport:
        fuzz_result: CampaignResult = self.fuzzer.run(
            iterations, stop_when=stop_when, observer=observer,
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
            start_iteration=start_iteration, resume_result=resume_result,
        )
        mode = self.online.detector_mode
        # Contained crashes live in the fuzz findings (the step loop
        # never reached the point where the online phase records a
        # report) — surface them in the report's reports list so the
        # crash section, the store, and replay all see them.
        crashes = [finding.detail for finding in fuzz_result.findings
                   if finding.kind == CRASH_KIND]
        return CampaignReport(
            offline=self.offline,
            fuzz=fuzz_result,
            stats=self.online.stats,
            mst=self.online.mst,
            reports=self.online.reports + crashes,
            detectors=("ift", "contract") if mode == "both" else (mode,),
            static_prune=self.online.static_prune,
            lp_curves=[list(self.online.lp_curve)],
        )


class Specure:
    """Top-level entry point of the reproduction."""

    def __init__(
        self,
        config=None,  # BoomConfig, RtlPutConfig, ... (None: small BOOM)
        seed: int = 0,
        coverage: str = "lp",
        monitor_dcache: bool = False,
        use_special_seeds: bool = True,
        random_seed_count: int = 4,
        splice_probability: float = 0.15,
        mutation_rounds: int = 3,
        detector: str = "ift",
        contract: str = "ct-seq",
        inputs_per_class: int = 3,
        max_spec_window: int = 16,
        instruction_categories: tuple[str, ...] = (),
        static_prune: bool = False,
        core=None,  # any repro.puts.base.Put backend
        offline: OfflineArtifacts | None = None,
    ):
        """``core`` and ``offline`` inject prebuilt shared statics.

        Both are pure functions of the configuration (the core's engine
        resets exactly between programs; the offline artifacts derive
        from the netlist alone), so a process that runs many campaigns
        against one design — a fleet worker
        (:mod:`repro.harness.parallel`) — builds them once and hands
        them to every Specure instead of re-elaborating the netlist and
        re-running the offline phase per campaign.  When ``core`` is
        given, its configuration wins (it must equal ``config``).
        """
        if core is not None and config is not None \
                and core.config != config:
            raise ValueError(
                "Specure(config=..., core=...): the injected core was "
                "built for a different configuration"
            )
        self.config = core.config if core is not None \
            else (config or BoomConfig.small())
        self.seed = seed
        self.coverage = coverage
        self.monitor_dcache = monitor_dcache
        self.use_special_seeds = use_special_seeds
        self.random_seed_count = random_seed_count
        self.splice_probability = splice_probability
        self.mutation_rounds = mutation_rounds
        self.detector = detector
        self.contract = contract
        self.inputs_per_class = inputs_per_class
        self.max_spec_window = max_spec_window
        # Validated eagerly (with did-you-mean) so a typo fails at
        # construction, not mid-campaign.
        self.instruction_categories = validate_categories(
            instruction_categories
        )
        self.static_prune = static_prune
        self.core = core if core is not None else build_put(self.config)
        self._offline: OfflineArtifacts | None = offline

    def offline(self) -> OfflineArtifacts:
        """Run (and cache) the offline phase for this PUT."""
        if self._offline is None:
            self._offline = run_offline(self.core.offline_model())
        return self._offline

    def build_online(self, offline: OfflineArtifacts | None = None) -> OnlinePhase:
        """A fresh online pipeline wired with every configured knob.

        The single construction point the campaign builder, the finding
        minimizer, and replay all share, so detector configuration can
        never drift between the fuzzing loop and its re-checkers.
        ``offline`` injects precomputed artifacts (they are a pure
        function of the configuration) to skip re-running the offline
        phase; by default this Specure's own cached artifacts are used.
        """
        return OnlinePhase(
            self.core,
            offline if offline is not None else self.offline(),
            coverage=self.coverage,
            monitor_dcache=self.monitor_dcache,
            detector=self.detector,
            contract=self.contract,
            inputs_per_class=self.inputs_per_class,
            max_spec_window=self.max_spec_window,
            static_prune=self.static_prune,
        )

    def build_campaign(self) -> SpecureCampaign:
        """Wire a fresh online phase + fuzzer (new RNG streams)."""
        offline = self.offline()
        online = self.build_online()
        rng = DeterministicRng(self.seed)
        categories = self.instruction_categories
        seeds: list[TestProgram] = []
        if self.use_special_seeds:
            special = self.core.special_seeds()
            if categories:
                # Scoped campaigns keep only seeds made entirely of
                # in-scope instructions; everything else would be
                # out-of-scope chaff the mutator can't touch anyway.
                special = [s for s in special
                           if words_in_categories(s.words, categories)]
            seeds.extend(special)
        for index in range(self.random_seed_count):
            seeds.append(random_seed(rng.fork(0x5EED + index),
                                     categories=categories))
        fuzz_rng = rng.fork(0xF0)
        mutator = None
        if categories:
            # The scoped engine draws from the same forked stream the
            # fuzzer's default engine would, just with a scoped pool.
            mutator = MutationEngine(fuzz_rng.fork(0xA11),
                                    categories=categories)
        fuzzer = Fuzzer(
            online.evaluate,
            seeds=seeds,
            rng=fuzz_rng,
            mutator=mutator,
            splice_probability=self.splice_probability,
            mutation_rounds=self.mutation_rounds,
        )
        return SpecureCampaign(online, fuzzer, offline)

    def campaign(
        self,
        iterations: int,
        stop_when: Callable[[list[FuzzFinding]], bool] | None = None,
    ) -> CampaignReport:
        """Run one fuzzing campaign end to end."""
        return self.build_campaign().run(iterations, stop_when=stop_when)


def stop_on_kind(kind: str) -> Callable[[list[FuzzFinding]], bool]:
    """A stop predicate: end the campaign at the first ``kind`` finding."""

    def predicate(findings: list[FuzzFinding]) -> bool:
        return any(finding.kind == kind for finding in findings)

    return predicate
