"""The coverage-guided fuzzing loop, generic over the coverage metric.

The loop is the paper's Hardware Fuzzer box: evaluate seeds, then pick a
corpus entry, mutate, evaluate, and retain inputs that discover new
coverage items.  The *evaluation function is a parameter* — it runs the
processor and returns coverage items plus any findings — so the very
same loop runs with Leakage Path coverage (Specure), traditional code
coverage (the Figure 2 baseline), or any baseline tool's feedback.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro import telemetry
from repro.fuzz.corpus import Corpus
from repro.fuzz.crash import CRASH_KIND, crash_report
from repro.fuzz.input import TestProgram
from repro.fuzz.mutations import MutationEngine
from repro.utils.rng import DeterministicRng

#: evaluate(program) -> (coverage items, findings, metadata)
EvaluateFn = Callable[[TestProgram], tuple[Iterable, list, dict]]


@dataclass
class FuzzFinding:
    """One detector finding, stamped with the iteration that produced it."""

    iteration: int
    kind: str
    detail: object
    program: TestProgram


@dataclass
class FuzzObserver:
    """Optional per-iteration callback hook (progress printing, logging)."""

    on_iteration: Callable[[int, int, int], None] = lambda i, new, total: None


@dataclass
class CampaignResult:
    """What one fuzzing campaign produced."""

    iterations: int
    coverage_curve: list[int] = field(default_factory=list)  # total per iter
    findings: list[FuzzFinding] = field(default_factory=list)
    corpus_size: int = 0
    executed_programs: int = 0
    #: Each coverage item with the iteration that first discovered it,
    #: in discovery order.  ``coverage_curve`` is derivable from this
    #: log; sharded runs merge logs to compute exact union curves.
    discovery_log: list[tuple[int, object]] = field(default_factory=list)

    def final_coverage(self) -> int:
        return self.coverage_curve[-1] if self.coverage_curve else 0

    def iterations_to_coverage(self, target: int) -> int | None:
        """First iteration reaching ``target`` total coverage, or None."""
        for index, total in enumerate(self.coverage_curve):
            if total >= target:
                return index + 1
        return None

    def first_finding(self, kind: str | None = None) -> FuzzFinding | None:
        for finding in self.findings:
            if kind is None or finding.kind == kind:
                return finding
        return None


class Fuzzer:
    """Coverage-guided mutation fuzzing."""

    def __init__(
        self,
        evaluate: EvaluateFn,
        seeds: list[TestProgram],
        rng: DeterministicRng,
        mutator: MutationEngine | None = None,
        splice_probability: float = 0.15,
        mutation_rounds: int = 3,
    ):
        if not seeds:
            raise ValueError("the fuzzer needs at least one seed")
        self.evaluate = evaluate
        self.seeds = [seed.copy() for seed in seeds]
        self.rng = rng
        self.mutator = mutator or MutationEngine(rng.fork(0xA11))
        self.splice_probability = splice_probability
        self.mutation_rounds = mutation_rounds
        self.coverage: set = set()
        self.corpus = Corpus()
        #: How the most recent input was produced ("seed", "splice",
        #: and/or mutation-operator names) — telemetry attribution only.
        self._provenance: tuple[str, ...] = ()

    def run(
        self,
        iterations: int,
        stop_when: Callable[[list[FuzzFinding]], bool] | None = None,
        observer: FuzzObserver | None = None,
        *,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[int, CampaignResult], None] | None = None,
        start_iteration: int = 0,
        resume_result: CampaignResult | None = None,
    ) -> CampaignResult:
        """Run up to ``iterations`` rounds; optionally stop early.

        ``stop_when`` receives the cumulative findings after each round
        and may end the campaign (e.g. "stop at first Zenbleed leak").

        ``on_checkpoint(next_iteration, result)`` fires after every
        ``checkpoint_every``-th iteration (never after the final one);
        resuming a checkpointed campaign passes the restored partial
        result as ``resume_result`` and the recorded ``next_iteration``
        as ``start_iteration`` — with the fuzzer's RNG/corpus/coverage
        restored alongside, the remaining iterations replay exactly the
        draws an uninterrupted run would have made.
        """
        result = (resume_result if resume_result is not None
                  else CampaignResult(iterations=0))
        recorder = telemetry.recorder()
        for index in range(start_iteration, iterations):
            with recorder.span("online/iteration"):
                program = self._next_input(index)
                new_items = self._run_one(index, program, result)
            result.coverage_curve.append(len(self.coverage))
            result.iterations = index + 1
            if recorder.enabled:
                recorder.count("fuzz.iterations")
                if new_items:
                    recorder.count("fuzz.new_coverage_items", new_items)
                for op in self._provenance:
                    recorder.count(f"mutation.{op}.programs")
                    if new_items:
                        recorder.count(f"mutation.{op}.yield", new_items)
            if observer is not None:
                observer.on_iteration(index, new_items, len(self.coverage))
            if stop_when is not None and stop_when(result.findings):
                break
            if (checkpoint_every > 0 and on_checkpoint is not None
                    and (index + 1) % checkpoint_every == 0
                    and index + 1 < iterations):
                on_checkpoint(index + 1, result)
        result.corpus_size = len(self.corpus)
        result.executed_programs = result.iterations
        return result

    # -- internals -----------------------------------------------------------

    def _next_input(self, index: int) -> TestProgram:
        if index < len(self.seeds):
            # Hand out a copy: the caller's program flows into findings
            # and (potentially) external hands; aliasing the live seed
            # list would let later mutation corrupt the seed schedule.
            self._provenance = ("seed",)
            return self.seeds[index].copy()
        if len(self.corpus) == 0:
            # Nothing retained yet: keep mutating seeds.
            base = self.seeds[index % len(self.seeds)]
            mutant = self.mutator.mutate(base, rounds=self.mutation_rounds)
            self._provenance = self.mutator.last_operations
            return mutant
        entry = self.corpus.pick(self.rng)
        if len(self.corpus) >= 2 and self.rng.coin(self.splice_probability):
            other = self.corpus.pick(self.rng)
            child = self.mutator.splice(entry.program, other.program)
            mutant = self.mutator.mutate(child, rounds=1)
            self._provenance = ("splice",) + self.mutator.last_operations
            return mutant
        rounds = self.rng.randint(1, self.mutation_rounds)
        mutant = self.mutator.mutate(entry.program, rounds=rounds)
        self._provenance = self.mutator.last_operations
        return mutant

    def _run_one(self, index: int, program: TestProgram,
                 result: CampaignResult) -> int:
        try:
            items, findings, _meta = self.evaluate(program)
        except Exception as error:
            # Crash-as-finding containment: a poison program that makes
            # the step loop raise is recorded as a finding (program,
            # exception, raising phase) and the campaign keeps going —
            # one bad input must not unwind a whole shard.  Only
            # ``Exception`` is contained; KeyboardInterrupt and other
            # BaseExceptions still unwind.
            result.findings.append(FuzzFinding(
                iteration=index, kind=CRASH_KIND,
                detail=crash_report(error), program=program.copy(),
            ))
            return 0
        coverage = self.coverage
        # Batch update: collect this iteration's unseen items (first
        # occurrence order preserved), then grow the coverage set in one
        # C-level call; the delta count is the list length.
        fresh = [item for item in items if item not in coverage]
        if fresh:
            deduped = list(dict.fromkeys(fresh))
            coverage.update(deduped)
            result.discovery_log.extend((index, item) for item in deduped)
            new_items = len(deduped)
            self.corpus.add(program, new_items)
        else:
            new_items = 0
        for finding in findings:
            # Findings retain their trigger program beyond the fuzzing
            # loop (reports, stores, minimization) — copy at the
            # retention boundary so no caller can mutate shared state.
            result.findings.append(FuzzFinding(
                iteration=index, kind=finding[0], detail=finding[1],
                program=program.copy(),
            ))
        return new_items
