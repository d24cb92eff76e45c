"""Declarative scenario specifications: one validated bundle per campaign.

A :class:`ScenarioSpec` captures everything that distinguishes one of the
paper's experiments (or a new workload) from another — the core design
preset, the armed vulnerability emulations, the coverage feedback, the
seed policy, the mutation knobs, the campaign shape, and the stop
condition — as a frozen, validated dataclass.  Specs load from TOML or
JSON files and round-trip losslessly (``spec == from_toml(to_toml(spec))``),
so a campaign is reproducible from a single small text file, the same
shape Revizor-style fuzzers ship their detection scenarios in.

The spec is deliberately *data only*: :meth:`ScenarioSpec.build_config`
and :meth:`ScenarioSpec.build_specure` are the bridges into the live
pipeline, and :mod:`repro.scenarios.runner` executes specs against the
persistent campaign store.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from repro.boom.config import SPECULATION_MECHANISMS, BoomConfig
from repro.boom.vulns import VulnConfig
from repro.contracts.clauses import (
    EXECUTION_CLAUSES,
    ContractError,
    all_clauses,
    compose_clause,
    contract_kind,
    parse_clause,
)
from repro.core.online import DETECTORS
from repro.fuzz.categories import CategoryError, validate_categories
from repro.puts.spec_cpu import SPEC_CPU_CLAUSES

#: PUT design presets: the BOOM model sizes
#: (``BoomConfig.small/medium/large``) plus the Verilog-backed
#: speculative core (``spec-cpu``, run through the RTL simulator).
DESIGNS = ("small", "medium", "large", "spec-cpu")
#: Coverage feedback metrics (the two Figure 2 arms).
COVERAGES = ("lp", "code")
#: Armable vulnerability emulation hooks (paper §4.2).
VULN_HOOKS = ("mwait", "zenbleed")
#: Finding kinds the IFT pathway produces.
IFT_STOP_KINDS = ("mwait", "zenbleed", "spectre_v1", "spectre_v2", "direct")
#: Every finding kind a stop condition may wait for: the IFT kinds, one
#: contract-violation kind per composable clause, and the contained
#: step-loop ``crash`` kind (any detector can produce one).  Which
#: contract kind a given scenario can actually fire is checked per spec
#: against :meth:`ScenarioSpec.effective_contract`, not this flat set.
STOP_KINDS = IFT_STOP_KINDS + tuple(
    contract_kind(clause) for clause in all_clauses()
) + ("crash",)

#: ``on_shard_failure`` policies: ``fail`` aborts the campaign at the
#: first exhausted shard, ``degrade`` quarantines it and completes.
SHARD_FAILURE_POLICIES = ("fail", "degrade")

_SHARD_STRIDE_REMOVED = (
    "the 'shard_stride' scenario knob has been removed: per-shard seeds "
    "are hash-derived (repro.harness.parallel.shard_seed); delete the "
    "key from the scenario definition"
)


class ScenarioError(ValueError):
    """A scenario spec failed validation; the message says how to fix it."""


def _suggest(unknown: str, options: tuple[str, ...] | list[str]) -> str:
    matches = difflib.get_close_matches(unknown, list(options), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


@dataclass(frozen=True)
class ScenarioSpec:
    """One campaign scenario, fully described and validated.

    Field groups mirror the knobs the paper's experiments vary:

    * **design** — ``design`` preset, armed ``vulns`` hooks, and whether
      the data cache joins the monitored observables
      (``monitor_dcache``, the Spectre experiments);
    * **coverage** — ``coverage`` feedback metric (``lp``/``code``);
    * **seed policy** — base ``seed``, ``use_special_seeds``, and the
      ``random_seed_count`` of extra random seed programs;
    * **mutation** — ``splice_probability`` and ``mutation_rounds`` of
      the mutation engine;
    * **detection** — ``detector`` picks the pathway (``ift``,
      ``contract``, or ``both`` for cross-validation), ``contract``
      the base clause, ``execution_clauses`` extra execution members
      composed into it (see :meth:`effective_contract`), and
      ``inputs_per_class`` / ``max_spec_window`` the relational-testing
      depth (:mod:`repro.contracts`);
    * **speculation** — ``speculation`` arms hardware speculation
      mechanisms (:data:`~repro.boom.config.SPECULATION_MECHANISMS`) on
      the PUT: a *catching* scenario arms a mechanism while keeping a
      sequential-model contract, an *ablation* scenario arms it **and**
      contract-allows it via ``execution_clauses``;
    * **generation scope** — ``instruction_categories`` restricts seed
      generation and mutation to named instruction categories
      (:mod:`repro.fuzz.categories`), steering campaigns at the gadget
      shapes a clause needs;
    * **campaign shape** — ``iterations`` per shard and ``shards``
      (``iterations = 0`` runs the offline phase only); per-shard seeds
      are hash-derived (:func:`repro.harness.parallel.shard_seed`), and
      the removed ``shard_stride`` knob is rejected on load;
    * **resilience** — ``max_shard_retries`` same-seed retries per
      failed shard unit, ``unit_timeout_s`` wall-clock watchdog budget
      per unit (``0`` disables the watchdog), ``checkpoint_every``
      iterations between mid-shard checkpoints (``0`` disables
      checkpointing), and ``on_shard_failure`` choosing between
      aborting (``fail``) and quarantine-plus-degraded-completion
      (``degrade``) once a shard exhausts its retries
      (see ``docs/resilience.md``);
    * **stop condition** — ``stop_kind`` ends every shard at its first
      finding of that vulnerability or contract-violation kind (or at
      the first contained ``crash``).
    """

    name: str
    description: str = ""
    # Design.
    design: str = "small"
    vulns: tuple[str, ...] = ("mwait", "zenbleed")
    monitor_dcache: bool = False
    # Coverage feedback.
    coverage: str = "lp"
    # Drop provably-dead PDLCs (repro.analysis.taint) from LP coverage.
    static_prune: bool = False
    # Seed policy.
    seed: int = 1
    use_special_seeds: bool = True
    random_seed_count: int = 4
    # Mutation knobs.
    splice_probability: float = 0.15
    mutation_rounds: int = 3
    # Detection pathway.
    detector: str = "ift"
    contract: str = "ct-seq"
    execution_clauses: tuple[str, ...] = ()
    inputs_per_class: int = 3
    max_spec_window: int = 16
    # Hardware speculation mechanisms to arm on the PUT.
    speculation: tuple[str, ...] = ()
    # Generation scope (empty: every instruction category).
    instruction_categories: tuple[str, ...] = ()
    # Campaign shape.
    iterations: int = 100
    shards: int = 1
    # Resilience (see docs/resilience.md).
    max_shard_retries: int = 2
    unit_timeout_s: float = 0.0
    checkpoint_every: int = 25
    on_shard_failure: str = "degrade"
    # Stop condition.
    stop_kind: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "vulns", tuple(self.vulns))
        object.__setattr__(self, "execution_clauses",
                           tuple(self.execution_clauses))
        object.__setattr__(self, "speculation", tuple(self.speculation))
        object.__setattr__(self, "instruction_categories",
                           tuple(self.instruction_categories))
        self._validate()

    # -- validation ---------------------------------------------------------

    def _fail(self, message: str):
        name = self.name if isinstance(self.name, str) else repr(self.name)
        raise ScenarioError(f"scenario {name!r}: {message}")

    def _expect_type(self, field_name: str, expected: type | tuple):
        value = getattr(self, field_name)
        # bool is an int subclass; reject it wherever a number is
        # expected so `seed = true` (or `splice_probability = true`) in
        # a TOML file fails loudly instead of becoming 1.
        accepts_bool = expected is bool or (
            isinstance(expected, tuple) and bool in expected
        )
        if isinstance(value, bool) and not accepts_bool:
            self._fail(f"{field_name} must be a number, got a boolean")
        if not isinstance(value, expected):
            kind = getattr(expected, "__name__", str(expected))
            self._fail(
                f"{field_name} must be of type {kind}, "
                f"got {type(value).__name__} ({value!r})"
            )

    def _validate(self):
        if not isinstance(self.name, str) or not self.name:
            self._fail("name must be a non-empty string")
        self._expect_type("description", str)
        self._expect_type("design", str)
        if self.design not in DESIGNS:
            self._fail(
                f"design must be one of {', '.join(DESIGNS)}; "
                f"got {self.design!r}{_suggest(self.design, DESIGNS)}"
            )
        for hook in self.vulns:
            if hook not in VULN_HOOKS:
                self._fail(
                    f"unknown vulnerability hook {hook!r}; armable hooks "
                    f"are {', '.join(VULN_HOOKS)}{_suggest(str(hook), VULN_HOOKS)}"
                )
        if len(set(self.vulns)) != len(self.vulns):
            self._fail(f"vulns lists a hook twice: {list(self.vulns)}")
        self._expect_type("monitor_dcache", bool)
        self._expect_type("static_prune", bool)
        if self.coverage not in COVERAGES:
            self._fail(
                f"coverage must be one of {', '.join(COVERAGES)}; "
                f"got {self.coverage!r}{_suggest(str(self.coverage), COVERAGES)}"
            )
        self._expect_type("seed", int)
        self._expect_type("use_special_seeds", bool)
        self._expect_type("random_seed_count", int)
        if self.random_seed_count < 0:
            self._fail("random_seed_count must be >= 0")
        if not self.use_special_seeds and self.random_seed_count == 0:
            self._fail(
                "the fuzzer needs at least one seed: set "
                "use_special_seeds = true or random_seed_count >= 1"
            )
        self._expect_type("splice_probability", (int, float))
        if not 0.0 <= self.splice_probability <= 1.0:
            self._fail(
                f"splice_probability must be within [0.0, 1.0], "
                f"got {self.splice_probability}"
            )
        self._expect_type("mutation_rounds", int)
        if self.mutation_rounds < 1:
            self._fail("mutation_rounds must be >= 1")
        self._expect_type("detector", str)
        if self.detector not in DETECTORS:
            self._fail(
                f"detector must be one of {', '.join(DETECTORS)}; "
                f"got {self.detector!r}{_suggest(str(self.detector), DETECTORS)}"
            )
        self._expect_type("contract", str)
        try:
            parse_clause(self.contract)
        except ContractError as error:
            self._fail(f"invalid contract clause: {error}")
        for member in self.execution_clauses:
            if member not in EXECUTION_CLAUSES:
                self._fail(
                    f"unknown execution clause {member!r}; composable "
                    f"members are {', '.join(EXECUTION_CLAUSES)}"
                    f"{_suggest(str(member), EXECUTION_CLAUSES)}"
                )
        if len(set(self.execution_clauses)) != len(self.execution_clauses):
            self._fail(
                f"execution_clauses lists a member twice: "
                f"{list(self.execution_clauses)}"
            )
        try:
            effective = compose_clause(self.contract, self.execution_clauses)
        except ContractError as error:
            self._fail(f"invalid clause composition: {error}")
        for mechanism in self.speculation:
            if mechanism not in SPECULATION_MECHANISMS:
                self._fail(
                    f"unknown speculation mechanism {mechanism!r}; armable "
                    f"mechanisms are {', '.join(SPECULATION_MECHANISMS)}"
                    f"{_suggest(str(mechanism), SPECULATION_MECHANISMS)}"
                )
        if len(set(self.speculation)) != len(self.speculation):
            self._fail(
                f"speculation lists a mechanism twice: "
                f"{list(self.speculation)}"
            )
        _, effective_members = parse_clause(effective)
        for member in effective_members:
            if member in SPECULATION_MECHANISMS \
                    and member not in self.speculation:
                self._fail(
                    f"the contract allows {member!r} speculation the "
                    f"hardware never performs; add {member!r} to "
                    f"speculation = [...] (or drop the clause)"
                )
        try:
            validate_categories(self.instruction_categories)
        except CategoryError as error:
            self._fail(str(error))
        self._expect_type("inputs_per_class", int)
        if self.inputs_per_class < 2:
            self._fail("inputs_per_class must be >= 2 (an input class "
                       "needs at least a pair to compare)")
        self._expect_type("max_spec_window", int)
        if self.max_spec_window < 1:
            self._fail("max_spec_window must be >= 1")
        self._expect_type("iterations", int)
        if self.iterations < 0:
            self._fail(
                "iterations must be >= 0 (0 runs the offline phase only)"
            )
        self._expect_type("shards", int)
        if self.shards < 1:
            self._fail("shards must be >= 1")
        self._expect_type("max_shard_retries", int)
        if self.max_shard_retries < 0:
            self._fail("max_shard_retries must be >= 0 (0 means one "
                       "attempt, no retry)")
        self._expect_type("unit_timeout_s", (int, float))
        if self.unit_timeout_s < 0:
            self._fail("unit_timeout_s must be >= 0 (0 disables the "
                       "shard watchdog)")
        self._expect_type("checkpoint_every", int)
        if self.checkpoint_every < 0:
            self._fail("checkpoint_every must be >= 0 (0 disables "
                       "mid-shard checkpoints)")
        self._expect_type("on_shard_failure", str)
        if self.on_shard_failure not in SHARD_FAILURE_POLICIES:
            self._fail(
                f"on_shard_failure must be one of "
                f"{', '.join(SHARD_FAILURE_POLICIES)}; got "
                f"{self.on_shard_failure!r}"
                f"{_suggest(str(self.on_shard_failure), SHARD_FAILURE_POLICIES)}"
            )
        if self.stop_kind is not None and self.stop_kind not in STOP_KINDS:
            self._fail(
                f"stop_kind must be one of {', '.join(STOP_KINDS)} or "
                f"omitted; got {self.stop_kind!r}"
                f"{_suggest(str(self.stop_kind), STOP_KINDS)}"
            )
        if self.design == "spec-cpu":
            if self.vulns:
                self._fail(
                    "the 'spec-cpu' design has no vulnerability emulation "
                    "hooks; set vulns = []"
                )
            if self.speculation:
                self._fail(
                    "the 'spec-cpu' design has no armable speculation "
                    "mechanisms; set speculation = []"
                )
            if self.instruction_categories:
                self._fail(
                    "the 'spec-cpu' fuzz route does not implement "
                    "instruction-category scoping; set "
                    "instruction_categories = []"
                )
            if self.detector in ("contract", "both") \
                    and self.effective_contract() not in SPEC_CPU_CLAUSES:
                self._fail(
                    f"the 'spec-cpu' golden model implements only the "
                    f"{', '.join(SPEC_CPU_CLAUSES)} clauses; "
                    f"got contract = {self.effective_contract()!r}"
                )
        if self.stop_kind is not None and \
                self.stop_kind.startswith("contract_"):
            if self.detector == "ift":
                self._fail(
                    f"stop_kind {self.stop_kind!r} waits for a contract "
                    f"violation, but detector = 'ift' never produces one; "
                    f"set detector = 'contract' or 'both'"
                )
            expected = contract_kind(self.effective_contract())
            if self.stop_kind != expected:
                self._fail(
                    f"stop_kind {self.stop_kind!r} cannot fire: the "
                    f"{self.effective_contract()!r} clause reports "
                    f"violations as {expected!r}"
                )
        elif self.stop_kind is not None and self.stop_kind != "crash" \
                and self.detector == "contract":
            self._fail(
                f"stop_kind {self.stop_kind!r} waits for an IFT finding, "
                f"but detector = 'contract' never produces one; set "
                f"detector = 'ift' or 'both', or stop on "
                f"{contract_kind(self.effective_contract())!r}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, source: str = "") -> "ScenarioSpec":
        """Build a validated spec from a plain mapping.

        Unknown keys are rejected with a close-match suggestion, so a
        typo in a scenario file fails with an actionable message rather
        than silently running the default.
        """
        where = f" in {source}" if source else ""
        if not isinstance(data, dict):
            raise ScenarioError(
                f"scenario definition{where} must be a table/object, "
                f"got {type(data).__name__}"
            )
        if "shard_stride" in data:
            raise ScenarioError(
                f"scenario definition{where}: {_SHARD_STRIDE_REMOVED}"
            )
        known = tuple(f.name for f in fields(cls))
        unknown = [key for key in data if key not in known]
        if unknown:
            hints = "".join(
                f"\n  unknown key {key!r}{_suggest(key, known)}"
                for key in sorted(unknown)
            )
            raise ScenarioError(
                f"scenario definition{where} has unknown keys:{hints}"
            )
        if "name" not in data:
            raise ScenarioError(
                f"scenario definition{where} is missing the required "
                f"'name' key"
            )
        payload = dict(data)
        for key, what in (
            ("vulns", "hook names"),
            ("execution_clauses", "execution clause members"),
            ("speculation", "speculation mechanisms"),
            ("instruction_categories", "instruction category names"),
        ):
            if key in payload:
                if not isinstance(payload[key], (list, tuple)):
                    raise ScenarioError(
                        f"scenario {payload.get('name')!r}: {key} must be "
                        f"an array of {what}, got {payload[key]!r}"
                    )
                payload[key] = tuple(payload[key])
        try:
            return cls(**payload)
        except ScenarioError as error:
            if source:
                raise ScenarioError(f"{error} (from {source})") from None
            raise

    @classmethod
    def from_toml(cls, text: str, source: str = "") -> "ScenarioSpec":
        """Parse a TOML scenario (top-level keys or a ``[scenario]`` table)."""
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ScenarioError(
                f"invalid TOML{' in ' + source if source else ''}: {error}"
            ) from None
        if set(data) == {"scenario"} and isinstance(data["scenario"], dict):
            data = data["scenario"]
        return cls.from_dict(data, source=source)

    @classmethod
    def from_json(cls, text: str, source: str = "") -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(
                f"invalid JSON{' in ' + source if source else ''}: {error}"
            ) from None
        if isinstance(data, dict) and set(data) == {"scenario"} \
                and isinstance(data["scenario"], dict):
            data = data["scenario"]
        return cls.from_dict(data, source=source)

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        """Load a scenario file; the format follows the extension."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise ScenarioError(
                f"cannot read scenario file {path}: {error}"
            ) from None
        if path.suffix == ".toml":
            return cls.from_toml(text, source=str(path))
        if path.suffix == ".json":
            return cls.from_json(text, source=str(path))
        raise ScenarioError(
            f"cannot tell the format of {path}: expected a .toml or "
            f".json scenario file"
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """Field-order dict; a ``None`` stop condition is omitted (TOML
        has no null, and absence already means 'run the full budget')."""
        data = asdict(self)
        data["vulns"] = list(self.vulns)
        # The composable-clause knobs default to empty; omitting them
        # keeps pre-existing scenario files' serialised form stable.
        for key in ("execution_clauses", "speculation",
                    "instruction_categories"):
            if data[key]:
                data[key] = list(data[key])
            else:
                del data[key]
        if data["stop_kind"] is None:
            del data["stop_kind"]
        # static_prune defaults off; omit it so pre-knob scenario files
        # round-trip byte-identically.
        if not data["static_prune"]:
            del data["static_prune"]
        # The resilience knobs likewise serialise only when changed, so
        # scenario files written before the resilience layer keep their
        # exact bytes.
        for key, default in (
            ("max_shard_retries", 2),
            ("unit_timeout_s", 0.0),
            ("checkpoint_every", 25),
            ("on_shard_failure", "degrade"),
        ):
            if data[key] == default:
                del data[key]
        return data

    def to_toml(self) -> str:
        """Render as a ``[scenario]`` TOML table (round-trips exactly)."""
        lines = ["[scenario]"]
        for key, value in self.to_dict().items():
            lines.append(f"{key} = {_toml_value(value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"scenario": self.to_dict()}, indent=2) + "\n"

    def dump(self, path: str | Path) -> None:
        path = Path(path)
        if path.suffix == ".json":
            path.write_text(self.to_json())
        else:
            path.write_text(self.to_toml())

    # -- bridges into the pipeline ------------------------------------------

    def override(self, **changes) -> "ScenarioSpec":
        """A copy with fields replaced (re-validated)."""
        return replace(self, **changes)

    def vuln_config(self) -> VulnConfig:
        return VulnConfig(
            mwait="mwait" in self.vulns,
            zenbleed="zenbleed" in self.vulns,
        )

    def effective_contract(self) -> str:
        """The canonical clause the detector actually enforces: the base
        ``contract`` with every ``execution_clauses`` member composed in
        (``"ct-cond"`` + ``("ssb",)`` → ``"ct-cond+ssb"``)."""
        return compose_clause(self.contract, self.execution_clauses)

    def build_config(self):
        """The PUT configuration this scenario fuzzes
        (:class:`BoomConfig` or :class:`~repro.puts.rtl.RtlPutConfig`)."""
        if self.design == "spec-cpu":
            from repro.puts.rtl import RtlPutConfig

            return RtlPutConfig()
        preset = getattr(BoomConfig, self.design)
        config = preset(self.vuln_config())
        if self.speculation:
            # Arm the scenario's speculation mechanisms; the fault
            # mechanism needs a non-empty protected region to fault on
            # (one cache line is enough for the transient-access gadget).
            config = replace(
                config,
                speculation=self.speculation,
                protected_size=64 if "fault" in self.speculation
                else config.protected_size,
            )
        return config

    def build_specure(self, seed: int | None = None, core=None, offline=None):
        """A :class:`~repro.core.specure.Specure` wired per this spec.

        ``seed`` overrides the spec's base seed (shard workers pass the
        derived per-shard seed); ``core``/``offline`` inject prebuilt
        shared statics (see
        :func:`repro.harness.parallel.shared_statics`) so fleet workers
        skip re-elaborating the netlist and re-running the offline phase
        per shard.
        """
        from repro.core.specure import Specure

        return Specure(
            self.build_config() if core is None else None,
            core=core,
            offline=offline,
            seed=self.seed if seed is None else seed,
            coverage=self.coverage,
            monitor_dcache=self.monitor_dcache,
            use_special_seeds=self.use_special_seeds,
            random_seed_count=self.random_seed_count,
            splice_probability=self.splice_probability,
            mutation_rounds=self.mutation_rounds,
            detector=self.detector,
            contract=self.effective_contract(),
            inputs_per_class=self.inputs_per_class,
            max_spec_window=self.max_spec_window,
            instruction_categories=self.instruction_categories,
            static_prune=self.static_prune,
        )

    def stop_predicate(self):
        """The stop condition as a findings predicate (or ``None``)."""
        if self.stop_kind is None:
            return None
        from repro.core.specure import stop_on_kind

        return stop_on_kind(self.stop_kind)


def _toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise TypeError(f"cannot render {value!r} as TOML")
