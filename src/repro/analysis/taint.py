"""IFG taint reachability: classify every PDLC statically.

Each potential direct leakage channel (PDLC) gets one of three labels:

``provably-dead``
    The source cannot reach the destination in the *refined* flow
    graph.  Refinement constant-folds every assignment under the
    design's constant signals (fixpoint over continuous assignments):
    identifiers in branches a constant condition rules out contribute
    no edge, so a path that only exists through dead RTL disappears.
    Dead channels can never fire dynamically — they are safe to prune
    from LP coverage groups (the ``static_prune`` knob).

``flush-gated``
    The channel's *source* register is squash-clean: under the
    assumption that the design's flush/squash strobes are asserted,
    every reachable update of the source folds to a constant, and at
    least one update always fires.  A rollback wipes the secret, so a
    leak needs a same-window observation — these rank below
    speculative-reachable candidates but are *not* pruned (transient
    observation is exactly what the paper's detectors catch; the
    Zenbleed channels are flush-gated yet real).

``speculative-reachable``
    Everything else: the source survives a squash, the classic
    Spectre residue (caches, predictors).

Flush strobes are found by leaf-name heuristic (:data:`FLUSH_LEAF_NAMES`)
plus ``// repro-analyze: flush <name>`` pragmas.  Programmatic netlists
carry no expressions; they declare squash-cleaned registers explicitly
(``Netlist.reg(..., squash_cleaned=True)``) and their declared edges
are already the refined graph, so no netlist PDLC is ever dead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.analysis.fold import refine
from repro.ifg.graph import Ifg
from repro.ifg.pdlc import PdlcItem
from repro.rtl import ast
from repro.rtl.ir import ElaboratedDesign, SignalKind
from repro.rtl.netlist import Netlist

SPECULATIVE = "speculative-reachable"
FLUSH_GATED = "flush-gated"
DEAD = "provably-dead"

#: Labels in ranking order (lower tier = stronger leak candidate).
LABELS = (SPECULATIVE, FLUSH_GATED, DEAD)

#: Leaf names treated as flush/squash strobes by the heuristic.
FLUSH_LEAF_NAMES = ("flush", "squash", "kill", "rollback")

# Reachable-update states for the squash-clean analysis.
_ALWAYS = "always"
_MAYBE = "maybe"
_NEVER = "never"


@dataclass(frozen=True)
class StaticClassification:
    """Per-PDLC labels plus the evidence the classifier derived them from."""

    labels: tuple[str, ...]
    flush_signals: tuple[str, ...]
    constant_signals: tuple[str, ...]
    cleaned_sources: tuple[str, ...]

    def live_indices(self) -> set[int]:
        """PDLC indices that are not provably dead (coverage keeps these)."""
        return {i for i, label in enumerate(self.labels) if label != DEAD}

    def counts(self) -> dict[str, int]:
        """Channel count per label, in ranking order."""
        out = {label: 0 for label in LABELS}
        for label in self.labels:
            out[label] += 1
        return out

    def ranked(self, pdlc: list[PdlcItem]) -> list[PdlcItem]:
        """Leak candidates: live channels, strongest first.

        Order: speculative-reachable before flush-gated, shorter paths
        first within a tier, extraction index as the tie-break.  Dead
        channels are excluded — they are not candidates.
        """
        tier = {SPECULATIVE: 0, FLUSH_GATED: 1}
        candidates = [
            item for item in pdlc if self.labels[item.index] != DEAD
        ]
        candidates.sort(key=lambda item: (
            tier[self.labels[item.index]], len(item.path), item.index,
        ))
        return candidates


def _match_flush(name: str, overrides: list[str]) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    if leaf in FLUSH_LEAF_NAMES:
        return True
    for override in overrides:
        if override == name or ("." not in override and override == leaf):
            return True
    return False


def _constant_env(design: ElaboratedDesign,
                  widths: dict[str, int]) -> dict[str, int]:
    """Fixpoint constant propagation over continuous assignments."""
    ff_targets = design.ff_targets()
    driver_count: dict[str, int] = {}
    for assign in design.assigns:
        driver_count[assign.target] = driver_count.get(assign.target, 0) + 1
    env: dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for assign in design.assigns:
            target = assign.target
            if target in env or target in ff_targets:
                continue
            if driver_count[target] != 1:
                continue
            signal = design.signals[target]
            if signal.kind is SignalKind.INPUT and signal.depth == 0:
                continue
            value, _ = refine(assign.value, env, widths)
            if value is not None:
                env[target] = value
                changed = True
    return env


def _refined_predecessors(
    design: ElaboratedDesign,
    env: dict[str, int],
    widths: dict[str, int],
) -> dict[str, set[str]]:
    """Reverse adjacency of the constant-refined flow graph."""
    pred: dict[str, set[str]] = {}

    def add(source: str, target: str) -> None:
        if source != target:
            pred.setdefault(target, set()).add(source)

    for assign in design.assigns:
        value, ids = refine(assign.value, env, widths)
        if value is not None:
            continue
        for source in dict.fromkeys(ids):
            add(source, assign.target)

    def walk(statement: ast.Statement,
             condition_ids: tuple[str, ...]) -> None:
        if isinstance(statement, ast.Block):
            for child in statement.statements:
                walk(child, condition_ids)
        elif isinstance(statement, ast.If):
            value, ids = refine(statement.condition, env, widths)
            if value is not None:
                # Constant condition: only the taken branch exists, and
                # the condition itself carries no information.
                taken = (statement.then_body if value
                         else statement.else_body)
                if taken is not None:
                    walk(taken, condition_ids)
                return
            inner = condition_ids + tuple(dict.fromkeys(ids))
            walk(statement.then_body, inner)
            if statement.else_body is not None:
                walk(statement.else_body, inner)
        elif isinstance(statement, ast.NonBlocking):
            value, ids = refine(statement.value, env, widths)
            sources = condition_ids + (
                () if value is not None else tuple(dict.fromkeys(ids))
            )
            for source in dict.fromkeys(sources):
                add(source, statement.target)

    for ff in design.ffs:
        walk(ff.body, ())
    return pred


def _degrade(state: str, condition_value: int | None) -> str:
    if state == _NEVER:
        return _NEVER
    if condition_value is None:
        return _MAYBE
    if condition_value == 0:
        return _NEVER
    return state


def _cleaned_design_sources(
    design: ElaboratedDesign,
    env: dict[str, int],
    widths: dict[str, int],
    flush_signals: tuple[str, ...],
) -> tuple[str, ...]:
    """State registers whose value is provably wiped when flush asserts.

    Under ``env2 = constants ∪ {flush: 1}``, every reachable update of
    a cleaned register folds to a constant and at least one update
    always fires — after a squash the register holds no secret.
    """
    env2 = dict(env)
    for name in flush_signals:
        env2[name] = 1

    updates: dict[str, list[tuple[str, ast.Expr]]] = {}

    def walk(statement: ast.Statement, state: str) -> None:
        if isinstance(statement, ast.Block):
            for child in statement.statements:
                walk(child, state)
        elif isinstance(statement, ast.If):
            value, _ = refine(statement.condition, env2, widths)
            walk(statement.then_body, _degrade(state, value))
            if statement.else_body is not None:
                inverted = None if value is None else (1 - (1 if value else 0))
                walk(statement.else_body, _degrade(state, inverted))
        elif isinstance(statement, ast.NonBlocking):
            updates.setdefault(statement.target, []).append(
                (state, statement.value)
            )

    for ff in design.ffs:
        walk(ff.body, _ALWAYS)

    cleaned = []
    for name, signal in design.signals.items():
        if not signal.is_state:
            continue
        entries = updates.get(name, [])
        if not entries:
            continue
        if any(state == _MAYBE for state, _ in entries):
            continue
        always = [value for state, value in entries if state == _ALWAYS]
        if not always:
            continue
        if all(refine(value, env2, widths)[0] is not None
               for value in always):
            cleaned.append(name)
    return tuple(cleaned)


def _reaches(
    pred: dict[str, set[str]],
    dest: str,
    cache: dict[str, frozenset[str]],
) -> frozenset[str]:
    """All vertices with a refined path to ``dest`` (memoized BFS)."""
    if dest in cache:
        return cache[dest]
    seen = {dest}
    queue = deque([dest])
    while queue:
        node = queue.popleft()
        for source in pred.get(node, ()):
            if source not in seen:
                seen.add(source)
                queue.append(source)
    result = frozenset(seen)
    cache[dest] = result
    return result


def classify_pdlc(
    model: ElaboratedDesign | Netlist,
    ifg: Ifg,
    pdlc: list[PdlcItem],
    flush_signals: list[str] | None = None,
) -> StaticClassification:
    """Label every PDLC speculative-reachable, flush-gated, or dead."""
    overrides = list(flush_signals or [])
    if isinstance(model, Netlist):
        # Declared edges are the refined graph: every extracted PDLC
        # already has a path, so nothing is dead.
        cleaned = tuple(
            name for name, signal in model.signals.items()
            if getattr(signal, "squash_cleaned", False)
        )
        flush = tuple(
            name for name in model.signals
            if _match_flush(name, overrides)
        )
        cleaned_set = set(cleaned)
        labels = tuple(
            FLUSH_GATED if item.source in cleaned_set else SPECULATIVE
            for item in pdlc
        )
        return StaticClassification(
            labels=labels,
            flush_signals=flush,
            constant_signals=(),
            cleaned_sources=cleaned,
        )

    widths = {name: signal.width
              for name, signal in model.signals.items()}
    env = _constant_env(model, widths)
    flush = tuple(
        name for name in model.signals
        if _match_flush(name, overrides)
    )
    pred = _refined_predecessors(model, env, widths)
    cleaned = _cleaned_design_sources(model, env, widths, flush)
    cleaned_set = set(cleaned)

    reach_cache: dict[str, frozenset[str]] = {}
    labels = []
    for item in pdlc:
        if item.source not in _reaches(pred, item.dest, reach_cache):
            labels.append(DEAD)
        elif item.source in cleaned_set:
            labels.append(FLUSH_GATED)
        else:
            labels.append(SPECULATIVE)
    return StaticClassification(
        labels=tuple(labels),
        flush_signals=flush,
        constant_signals=tuple(sorted(env)),
        cleaned_sources=cleaned,
    )
