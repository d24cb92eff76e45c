"""Shard dispatch and shard-artifact merging.

The paper's evaluation rests on repeated, long (24-hour) fuzzing
campaigns.  This module fans scenario *shards* out across worker
processes for :mod:`repro.scenarios.runner`, the one campaign driver
(Figure 2's repeats are the shards of one scenario per coverage arm),
and merges the shard artifacts back into exactly the report types a
serial run produces.

Determinism contract
--------------------
Every shard derives its seed via :func:`shard_seed` — shard 0 runs at
``base_seed`` itself (so a one-shard campaign is indistinguishable from
a serial one) and shard ``k >= 1`` at ``stable_hash((base_seed, k))`` —
and each worker executes the *same* per-shard code path the serial loop
would.  A sharded run is therefore byte-identical to its serial
counterpart per shard; only wall-clock concurrency differs.

The hash derivation replaces the original ``base_seed + 1000 * k``
spacing, which collided across campaigns whose base seeds differ by a
multiple of 1000 (scenarios at seeds 0 and 1000 shared shard streams —
shard ``k+1`` of one replayed shard ``k`` of the other).  The old
``shard_stride`` parameter is gone: passing it raises (a ``TypeError``
here, a :class:`~repro.scenarios.spec.ScenarioError` from scenario
files).  See the compatibility note in ``docs/scenarios.md``.

Dispatch
--------
:func:`imap_shards` has two paths.  ``jobs<=1`` runs the units
in-process; anything else (more jobs, or a policy that demands
isolation) goes to the watchdog fleet, whose workers live for the
process lifetime and keep per-process :func:`shared_statics`.  Both
paths share one failure contract: a unit that exhausts its
:class:`RetryPolicy` raises :class:`ShardExecutionError` naming the
failing shard (or, in degrade mode, yields a :class:`UnitFailure`).
See ``docs/performance.md`` and ``docs/resilience.md``.

Merge semantics
---------------
* :meth:`~repro.detection.mst.MisspeculationTable.merge` and
  :meth:`~repro.core.online.OnlineStats.merge` are associative and
  shard-order independent (canonical row order / additive counters).
* :func:`merge_campaign_results` concatenates the shards' iteration
  timelines: shard *k*'s findings and discovery log are re-stamped by
  the total iteration count of shards ``0..k-1`` (stable, deterministic
  stamping), and the merged coverage curve is the exact cumulative
  count of *distinct* items discovered by any shard along that
  concatenated timeline (computed from the discovery logs, not by
  summing per-shard counts, so overlapping discoveries are not double
  counted).
* :func:`merge_reports` combines full :class:`CampaignReport` shards
  using all of the above; the offline artifacts are taken from the
  first shard (they are a pure function of the configuration) and the
  per-shard covered-PDLC curves are kept side by side in shard order.
"""

from __future__ import annotations

import atexit
import multiprocessing
import signal
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from multiprocessing import connection
from pathlib import Path

from repro.core.offline import OfflineArtifacts, run_offline
from repro.core.report import CampaignReport
from repro.detection.vulnerability import LeakReport
from repro.fuzz.fuzzer import CampaignResult
from repro.puts.base import Put, build_put, statics_key
from repro.utils.rng import stable_hash


def shard_seed(base_seed: int, shard: int) -> int:
    """The deterministic seed of one shard.

    Shard 0 is the base seed itself — a one-shard campaign must be
    byte-identical to a serial run — and every later shard draws an
    independent stream from ``stable_hash((base_seed, shard))``, so two
    campaigns share a shard stream only if their base seeds collide
    outright (the old ``base_seed + stride * shard`` arithmetic aliased
    whenever base seeds differed by a multiple of the stride; its
    ``shard_stride`` parameter has been removed).
    """
    if shard == 0:
        return base_seed
    return stable_hash((base_seed, shard))


class ShardExecutionError(RuntimeError):
    """A work unit failed and exhausted its retries.

    Carries the failing shard id (``shard``) and the worker-side
    traceback text (``worker_traceback``).  The fleet the unit ran in
    is torn down before this propagates, so sibling units never hold
    the caller hostage; inline, the worker's exception is chained as
    ``__cause__``.
    """

    def __init__(self, shard: int, worker_traceback: str):
        super().__init__(
            f"shard {shard} failed in a worker process:\n{worker_traceback}"
        )
        self.shard = shard
        self.worker_traceback = worker_traceback


# ----------------------------------------------------------------------
# Per-process shared statics
# ----------------------------------------------------------------------

#: Per-process shared read-only statics: one (core, offline artifacts)
#: pair per PUT configuration, keyed on ``(design, repr(config))`` so
#: two designs whose configs repr alike can never alias.  The core
#: carries the elaborated netlist/design, the reusable simulation
#: engine, and any decode caches (seed images decode once per process,
#: not once per shard); the offline artifacts are a pure function of
#: the design.  Bounded LRU so a long-lived worker serving many designs
#: cannot grow unboundedly.
_WORKER_STATICS: OrderedDict[tuple[str, str],
                             tuple[Put, OfflineArtifacts]] = OrderedDict()
_WORKER_STATICS_LIMIT = 4


def shared_statics(config) -> tuple[Put, OfflineArtifacts]:
    """This process's shared (core, offline artifacts) for ``config``.

    Safe to share across work units because both are exact under reuse:
    the engine resets byte-identically between programs (pinned by
    ``tests/test_engine_reuse.py``) and the offline artifacts depend on
    the design alone.
    """
    key = statics_key(config)
    hit = _WORKER_STATICS.get(key)
    if hit is not None:
        _WORKER_STATICS.move_to_end(key)
        return hit
    core = build_put(config)
    value = (core, run_offline(core.offline_model()))
    _WORKER_STATICS[key] = value
    if len(_WORKER_STATICS) > _WORKER_STATICS_LIMIT:
        _WORKER_STATICS.popitem(last=False)
    return value


def _shard_of(item, unit_id: int) -> int:
    """Best-effort shard id of a work item (for error reporting)."""
    shard = getattr(item, "shard", None)
    return shard if isinstance(shard, int) else unit_id


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# Resilient execution: retry policy, watchdog fleet, quarantine markers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient dispatcher treats failing or hung work units.

    ``max_retries`` bounds *re*-tries: a unit runs at most
    ``1 + max_retries`` times, always with the same seed (a retry that
    succeeds is byte-identical to a first-try success — the determinism
    contract makes retries safe).  ``unit_timeout_s > 0`` arms the
    watchdog: a worker whose unit has shown no progress — no completed
    recv, and no fresh heartbeat line in ``progress_dir`` — for that
    long is SIGKILLed and its unit retried.  ``on_exhaust`` picks the
    endgame: ``"fail"`` raises :class:`ShardExecutionError` (the
    all-stop), ``"degrade"`` yields a :class:`UnitFailure` marker so the
    campaign completes without the quarantined shard.  ``isolate``
    forces worker processes even at ``jobs=1`` (required for the
    watchdog and for crash containment of whole-process faults).
    """

    max_retries: int = 0
    unit_timeout_s: float = 0.0
    on_exhaust: str = "fail"
    progress_dir: str | Path | None = None
    isolate: bool = False

    def __post_init__(self):
        if self.on_exhaust not in ("fail", "degrade"):
            raise ValueError(
                f"on_exhaust must be 'fail' or 'degrade', "
                f"not {self.on_exhaust!r}")


@dataclass(frozen=True)
class UnitFailure:
    """A work unit that exhausted its retries (yielded in degrade mode)."""

    shard: int
    attempts: int
    kind: str   # "exception" | "worker-died" | "timeout"
    error: str  # traceback text or one-line description

    def summary(self) -> str:
        """One line for reports: the traceback's final line, or the
        failure description itself when it is already one line."""
        for line in reversed(self.error.strip().splitlines()):
            if line.strip():
                return line.strip()
        return self.kind


def _stamp_attempt(item, attempt: int):
    """Re-stamp a work item with its attempt number when it supports it
    (the scenario runner's tasks do — telemetry records the attempt)."""
    with_attempt = getattr(item, "with_attempt", None)
    if attempt > 1 and callable(with_attempt):
        return with_attempt(attempt)
    return item


def _fleet_worker_main(conn) -> None:
    """A fleet worker: receive ``(unit_id, worker, item)``, send back
    ``(unit_id, ok, result_or_traceback)`` until the pipe closes.

    SIGINT is ignored — on a keyboard interrupt the parent owns the
    shutdown (exactly like ``multiprocessing.Pool`` initializers do),
    so workers never die mid-write from the tty's signal fan-out.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        if payload is None:
            return
        unit_id, worker, item = payload
        try:
            response = (unit_id, True, worker(item))
        except Exception:
            response = (unit_id, False, traceback.format_exc())
        try:
            conn.send(response)
        except Exception:
            return


class _FleetWorker:
    """Parent-side handle of one fleet worker process."""

    __slots__ = ("process", "conn", "unit_id", "assigned_at")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.unit_id: int | None = None
        self.assigned_at = 0.0


class _WorkerFleet:
    """A crash-survivable pool: one duplex pipe per worker, no shared
    queues.

    ``multiprocessing.Pool`` multiplexes every worker over shared
    result queues, so a SIGKILLed worker can take the queue's feeder
    state (or a held lock) down with it — the documented reason Pool
    deadlocks on lost workers.  The fleet gives each worker a private
    :func:`Pipe`; losing a worker breaks exactly one pipe, which the
    dispatcher observes via the process sentinel and repairs by
    respawning that single worker.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.ctx = _pool_context()
        self.workers = [self._spawn() for _ in range(jobs)]

    def _spawn(self) -> _FleetWorker:
        parent_conn, child_conn = self.ctx.Pipe()
        process = self.ctx.Process(
            target=_fleet_worker_main, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        return _FleetWorker(process, parent_conn)

    def respawn(self, worker: _FleetWorker) -> None:
        """Replace one (dead or hung) worker, leaving the rest running."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()
        fresh = self._spawn()
        worker.process = fresh.process
        worker.conn = fresh.conn
        worker.unit_id = None
        worker.assigned_at = 0.0

    def shutdown(self) -> None:
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
        self.workers = []


#: The process-lifetime fleet (one per jobs count, lazily built).
_FLEET: _WorkerFleet | None = None
_FLEET_ATEXIT_REGISTERED = False


def _get_fleet(jobs: int) -> _WorkerFleet:
    global _FLEET, _FLEET_ATEXIT_REGISTERED
    if _FLEET is not None and _FLEET.jobs != jobs:
        shutdown_fleet()
    if _FLEET is None:
        _FLEET = _WorkerFleet(jobs)
        if not _FLEET_ATEXIT_REGISTERED:
            atexit.register(shutdown_fleet)
            _FLEET_ATEXIT_REGISTERED = True
    return _FLEET


def shutdown_fleet() -> None:
    """Stop and discard the resilient worker fleet (idempotent)."""
    global _FLEET
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None


#: Dispatcher poll interval: bounds watchdog latency, not throughput
#: (results wake the dispatcher immediately via ``connection.wait``).
_FLEET_TICK_S = 0.1


def _progress_stamp(policy: RetryPolicy, item, unit_id: int,
                    assigned_at: float) -> float:
    """Wall-clock time of the unit's last observed progress.

    The later of when the unit was assigned and the last modification
    of its telemetry heartbeat log (PR 9's ``shard-NNNN.jsonl``, beats
    flushed per line) — so a long unit that is *beating* is never shot,
    while a hung one times out even mid-unit.  Beats older than the
    assignment are debris of a previous attempt and do not count.
    """
    if policy.progress_dir is None:
        return assigned_at
    from repro.telemetry.heartbeat import shard_filename

    path = Path(policy.progress_dir) / shard_filename(
        _shard_of(item, unit_id))
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return assigned_at
    return max(assigned_at, mtime) if mtime > assigned_at else assigned_at


def _imap_resilient(worker, specs, jobs: int, policy: RetryPolicy):
    """The fleet dispatcher: watchdog + retry + quarantine markers.

    Yields ``(spec, result)`` in completion order, where
    ``result`` is a :class:`UnitFailure` for units that exhausted their
    retries under ``on_exhaust="degrade"``.  Raises
    :class:`ShardExecutionError` (after tearing the fleet down) under
    ``on_exhaust="fail"`` — the all-stop contract.
    """
    pending = deque(range(len(specs)))
    attempts = {unit_id: 0 for unit_id in range(len(specs))}

    def exhaust(unit_id: int, kind: str, error: str) -> UnitFailure | None:
        """Retry the unit, or produce its quarantine marker / all-stop."""
        if attempts[unit_id] <= policy.max_retries:
            pending.appendleft(unit_id)
            return None
        if policy.on_exhaust == "degrade":
            return UnitFailure(
                shard=_shard_of(specs[unit_id], unit_id),
                attempts=attempts[unit_id], kind=kind, error=error)
        raise ShardExecutionError(_shard_of(specs[unit_id], unit_id), error)

    try:
        fleet = _get_fleet(jobs)
        done = 0
        while done < len(specs):
            # Hand pending units to idle workers (respawning any that
            # died while idle — can only happen via external kills).
            for member in fleet.workers:
                if not pending or member.unit_id is not None:
                    continue
                if not member.process.is_alive():
                    fleet.respawn(member)
                unit_id = pending.popleft()
                attempts[unit_id] += 1
                item = _stamp_attempt(specs[unit_id], attempts[unit_id])
                try:
                    member.conn.send((unit_id, worker, item))
                except (OSError, ValueError):
                    # Died between the liveness check and the send:
                    # repair and retry without charging an attempt.
                    fleet.respawn(member)
                    attempts[unit_id] -= 1
                    pending.appendleft(unit_id)
                    continue
                member.unit_id = unit_id
                member.assigned_at = time.time()

            busy = [m for m in fleet.workers if m.unit_id is not None]
            if not busy:
                continue
            handles = [m.conn for m in busy] + \
                [m.process.sentinel for m in busy]
            ready = connection.wait(handles, timeout=_FLEET_TICK_S)

            for member in busy:
                unit_id = member.unit_id
                if unit_id is None:
                    continue
                has_result = member.conn in ready
                died = member.process.sentinel in ready
                if died and not has_result:
                    # A killed worker can still have flushed its result
                    # into the pipe buffer — drain before declaring it.
                    has_result = member.conn.poll(0)
                if has_result:
                    try:
                        _, ok, payload = member.conn.recv()
                    except (EOFError, OSError):
                        died, has_result = True, False
                    else:
                        member.unit_id = None
                        if ok:
                            done += 1
                            yield specs[unit_id], payload
                        else:
                            failure = exhaust(unit_id, "exception", payload)
                            if failure is not None:
                                done += 1
                                yield specs[unit_id], failure
                        continue
                if died:
                    member.unit_id = None
                    fleet.respawn(member)
                    failure = exhaust(
                        unit_id, "worker-died",
                        f"shard worker (unit {unit_id}) died without a "
                        f"result — killed or crashed hard")
                    if failure is not None:
                        done += 1
                        yield specs[unit_id], failure

            if policy.unit_timeout_s > 0:
                now = time.time()
                for member in fleet.workers:
                    unit_id = member.unit_id
                    if unit_id is None:
                        continue
                    stamp = _progress_stamp(
                        policy, specs[unit_id], unit_id, member.assigned_at)
                    if now - stamp <= policy.unit_timeout_s:
                        continue
                    member.unit_id = None
                    fleet.respawn(member)
                    failure = exhaust(
                        unit_id, "timeout",
                        f"no progress for {now - stamp:.1f}s "
                        f"(unit_timeout_s={policy.unit_timeout_s:g}) — "
                        f"worker killed by the watchdog")
                    if failure is not None:
                        done += 1
                        yield specs[unit_id], failure
    except BaseException:
        # ShardExecutionError, KeyboardInterrupt, or an abandoned
        # generator: quiesce every worker; the next call rebuilds.
        shutdown_fleet()
        raise


def _imap_inline(worker, specs, policy: RetryPolicy):
    """In-process retry/quarantine for ``jobs<=1`` without isolation.

    Covers the exception failure mode only — whole-process faults
    (kills, hangs) need the fleet, which the caller selects via
    ``policy.isolate``.  Exhaustion raises the same
    :class:`ShardExecutionError` the fleet does, so callers observe one
    failure contract whatever the jobs count.
    """
    for unit_id, spec in enumerate(specs):
        for attempt in range(1, policy.max_retries + 2):
            try:
                result = worker(_stamp_attempt(spec, attempt))
            except Exception as error:
                if attempt <= policy.max_retries:
                    continue
                if policy.on_exhaust == "degrade":
                    yield spec, UnitFailure(
                        shard=_shard_of(spec, unit_id), attempts=attempt,
                        kind="exception", error=traceback.format_exc())
                    break
                raise ShardExecutionError(
                    _shard_of(spec, unit_id),
                    traceback.format_exc()) from error
            yield spec, result
            break


def imap_shards(worker, specs, jobs: int | None,
                policy: RetryPolicy = RetryPolicy()):
    """Yield ``(spec, worker(spec))`` pairs as units *complete*.

    The one shard dispatcher.  Every spec becomes one deterministic
    work unit; results arrive in completion order, each paired with its
    own spec, so a store-aware caller (:mod:`repro.scenarios.runner`)
    persists each shard as it lands and re-assembles shard order
    itself.  ``jobs=None``/``<=1`` without ``policy.isolate`` runs the
    units in-process; everything else goes to the watchdog fleet
    (:class:`_WorkerFleet`), where a free worker takes the next pending
    unit the moment it finishes its previous one.  ``worker`` and every
    spec must be picklable.

    Either way a unit that exhausts ``policy`` raises
    :class:`ShardExecutionError` naming the failing shard, or under
    ``on_exhaust="degrade"`` is yielded as a :class:`UnitFailure`
    marker.  The default policy is one attempt, then fail.
    """
    jobs = 1 if jobs is None else max(1, min(jobs, len(specs)))
    if jobs > 1 or policy.isolate:
        yield from _imap_resilient(worker, specs, jobs, policy)
    else:
        yield from _imap_inline(worker, specs, policy)


# ----------------------------------------------------------------------
# Merge operations
# ----------------------------------------------------------------------

def merge_campaign_results(results: list[CampaignResult]) -> CampaignResult:
    """Merge shard fuzzing results onto one concatenated timeline.

    Shard ``k``'s iterations are re-stamped with the offset
    ``sum(iterations of shards < k)``; the merged coverage curve counts
    distinct items discovered by *any* shard up to each global
    iteration.  The merge is associative: merging pre-merged prefixes
    yields the same result as merging all shards at once.
    """
    merged = CampaignResult(iterations=0)
    offset = 0
    for result in results:
        for finding in result.findings:
            merged.findings.append(
                replace(finding, iteration=finding.iteration + offset)
            )
        for iteration, item in result.discovery_log:
            merged.discovery_log.append((iteration + offset, item))
        offset += result.iterations
        merged.corpus_size += result.corpus_size
        merged.executed_programs += result.executed_programs
    merged.iterations = offset

    seen: set = set()
    curve = []
    log = sorted(merged.discovery_log, key=lambda entry: entry[0])
    position = 0
    count = 0
    for iteration in range(offset):
        while position < len(log) and log[position][0] <= iteration:
            item = log[position][1]
            if item not in seen:
                seen.add(item)
                count += 1
            position += 1
        curve.append(count)
    merged.coverage_curve = curve
    return merged


def merge_reports(reports: list[CampaignReport]) -> CampaignReport:
    """Merge shard :class:`CampaignReport` objects into one.

    The result has the same type and shape as a serial campaign's
    report: merged stats (additive), a canonically ordered MST, leak
    reports concatenated in shard order, and a fuzz result on the
    concatenated iteration timeline.  A single report merges to itself
    (identity), so a one-shard run is indistinguishable from serial —
    including the MST's discovery order, which a multi-shard merge
    replaces with the canonical (start, end, tag) order.
    """
    if not reports:
        raise ValueError("no shard reports to merge")
    if len(reports) == 1:
        return reports[0]
    stats = reports[0].stats.merge(*(r.stats for r in reports[1:]))
    mst = reports[0].mst.merge(*(r.mst for r in reports[1:]))
    leak_reports: list[LeakReport] = []
    for report in reports:
        leak_reports.extend(report.reports)
    fuzz = merge_campaign_results([report.fuzz for report in reports])
    lp_curves: list[list[int]] = []
    for report in reports:
        lp_curves.extend(report.lp_curves)
    return CampaignReport(
        offline=reports[0].offline,
        fuzz=fuzz,
        stats=stats,
        mst=mst,
        reports=leak_reports,
        detectors=reports[0].detectors,
        static_prune=reports[0].static_prune,
        lp_curves=lp_curves,
    )
