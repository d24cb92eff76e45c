"""The two-path shard dispatcher: dispatch, reuse, failure.

Covers the executor semantics the campaign layers rely on:

* every result arrives paired with its own spec whatever the
  completion order (byte-identical merges are pinned end-to-end by
  the scenario/bench tests);
* the worker fleet persists across calls and per-process statics are
  shared;
* a worker exception surfaces as :class:`ShardExecutionError` naming
  the failing shard, with the fleet torn down promptly;
* the inline (jobs<=1) path keeps the same contract, chaining the
  worker's exception as ``__cause__``.
"""

import time

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    ShardExecutionError,
    imap_shards,
    shared_statics,
    shutdown_fleet,
)


def _echo_worker(item):
    return ("done", item)


def _sleepy_worker(item):
    # Later units finish first: unit 0 sleeps longest.
    time.sleep(0.15 if item == 0 else 0.0)
    return item * 10


def _failing_worker(item):
    if item == 3:
        raise RuntimeError(f"boom on {item}")
    return item


class _ShardLike:
    """Work item carrying an explicit shard id (like ShardTask)."""

    def __init__(self, shard):
        self.shard = shard

    def __reduce__(self):
        return (_ShardLike, (self.shard,))


def _failing_shardlike_worker(item):
    if item.shard == 7:
        raise ValueError("injected shard failure")
    return item.shard


@pytest.fixture(autouse=True)
def _clean_fleet():
    yield
    shutdown_fleet()


class TestDispatch:
    def test_inline_yields_in_spec_order(self):
        results = list(imap_shards(_echo_worker, [1, 2, 3], jobs=None))
        assert results == [(1, ("done", 1)), (2, ("done", 2)),
                           (3, ("done", 3))]

    def test_unordered_stream_pairs_spec_with_result(self):
        # Unit 0 is the slowest, so the fleet completes it out of spec
        # order; keyed by spec, every result is still its own.
        seen = dict(imap_shards(_sleepy_worker, [0, 1, 2, 3], jobs=4))
        assert seen == {0: 0, 1: 10, 2: 20, 3: 30}

    def test_pool_persists_across_calls(self):
        dict(imap_shards(_echo_worker, [1, 2], jobs=2))
        first = parallel._FLEET
        assert first is not None
        dict(imap_shards(_echo_worker, [3, 4], jobs=2))
        assert parallel._FLEET is first  # same fleet object, no refork

    def test_pool_rebuilds_when_jobs_change(self):
        dict(imap_shards(_echo_worker, [1, 2], jobs=2))
        first = parallel._FLEET
        dict(imap_shards(_echo_worker, [1, 2, 3], jobs=3))
        assert parallel._FLEET is not first
        assert parallel._FLEET.jobs == 3


class TestFailure:
    def test_worker_error_names_the_failing_shard(self):
        items = [_ShardLike(5), _ShardLike(7), _ShardLike(9)]
        with pytest.raises(ShardExecutionError) as excinfo:
            dict(imap_shards(_failing_shardlike_worker, items, jobs=2))
        assert excinfo.value.shard == 7
        assert "injected shard failure" in excinfo.value.worker_traceback
        assert "shard 7" in str(excinfo.value)

    def test_pool_is_torn_down_promptly_on_failure(self):
        with pytest.raises(ShardExecutionError):
            dict(imap_shards(_failing_worker, [0, 1, 2, 3], jobs=2))
        assert parallel._FLEET is None  # shut down, not left joining

    def test_plain_items_fall_back_to_unit_index(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            dict(imap_shards(_failing_worker, [0, 1, 2, 3], jobs=2))
        assert excinfo.value.shard == 3
        assert "boom on 3" in excinfo.value.worker_traceback

    def test_inline_failures_propagate_raw(self):
        """Inline, the worker's raw exception travels as the cause of
        the same ShardExecutionError the fleet raises."""
        with pytest.raises(ShardExecutionError) as excinfo:
            dict(imap_shards(_failing_worker, [3], jobs=1))
        assert excinfo.value.shard == 0  # plain item: its unit index
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert str(excinfo.value.__cause__) == "boom on 3"
        assert "RuntimeError: boom on 3" in excinfo.value.worker_traceback

    def test_next_call_after_failure_gets_a_fresh_pool(self):
        with pytest.raises(ShardExecutionError):
            dict(imap_shards(_failing_worker, [2, 3], jobs=2))
        assert dict(imap_shards(_echo_worker, [1, 2], jobs=2)) == \
            {1: ("done", 1), 2: ("done", 2)}


class TestSharedStatics:
    def test_same_config_shares_core_and_offline(self):
        from repro.boom.config import BoomConfig
        from repro.boom.vulns import VulnConfig

        config_a = BoomConfig.small(VulnConfig.all())
        config_b = BoomConfig.small(VulnConfig.all())
        core_a, offline_a = shared_statics(config_a)
        core_b, offline_b = shared_statics(config_b)
        assert core_a is core_b
        assert offline_a is offline_b

    def test_distinct_configs_get_distinct_statics(self):
        from repro.boom.config import BoomConfig
        from repro.boom.vulns import VulnConfig

        core_all, _ = shared_statics(BoomConfig.small(VulnConfig.all()))
        core_none, _ = shared_statics(BoomConfig.small(VulnConfig()))
        assert core_all is not core_none

    def test_shared_specure_reuses_statics_and_stays_exact(self):
        """Two campaigns at the same seed through the shared core must
        be byte-identical — engine reuse across campaigns is exact."""
        from repro.boom.config import BoomConfig
        from repro.boom.vulns import VulnConfig
        from repro.core.specure import Specure

        config = BoomConfig.small(VulnConfig.all())

        def shared_specure():
            core, offline = shared_statics(config)
            return Specure(core=core, offline=offline, seed=11,
                           monitor_dcache=True)

        first = shared_specure()
        second = shared_specure()
        assert first.core is second.core
        report_a = first.campaign(5)
        report_b = second.campaign(5)
        assert report_a.render(include_timings=False) == \
            report_b.render(include_timings=False)


class TestScenarioRunnerIntegration:
    def test_worker_failure_marks_store_resumable(self, tmp_path,
                                                  monkeypatch):
        """A dead worker must leave the campaign resumable: completed
        shards persisted, status interrupted, and the error naming the
        failing shard."""
        from repro.scenarios import resolve_scenario
        from repro.scenarios import runner as runner_module
        from repro.scenarios.runner import run_scenario, resume_scenario
        from repro.scenarios.store import STATUS_INTERRUPTED, CampaignStore

        spec = resolve_scenario("quickstart").override(
            shards=3, iterations=4
        )
        real_execute = runner_module._execute_shard

        def sabotaged(task):
            if task.shard == 2:
                raise RuntimeError("injected shard death")
            return real_execute(task)

        calls = []

        def tracking_imap(worker, specs, jobs, policy=None):
            # Run inline, raising the dispatcher's error type.
            for unit_id, task in enumerate(specs):
                calls.append(task.shard)
                try:
                    yield task, sabotaged(task)
                except RuntimeError:
                    raise ShardExecutionError(task.shard, "injected")

        monkeypatch.setattr(runner_module, "imap_shards", tracking_imap)
        run_dir = tmp_path / "campaign"
        with pytest.raises(ShardExecutionError) as excinfo:
            run_scenario(spec, run_dir=run_dir, jobs=2, minimize=False)
        assert excinfo.value.shard == 2
        store = CampaignStore.open(run_dir)
        assert store.status == STATUS_INTERRUPTED
        assert store.completed_shards() == [0, 1]

        monkeypatch.setattr(runner_module, "imap_shards", imap_shards)
        outcome = resume_scenario(run_dir, jobs=1, minimize=False)
        assert outcome.resumed_shards == [0, 1]
        assert outcome.executed_shards == [2]
        assert outcome.report is not None
