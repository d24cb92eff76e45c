"""The `shard_stride` removal (deprecated in PR 3/4, deleted in PR 6).

Per-shard seeds have been hash-derived since PR 3; the knob then spent
two releases accepted-but-warning.  This pins the end state: the
parameter is *gone* — call sites get a `TypeError`, scenario
definitions a `ScenarioError` that says what to delete — while clean
call sites and specs stay silent.
"""

import warnings

import pytest

from repro.harness.parallel import shard_seed
from repro.scenarios.spec import ScenarioError, ScenarioSpec


class TestShardSeedRemoval:
    def test_passing_a_stride_raises_type_error(self):
        with pytest.raises(TypeError):
            shard_seed(5, 2, 1000)
        with pytest.raises(TypeError):
            shard_seed(5, 2, shard_stride=1000)

    def test_default_call_is_silent_and_unchanged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shard_seed(5, 0) == 5
            assert shard_seed(5, 3) == shard_seed(5, 3)
            assert shard_seed(5, 3) != shard_seed(5, 2)


class TestScenarioSpecRemoval:
    def test_the_field_is_gone(self):
        with pytest.raises(TypeError, match="shard_stride"):
            ScenarioSpec(name="legacy", shard_stride=250)

    def test_loading_a_definition_with_the_knob_raises(self):
        with pytest.raises(ScenarioError, match="removed"):
            ScenarioSpec.from_dict({"name": "old", "shard_stride": 500})

    def test_toml_file_with_the_knob_names_the_source(self, tmp_path):
        path = tmp_path / "old.toml"
        path.write_text('[scenario]\nname = "old"\nshard_stride = 1000\n')
        with pytest.raises(ScenarioError, match="old.toml"):
            ScenarioSpec.load(path)

    def test_the_error_says_how_to_fix_it(self):
        with pytest.raises(ScenarioError, match="delete the key"):
            ScenarioSpec.from_dict({"name": "old", "shard_stride": 1000})

    def test_clean_spec_round_trip_is_silent(self):
        spec = ScenarioSpec(name="clean", iterations=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ScenarioSpec.from_toml(spec.to_toml()) == spec
            assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert "shard_stride" not in spec.to_dict()
