"""Tests for the declarative sweep specs and their canonical hashing."""

import pytest

from repro.sweep.spec import (
    EstimatorSpec,
    ExperimentSpec,
    JobSpec,
    PredictorSpec,
    stable_digest,
)


def small_spec(**overrides) -> ExperimentSpec:
    options = dict(
        name="unit",
        predictors=(PredictorSpec.of("tage", size="16K"), PredictorSpec.of("gshare")),
        estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
        traces=("FP-1", "INT-1"),
        n_branches=800,
    )
    options.update(overrides)
    return ExperimentSpec(**options)


class TestPredictorSpec:
    def test_parse_tage_sizes(self):
        spec = PredictorSpec.parse("tage-16K")
        assert spec.kind == "tage" and spec.size == "16K"
        assert spec.automaton == "standard"
        assert spec.label == "tage-16K"

    def test_parse_tage_probabilistic(self):
        spec = PredictorSpec.parse("tage-64K-prob")
        assert spec.automaton == "probabilistic"
        assert spec.label == "tage-64K-prob"

    def test_parse_baselines(self):
        for token in ("gshare", "bimodal", "perceptron", "ogehl", "local"):
            assert PredictorSpec.parse(token).kind == token

    def test_parse_unknown_rejected(self):
        with pytest.raises(ValueError):
            PredictorSpec.parse("neural-42K")

    def test_parse_bare_tage_is_medium_standard(self):
        spec = PredictorSpec.parse("tage")
        assert (spec.size, spec.automaton) == ("64K", "standard")

    @pytest.mark.parametrize("token", [
        "tage-16K-probabilistic", "tage-16K-foo", "tage-16K-prob-x",
        "tage-16K-", "tage-16K-prob-prob",
    ])
    def test_parse_unknown_tage_suffix_rejected(self, token):
        # Only tage, tage-<SIZE> and tage-<SIZE>-prob parse.
        with pytest.raises(ValueError, match="cannot parse predictor"):
            PredictorSpec.parse(token)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PredictorSpec.of("neural")

    def test_tage_defaults_to_medium(self):
        assert PredictorSpec.of("tage").size == "64K"

    def test_unknown_tage_size_rejected_at_spec_time(self):
        # Must fail during spec construction, not as a worker traceback.
        with pytest.raises(ValueError, match="TAGE size"):
            PredictorSpec.parse("tage-2M")
        with pytest.raises(ValueError, match="TAGE size"):
            PredictorSpec.of("tage", size="1M")

    def test_params_are_order_insensitive(self):
        a = PredictorSpec.of("gshare", log_entries=13, history_length=12)
        b = PredictorSpec.of("gshare", history_length=12, log_entries=13)
        assert a == b
        assert a.as_dict() == b.as_dict()


class TestEstimatorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EstimatorSpec.of("oracle")

    @pytest.mark.parametrize(
        "estimator,predictor,expected",
        [
            ("tage", "tage", True),
            ("tage", "gshare", False),
            ("jrs", "gshare", True),
            ("jrs", "tage", True),
            ("ejrs", "bimodal", True),
            ("self", "perceptron", True),
            ("self", "ogehl", True),
            ("self", "gshare", False),
            ("self", "tage", False),
        ],
    )
    def test_compatibility_matrix(self, estimator, predictor, expected):
        e = EstimatorSpec.of(estimator)
        p = PredictorSpec.of(predictor, size="16K" if predictor == "tage" else None)
        assert e.compatible_with(p) is expected

    def test_binary_flag(self):
        assert not EstimatorSpec.of("tage").is_binary
        for kind in ("jrs", "ejrs", "self"):
            assert EstimatorSpec.of(kind).is_binary


class TestExperimentSpec:
    def test_requires_nonempty_axes(self):
        with pytest.raises(ValueError):
            small_spec(predictors=())
        with pytest.raises(ValueError):
            small_spec(estimators=())
        with pytest.raises(ValueError):
            small_spec(traces=())

    def test_requires_positive_branches(self):
        with pytest.raises(ValueError):
            small_spec(n_branches=0)
        with pytest.raises(ValueError):
            small_spec(warmup_branches=-1)

    def test_spec_hash_is_stable(self):
        assert small_spec().spec_hash() == small_spec().spec_hash()

    def test_spec_hash_tracks_options(self):
        base = small_spec()
        assert base.spec_hash() != small_spec(n_branches=801).spec_hash()
        assert base.spec_hash() != small_spec(seed=1).spec_hash()
        assert base.spec_hash() != small_spec(traces=("FP-1",)).spec_hash()

    def test_with_options(self):
        tweaked = small_spec().with_options(seed=7, n_branches=900)
        assert tweaked.seed == 7 and tweaked.n_branches == 900
        assert tweaked.predictors == small_spec().predictors


class TestJobSeeds:
    def test_unseeded_spec_derives_none(self):
        spec = small_spec()
        assert spec.derive_job_seed(spec.predictors[0], spec.estimators[0], "FP-1") is None

    def test_seeded_spec_is_deterministic_and_distinct(self):
        spec = small_spec(seed=42)
        seed_a = spec.derive_job_seed(spec.predictors[0], spec.estimators[0], "FP-1")
        seed_b = spec.derive_job_seed(spec.predictors[0], spec.estimators[0], "FP-1")
        seed_c = spec.derive_job_seed(spec.predictors[0], spec.estimators[0], "INT-1")
        seed_d = spec.derive_job_seed(spec.predictors[1], spec.estimators[0], "FP-1")
        assert seed_a == seed_b
        assert len({seed_a, seed_c, seed_d}) == 3
        assert all(0 <= s <= 0xFFFFFFFF for s in (seed_a, seed_c, seed_d))

    def test_base_seed_shifts_every_job_seed(self):
        one = small_spec(seed=1)
        two = small_spec(seed=2)
        assert one.derive_job_seed(one.predictors[0], one.estimators[0], "FP-1") != \
            two.derive_job_seed(two.predictors[0], two.estimators[0], "FP-1")


class TestJobSpecHash:
    def job(self, **overrides) -> JobSpec:
        options = dict(
            predictor=PredictorSpec.of("tage", size="16K"),
            estimator=EstimatorSpec.of("tage"),
            trace="FP-1",
            n_branches=800,
        )
        options.update(overrides)
        return JobSpec(**options)

    def test_identical_jobs_share_a_hash(self):
        assert self.job().spec_hash() == self.job().spec_hash()

    def test_any_field_changes_the_hash(self):
        base = self.job().spec_hash()
        assert self.job(trace="INT-1").spec_hash() != base
        assert self.job(n_branches=801).spec_hash() != base
        assert self.job(seed=3).spec_hash() != base
        assert self.job(adaptive=True).spec_hash() != base
        assert self.job(estimator=EstimatorSpec.of("jrs")).spec_hash() != base

    def test_digest_shape(self):
        digest = stable_digest({"a": 1})
        assert len(digest) == 16
        assert int(digest, 16) >= 0
