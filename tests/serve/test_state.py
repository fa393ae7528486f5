"""SessionSpec validation and TenantSession batching semantics."""

import pytest

from repro.serve.state import SessionSpec, TenantSession
from repro.sim.runner import get_trace


class TestSessionSpec:
    def test_defaults_validate(self):
        spec = SessionSpec(tenant="t0")
        assert spec.predictor == "tage-64K"
        assert not spec.is_binary

    def test_binary_kinds(self):
        assert SessionSpec(tenant="t", predictor="gshare", estimator="jrs").is_binary
        assert SessionSpec(tenant="t", predictor="perceptron",
                           estimator="self").is_binary

    @pytest.mark.parametrize("tenant", ["", "two words", "tab\tname"])
    def test_bad_tenant_rejected(self, tenant):
        with pytest.raises(ValueError, match="tenant"):
            SessionSpec(tenant=tenant)

    def test_bad_predictor_token_rejected(self):
        with pytest.raises(ValueError):
            SessionSpec(tenant="t", predictor="tage-3K")

    def test_bad_estimator_kind_rejected(self):
        with pytest.raises(ValueError):
            SessionSpec(tenant="t", estimator="oracle")

    def test_incompatible_pair_rejected(self):
        # The multi-class observation needs a TAGE predictor.
        with pytest.raises(ValueError, match="cannot observe"):
            SessionSpec(tenant="t", predictor="gshare", estimator="tage")

    def test_adaptive_needs_tage_cell(self):
        with pytest.raises(ValueError, match="adaptive"):
            SessionSpec(tenant="t", predictor="gshare", estimator="jrs",
                        adaptive=True)

    @pytest.mark.parametrize("fields", [
        {"tenant": 5},
        {"predictor": 16},
        {"estimator": None},
        {"adaptive": "no"},
        {"adaptive": 1},
        {"target_mkp": "x", "adaptive": True},
        {"target_mkp": True},
        {"target_mkp": float("nan")},
        {"target_mkp": float("inf")},
        {"seed": "abc"},
        {"seed": 1.5},
        {"seed": True},
    ], ids=repr)
    def test_wrong_typed_field_is_value_error(self, fields):
        # HELLO payloads are decoded JSON: a wrong type must surface as
        # the ValueError the server answers with ERR_BAD_REQUEST.
        with pytest.raises(ValueError):
            SessionSpec.from_dict({"tenant": "t0", **fields})

    def test_numeric_fields_accept_ints_and_floats(self):
        spec = SessionSpec(tenant="t0", adaptive=True, target_mkp=7, seed=0)
        assert spec.target_mkp == 7 and spec.seed == 0

    def test_dict_round_trip(self):
        spec = SessionSpec(tenant="t0", predictor="tage-16K", estimator="tage",
                           adaptive=True, target_mkp=7.5, seed=11)
        assert SessionSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown session fields"):
            SessionSpec.from_dict({"tenant": "t0", "oracle": True})

    def test_from_dict_requires_tenant(self):
        with pytest.raises(ValueError, match="tenant"):
            SessionSpec.from_dict({"predictor": "tage-16K"})


class TestTenantSession:
    def _replay(self, spec, trace, batch_size):
        session = TenantSession(spec)
        predictions = bytearray()
        codes = bytearray()
        for start in range(0, len(trace), batch_size):
            batch_predictions, batch_codes = session.observe_batch(
                trace.pcs[start:start + batch_size],
                trace.takens[start:start + batch_size],
            )
            predictions.extend(batch_predictions)
            codes.extend(batch_codes)
        return session, bytes(predictions), bytes(codes)

    @pytest.mark.parametrize("predictor,estimator", [
        ("tage-16K", "tage"),
        ("gshare", "jrs"),
    ])
    def test_decisions_invariant_under_batch_size(self, predictor, estimator):
        trace = get_trace("zoo.loopnest", 2500)
        spec = SessionSpec(tenant="t0", predictor=predictor, estimator=estimator)
        _, small_p, small_c = self._replay(spec, trace, 17)
        _, big_p, big_c = self._replay(spec, trace, 1000)
        assert small_p == big_p
        assert small_c == big_c

    def test_accounting(self):
        trace = get_trace("zoo.markov", 1200)
        spec = SessionSpec(tenant="t0", predictor="tage-16K", estimator="tage")
        session, predictions, _ = self._replay(spec, trace, 128)
        assert session.n_observed == len(trace)
        expected = sum(
            (byte == 1) != (taken == 1)
            for byte, taken in zip(predictions, trace.takens)
        )
        assert session.mispredictions == expected
        stats = session.stats()
        assert stats == {"tenant": "t0", "observed": len(trace),
                         "mispredictions": expected}

    def test_multiclass_codes_are_class_codes(self):
        trace = get_trace("zoo.markov", 800)
        spec = SessionSpec(tenant="t0", predictor="tage-16K", estimator="tage")
        _, _, codes = self._replay(spec, trace, 400)
        assert set(codes) <= set(range(7))

    def test_binary_codes_are_flags(self):
        trace = get_trace("zoo.markov", 800)
        spec = SessionSpec(tenant="t0", predictor="gshare", estimator="jrs")
        _, _, codes = self._replay(spec, trace, 400)
        assert set(codes) <= {0, 1}
