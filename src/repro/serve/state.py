"""Per-tenant serving state.

A tenant session is the live, server-held replica of one offline
simulation cell: a predictor plus a confidence estimator (and the §6.2
adaptive controller when requested), advanced one observed batch at a
time by the reference stepper :func:`repro.sim.engine.step` — predict,
classify/assess, observe, (controller,) train.  The cell comes from the
one cell builder, :func:`repro.sim.runner.build_cell`, exactly as the
equivalent sweep job's does, so a served trace's per-branch decision
stream is bit-identical to the offline
:func:`repro.sim.engine.simulate` / :func:`simulate_binary` replay of
the same (predictor, estimator, trace) cell — the property
:func:`repro.serve.driver.differential_check` enforces.

:class:`SessionSpec` is the wire-facing description of such a cell: the
CLI predictor token (``tage-16K``, ``gshare``, …), the estimator kind
(``tage``/``jrs``/``ejrs``/``self``) and the scalar options a sweep cell
carries (seed, adaptive, target MKP).  It validates eagerly so a bad
HELLO is rejected before any state is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from repro.sim.backends import Capability, Cell, get_backend
from repro.sim.engine import mispredicted_of, step
from repro.sim.runner import build_cell
from repro.sweep.spec import EstimatorSpec, PredictorSpec

__all__ = ["SessionSpec", "TenantSession"]


@dataclass(frozen=True)
class SessionSpec:
    """One tenant's cell description, as carried by the HELLO payload.

    Attributes:
        tenant: tenant identity — routing key, admission-control scope
            and state namespace, all at once.
        predictor: CLI predictor token (``tage-<SIZE>[-prob]``,
            ``gshare``, ``bimodal``, ``perceptron``, ``ogehl``,
            ``local``).
        estimator: estimator kind (``tage`` for the paper's multi-class
            observation, ``jrs``/``ejrs``/``self`` for the binary
            baselines).
        adaptive: attach the §6.2 adaptive saturation controller
            (``tage`` estimator on a TAGE predictor only; forces the
            probabilistic automaton like the sweep layer does).
        target_mkp: adaptive controller target.
        seed: per-session RNG seed, derived exactly like a sweep job's
            (``None`` keeps each component's built-in seeds).
    """

    tenant: str
    predictor: str = "tage-64K"
    estimator: str = "tage"
    adaptive: bool = False
    target_mkp: float = 10.0
    seed: int | None = None

    def __post_init__(self) -> None:
        # HELLO payloads are decoded JSON: check types before use, so a
        # wrong-typed field is a ValueError (an ERR_BAD_REQUEST reply),
        # never a TypeError out of the reader.
        if (not isinstance(self.tenant, str) or not self.tenant
                or any(c.isspace() for c in self.tenant)):
            raise ValueError(f"invalid tenant name {self.tenant!r}")
        for name in ("predictor", "estimator"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not isinstance(self.adaptive, bool):
            raise ValueError(f"adaptive must be a bool, got {self.adaptive!r}")
        if (isinstance(self.target_mkp, bool) or not isinstance(self.target_mkp, Real)
                or not math.isfinite(self.target_mkp)):
            raise ValueError(f"target_mkp must be a finite number, got {self.target_mkp!r}")
        if self.seed is not None and (
                isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise ValueError(f"seed must be an integer or None, got {self.seed!r}")
        predictor = PredictorSpec.parse(self.predictor)  # raises on bad token
        estimator = EstimatorSpec.of(self.estimator)
        if not estimator.compatible_with(predictor):
            raise ValueError(
                f"estimator {self.estimator!r} cannot observe predictor "
                f"{self.predictor!r}"
            )
        if self.adaptive and (estimator.kind != "tage" or predictor.kind != "tage"):
            raise ValueError(
                "adaptive control needs a TAGE predictor with the 'tage' "
                f"observation estimator, got {self.predictor!r} x {self.estimator!r}"
            )

    @property
    def predictor_spec(self) -> PredictorSpec:
        return PredictorSpec.parse(self.predictor)

    @property
    def estimator_spec(self) -> EstimatorSpec:
        return EstimatorSpec.of(self.estimator)

    @property
    def is_binary(self) -> bool:
        """Binary high/low sessions return the confidence flag as code."""
        return self.estimator_spec.is_binary

    def capability(self, backend: str = "fast") -> Capability:
        """The named backend's verdict for this session's offline twin.

        Builds the session's components exactly as :class:`TenantSession`
        would and asks :meth:`repro.sim.backends.Backend.capability` —
        the same single decision point the sweep executor and the
        ``simulate`` dispatchers use — so a served cell and its offline
        differential-check replay can never disagree about backend
        support.
        """
        return get_backend(backend).capability(self.build_cell())

    def build_cell(self) -> Cell:
        """A fresh power-on cell for this session, via the one cell builder."""
        return build_cell(self.predictor_spec, self.estimator_spec,
                          self.adaptive, self.target_mkp, self.seed)

    def as_dict(self) -> dict:
        """Plain-data wire form (the HELLO payload)."""
        return {
            "tenant": self.tenant,
            "predictor": self.predictor,
            "estimator": self.estimator,
            "adaptive": self.adaptive,
            "target_mkp": self.target_mkp,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionSpec":
        """Validated spec from a decoded HELLO payload."""
        known = {"tenant", "predictor", "estimator", "adaptive", "target_mkp", "seed"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown session fields {sorted(unknown)}")
        if "tenant" not in payload:
            raise ValueError("session spec needs a 'tenant' field")
        return cls(**payload)


class TenantSession:
    """Live predictor + estimator state for one tenant.

    All mutation happens through :meth:`observe_batch`, which the server
    calls from exactly one shard worker — per-tenant serialization is a
    routing property, so the session itself needs no locking.
    """

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        self.cell = spec.build_cell()
        self.n_observed = 0
        self.mispredictions = 0

    def observe_batch(self, pcs, takens) -> tuple[bytes, bytes]:
        """Advance the session over a batch; per-record decisions back.

        Returns parallel byte columns ``(predictions, codes)`` — codes
        are §5 observation-class codes for multi-class sessions, the
        high-confidence flag for binary ones — as stepped by
        :func:`repro.sim.engine.step`.
        """
        predictions, codes = step(self.cell, pcs, takens)
        self.n_observed += len(predictions)
        self.mispredictions += sum(mispredicted_of(predictions, takens))
        return bytes(predictions), bytes(codes)

    def stats(self) -> dict:
        """Plain-data session accounting (the CLOSED payload)."""
        return {
            "tenant": self.spec.tenant,
            "observed": self.n_observed,
            "mispredictions": self.mispredictions,
        }
