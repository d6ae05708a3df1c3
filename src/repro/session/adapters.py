"""Protocol adapters: one surface over numeric mechanisms and oracles.

The repo grew two perturbation families with incompatible interfaces:
:class:`~repro.mechanisms.base.Mechanism` (numeric perturbation with
closed-form conditional moments) and
:class:`~repro.freq_oracles.base.FrequencyOracle` (categorical GRR/OUE/OLH
with closed-form estimation variances). This module puts both behind one
``privatize`` / ``aggregate`` / ``deviation_model`` surface so the session
client and server never dispatch on the family:

* :class:`CollectionProtocol` — an *unbound* protocol resolved from the
  unified registry (:func:`repro.mechanisms.registry.get_protocol`);
  :meth:`CollectionProtocol.bind` specializes it to one schema attribute
  and its per-attribute budget;
* :class:`AttributeCollector` — the bound object: the client side calls
  :meth:`~AttributeCollector.privatize`, the server side feeds an
  additive aggregation state via :meth:`~AttributeCollector.accumulate`
  and reads :meth:`~AttributeCollector.estimate` /
  :meth:`~AttributeCollector.deviation_model` from it.

Aggregation states are strictly additive (counts, streaming sums), which
is what makes :meth:`repro.session.LDPServer.ingest` incremental: the
estimate after ten small batches is bit-identical to the estimate after
one concatenated batch.

Each oracle's report check and support counts live in
:mod:`repro.freq_oracles`, not here: the one :class:`OracleCollector`
serves GRR, OUE and OLH by delegating to the oracle it binds, and the
registry reads the oracle names from that package's name table.

Budget semantics: a collector receives the whole per-attribute budget
``ε/m``. Numeric mechanisms spend it directly; histogram encoding spends
``ε/2m`` per one-hot entry (a category change flips two entries); the
oracles spend ``ε/m`` on the single label report. All three therefore
compose to the user's collective ``ε`` under the exactly-``m`` sampling
done by :class:`repro.session.LDPClient`.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, List, Optional, Sequence

import numpy as np

from ..exceptions import (
    AggregationError, DimensionError, DomainError, WireFormatError,
)
from ..framework.deviation import DeviationModel, build_deviation_model
from ..framework.multivariate import MultivariateDeviationModel
from ..framework.population import ValueDistribution
from ..freq_oracles.base import FrequencyOracle
from ..hdr4me.frequency import adapt_to_unit_domain, one_hot_encode
from ..mechanisms.base import (
    AffineTransformedMechanism,
    Mechanism,
    affine_mean_map,
    validate_epsilon,
)
from ..rng import RngLike, ensure_rng
from .schema import Attribute, CategoricalAttribute, NumericAttribute
from .streaming import StreamingSum

#: Marks a lazily computed attribute that has not been computed yet.
_UNSET = object()


def _require_snapshot_kind(snapshot: Any, kind: str) -> dict:
    """Validate a state snapshot's family tag; return the snapshot dict."""
    if not isinstance(snapshot, dict) or snapshot.get("kind") != kind:
        raise WireFormatError(
            "expected a %r state snapshot, got %r"
            % (kind, snapshot.get("kind") if isinstance(snapshot, dict) else snapshot)
        )
    return snapshot


class AttributeCollector(abc.ABC):
    """A protocol bound to one attribute and its per-attribute budget.

    Collectors own both halves of the attribute's collection: the
    client-side :meth:`privatize` and the server-side additive state
    (:meth:`new_state` / :meth:`accumulate`) with its readers
    (:meth:`estimate`, :meth:`deviation_model`).

    Validation and accumulation are split so ingestion can be atomic:
    :meth:`check_payload` validates and canonicalizes a report payload
    without touching any state, :meth:`fold` accumulates an
    already-canonical payload, and :meth:`accumulate` composes the two
    for direct callers. States are mergeable and serializable —
    :meth:`merge_states` folds one state into another exactly (the float
    accumulators are exact integers under the hood, see
    :mod:`repro.session.streaming`), and :meth:`snapshot` /
    :meth:`restore` round-trip a state through a JSON-able dictionary
    for checkpointing.
    """

    #: Registry name of the protocol that bound this collector (stamped by
    #: ``resolve_collectors``); lets the server reject report payloads
    #: produced under a different protocol.
    protocol_name: str = "unknown"

    def __init__(self, attribute: Attribute, epsilon: float) -> None:
        self.attribute = attribute
        self.epsilon = validate_epsilon(epsilon)

    # -------------------------------------------------------------- client

    @abc.abstractmethod
    def privatize(self, values: np.ndarray, rng: RngLike = None) -> Any:
        """Perturb the contributing users' values into a report payload.

        ``values`` should already be validated against the attribute, as
        :meth:`repro.session.Schema.validate_matrix` does for the client.
        The perturbation checks them again where it copies them:
        :meth:`~repro.mechanisms.base.Mechanism.perturb` checks and clips
        numeric values in the one buffer it computes in (so ``values``
        may be a view of the caller's records), and the oracles and the
        histogram encoding check labels as they read them.
        """

    def block_key(self) -> Optional[Hashable]:
        """Key under which attributes may be privatized in one call.

        Collectors with equal non-``None`` keys perturb identically, so
        the client may concatenate their values, privatize them with any
        one of them and slice the payload back per attribute. ``None``
        (the default) keeps the attribute on its own.
        """
        return None

    # -------------------------------------------------------------- server

    @abc.abstractmethod
    def new_state(self) -> Any:
        """Fresh additive aggregation state for this attribute."""

    @abc.abstractmethod
    def check_payload(self, payload: Any) -> Any:
        """Validate one report payload without touching any state.

        Returns the canonical form :meth:`fold` accepts; raises
        :class:`DimensionError` / :class:`DomainError` on malformed
        payloads. Ingestion validates every payload of a batch through
        this *before* accumulating any of them, so a bad attribute can
        never leave earlier attributes' state partially updated.
        """

    @abc.abstractmethod
    def fold(self, state: Any, payload: Any) -> None:
        """Fold a canonical (already-validated) payload into the state."""

    def accumulate(self, state: Any, payload: Any) -> None:
        """Validate and fold one report payload into the state."""
        self.fold(state, self.check_payload(payload))

    def payload_rows(self, payload: Any) -> int:
        """Number of user reports a canonical payload carries."""
        return int(np.asarray(payload).shape[0])

    @abc.abstractmethod
    def merge_states(self, state: Any, other: Any) -> None:
        """Fold another aggregation state into ``state`` (exactly).

        Bit-identical to having accumulated the other state's payloads
        directly; ``other`` is left untouched.
        """

    @abc.abstractmethod
    def snapshot(self, state: Any) -> dict:
        """JSON-serializable snapshot of an aggregation state."""

    @abc.abstractmethod
    def restore(self, snapshot: dict) -> Any:
        """Rebuild an aggregation state from :meth:`snapshot` output.

        Raises :class:`~repro.exceptions.WireFormatError` when the
        snapshot belongs to a different state family or is malformed.
        """

    @abc.abstractmethod
    def reports(self, state: Any) -> int:
        """Number of user reports accumulated so far."""

    @abc.abstractmethod
    def estimate(self, state: Any) -> np.ndarray:
        """Calibrated estimate from the current state (non-destructive).

        Numeric attributes yield a length-1 vector (the mean); categorical
        attributes yield the length-``v`` frequency vector.
        """

    @abc.abstractmethod
    def deviation_model(self, state: Any) -> MultivariateDeviationModel:
        """Theorem-1-style deviation model of :meth:`estimate`'s output."""

    # ------------------------------------------------------------- payloads

    def concat_payloads(self, payloads: Sequence[Any]) -> Any:
        """Concatenate report payloads (default: stacked numpy arrays)."""
        return np.concatenate([np.asarray(p) for p in payloads], axis=0)

    def entry_means(self, state: Any) -> Optional[np.ndarray]:
        """Uncalibrated encoded-entry means, when the encoding has them."""
        return None

    def _require_reports(self, state: Any) -> int:
        count = self.reports(state)
        if count < 1:
            raise AggregationError(
                "attribute %r received no reports; increase n or m"
                % self.attribute.name
            )
        return count


class CollectionProtocol(abc.ABC):
    """Unbound perturbation protocol resolvable by name from the registry."""

    #: Registry-style short name.
    name: str = "abstract"

    @abc.abstractmethod
    def bind(self, attribute: Attribute, epsilon: float) -> AttributeCollector:
        """Specialize to one schema attribute under budget ``epsilon``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(name=%r)" % (type(self).__name__, self.name)


# --------------------------------------------------------------------------
# Numeric mechanisms (and their histogram-encoded categorical route)
# --------------------------------------------------------------------------


class SumStateMixin:
    """State plumbing of collectors whose state is a :class:`StreamingSum`.

    Subclasses set :attr:`state_kind` (the snapshot family tag) and
    override :meth:`_sum_width` when the state is wider than one column.
    """

    state_kind: str = "sum"

    def _sum_width(self) -> int:
        return 1

    def new_state(self) -> StreamingSum:
        return StreamingSum(self._sum_width())

    def fold(self, state: StreamingSum, payload: np.ndarray) -> None:
        state.add(payload, assume_finite=True)

    def reports(self, state: StreamingSum) -> int:
        return state.rows

    def merge_states(self, state: StreamingSum, other: StreamingSum) -> None:
        state.merge(other)

    def snapshot(self, state: StreamingSum) -> dict:
        return {"kind": self.state_kind, "sums": state.state_dict()}

    def restore(self, snapshot: dict) -> StreamingSum:
        data = _require_snapshot_kind(snapshot, self.state_kind)
        sums = StreamingSum.from_state_dict(data.get("sums"))
        if sums.width != self._sum_width():
            raise WireFormatError(
                "attribute %r: %s state must have width %d, got %d"
                % (
                    self.attribute.name,
                    self.state_kind,
                    self._sum_width(),
                    sums.width,
                )
            )
        return sums


class NumericMechanismCollector(SumStateMixin, AttributeCollector):
    """Mean estimation for one numeric attribute via a :class:`Mechanism`.

    The mechanism is re-domained to the attribute's declared interval when
    they differ, so schemas may mix attribute ranges freely.
    """

    state_kind = "numeric-sum"

    def __init__(
        self, mechanism: Mechanism, attribute: NumericAttribute, epsilon: float
    ) -> None:
        super().__init__(attribute, epsilon)
        if tuple(mechanism.input_domain) != tuple(attribute.domain):
            mechanism = AffineTransformedMechanism(mechanism, attribute.domain)
        self.mechanism = mechanism
        # Probed on the first estimate, not here: every pipeline round
        # binds a fresh collector per attribute.
        self._bias: Any = _UNSET

    def privatize(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        return self.mechanism.perturb(values, self.epsilon, ensure_rng(rng))

    def block_key(self) -> Optional[Hashable]:
        """Mechanism class and parameters, domain and budget.

        Mechanisms are compared by value, not identity, so attributes
        bound to separate but equal instances still share a block.
        ``None`` for re-domained mechanisms and unhashable parameters.
        """
        if isinstance(self.mechanism, AffineTransformedMechanism):
            return None
        params = tuple(sorted(vars(self.mechanism).items()))
        key = (type(self.mechanism), params, self.attribute.domain, self.epsilon)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def check_payload(self, payload: Any) -> np.ndarray:
        arr = np.asarray(payload, dtype=np.float64)
        if arr.ndim != 1:
            raise DimensionError(
                "attribute %r: expected a (k,) numeric report vector, got "
                "shape %s" % (self.attribute.name, arr.shape)
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise DomainError(
                "attribute %r: perturbed reports must be finite"
                % self.attribute.name
            )
        return arr

    def estimate(self, state: StreamingSum) -> np.ndarray:
        count = self._require_reports(state)
        mean = state.value()[0] / count
        if self._bias is _UNSET:
            self._bias = self.mechanism.deterministic_bias(self.epsilon)
        bias = self._bias
        if bias:
            mean = mean - bias
        return np.array([mean])

    def deviation_model(self, state: StreamingSum) -> MultivariateDeviationModel:
        count = self._require_reports(state)
        population = None
        if self.mechanism.bounded:
            lo, hi = self.attribute.domain
            plugin = float(np.clip(self.estimate(state)[0], lo, hi))
            population = ValueDistribution.point_mass(plugin)
        model = build_deviation_model(
            self.mechanism, self.epsilon, count, population
        )
        return MultivariateDeviationModel([model])


class HistogramMechanismCollector(SumStateMixin, AttributeCollector):
    """Frequency estimation via histogram encoding (paper Section V-C).

    Labels are one-hot encoded and every entry is perturbed with
    ``ε/2`` of the attribute budget (a category change flips two
    entries), using the mechanism re-domained to the unit interval. The
    collector inverts the mechanism's affine conditional-mean map to
    calibrate entry means back into frequencies.
    """

    state_kind = "histogram-sum"

    def _sum_width(self) -> int:
        return self.attribute.n_categories

    def __init__(
        self, mechanism: Mechanism, attribute: CategoricalAttribute, epsilon: float
    ) -> None:
        super().__init__(attribute, epsilon)
        self.mechanism = adapt_to_unit_domain(mechanism)
        self.epsilon_per_entry = self.epsilon / 2.0

    def privatize(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        encoded = one_hot_encode(values, self.attribute.n_categories)
        return self.mechanism.perturb(
            encoded, self.epsilon_per_entry, ensure_rng(rng)
        )

    def check_payload(self, payload: Any) -> np.ndarray:
        matrix = np.asarray(payload, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.attribute.n_categories:
            raise DimensionError(
                "attribute %r: expected (k, %d) histogram payload, got %s"
                % (self.attribute.name, self.attribute.n_categories, matrix.shape)
            )
        if matrix.size and not np.all(np.isfinite(matrix)):
            raise DomainError(
                "attribute %r: perturbed entries must be finite"
                % self.attribute.name
            )
        return matrix

    def entry_means(self, state: StreamingSum) -> np.ndarray:
        count = self._require_reports(state)
        return state.value() / count

    def _affine(self) -> tuple:
        affine = affine_mean_map(self.mechanism, self.epsilon_per_entry)
        if affine is None:  # pragma: no cover - no shipped mechanism hits this
            return 1.0, 0.0
        return affine

    def estimate(self, state: StreamingSum) -> np.ndarray:
        slope, intercept = self._affine()
        return (self.entry_means(state) - intercept) / slope

    def deviation_model(self, state: StreamingSum) -> MultivariateDeviationModel:
        """Plug-in Bernoulli model per entry, rescaled by the calibration.

        The calibrated estimate divides by the affine slope, so the
        per-entry deviation sigma is the Lemma 3 sigma over ``|slope|``.
        """
        count = self._require_reports(state)
        slope, _ = self._affine()
        plugin = np.clip(self.estimate(state), 0.0, 1.0)
        models: List[DeviationModel] = []
        for frequency in plugin:
            population = ValueDistribution(
                np.array([0.0, 1.0]),
                np.array([1.0 - frequency, frequency]),
            )
            base = build_deviation_model(
                self.mechanism, self.epsilon_per_entry, count, population
            )
            models.append(
                DeviationModel(
                    delta=0.0,
                    sigma=base.sigma / abs(slope),
                    reports=count,
                    epsilon=self.epsilon_per_entry,
                    mechanism_name=base.mechanism_name,
                )
            )
        return MultivariateDeviationModel(models)


class MechanismProtocol(CollectionProtocol):
    """Adapter exposing any numeric :class:`Mechanism` as a protocol.

    Numeric attributes are perturbed directly; categorical attributes go
    through the histogram-encoding route, so one mechanism name can serve
    a mixed schema end to end.
    """

    def __init__(self, mechanism: Mechanism, name: Optional[str] = None) -> None:
        self.mechanism = mechanism
        self.name = name or mechanism.name

    def bind(self, attribute: Attribute, epsilon: float) -> AttributeCollector:
        if attribute.kind == "numeric":
            return NumericMechanismCollector(self.mechanism, attribute, epsilon)
        return HistogramMechanismCollector(self.mechanism, attribute, epsilon)


# --------------------------------------------------------------------------
# Frequency oracles
# --------------------------------------------------------------------------


class _OracleState:
    """Additive state of the oracle collector: support counts + users."""

    __slots__ = ("counts", "users")

    def __init__(self, n_categories: int) -> None:
        self.counts = np.zeros(n_categories, dtype=np.int64)
        self.users = 0


class OracleCollector(AttributeCollector):
    """Aggregation for one Wang et al. frequency oracle (GRR, OUE or OLH).

    The oracle owns its report format: payloads are checked by its
    :meth:`~repro.freq_oracles.base.FrequencyOracle.check_reports` and
    folded as its exact integer
    :meth:`~repro.freq_oracles.base.FrequencyOracle.support_counts`
    (label counts, bit-column sums or hash-support counts), hence
    trivially batching-invariant, and the oracle's own
    :meth:`~repro.freq_oracles.base.FrequencyOracle.frequencies` turns
    them into the unbiased estimate.
    """

    def __init__(
        self, oracle_cls: type, attribute: CategoricalAttribute, epsilon: float
    ) -> None:
        if attribute.kind != "categorical":
            raise DimensionError(
                "frequency oracle %r only serves categorical attributes, "
                "got numeric attribute %r" % (oracle_cls.name, attribute.name)
            )
        super().__init__(attribute, epsilon)
        self.oracle: FrequencyOracle = oracle_cls(
            self.epsilon, attribute.n_categories
        )
        self._where = "attribute %r: %s payload" % (
            attribute.name,
            oracle_cls.name.upper(),
        )

    def privatize(self, values: np.ndarray, rng: RngLike = None) -> Any:
        return self.oracle.privatize(values, rng)

    def new_state(self) -> _OracleState:
        return _OracleState(self.attribute.n_categories)

    def check_payload(self, payload: Any) -> Any:
        return self.oracle.check_reports(payload, self._where)

    def fold(self, state: _OracleState, payload: Any) -> None:
        state.counts += self.oracle.support_counts(payload)
        state.users += self.oracle.report_rows(payload)

    def payload_rows(self, payload: Any) -> int:
        return self.oracle.report_rows(payload)

    def concat_payloads(self, payloads: Sequence[Any]) -> Any:
        return self.oracle.concat_reports(payloads)

    def reports(self, state: _OracleState) -> int:
        return state.users

    def merge_states(self, state: _OracleState, other: _OracleState) -> None:
        state.counts = state.counts + other.counts
        state.users += other.users

    def snapshot(self, state: _OracleState) -> dict:
        return {
            "kind": "oracle-counts",
            "counts": [int(count) for count in state.counts],
            "users": int(state.users),
        }

    def restore(self, snapshot: dict) -> _OracleState:
        data = _require_snapshot_kind(snapshot, "oracle-counts")
        try:
            counts = [int(count) for count in data["counts"]]
            users = int(data["users"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireFormatError("malformed oracle state: %s" % exc) from None
        if len(counts) != self.attribute.n_categories or users < 0:
            raise WireFormatError(
                "attribute %r: oracle state is inconsistent (%d counts for "
                "%d categories, users=%d)"
                % (
                    self.attribute.name,
                    len(counts),
                    self.attribute.n_categories,
                    users,
                )
            )
        state = _OracleState(self.attribute.n_categories)
        state.counts = np.asarray(counts, dtype=np.int64)
        state.users = users
        return state

    def estimate(self, state: _OracleState) -> np.ndarray:
        count = self._require_reports(state)
        return self.oracle.frequencies(state.counts, count)

    def deviation_model(self, state: _OracleState) -> MultivariateDeviationModel:
        self._require_reports(state)
        frequencies = np.clip(self.estimate(state), 0.0, 1.0)
        return self.oracle.deviation_model(state.users, frequencies=frequencies)


class OracleProtocol(CollectionProtocol):
    """Adapter exposing one :class:`FrequencyOracle` class as a protocol."""

    def __init__(self, oracle_cls: type) -> None:
        self.oracle_cls = oracle_cls
        self.name = oracle_cls.name

    def bind(self, attribute: Attribute, epsilon: float) -> AttributeCollector:
        return OracleCollector(self.oracle_cls, attribute, epsilon)
