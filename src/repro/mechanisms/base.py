"""Common interface for one-dimensional LDP perturbation mechanisms.

The paper's analytical framework (Section IV-B) generalizes an LDP mechanism
``M`` by four ingredients, all of which are captured by the
:class:`Mechanism` abstract base class:

* ``Bound(M)`` — whether the perturbed output lives in a finite interval
  (:attr:`Mechanism.bounded`), which decides whether Lemma 2 or Lemma 3
  applies;
* the perturbation itself (:meth:`Mechanism.perturb`), vectorized over a
  numpy array of original values, using the *per-dimension* privacy budget;
* the conditional bias ``δ(t) = E[t* | t] − t``
  (:meth:`Mechanism.conditional_bias`);
* the conditional variance ``Var[t* | t]``
  (:meth:`Mechanism.conditional_variance`).

The conditional moments are exactly the quantities the framework needs to
build the Gaussian deviation models of Lemmas 2 and 3, so every concrete
mechanism implements them in closed form (validated against Monte-Carlo
moments in the test suite).

Mechanisms whose input domain is not the library-standard ``[−1, 1]`` (the
Square-wave mechanism is defined on ``[0, 1]``) can be adapted with
:class:`AffineTransformedMechanism`, which maps values and moments through
an affine change of variables.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Tuple

import numpy as np

from ..exceptions import DomainError, ParameterError, PrivacyBudgetError
from ..rng import RngLike, ensure_rng
from ..tolerance import isclose

#: Input domain used by every mechanism unless documented otherwise.
STANDARD_DOMAIN: Tuple[float, float] = (-1.0, 1.0)

#: Round-off slack allowed outside a numeric domain before values are
#: rejected (they are clipped back into it).
DOMAIN_ATOL = 1e-9

#: Entries per block when a whole record matrix is validated, perturbed
#: or binned a piece at a time: one ``perturb`` call over millions of
#: entries is slower than over 64K-entry blocks, whose temporaries stay
#: in cache.
BLOCK_ENTRIES = 1 << 16


def validate_epsilon(epsilon: float) -> float:
    """Validate a per-dimension privacy budget and return it as ``float``.

    Raises
    ------
    PrivacyBudgetError
        If ``epsilon`` is not a finite positive number.
    """
    eps = float(epsilon)
    if not math.isfinite(eps) or eps <= 0.0:
        raise PrivacyBudgetError(
            "privacy budget must be a finite positive number, got %r" % (epsilon,)
        )
    return eps


def validate_values(
    values: np.ndarray, domain: Tuple[float, float], atol: float = DOMAIN_ATOL
) -> np.ndarray:
    """Check that ``values`` lie inside ``domain`` and return them as float64.

    A small absolute tolerance absorbs floating-point round-off from
    normalization; genuine violations raise :class:`DomainError`.
    """
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = domain
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("values must be finite (found NaN or inf)")
    if arr.size and (arr.min() < lo - atol or arr.max() > hi + atol):
        raise DomainError(
            "values outside domain [%g, %g]: min=%g max=%g"
            % (lo, hi, float(arr.min()), float(arr.max()))
        )
    return np.clip(arr, lo, hi)


def check_values(
    values: np.ndarray, domain: Tuple[float, float]
) -> np.ndarray:
    """:func:`validate_values`'s check alone: ``values`` as float64, unclipped.

    Copies nothing that is already a float64 array, for a kernel that
    must refuse bad input before its first draw while its branches each
    make their own :func:`validated_copy`.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size:
        lo, hi = domain
        if not (arr.min() >= lo - DOMAIN_ATOL and arr.max() <= hi + DOMAIN_ATOL):
            validate_values(arr, domain)  # raises the typed error
    return arr


def validated_copy(
    values: np.ndarray, domain: Tuple[float, float]
) -> np.ndarray:
    """:func:`validate_values` as an ndarray the caller owns and may overwrite.

    The one copy of ``values`` a sampling kernel computes in, made in C
    order whatever the input's layout (a transposed view of a record
    matrix reads its columns in place). Its minimum and maximum are
    checked against ``domain`` (a NaN or an infinity fails them, and then
    :func:`validate_values` raises the same error it would), and it is
    clipped in place only when a value lies within :data:`DOMAIN_ATOL`
    outside. 0-d input gives a 0-d array, which ``out=`` and augmented
    ops need.
    """
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.size:
        lo, hi = domain
        low, high = arr.min(), arr.max()
        if not (low >= lo - DOMAIN_ATOL and high <= hi + DOMAIN_ATOL):
            validate_values(arr, domain)  # raises the typed error
        if low < lo or high > hi:
            np.clip(arr, lo, hi, out=arr)
    return arr


#: Dtypes :func:`select` handles on their bit patterns.
_BIT_SELECT_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def select(
    mask: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Branch-free ``np.where(mask, a, b)`` for float64 and int64 operands.

    ``np.where`` branches per element, and on a random mask half its
    branches mispredict: about 6 ns an entry, several times the cost of an
    add. This computes ``b ^ ((a ^ b) · mask)`` on the 64-bit patterns
    instead, which only moves bits, so the result equals ``np.where``'s for
    every value: ±0.0, subnormals, ±inf and NaN payloads included. Operands
    broadcast as for ``np.where``; 0-d input gives a 0-d array. Operands
    whose common dtype is neither float64 nor int64 raise
    :class:`ParameterError`.

    ``out``, if given, must have the broadcast shape and result dtype. It
    may be ``a`` itself, so a kernel can select into a buffer it owns, but
    not ``b``, which is read after ``out`` is first written.
    """
    dtype = np.result_type(a, b)
    if dtype not in _BIT_SELECT_DTYPES:
        raise ParameterError("select: operands must be float64 or int64, got %s" % dtype)
    mask = np.asarray(mask, dtype=bool)
    a_bits = np.asarray(a, dtype=dtype).view(np.int64)
    b_bits = np.asarray(b, dtype=dtype).view(np.int64)
    if out is None:
        out = np.empty(np.broadcast(mask, a_bits, b_bits).shape, dtype)
    elif np.may_share_memory(out, b_bits):
        raise ParameterError("select: out must not overlap b")
    bits = out.view(np.int64)
    np.bitwise_xor(a_bits, b_bits, out=bits)
    np.multiply(bits, mask, out=bits)
    np.bitwise_xor(bits, b_bits, out=bits)
    return out


class Mechanism(abc.ABC):
    """Abstract one-dimensional ε-LDP perturbation mechanism.

    Concrete subclasses provide vectorized sampling plus closed-form
    conditional moments. All methods take the *per-dimension* budget — the
    collection protocol (:mod:`repro.protocol`) is responsible for dividing
    a collective budget ``ε`` by the number of reported dimensions ``m``.
    """

    #: Short registry name, e.g. ``"laplace"``.
    name: str = "abstract"

    #: The paper's ``Bound(M)`` flag: True if outputs live in a finite interval.
    bounded: bool = False

    #: Interval of admissible original values.
    input_domain: Tuple[float, float] = STANDARD_DOMAIN

    # ------------------------------------------------------------------ API

    @abc.abstractmethod
    def perturb(
        self, values: np.ndarray, epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        """Perturb ``values`` under ``epsilon``-LDP and return the noisy copy.

        Parameters
        ----------
        values:
            Array (any shape) of original values inside :attr:`input_domain`.
        epsilon:
            Per-dimension privacy budget.
        rng:
            Seed or generator; see :func:`repro.rng.ensure_rng`.
        """

    @abc.abstractmethod
    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        """Return ``δ(t) = E[t* | t] − t`` for each original value ``t``."""

    @abc.abstractmethod
    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        """Return ``Var[t* | t]`` for each original value ``t``."""

    @abc.abstractmethod
    def output_support(self, epsilon: float) -> Tuple[float, float]:
        """Return the support of the perturbed output.

        Bounded mechanisms return the finite ``[−B, B]``-style interval from
        the paper's framework; unbounded mechanisms return
        ``(−inf, inf)``.
        """

    # ------------------------------------------------------- derived methods

    def deterministic_bias(self, epsilon: float) -> Optional[float]:
        """Bias ``δ`` when it does not depend on the original value.

        Returns the constant bias for mechanisms where ``δ(t)`` is the same
        for every ``t`` (Lemma 1 shows this always holds for unbounded
        mechanisms), or ``None`` when the bias is data-dependent and the
        collector therefore cannot calibrate it away pointwise.
        """
        lo, hi = self.input_domain
        probes = np.array([lo, 0.5 * (lo + hi), hi])
        first, middle, last = self.conditional_bias(probes, epsilon).tolist()
        if isclose(middle, first, atol=1e-12) and isclose(last, first, atol=1e-12):
            return first
        return None

    def conditional_second_moment(
        self, values: np.ndarray, epsilon: float
    ) -> np.ndarray:
        """Return ``E[t*² | t]`` derived from the bias and variance."""
        arr = np.asarray(values, dtype=np.float64)
        mean = arr + self.conditional_bias(arr, epsilon)
        return self.conditional_variance(arr, epsilon) + mean**2

    def abs_third_central_moment(
        self,
        values: np.ndarray,
        epsilon: float,
        rng: RngLike = None,
        samples: int = 200_000,
    ) -> np.ndarray:
        """Return ``ρ(t) = E[|t* − t − δ(t)|³]`` for each value ``t``.

        This is the third absolute moment required by the Berry–Esseen
        bound of Theorem 2. The default implementation is Monte-Carlo;
        mechanisms with closed forms (e.g. Laplace) override it.
        """
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
        gen = ensure_rng(rng)
        delta = self.conditional_bias(arr, epsilon)
        out = np.empty(arr.shape, dtype=np.float64)
        for idx in np.ndindex(arr.shape):
            draws = self.perturb(np.full(samples, arr[idx]), epsilon, gen)
            out[idx] = float(np.mean(np.abs(draws - arr[idx] - delta[idx]) ** 3))
        return out

    # ----------------------------------------------------------------- misc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(name=%r, bounded=%r)" % (
            type(self).__name__,
            self.name,
            self.bounded,
        )


class AdditiveNoiseMechanism(Mechanism):
    """Base class for unbounded mechanisms of the form ``t* = t + N``.

    Lemma 1 of the paper: for these mechanisms both the bias and the
    variance are independent of the original value, so subclasses only
    supply the noise distribution via :meth:`noise_scale`-style hooks.
    """

    bounded = False

    @abc.abstractmethod
    def sample_noise(
        self, size: Tuple[int, ...], epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        """Draw noise variates ``N`` with the mechanism's distribution."""

    @abc.abstractmethod
    def noise_variance(self, epsilon: float) -> float:
        """Return ``Var[N]``."""

    def noise_mean(self, epsilon: float) -> float:
        """Return ``E[N]``; zero for every mechanism shipped here."""
        return 0.0

    def perturb(
        self, values: np.ndarray, epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = validated_copy(values, self.input_domain)
        arr += self.sample_noise(arr.shape, eps, rng)
        return arr

    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        return np.full(arr.shape, self.noise_mean(eps))

    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        return np.full(arr.shape, self.noise_variance(eps))

    def output_support(self, epsilon: float) -> Tuple[float, float]:
        return (-math.inf, math.inf)


class AffineTransformedMechanism(Mechanism):
    """Adapt a mechanism to a different input domain via an affine map.

    Example: the Square-wave mechanism is natively defined on ``[0, 1]``;
    wrapping it in ``AffineTransformedMechanism(SquareWaveMechanism())``
    yields a mechanism accepting the library-standard ``[−1, 1]`` inputs.
    Values are mapped into the inner domain before perturbation and the
    outputs (and all moments) are mapped back, so downstream aggregation is
    oblivious to the change of variables:

    * bias transforms as ``δ'(t) = a · δ(u)``,
    * variance as ``Var' = a² · Var``,
    * third absolute central moment as ``ρ' = |a|³ · ρ``,

    where ``u = (t − shift) / a`` is the inner-domain value and ``a`` the
    slope of the inverse map.
    """

    def __init__(
        self,
        inner: Mechanism,
        outer_domain: Tuple[float, float] = STANDARD_DOMAIN,
    ) -> None:
        inner_lo, inner_hi = inner.input_domain
        outer_lo, outer_hi = outer_domain
        if not (inner_hi > inner_lo and outer_hi > outer_lo):
            raise DomainError("domains must be non-degenerate intervals")
        self.inner = inner
        self.input_domain = (float(outer_lo), float(outer_hi))
        self.name = "%s@[%g,%g]" % (inner.name, outer_lo, outer_hi)
        self.bounded = inner.bounded
        # t = a * u + c maps inner -> outer.
        self._slope = (outer_hi - outer_lo) / (inner_hi - inner_lo)
        self._offset = outer_lo - self._slope * inner_lo

    def _to_inner(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self._offset) / self._slope

    def _to_outer(self, values: np.ndarray) -> np.ndarray:
        return self._slope * np.asarray(values, dtype=np.float64) + self._offset

    def perturb(
        self, values: np.ndarray, epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        # In place in one owned buffer: to the inner domain, then (the inner
        # mechanism having copied it) back out with the inner draw.
        arr = validated_copy(values, self.input_domain)
        arr -= self._offset
        arr /= self._slope
        np.multiply(self.inner.perturb(arr, epsilon, rng), self._slope, out=arr)
        arr += self._offset
        return arr

    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        inner_vals = self._to_inner(values)
        return self._slope * self.inner.conditional_bias(inner_vals, epsilon)

    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        inner_vals = self._to_inner(values)
        return self._slope**2 * self.inner.conditional_variance(inner_vals, epsilon)

    def abs_third_central_moment(
        self,
        values: np.ndarray,
        epsilon: float,
        rng: RngLike = None,
        samples: int = 200_000,
    ) -> np.ndarray:
        inner_vals = self._to_inner(values)
        rho = self.inner.abs_third_central_moment(inner_vals, epsilon, rng, samples)
        return abs(self._slope) ** 3 * rho

    def output_support(self, epsilon: float) -> Tuple[float, float]:
        lo, hi = self.inner.output_support(epsilon)
        mapped = sorted((float(self._to_outer(np.float64(lo))),
                         float(self._to_outer(np.float64(hi)))))
        return (mapped[0], mapped[1])


def affine_mean_map(
    mechanism: Mechanism, epsilon: float
) -> Optional[Tuple[float, float]]:
    """Fit ``E[t* | t] = slope · t + intercept`` if the map is affine.

    Every mechanism in this library has a conditional mean affine in the
    original value (unbiased mechanisms trivially so, with slope 1 and
    intercept 0; the square wave contracts toward mid-domain). When the map
    is affine the collector can calibrate an *aggregate* mean exactly via
    ``(mean − intercept) / slope`` — which the frequency-estimation
    pipeline uses. Returns ``None`` when the probed means are not affine
    or the slope degenerates.
    """
    eps = validate_epsilon(epsilon)
    lo, hi = mechanism.input_domain
    probes = np.array([lo, 0.5 * (lo + hi), hi])
    means = probes + mechanism.conditional_bias(probes, eps)
    slope = (means[2] - means[0]) / (hi - lo)
    intercept = means[0] - slope * lo
    predicted_mid = slope * probes[1] + intercept
    if abs(predicted_mid - means[1]) > 1e-9 * max(1.0, abs(means[1])):
        return None
    if abs(slope) < 1e-12:
        return None
    return float(slope), float(intercept)


def monte_carlo_moments(
    mechanism: Mechanism,
    value: float,
    epsilon: float,
    samples: int = 200_000,
    rng: RngLike = None,
) -> Tuple[float, float]:
    """Estimate ``(δ(t), Var[t*|t])`` empirically for cross-validation.

    Used by the test suite to confirm every closed-form moment; exposed
    publicly because it is also handy when adding a new mechanism.
    """
    gen = ensure_rng(rng)
    draws = mechanism.perturb(np.full(samples, float(value)), epsilon, gen)
    return float(np.mean(draws) - value), float(np.var(draws))
