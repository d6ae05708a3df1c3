"""Name-based registry of the LDP mechanisms shipped with the library.

Experiment configurations, the CLI, and the benchmark harness all refer to
mechanisms by short string names; this module is the single place those
names are resolved. Third-party mechanisms can be registered at runtime
with :func:`register_mechanism` and immediately participate in every
framework computation and experiment driver.

The module also hosts the **unified protocol registry** consumed by the
session API (:mod:`repro.session`): :func:`get_protocol` resolves *both*
numeric mechanism names (``"laplace"``, ``"piecewise"``, …) and the
categorical frequency-oracle names (``"grr"``, ``"oue"``, ``"olh"``)
through one lookup, returning a
:class:`~repro.session.adapters.CollectionProtocol` with the common
``privatize``/``aggregate``/``deviation_model`` surface. Mechanism names
are adapted lazily, so every mechanism registered with
:func:`register_mechanism` — including third-party ones — is immediately
resolvable as a protocol too. The oracle names are read from the one
:mod:`repro.freq_oracles` name table, so no list of them lives here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type

from ..exceptions import ParameterError
from .base import Mechanism
from .duchi import DuchiMechanism
from .hybrid import HybridMechanism
from .laplace import LaplaceMechanism
from .piecewise import PiecewiseMechanism
from .scdf import SCDFMechanism
from .square_wave import SquareWaveMechanism, standardized
from .staircase import StaircaseMechanism

MechanismFactory = Callable[[], Mechanism]

#: Built-in mechanisms, listed rather than passed through
#: :func:`register_mechanism`: its name check reads the oracle table, which
#: cannot be imported while this package is still loading.
_REGISTRY: Dict[str, MechanismFactory] = {
    "laplace": LaplaceMechanism,
    "staircase": StaircaseMechanism,
    "scdf": SCDFMechanism,
    "duchi": DuchiMechanism,
    "piecewise": PiecewiseMechanism,
    "hybrid": HybridMechanism,
    # The registry exposes the [−1, 1]-standardized square wave; the
    # native unit-interval variant is available as "square_wave_unit".
    "square_wave": standardized,
    "square_wave_unit": SquareWaveMechanism,
}


def _oracles() -> Dict[str, Type]:
    """The frequency-oracle name table of :mod:`repro.freq_oracles`.

    Imported on use: that package imports this one.
    """
    from ..freq_oracles import _ORACLES

    return _ORACLES


def register_mechanism(name: str, factory: MechanismFactory, overwrite: bool = False) -> None:
    """Register ``factory`` under ``name``.

    Parameters
    ----------
    name:
        Registry key (lower-case by convention).
    factory:
        Zero-argument callable returning a fresh :class:`Mechanism`.
    overwrite:
        Allow replacing an existing registration; off by default to catch
        accidental collisions.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ParameterError("mechanism %r is already registered" % name)
    if key in _PROTOCOLS or key in _oracles():
        raise ParameterError(
            "name %r is taken by the unified protocol registry; a mechanism "
            "under it would be unreachable through get_protocol" % name
        )
    _REGISTRY[key] = factory


def get_mechanism(name: str) -> Mechanism:
    """Instantiate the mechanism registered under ``name``.

    Raises
    ------
    KeyError
        With the list of known names when ``name`` is unknown.
    """
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            "unknown mechanism %r; available: %s"
            % (name, ", ".join(sorted(_REGISTRY)))
        ) from None
    return factory()


def available_mechanisms() -> List[str]:
    """Return the sorted list of registered mechanism names."""
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------
# Unified protocol registry (mechanisms *and* frequency oracles)
# --------------------------------------------------------------------------

#: Factories for third-party protocols. Mechanism and oracle names resolve
#: through ``_REGISTRY`` and the oracle table and are wrapped on the fly,
#: so they are never duplicated here.
_PROTOCOLS: Dict[str, Callable[[], object]] = {}


def register_protocol(
    name: str, factory: Callable[[], object], overwrite: bool = False
) -> None:
    """Register a :class:`CollectionProtocol` factory under ``name``.

    Parameters
    ----------
    name:
        Registry key (lower-case by convention). Must not shadow a
        registered mechanism name unless ``overwrite`` is set.
    factory:
        Zero-argument callable returning a fresh unbound protocol (an
        object with a ``bind(attribute, epsilon)`` method).
    overwrite:
        Allow replacing an existing registration.
    """
    key = name.lower()
    taken = key in _PROTOCOLS or key in _REGISTRY or key in _oracles()
    if taken and not overwrite:
        raise ParameterError("protocol %r is already registered" % name)
    _PROTOCOLS[key] = factory


def get_protocol(name: str):
    """Resolve ``name`` into a fresh unbound collection protocol.

    Accepts every mechanism name known to :func:`get_mechanism` (returning
    a :class:`~repro.session.adapters.MechanismProtocol` that serves
    numeric attributes directly and categorical attributes via histogram
    encoding) as well as the frequency-oracle names ``"grr"``, ``"oue"``
    and ``"olh"``.

    Raises
    ------
    KeyError
        With the list of known names when ``name`` is unknown.
    """
    key = name.lower()
    if key in _PROTOCOLS:
        return _PROTOCOLS[key]()
    oracles = _oracles()
    if key in oracles:
        from ..session.adapters import OracleProtocol

        return OracleProtocol(oracles[key])
    if key in _REGISTRY:
        from ..session.adapters import MechanismProtocol

        return MechanismProtocol(_REGISTRY[key](), name=key)
    raise KeyError(
        "unknown protocol %r; available: %s"
        % (name, ", ".join(available_protocols()))
    )


def available_protocols() -> List[str]:
    """Sorted names resolvable by :func:`get_protocol`."""
    return sorted(set(_REGISTRY) | set(_PROTOCOLS) | set(_oracles()))


def resolve_protocol_name(name: str) -> str:
    """Canonical (lower-case) registry name of a resolvable protocol.

    Protocol names travel on the wire and inside contract fingerprints
    (:mod:`repro.wire`), so decoders validate them against this registry
    before any payload is interpreted.

    Raises
    ------
    KeyError
        With the list of known names when ``name`` is unknown.
    """
    key = str(name).lower()
    if key in _PROTOCOLS or key in _REGISTRY or key in _oracles():
        return key
    raise KeyError(
        "unknown protocol %r; available: %s"
        % (name, ", ".join(available_protocols()))
    )

