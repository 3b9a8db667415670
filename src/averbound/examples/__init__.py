"""Built-in example systems with their bundles, closed forms and presets.

Each example module has one shape: a ``SAMPLE_BOX`` constant and a function
``make(params) -> ExampleDefinition`` that checks its parameters and returns
the system right-hand sides, the auxiliary conjugation bundle, the majorant
bundle and, where known, the closed-form averaged flow.  ``omega``, ``f``,
``g``, ``in_domain`` and ``fbar`` are written once, on a sequence of
floats, so they run on the lists of the fast-time runs and on ndarrays
alike; the auxiliary members other than ``fbar`` and ``pbar`` are written
on numpy arrays, so they run on one point or a stack of points
(:mod:`averbound.model`).  The canned parameter presets are
addressed by figure labels ("1a" ... "4d").

User-defined systems plug in through :func:`register_system`; configuration
files can then select them by name (parameters only -- the callables always
come from code).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..model import AuxiliaryBundle, BoundBundle, SystemSpec

__all__ = [
    "ExampleDefinition",
    "FigurePreset",
    "make_vdp",
    "make_action_freq",
    "make_resonant",
    "make_euler_top",
    "make_example",
    "register_system",
    "registered_systems",
    "figure_preset",
    "figure_ids",
]


@dataclass(frozen=True)
class FigurePreset:
    """One canned run: initial data, perturbation size, horizon, parameters."""

    figure: str
    example_id: str
    i0: Tuple[float, ...]
    eps: float
    u: float
    theta0: float = 0.0
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExampleDefinition:
    """A fully assembled example system."""

    id: str
    d: int
    params: Mapping[str, float]
    omega: Callable
    f: Callable
    g: Callable
    in_domain: Callable
    aux: AuxiliaryBundle
    bounds: BoundBundle
    sample_box: Tuple[np.ndarray, np.ndarray]
    # closed_flow(i0, tau) -> (J, R, K) of the averaged flow, where known.
    closed_flow: Optional[Callable] = None

    def make_system(self, i0, eps: float, theta0: float = 0.0) -> SystemSpec:
        return SystemSpec(d=self.d, epsilon=float(eps), omega=self.omega,
                          f=self.f, g=self.g, in_domain=self.in_domain,
                          i0=np.atleast_1d(np.asarray(i0, dtype=float)),
                          theta0=theta0)

    def presets(self) -> Tuple[FigurePreset, ...]:
        return tuple(p for p in _PRESETS.values()
                     if p.example_id == self.id and dict(p.params) == dict(self.params))


def constant(value) -> Callable:
    """A bundle member whose value does not depend on its arguments.

    Every call returns the same read-only array, built once from ``value``:
    the one-point value, also on a stack of points, where the checks
    broadcast it (:mod:`averbound.model`).
    """
    arr = np.array(value, dtype=float)
    arr.flags.writeable = False
    return lambda *args: arr


# The example modules import ExampleDefinition and constant, so they load
# after them.
from . import action_freq, euler_top, resonant, vdp  # noqa: E402


def make_vdp() -> ExampleDefinition:
    return vdp.make({})


def make_action_freq(kappa: int) -> ExampleDefinition:
    return action_freq.make({"kappa": kappa})


def make_resonant() -> ExampleDefinition:
    return resonant.make({})


def make_euler_top(mu: float, lambda1: float, lambda2: float) -> ExampleDefinition:
    return euler_top.make({"mu": mu, "lambda1": lambda1, "lambda2": lambda2})


_REGISTRY: Dict[str, Callable[[Mapping[str, float]], ExampleDefinition]] = {
    "vdp": vdp.make,
    "action-freq": action_freq.make,
    "resonant": resonant.make,
    "euler-top": euler_top.make,
}


def register_system(name: str,
                    factory: Callable[[Mapping[str, float]], ExampleDefinition]) -> None:
    """Register ``factory(params) -> ExampleDefinition`` under ``name`` for
    config-file use.  It raises ``ValueError`` for invalid parameters; a
    parameter missing from its result's ``params`` is rejected as unknown.
    The optional ``closed_flow`` of its result enables the analytic
    crosscheck.  Its ``omega``, ``f``, ``g``, ``in_domain`` and ``aux.fbar``
    must run on a list of floats as on an ndarray.  The members of ``aux``
    other than ``fbar`` and ``pbar`` must run on one point as on a stack of
    points, or return their one-point value for both when they do not read
    the actions (:mod:`averbound.model`).

    The direct run evaluates those five, the slow solve ``fbar``,
    ``dfbar``, ``pbar`` and the members of ``bounds`` it calls (the
    gradients when given, else ``a_hat`` and ``b_hat``; ``c_hat`` ...
    ``e_hat``, and ``rho_hat`` in its stop test) and the window ``a_hat``,
    ``b_hat`` and the gradients, by one rule (:mod:`averbound.inline`).
    A member is written into the step when it is a plain ``def`` with
    positional parameters and no defaults whose body is assignments to
    plain names, or unpackings into them, and one ``return``, with no
    lambda, comprehension, ``yield``, ``await`` or ``:=``, and whose
    source :mod:`inspect` finds: ``i[k]`` reads the k-th action directly,
    ``j1, j2 = j`` names the actions without a list, and the names it
    reads from its closure, module or built-ins are bound once, when the
    run starts; a helper such a body calls is one of them, and is called.
    A returned tuple or list display binds one name per part the step
    reads, and a returned ``np.array(<display>)`` of ``dfbar`` or ``pbar``
    binds the float of each item.  A member made by :func:`constant` is
    bound once per run in either solve, as the parts of its value the step
    reads.  Any other callable, such as a lambda, a ``functools.wraps``
    wrapper, a body with an ``if`` or a loop, or a function made by
    ``exec``, is called, with the actions as a list, and so is a constant
    of another shape.  The run is bit for bit the one that calls each
    member."""
    _REGISTRY[name] = factory


def registered_systems() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_example(name: str, params: Optional[Mapping[str, float]] = None) -> ExampleDefinition:
    """Build a registered system by name with the given parameters.

    Raises ``ValueError`` for a parameter the built system does not list
    in its ``params``.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; registered: "
                       f"{', '.join(registered_systems())}") from None
    params = params or {}
    example = factory(params)
    for key in params:
        if key not in example.params:
            raise ValueError(f"{name} has no parameter {key!r}")
    return example


_ET_A = {"mu": 1.0, "lambda1": 2.0, "lambda2": -1.0}
_ET_D = {"mu": 1.0, "lambda1": 1.1, "lambda2": -1.0}

_PRESETS: Dict[str, FigurePreset] = {p.figure: p for p in [
    FigurePreset("1a", "vdp", (0.5,), 1e-2, 10.0),
    FigurePreset("1b", "vdp", (4.0,), 1e-2, 10.0),
    FigurePreset("1c", "vdp", (4.0,), 1e-2, 200.0),
    FigurePreset("2a", "action-freq", (1.0,), 1e-2, 0.9, params={"kappa": 1}),
    FigurePreset("2b", "action-freq", (1.0,), 1e-2, 0.9, params={"kappa": 1}),
    FigurePreset("2c", "action-freq", (1.0,), 1e-2, 0.9, params={"kappa": 1}),
    FigurePreset("2d", "action-freq", (1.0,), 1e-2, 200.0, params={"kappa": -1}),
    FigurePreset("2e", "action-freq", (1.0,), 1e-2, 200.0, params={"kappa": -1}),
    FigurePreset("3a", "resonant", (0.5,), 1e-2, 10.0),
    FigurePreset("3b", "resonant", (0.5,), 1e-2, 10.0),
    FigurePreset("3c", "resonant", (0.5,), 1e-3, 10.0),
    FigurePreset("3d", "resonant", (0.5,), 1e-3, 10.0),
    FigurePreset("3e", "resonant", (2.0,), 1e-2, 10.0),
    FigurePreset("3f", "resonant", (2.0,), 1e-2, 200.0),
    FigurePreset("4a", "euler-top", (4.0, 4.0), 1e-2, 1.0, params=_ET_A),
    FigurePreset("4b", "euler-top", (4.0, 1.0), 1e-2, 1.0, params=_ET_A),
    FigurePreset("4c", "euler-top", (4.0, 1.0), 1e-3, 1.0, params=_ET_A),
    FigurePreset("4d", "euler-top", (4.0, 4.0), 1e-3, 3.0, params=_ET_D),
]}


def figure_ids() -> Tuple[str, ...]:
    return tuple(_PRESETS)


def figure_preset(figure: str) -> Tuple[ExampleDefinition, FigurePreset]:
    """Resolve a figure label to its example definition and preset."""
    try:
        preset = _PRESETS[figure]
    except KeyError:
        raise KeyError(f"unknown figure preset {figure!r}; available: "
                       f"{', '.join(_PRESETS)}") from None
    return make_example(preset.example_id, preset.params), preset

