"""Built-in example systems with their bundles, closed forms and presets.

Each example ships the full function set needed by the estimator: the system
right-hand sides, the auxiliary conjugation bundle, the majorant bundle,
closed-form expressions for the averaged flow where available, and the
canned parameter presets addressed by figure labels ("1a" ... "4d").

User-defined systems plug in through :func:`register_system`; configuration
files can then select them by name (parameters only -- the callables always
come from code).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..model import AuxiliaryBundle, BoundBundle, SystemSpec
from . import action_freq, euler_top, resonant, vdp

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
    closed_j: Optional[Callable] = None
    closed_r: Optional[Callable] = None
    closed_k: Optional[Callable] = None
    to_physical: Optional[Callable] = None

    def make_system(self, i0, eps: float, theta0: float = 0.0) -> SystemSpec:
        return SystemSpec(d=self.d, epsilon=float(eps), omega=self.omega,
                          f=self.f, g=self.g, in_domain=self.in_domain,
                          i0=np.atleast_1d(np.asarray(i0, dtype=float)),
                          theta0=theta0)

    def presets(self) -> Tuple[FigurePreset, ...]:
        return tuple(p for p in _PRESETS.values()
                     if p.example_id == self.id and dict(p.params) == dict(self.params))


def make_vdp() -> ExampleDefinition:
    return ExampleDefinition(
        id="vdp", d=1, params={}, aux=vdp.aux_bundle(), bounds=vdp.bound_bundle(),
        sample_box=vdp.SAMPLE_BOX, closed_j=vdp.closed_j, closed_r=vdp.closed_r,
        closed_k=vdp.closed_k, to_physical=vdp.to_physical, **vdp.SYSTEM)


def make_action_freq(kappa: int) -> ExampleDefinition:
    system, aux, bounds, cj, cr, ck = action_freq.make(kappa)
    return ExampleDefinition(
        id="action-freq", d=1, params={"kappa": int(kappa)}, aux=aux,
        bounds=bounds, sample_box=action_freq.SAMPLE_BOX, closed_j=cj,
        closed_r=cr, closed_k=ck, **system)


def make_resonant() -> ExampleDefinition:
    return ExampleDefinition(
        id="resonant", d=1, params={}, aux=resonant.aux_bundle(),
        bounds=resonant.bound_bundle(), sample_box=resonant.SAMPLE_BOX,
        closed_j=resonant.closed_j, closed_r=resonant.closed_r,
        closed_k=resonant.closed_k, **resonant.SYSTEM)


def make_euler_top(mu: float, lambda1: float, lambda2: float) -> ExampleDefinition:
    system, aux, bounds, cj, cr, ck = euler_top.make(mu, lambda1, lambda2)
    return ExampleDefinition(
        id="euler-top", d=2,
        params={"mu": float(mu), "lambda1": float(lambda1), "lambda2": float(lambda2)},
        aux=aux, bounds=bounds, sample_box=euler_top.SAMPLE_BOX, closed_j=cj,
        closed_r=cr, closed_k=ck, to_physical=euler_top.to_physical, **system)


def _vdp_factory(params: Mapping[str, float]) -> ExampleDefinition:
    return make_vdp()


def _action_freq_factory(params: Mapping[str, float]) -> ExampleDefinition:
    return make_action_freq(params.get("kappa", 1))


def _resonant_factory(params: Mapping[str, float]) -> ExampleDefinition:
    return make_resonant()


def _euler_top_factory(params: Mapping[str, float]) -> ExampleDefinition:
    missing = [k for k in ("mu", "lambda1", "lambda2") if k not in params]
    if missing:
        raise ValueError(f"euler-top requires parameters {missing}")
    return make_euler_top(params["mu"], params["lambda1"], params["lambda2"])


_REGISTRY: Dict[str, Callable[[Mapping[str, float]], ExampleDefinition]] = {
    "vdp": _vdp_factory,
    "action-freq": _action_freq_factory,
    "resonant": _resonant_factory,
    "euler-top": _euler_top_factory,
}


def register_system(name: str,
                    factory: Callable[[Mapping[str, float]], ExampleDefinition]) -> None:
    """Register a user system factory under ``name`` for config-file use."""
    _REGISTRY[name] = factory


def registered_systems() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_example(name: str, params: Optional[Mapping[str, float]] = None) -> ExampleDefinition:
    """Build a registered system by name with the given parameters."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; registered: "
                       f"{', '.join(registered_systems())}") from None
    return factory(params or {})


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

