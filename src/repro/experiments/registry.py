"""Scenario registry: every attack scenario is runnable by name with a dict.

The registry decouples *what* an experiment runs from *how* it is swept:
:class:`repro.experiments.runner.ExperimentRunner` only ever sees a scenario
name, a seed and a parameter dict, all of which are picklable and travel to
multiprocessing workers by value.  The built-in scenarios (the four attack
scenarios of the paper) live in :mod:`repro.experiments.scenarios` and are
loaded lazily on first lookup, which keeps this module free of imports from
the attacks layer and thereby breaks the ``attacks -> experiments.testbed``
/ ``experiments -> attacks`` cycle.

An attack scenario's parameter schema is its config dataclass:
:class:`ConfigScenario` derives ``default_params()``, the accepted keys and
the config construction from ``dataclasses.fields``, so each default is
written once, on the dataclass.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import Any, Optional, Protocol, runtime_checkable


@runtime_checkable
class Scenario(Protocol):
    """The contract every registered scenario implements.

    ``run`` must be a pure function of ``(seed, params)`` returning a flat
    dict of picklable metrics (bools, numbers, strings, small lists) so that
    sweeps are reproducible and results can travel across process
    boundaries.  ``default_params`` enumerates every accepted parameter;
    unknown keys are rejected by :func:`merge_params`.
    """

    name: str
    description: str

    def default_params(self) -> dict[str, Any]:
        ...

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        ...


_REGISTRY: dict[str, Scenario] = {}

#: Modules imported on first lookup; importing them registers the builtins.
_BUILTIN_MODULES = ("repro.experiments.scenarios", "repro.population.scenario")
_builtins_loaded = False


def register_scenario(scenario: Any) -> Any:
    """Register a scenario (class decorator or direct call with an instance).

    When used on a class the class is instantiated once; the registry holds
    singletons because scenarios are stateless adapters.
    """
    instance = scenario() if isinstance(scenario, type) else scenario
    name = instance.name
    if name in _REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered")
    _REGISTRY[name] = instance
    return scenario


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    # A failed import must surface again on the next lookup: the loaded flag
    # is only set after every import succeeded, and partial registrations are
    # unwound so the retried module re-executes without duplicate-name errors.
    snapshot = dict(_REGISTRY)
    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
    except BaseException:
        _REGISTRY.clear()
        _REGISTRY.update(snapshot)
        for module in _BUILTIN_MODULES:
            sys.modules.pop(module, None)
        raise
    _builtins_loaded = True


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by its registry name."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; available: "
                       f"{', '.join(sorted(_REGISTRY))}") from None


def available_scenarios() -> dict[str, str]:
    """Mapping of every registered scenario name to its description."""
    _load_builtins()
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}


def merge_params(defaults: Mapping[str, Any], params: Mapping[str, Any],
                 optional: Sequence[str] = ()) -> dict[str, Any]:
    """Overlay ``params`` on ``defaults``, rejecting unknown keys.

    Scenario configs are flat dicts; a typo'd key silently falling through
    would make a sweep measure the wrong thing, so unknown keys are errors.

    ``optional`` names extra accepted keys that have *no* default: they
    appear in the merged dict only when explicitly supplied.  This is how a
    scenario grows a new opt-in knob (``faults``) without perturbing the
    resolved parameter dict — and therefore the pinned digests and cache
    keys — of every sweep that never uses it.
    """
    accepted = set(defaults) | set(optional)
    unknown = set(params) - accepted
    if unknown:
        raise ValueError(f"unknown scenario parameter(s): {', '.join(sorted(unknown))}; "
                         f"accepted: {', '.join(sorted(accepted))}")
    merged = dict(defaults)
    merged.update(params)
    return merged


def optional_params(scenario: Scenario) -> tuple[str, ...]:
    """The scenario's declared opt-in parameter names (``()`` by default).

    Declared via an ``optional_params()`` method on the scenario; optional
    precisely so that existing third-party scenarios keep working unchanged.
    """
    declare = getattr(scenario, "optional_params", None)
    return tuple(declare()) if declare is not None else ()


class ConfigScenario:
    """An adapter whose parameter schema is the scenario's config dataclass.

    Subclasses name the dataclass (``config_class``), the fields exposed as
    registry parameters (``params``, in ``default_params()`` order) and the
    opt-in fields accepted without a default (``opt_in``).  An exposed name
    may also be a field of a dataclass-valued config field listed in
    ``nested`` (the pool attack's ``pool_policy``).  Defaults, unknown-key
    rejection and config construction all follow from ``dataclasses.fields``;
    subclasses implement only :meth:`measure`, which runs the scenario and
    flattens its outcome into metrics.
    """

    name: str
    description: str
    config_class: type
    params: tuple[str, ...]
    opt_in: tuple[str, ...] = ("faults",)
    nested: tuple[str, ...] = ()

    @cached_property
    def _fields(self) -> dict[str, tuple[Optional[dataclasses.Field], dataclasses.Field]]:
        """Accepted name -> (owning nested config field or ``None``, field)."""
        top = {f.name: f for f in dataclasses.fields(self.config_class)}
        owned = {f.name: (top[owner], f) for owner in self.nested
                 for f in dataclasses.fields(top[owner].default_factory)}
        owned.update((name, (None, f)) for name, f in top.items())
        return {name: owned[name] for name in (*self.params, *self.opt_in)}

    def default_params(self) -> dict[str, Any]:
        return {name: self._fields[name][1].default for name in self.params}

    def optional_params(self) -> tuple[str, ...]:
        return self.opt_in

    def build_config(self, seed: int, params: Mapping[str, Any]) -> Any:
        """The config of one run from its resolved parameter dict."""
        kwargs: dict[str, Any] = {}
        nested: dict[dataclasses.Field, dict[str, Any]] = {}
        for name, value in params.items():
            owner, f = self._fields[name]
            if isinstance(f.default, tuple):  # defenses/faults: any sequence
                value = tuple(value or ())
            if owner is None:
                kwargs[name] = value
            else:
                nested.setdefault(owner, {})[name] = value
        for owner, values in nested.items():
            kwargs[owner.name] = owner.default_factory(**values)
        return self.config_class(seed=seed, **kwargs)

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        p = merge_params(self.default_params(), params, optional=self.opt_in)
        return self.measure(self.build_config(seed, p), p)

    def measure(self, config: Any, params: Mapping[str, Any]) -> dict[str, Any]:
        """Run the scenario for ``config`` and flatten its outcome."""
        raise NotImplementedError
