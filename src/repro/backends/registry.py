"""Plugin registries for storage backends and workload generators.

Backends and workloads used to be hardcoded imports; this module makes
them discoverable plugins in the style of Glasgow's applet registry:
each implementation registers itself under a short name with a one-line
summary and an option grammar, ``python -m repro backends`` lists
everything, and any consumer (controller config, CLI flags, bench
scenarios, traces) names its substrate with a *spec string*::

    flash                           # the default simulated Flash array
    ramdisk:block_bytes=256         # block-device-backed, DRAM timing
    file:path=/tmp/envy.img         # persistent, survives restarts
    onfi:factory_bad=2,bb_seed=7    # ONFI NAND with factory bad marks

A spec is ``name`` or ``name:key=value,key=value,...``; values are
coerced to int/float/bool where they parse as one.  The same grammar
serves workloads (``zipf:skew=1.2``, ``trace:path=writes.jsonl``).

Third-party code registers with the decorators::

    @register_backend("mybackend", summary="...", options="...")
    def _make(config, store_data, spare_segments, **options): ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.tracing import RunTrace, TraceError

__all__ = [
    "BackendInfo", "WorkloadInfo", "RegistryError",
    "register_backend", "register_workload",
    "create_backend", "create_workload",
    "backend_names", "workload_names",
    "backend_info", "workload_info",
    "parse_spec",
]


class RegistryError(ValueError):
    """Unknown plugin name or malformed spec string."""


@dataclass(frozen=True)
class BackendInfo:
    """One registered storage backend."""

    name: str
    factory: Callable
    summary: str = ""
    options: str = ""


@dataclass(frozen=True)
class WorkloadInfo:
    """One registered workload generator."""

    name: str
    factory: Callable
    summary: str = ""
    options: str = ""


_BACKENDS: Dict[str, BackendInfo] = {}
_WORKLOADS: Dict[str, WorkloadInfo] = {}


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

def _coerce(value: str) -> Any:
    """Best-effort typing for option values (int, float, bool, str)."""
    lowered = value.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def parse_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``name[:key=value,...]`` into (name, options).

    Values containing ``=`` after the first (paths with commas are not
    supported; use simple paths) are kept verbatim as strings.
    """
    if not spec or not spec.strip():
        raise RegistryError("empty backend/workload spec")
    name, _, rest = spec.strip().partition(":")
    options: Dict[str, Any] = {}
    if rest:
        for chunk in rest.split(","):
            if not chunk:
                continue
            key, eq, value = chunk.partition("=")
            if not eq:
                raise RegistryError(
                    f"malformed option {chunk!r} in spec {spec!r} "
                    f"(expected key=value)")
            coerced = _coerce(value.strip())
            if isinstance(coerced, float) and not math.isfinite(coerced):
                raise RegistryError(f"non-finite option {chunk!r} in {spec!r}")
            options[key.strip()] = coerced
    return name, options


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

def register_backend(name: str, summary: str = "",
                     options: str = "") -> Callable:
    """Decorator: register ``factory(config, store_data,
    spare_segments, **options)`` under ``name``."""
    def decorator(factory: Callable) -> Callable:
        if name in _BACKENDS:
            raise RegistryError(f"backend {name!r} already registered")
        _BACKENDS[name] = BackendInfo(name, factory, summary, options)
        return factory
    return decorator


def backend_names() -> List[str]:
    return sorted(_BACKENDS)


def backend_info(name: str) -> BackendInfo:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise RegistryError(
            f"unknown backend {name!r} (registered: "
            f"{', '.join(backend_names()) or 'none'})") from None


def create_backend(spec: str, config, store_data: bool = True,
                   spare_segments: int = 0):
    """Instantiate the backend named by ``spec`` for ``config``.

    ``config`` is an :class:`~repro.core.config.EnvyConfig`; the
    factory receives it plus the controller's ``store_data`` /
    ``spare_segments`` geometry and the spec's parsed options.
    """
    name, options = parse_spec(spec)
    info = backend_info(name)
    try:
        return info.factory(config, store_data, spare_segments, **options)
    except TypeError as exc:
        raise RegistryError(
            f"backend {name!r} rejected options {options!r}: {exc} "
            f"(accepted: {info.options or 'none'})") from exc


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------

def register_workload(name: str, summary: str = "",
                      options: str = "") -> Callable:
    """Decorator: register ``factory(num_pages, seed, **options)``."""
    def decorator(factory: Callable) -> Callable:
        if name in _WORKLOADS:
            raise RegistryError(f"workload {name!r} already registered")
        _WORKLOADS[name] = WorkloadInfo(name, factory, summary, options)
        return factory
    return decorator


def workload_names() -> List[str]:
    return sorted(_WORKLOADS)


def workload_info(name: str) -> WorkloadInfo:
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise RegistryError(
            f"unknown workload {name!r} (registered: "
            f"{', '.join(workload_names()) or 'none'})") from None


def create_workload(spec: str, num_pages: int,
                    seed: Optional[int] = 0):
    """Instantiate the page-write workload named by ``spec``."""
    name, options = parse_spec(spec)
    info = workload_info(name)
    try:
        return info.factory(num_pages, seed, **options)
    except TypeError as exc:
        raise RegistryError(
            f"workload {name!r} rejected options {options!r}: {exc} "
            f"(accepted: {info.options or 'none'})") from exc


# ----------------------------------------------------------------------
# Built-in workload plugins (the repro.workloads generators)
# ----------------------------------------------------------------------

def _register_builtin_workloads() -> None:
    from ..workloads import (BimodalWorkload, SequentialWorkload,
                             StridedWorkload, TraceWorkload,
                             UniformWorkload, ZipfWorkload)

    @register_workload("uniform", "uniformly random page writes")
    def _uniform(num_pages, seed):
        return UniformWorkload(num_pages, seed=seed)

    @register_workload("sequential", "ascending page sweep",
                       options="start=<page>")
    def _sequential(num_pages, seed, start=0):
        return SequentialWorkload(num_pages, start=start)

    @register_workload("strided", "fixed-stride page sweep",
                       options="stride=<pages>,start=<page>")
    def _strided(num_pages, seed, stride=7, start=0):
        return StridedWorkload(num_pages, stride, start=start)

    @register_workload("bimodal", "hot/cold two-level locality "
                                  "(Section 5.3)",
                       options="hot_data=<frac>,hot_access=<frac>")
    def _bimodal(num_pages, seed, hot_data=0.1, hot_access=0.9):
        return BimodalWorkload(num_pages, hot_data_fraction=hot_data,
                               hot_access_fraction=hot_access, seed=seed)

    @register_workload("zipf", "Zipf-skewed page popularity",
                       options="skew=<s>")
    def _zipf(num_pages, seed, skew=1.0):
        return ZipfWorkload(num_pages, skew=skew, seed=seed)

    @register_workload("trace", "replay the page writes of a run trace",
                       options="path=<run trace .jsonl>")
    def _trace(num_pages, seed, path=None):
        if path is None:
            raise TypeError("trace workload needs path=<file>")
        pages = RunTrace.load(str(path)).page_writes()
        if not pages:
            raise TraceError(f"{path}: the trace records no writes")
        if max(pages) >= num_pages:
            raise TraceError(
                f"{path}: geometry mismatch — the trace writes up to "
                f"page {max(pages)}, this system has {num_pages} "
                f"logical pages")
        return TraceWorkload(num_pages, pages)


_register_builtin_workloads()
