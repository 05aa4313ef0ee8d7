"""The defense-scheme registry: one policy point, many papers.

Every defense evaluated in this reproduction gates the same hardware
policy point ("when may a speculative load issue / when may its fill
commit to shared structures"), so schemes are interchangeable behind
:class:`repro.cpu.pipeline.SpeculationPolicy`.  This module replaces the
closed if/elif scheme enums that used to live in ``repro.eval.envs`` and
``repro.attacks.harness`` with a registry:

* :func:`register_scheme` -- declare a scheme once (name, capability
  flags, factory).  Registration is idempotent for identical specs and a
  hard error for conflicting ones, including *metric-label* collisions
  (two schemes whose names sanitize to the same string-keyed metric
  label would silently merge their observability counters).
* :func:`arm` -- the one deployment step every consumer calls: attach
  the Perspective framework when the scheme ``needs_framework``,
  install the caller's views, build the policy and set it on the
  kernel's pipeline.
* :func:`build_policy` -- the factory call behind :func:`arm`.
  Perspective flavors need the ``framework`` the views live in;
  kernel-coupled schemes (ConTExT's non-transient tags) need the
  ``kernel``.
* :class:`SchemeCapabilities` -- machine-checkable contract of what the
  scheme permits.  The hypothesis property suite derives its invariants
  from these flags (e.g. a scheme with ``transient_fill=False`` may
  never return a decision that lets a wrong-path load install a new
  cache line), so a mislabelled scheme fails its own registration tests.

Adding a scheme is one file: subclass ``CountingPolicy``, call
``register_scheme`` at module bottom, and list the module in
``_BUILTIN_MODULES`` (or import it from anywhere before lookup).  The
matrix test-suite (``tests/test_defense_matrix.py``) parameterizes over
:func:`registered_schemes`, so a scheme registered without conformance
and attack-matrix coverage fails collection, not silently.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "SchemeCapabilities",
    "SchemeSpec",
    "SchemeRegistrationError",
    "register_scheme",
    "unregister_scheme",
    "get_scheme",
    "registered_schemes",
    "scheme_capabilities",
    "arm",
    "build_policy",
    "derive_metric_label",
    "policy_metric_label",
]

#: Modules whose import registers the built-in schemes.  Imported lazily
#: on first registry lookup so this module stays import-cycle free (the
#: pipeline may import us while a defense module imports the pipeline).
_BUILTIN_MODULES = (
    "repro.defenses.schemes",
    "repro.defenses.spot",
    "repro.defenses.safespec",
    "repro.defenses.context",
    "repro.defenses.perspective",
)

#: Allowed values of :attr:`SchemeCapabilities.speculative_loads`.
_SPECULATIVE_LOAD_MODES = ("always", "restricted", "never")

_NAME_RE = re.compile(r"^[a-z0-9+._-]+$")


class SchemeRegistrationError(ValueError):
    """A conflicting re-registration or metric-label collision."""


@dataclass(frozen=True)
class SchemeCapabilities:
    """What a scheme permits at the speculation policy point.

    These flags are a *contract*, not documentation: the property suite
    (``tests/test_registry_properties.py``) generates random load
    queries and checks every registered scheme's decisions against its
    declared capabilities.
    """

    #: When a speculative load may issue: ``"always"`` (every decision
    #: allows), ``"restricted"`` (depends on the query), ``"never"``
    #: (every speculative load stalls to its visibility point).
    speculative_loads: str
    #: May a *wrong-path* (transient) load's fill commit to the shared
    #: cache hierarchy?  ``False`` means fills are blocked, redirected
    #: into shadow/speculative buffers (``LoadDecision.invisible``), or
    #: only L1 hits -- which install nothing new -- are allowed; a
    #: passive cache probe can then never observe a transient fill.
    transient_fill: bool
    #: Does the scheme track taint on speculatively-loaded data (and
    #: therefore delay tainted branch resolution, STT-style)?
    taint_tracking: bool = False
    #: Factory needs the Perspective ``framework`` the views live in.
    needs_framework: bool = False
    #: Factory needs the ``kernel`` (e.g. ConTExT's non-transient tags).
    needs_kernel: bool = False

    def __post_init__(self) -> None:
        if self.speculative_loads not in _SPECULATIVE_LOAD_MODES:
            raise ValueError(
                f"speculative_loads must be one of "
                f"{_SPECULATIVE_LOAD_MODES}, got "
                f"{self.speculative_loads!r}")


@dataclass(frozen=True)
class SchemeSpec:
    """One registered scheme: identity, contract, and constructor."""

    name: str
    capabilities: SchemeCapabilities
    #: ``factory(framework=..., kernel=...) -> SpeculationPolicy``.
    factory: Callable[..., Any] = field(compare=False)
    #: Sanitized, registry-unique label used in string-keyed metrics
    #: (``pipeline.blockcache.attr.c{ctx}.{label}.{fn}.{reason}``).
    metric_label: str = ""
    summary: str = ""


_REGISTRY: dict[str, SchemeSpec] = {}
_METRIC_LABELS: dict[str, str] = {}
_builtins_loaded = False


def derive_metric_label(name: str) -> str:
    """Metric-safe label for a scheme name.

    Metric keys are dot-joined, so the label may contain only
    ``[a-z0-9_-]``; ``+`` becomes ``p`` (``perspective++`` ->
    ``perspectivepp``) and any other foreign character collapses to
    ``-``.  Sanitization can merge distinct names, which is exactly why
    :func:`register_scheme` rejects label collisions up front instead of
    letting two schemes share counters at runtime.
    """
    label = name.lower().replace("+", "p")
    label = re.sub(r"[^a-z0-9_-]+", "-", label).strip("-")
    return label or "scheme"


def policy_metric_label(policy: Any) -> str:
    """The metric label for a live policy instance.

    Policies built by :func:`build_policy` carry the registry's
    collision-checked label; directly-instantiated policies (tests,
    ad-hoc harnesses) fall back to sanitizing their ``name``.
    """
    label = getattr(policy, "metric_label", None)
    if label:
        return label
    return derive_metric_label(getattr(policy, "name", "scheme"))


def register_scheme(name: str, factory: Callable[..., Any],
                    capabilities: SchemeCapabilities, *,
                    metric_label: str | None = None,
                    summary: str = "") -> SchemeSpec:
    """Register a scheme; idempotent for identical specs.

    Raises :class:`SchemeRegistrationError` when ``name`` is already
    registered with a different spec, or when the (possibly derived)
    ``metric_label`` collides with another scheme's.
    """
    if not _NAME_RE.match(name):
        raise SchemeRegistrationError(
            f"invalid scheme name {name!r} (want [a-z0-9+._-]+)")
    label = derive_metric_label(name) if metric_label is None \
        else metric_label
    spec = SchemeSpec(name=name, capabilities=capabilities,
                      factory=factory, metric_label=label,
                      summary=summary)
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing == spec and existing.factory is spec.factory:
            return existing  # idempotent re-registration
        raise SchemeRegistrationError(
            f"scheme {name!r} is already registered with a different "
            f"spec")
    owner = _METRIC_LABELS.get(label)
    if owner is not None:
        raise SchemeRegistrationError(
            f"metric label {label!r} of scheme {name!r} collides with "
            f"scheme {owner!r}; pass an explicit metric_label=")
    _REGISTRY[name] = spec
    _METRIC_LABELS[label] = name
    return spec


def unregister_scheme(name: str) -> None:
    """Remove a scheme (test hygiene for temporary registrations)."""
    spec = _REGISTRY.pop(name, None)
    if spec is not None:
        _METRIC_LABELS.pop(spec.metric_label, None)


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True  # set first: modules may re-enter lookups
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get_scheme(name: str) -> SchemeSpec:
    """Look up a registered scheme; ``ValueError`` with the known list
    otherwise (same contract the old closed enums had)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown scheme {name!r} (known: {known})") from None


def registered_schemes() -> tuple[str, ...]:
    """Sorted names of every registered scheme."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def scheme_capabilities(name: str) -> SchemeCapabilities:
    return get_scheme(name).capabilities


def build_policy(scheme: str, framework: Any = None,
                 kernel: Any = None) -> Any:
    """Construct the enforcement policy for a registered scheme.

    The factory call behind :func:`arm`, so the scheme vocabulary
    cannot drift between the measurement, conformance, serving, and
    attack planes.  ``framework``/``kernel`` are passed through to the
    factory; schemes that need one and did not get it raise a
    ``ValueError`` naming the missing dependency.  The returned policy
    carries the registry's ``metric_label``.
    """
    spec = get_scheme(scheme)
    policy = spec.factory(framework=framework, kernel=kernel)
    policy.metric_label = spec.metric_label
    return policy


def arm(kernel: Any, scheme: str, views: Iterable[Any] = ()) -> Any:
    """Deploy ``scheme`` on ``kernel``; returns the installed policy.

    A scheme whose capabilities declare ``needs_framework`` gets a
    fresh :class:`repro.core.framework.Perspective` on the kernel with
    ``views`` installed in order (reachable afterwards as
    ``policy.framework``); every other scheme ignores ``views``.  The
    policy comes from :func:`build_policy` and is set on the kernel's
    pipeline.
    """
    framework = None
    if get_scheme(scheme).capabilities.needs_framework:
        from repro.core.framework import Perspective
        framework = Perspective(kernel)
        for view in views:
            framework.install_isv(view)
    policy = build_policy(scheme, framework, kernel=kernel)
    kernel.pipeline.set_policy(policy)
    return policy
