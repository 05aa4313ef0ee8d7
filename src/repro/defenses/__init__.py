"""Defense schemes evaluated in the paper (Chapter 7) and beyond: the
unsafe baseline, hardware-only schemes, Perspective, spot mitigations,
and related-work alternatives (SafeSpec, ConTExT) -- all behind the
scheme registry (:mod:`repro.defenses.registry`)."""

from repro.defenses.base import CountingPolicy, FenceStats
from repro.defenses.context import ConTExTPolicy
from repro.defenses.perspective import PerspectivePolicy
from repro.defenses.registry import (
    SchemeCapabilities,
    SchemeRegistrationError,
    SchemeSpec,
    arm,
    build_policy,
    derive_metric_label,
    get_scheme,
    policy_metric_label,
    register_scheme,
    registered_schemes,
    scheme_capabilities,
    unregister_scheme,
)
from repro.defenses.safespec import SafeSpecPolicy
from repro.defenses.schemes import (
    DelayOnMissPolicy,
    FencePolicy,
    InvisiSpecPolicy,
    STTPolicy,
    UnsafePolicy,
)
from repro.defenses.spot import (
    KPTI_SWITCH_COST,
    KPTI_TLB_PRESSURE,
    SpotMitigationPolicy,
)

__all__ = [
    "ConTExTPolicy",
    "CountingPolicy",
    "DelayOnMissPolicy",
    "FencePolicy",
    "FenceStats",
    "InvisiSpecPolicy",
    "KPTI_SWITCH_COST",
    "KPTI_TLB_PRESSURE",
    "PerspectivePolicy",
    "STTPolicy",
    "SafeSpecPolicy",
    "SchemeCapabilities",
    "SchemeRegistrationError",
    "SchemeSpec",
    "SpotMitigationPolicy",
    "UnsafePolicy",
    "arm",
    "build_policy",
    "derive_metric_label",
    "get_scheme",
    "policy_metric_label",
    "register_scheme",
    "registered_schemes",
    "scheme_capabilities",
    "unregister_scheme",
]
