"""Which ISV each Perspective flavor installs (Sections 5.3-5.4).

The three Perspective schemes share one policy class and differ only in
the view a context gets at startup: the binary's static ISV, the
dynamic ISV of the functions its profiling run traced, or that dynamic
ISV minus every function the gadget scanner flags inside it.
"""

from __future__ import annotations

from repro.analysis.binary import ApplicationBinary
from repro.analysis.static_isv import generate_static_isv
from repro.core.audit import harden_isv
from repro.core.views import InstructionSpeculationView
from repro.kernel.image import KernelImage
from repro.scanner.kasper import scan

#: ISV flavor of each Perspective scheme, in
#: :data:`repro.core.audit.ESCALATION_LADDER` order.
FLAVORS: dict[str, str] = {
    "perspective-static": "static",
    "perspective": "dynamic",
    "perspective++": "++",
}

#: Scheme name of each flavor (the inverse of :data:`FLAVORS`).
SCHEME_OF_FLAVOR: dict[str, str] = {
    flavor: scheme for scheme, flavor in FLAVORS.items()}


def flavor_isv(image: KernelImage, context_id: int, flavor: str, *,
               binary: ApplicationBinary | None = None,
               traced: frozenset[str] | None = None,
               ) -> InstructionSpeculationView:
    """The ISV ``flavor`` installs for one context: the static ISV of
    ``binary``, or the dynamic ISV of the ``traced`` function set, bare
    or hardened with the scanner's findings inside it."""
    if flavor == "static":
        return generate_static_isv(image, binary, context_id)
    if flavor not in ("dynamic", "++"):
        raise ValueError(f"unknown ISV flavor {flavor!r}")
    isv = InstructionSpeculationView(context_id, traced, image.layout,
                                     source="dynamic")
    if flavor == "dynamic":
        return isv
    return harden_isv(isv, scan(image, scope=traced).functions()).hardened


def non_driver_isv_functions(image: KernelImage) -> frozenset[str]:
    """A permissive syscall-surface ISV: everything except the driver tail.

    Close to what static analysis produces union'd over all applications;
    used when a PoC run needs *some* installed view without running the
    full analysis pipeline.  Driver-tail gadgets (including the hijack
    targets) are outside it.
    """
    return frozenset(name for name, info in image.info.items()
                     if info.role != "driver")
