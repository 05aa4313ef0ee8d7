"""Attack x defense matrix runner (the engine behind Chapter 8).

``run_attack(attack, scheme)`` boots a fresh kernel (sharing the cached
image), installs the requested defense policy, plants a secret, runs the
PoC end to end, and reports whether the secret leaked;
:func:`security_cell` is that run as one cell of the ``security`` grid
(:mod:`repro.exec.grids`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.analysis.flavors import FLAVORS, non_driver_isv_functions
from repro.attacks.base import (
    DEFAULT_SECRET,
    AttackResult,
    AttackSetup,
    make_setup,
)
from repro.attacks.bhi import BHIPassiveAttack, EIBRSBaselineCheck
from repro.attacks.ebpf import EBPFInjectionOnVulnerableConfig
from repro.attacks.retbleed import RetbleedPassiveAttack
from repro.attacks.spectre_rsb import SpectreRSBPassiveAttack
from repro.attacks.spectre_v1 import SpectreV1ActiveAttack
from repro.attacks.spectre_v2 import (
    SpectreV2ActiveAttack,
    SpectreV2PassiveAttack,
)
from repro.core.framework import Perspective
from repro.core.views import InstructionSpeculationView
from repro.cpu.pipeline import SpeculationPolicy
from repro.defenses import PerspectivePolicy
from repro.defenses.registry import arm
from repro.kernel.image import shared_image
from repro.kernel.kernel import KernelConfig, MiniKernel
from repro.scanner.kasper import scan

#: PoC classes by the name used in the CVE registry (Table 4.1).
ATTACKS = {
    "spectre-v1-active": SpectreV1ActiveAttack,
    "spectre-v2-active": SpectreV2ActiveAttack,
    "spectre-v2-passive": SpectreV2PassiveAttack,
    "retbleed-passive": RetbleedPassiveAttack,
    "spectre-rsb-passive": SpectreRSBPassiveAttack,
    "bhi-passive": BHIPassiveAttack,
    "spectre-v2-vs-eibrs": EIBRSBaselineCheck,
    "ebpf-injection": EBPFInjectionOnVulnerableConfig,
}

#: Attacks that require an eIBRS-configured kernel.
_NEEDS_EIBRS = {"bhi-passive", "spectre-v2-vs-eibrs"}

#: Default scheme columns of the Chapter 8 matrix (the paper's rows).
#: Any scheme in :func:`repro.defenses.registry.registered_schemes` is
#: accepted by :func:`run_attack`; the full cross-paper matrix lives in
#: :mod:`repro.eval.defense_matrix`.
SCHEMES = ("unsafe", "fence", "dom", "stt", "spot", "perspective")


def _harness_views(kernel: MiniKernel,
                   isv_functions: frozenset[str] | None = None,
                   context_ids: list[int] | None = None,
                   harden: bool = False,
                   ) -> list[InstructionSpeculationView]:
    """One ``harness`` ISV per context (default: all processes) over
    ``isv_functions`` (default: the permissive syscall-surface view),
    minus the scanner's findings inside it when ``harden``."""
    if isv_functions is None:
        isv_functions = non_driver_isv_functions(kernel.image)
    if harden:
        flagged = scan(kernel.image, scope=isv_functions).functions()
        isv_functions = isv_functions - flagged
    if context_ids is None:
        context_ids = sorted({proc.cgroup.cg_id
                              for proc in kernel.processes.values()})
    return [InstructionSpeculationView(ctx, isv_functions, kernel.layout,
                                       source="harness")
            for ctx in context_ids]


def build_perspective(kernel: MiniKernel,
                      isv_functions: frozenset[str] | None = None,
                      context_ids: list[int] | None = None,
                      harden: bool = False,
                      ) -> tuple[Perspective, PerspectivePolicy]:
    """Wire a Perspective framework + policy onto a kernel, installing the
    given ISV function set for each context (default: all processes).

    ``harden`` applies the scanner pass (the ++ flavor): functions the
    taint scanner flags inside the view are excluded before install.
    """
    policy = arm(kernel, "perspective", _harness_views(
        kernel, isv_functions, context_ids, harden))
    return policy.framework, policy


def build_policy(scheme: str, kernel: MiniKernel) -> SpeculationPolicy:
    """Instantiate (and install) the policy for a scheme name.

    Delegates to :func:`repro.defenses.registry.arm`, so any registered
    scheme -- including ones added after this module was written -- can
    be run through the attack matrix.  Every Perspective flavor gets the
    permissive syscall-surface view per context, hardened with the
    scanner's findings for ``perspective++``.
    """
    views = ()
    if scheme in FLAVORS:
        views = _harness_views(kernel, harden=FLAVORS[scheme] == "++")
    return arm(kernel, scheme, views)


@dataclass
class MatrixCell:
    attack: str
    scheme: str
    result: AttackResult


def run_attack(attack_name: str, scheme: str = "unsafe",
               secret: bytes = DEFAULT_SECRET) -> AttackResult:
    """Boot, arm, attack; returns the PoC outcome under ``scheme``.

    The PoC runs under the caller's planes: inside
    ``instrumented(journal=...)`` every enforcement decision it makes is
    recorded as a security event, so the run can be reconstructed after
    the fact (:meth:`repro.obs.events.EventJournal.reconstruct`).
    """
    attack_cls = ATTACKS[attack_name]
    config = KernelConfig(
        btb_hardware_isolation=attack_name in _NEEDS_EIBRS)
    kernel = MiniKernel(image=shared_image(), config=config)
    setup = make_setup(kernel, secret=secret)
    build_policy(scheme, kernel)
    return attack_cls(setup).run(scheme_name=scheme)


def attack_on(kernel: MiniKernel, attacker, victim, attack_name: str,
              scheme: str, secret: bytes = DEFAULT_SECRET) -> AttackResult:
    """Run one PoC through an existing *armed* kernel.

    Where :func:`run_attack` boots a fresh kernel per PoC, this entry
    point drives the attack through a kernel that is already serving
    other tenants -- the adversarial-campaign path, where the attacker
    is a co-located tenant and the policy, view caches, predictors, and
    memory state are shared with live victim traffic.  The caller owns
    policy arming and the planes (the campaign journals the whole
    timeline, attacks included); the secret is (re)planted in
    ``victim``'s kernel heap before the run.
    """
    attack_cls = ATTACKS[attack_name]
    if attack_name in _NEEDS_EIBRS \
            and not kernel.config.btb_hardware_isolation:
        raise ValueError(f"{attack_name} needs an eIBRS-configured kernel")
    secret_va = kernel.plant_secret(victim, secret)
    setup = AttackSetup(kernel=kernel, attacker=attacker, victim=victim,
                        secret=secret, secret_va=secret_va)
    return attack_cls(setup).run(scheme_name=scheme)


def security_cell(attack: str, scheme: str,
                  secret_hex: str) -> dict[str, Any]:
    """One (attack, scheme) cell of the ``security`` grid: the
    :func:`run_attack` result as JSON, its bytes as hex."""
    result = run_attack(attack, scheme, secret=bytes.fromhex(secret_hex))
    return {**asdict(result), "secret": result.secret.hex(),
            "leaked": result.leaked.hex()}
