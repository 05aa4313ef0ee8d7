"""Transient-execution attack PoCs: the covert channel, Spectre variants
in active and passive form, the CVE registry, and the attack x defense
matrix harness.

Every PoC is one :class:`ActiveAttack` or :class:`PassiveAttack`
subclass (:mod:`repro.attacks.base`) that implements only its own
primitives; :meth:`Attack.run` is the one leak loop and
:meth:`CovertChannel.observe` the one flush+reload round.
"""

from repro.attacks.base import (
    ActiveAttack,
    Attack,
    AttackResult,
    AttackSetup,
    PassiveAttack,
    make_setup,
)
from repro.attacks.bhi import BHIPassiveAttack, EIBRSBaselineCheck
from repro.attacks.covert import CovertChannel, HIT_THRESHOLD, ProbeResult
from repro.attacks.cves import (
    CVERecord,
    MitigationGap,
    Primitive,
    TABLE_4_1,
    record_for_row,
    records_by_primitive,
)
from repro.attacks.ebpf import (
    EBPFInjectionAttack,
    EBPFInjectionOnVulnerableConfig,
    guarded_oob_program,
    masked_program,
    vulnerable_manager,
)
from repro.attacks.harness import (
    ATTACKS,
    SCHEMES,
    MatrixCell,
    build_perspective,
    build_policy,
    non_driver_isv_functions,
    run_attack,
)
from repro.attacks.midfunction import (
    MidFunctionHijackAttack,
    run_midfunction_attack,
)
from repro.attacks.retbleed import RetbleedPassiveAttack
from repro.attacks.spectre_rsb import SpectreRSBPassiveAttack
from repro.attacks.spectre_v1 import SpectreV1ActiveAttack
from repro.attacks.spectre_v2 import (
    SpectreV2ActiveAttack,
    SpectreV2PassiveAttack,
)

__all__ = [
    "ATTACKS",
    "ActiveAttack",
    "Attack",
    "AttackResult",
    "AttackSetup",
    "BHIPassiveAttack",
    "CVERecord",
    "CovertChannel",
    "EBPFInjectionAttack",
    "EBPFInjectionOnVulnerableConfig",
    "EIBRSBaselineCheck",
    "guarded_oob_program",
    "masked_program",
    "vulnerable_manager",
    "HIT_THRESHOLD",
    "MatrixCell",
    "MidFunctionHijackAttack",
    "MitigationGap",
    "PassiveAttack",
    "Primitive",
    "ProbeResult",
    "RetbleedPassiveAttack",
    "SCHEMES",
    "SpectreRSBPassiveAttack",
    "SpectreV1ActiveAttack",
    "SpectreV2ActiveAttack",
    "SpectreV2PassiveAttack",
    "TABLE_4_1",
    "build_perspective",
    "build_policy",
    "make_setup",
    "non_driver_isv_functions",
    "record_for_row",
    "records_by_primitive",
    "run_attack",
    "run_midfunction_attack",
]
