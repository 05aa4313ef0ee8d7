"""Perspective's core: speculation views, DSVMT, hardware view caches,
and the framework binding them to the kernel."""

from repro.core.admin import ApplicationPolicy, ISVAdministrator, ISVChange
from repro.core.audit import AuditOutcome, harden_isv
from repro.core.dsv import DSVRegistry
from repro.core.dsvmt import DSVMT, WALK_LATENCY
from repro.core.framework import Perspective
from repro.core.hardware import (
    ISV_BLOCK_INSTRUCTIONS,
    REFILL_LATENCY,
    ViewCache,
    isv_block_of,
)
from repro.core.isv import ISVPageTable
from repro.core.views import DataSpeculationView, InstructionSpeculationView

__all__ = [
    "ApplicationPolicy",
    "AuditOutcome",
    "ISVAdministrator",
    "ISVChange",
    "DSVMT",
    "DSVRegistry",
    "DataSpeculationView",
    "ISVPageTable",
    "ISV_BLOCK_INSTRUCTIONS",
    "InstructionSpeculationView",
    "Perspective",
    "REFILL_LATENCY",
    "ViewCache",
    "WALK_LATENCY",
    "harden_isv",
    "isv_block_of",
]
