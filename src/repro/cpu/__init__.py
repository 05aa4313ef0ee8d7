"""CPU substrate: micro-op ISA, caches, branch prediction, and the
out-of-order pipeline with behavioural transient execution."""

from repro.cpu.branch import (
    BranchTargetBuffer,
    BranchUnit,
    ConditionalPredictor,
    RSBConfig,
    ReturnStackBuffer,
)
from repro.cpu.cache import AccessResult, CacheHierarchy, SetAssociativeCache
from repro.cpu.isa import (
    AluOp,
    CodeLayout,
    Function,
    MicroOp,
    Op,
    OP_SIZE,
)
from repro.cpu.memsys import TLB, AddressSpace, MainMemory, PageFault
from repro.cpu.pipeline import (
    ExecResult,
    ExecutionContext,
    LoadDecision,
    LoadQuery,
    Pipeline,
    PipelineConfig,
    SpeculationPolicy,
)

__all__ = [
    "AccessResult",
    "AddressSpace",
    "AluOp",
    "BranchTargetBuffer",
    "BranchUnit",
    "CacheHierarchy",
    "CodeLayout",
    "ConditionalPredictor",
    "ExecResult",
    "ExecutionContext",
    "Function",
    "LoadDecision",
    "LoadQuery",
    "MainMemory",
    "MicroOp",
    "Op",
    "OP_SIZE",
    "PageFault",
    "Pipeline",
    "PipelineConfig",
    "RSBConfig",
    "ReturnStackBuffer",
    "SetAssociativeCache",
    "SpeculationPolicy",
    "TLB",
]
