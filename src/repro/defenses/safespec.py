"""SafeSpec [Khasawneh et al., DAC'19]: shadow speculative structures.

SafeSpec duplicates the structures speculation can pollute -- caches and
TLBs -- into *shadow* copies.  A speculative load fills the shadow
structure only; when the load retires the shadow entry is committed into
the real cache/TLB, and when the path squashes the shadow entry is
discarded.  The shared hierarchy therefore never holds a transiently-
filled line, so a passive flush+reload probe sees nothing.

In this model the shadow structures map onto the pipeline's *invisible*
load mechanism (the same hardware point InvisiSpec uses): the load's
data returns to dependents immediately, nothing is installed in the
shared hierarchy, and the fill happens at the visibility point -- which
for a committed-path load is exactly the retire-time shadow commit, and
for a wrong-path load never happens (the squash discards the shadow
entry).  SafeSpec differs from InvisiSpec in cost, not mechanism: the
shadow structures are *searched* like the real ones, so there is no
replay round-trip, only a small commit-at-retire charge.
"""

from __future__ import annotations

from repro.cpu.pipeline import LoadDecision, LoadQuery
from repro.defenses.base import CountingPolicy
from repro.defenses.registry import SchemeCapabilities, register_scheme


class SafeSpecPolicy(CountingPolicy):
    """Speculative loads fill shadow structures, committed at retire."""

    name = "safespec"

    #: Cycles to move a shadow entry into the real hierarchy at retire.
    #: Much cheaper than InvisiSpec's replay round-trip (10.0): the
    #: shadow cache already holds the line; commit is a local transfer.
    SHADOW_COMMIT_LATENCY = 2.0
    #: The one decision every speculative load gets.
    DECISION = LoadDecision(True, reason="shadow-fill",
                            extra_latency=SHADOW_COMMIT_LATENCY,
                            invisible=True)

    def __init__(self) -> None:
        super().__init__()
        #: Shadow-structure bookkeeping (observational only -- the
        #: decision below never depends on these, so stats cannot change
        #: measured behaviour).
        self.shadow_fills = 0
        self.shadow_commits = 0
        self.shadow_squashes = 0

    def check_load(self, query: LoadQuery) -> LoadDecision:
        self.fence_stats.record("shadow-fill")
        self.shadow_fills += 1
        if query.transient:
            # Wrong path (ground truth): the shadow entry will be
            # discarded at squash, leaving the shared hierarchy clean.
            self.shadow_squashes += 1
        else:
            self.shadow_commits += 1
        return self.DECISION

    def reset_stats(self) -> None:
        super().reset_stats()
        self.shadow_fills = 0
        self.shadow_commits = 0
        self.shadow_squashes = 0


register_scheme(
    "safespec",
    lambda framework=None, kernel=None: SafeSpecPolicy(),
    SchemeCapabilities(speculative_loads="always", transient_fill=False),
    summary="shadow speculative cache/TLB structures, squashed or "
            "committed at retire")
