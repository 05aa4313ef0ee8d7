"""Syzkaller-style coverage exploration model.

Kasper rides on Syzkaller: fuzzing drives execution into kernel functions,
and the taint checker inspects what the fuzzer reaches.  Two costs shape
the discovery rate:

* **reach cost** -- hot syscall paths are cheap to hit; rarely-exercised
  drivers need long mutation chains, so rounds spent there are slow;
* **input depth** -- a gadget only surfaces after its function has been
  fuzzed enough times with the right input shapes (modeled as a per-gadget
  visit threshold).

Perspective bounds the search space to the ISV (Section 6.1): rounds that
would be burned reaching non-ISV code are reinvested in deeper coverage of
the functions that can actually execute transiently -- the source of the
1.14-2.23x discovery-rate speedups of Figure 9.1.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.kernel.image import KernelImage
from repro.reliability.faultplane import fire

#: Exploration weight by function role: how readily the fuzzer reaches it.
#: A round's time cost is the inverse of its target's weight.
ROLE_REACH_WEIGHT = {
    "entry": 8.0, "impl": 8.0, "leaf": 6.0, "helper": 8.0, "fops": 5.0,
    "rare": 2.0, "error": 2.0, "driver": 1.0,
}

#: Simulated-time units per reported "hour" (scaling constant only).
TIME_UNITS_PER_HOUR = 40.0

#: Visit counts after which the 1st, 2nd, ... gadget of a function
#: surfaces (deeper gadgets need rarer input shapes); the long tail keeps
#: extended campaigns productive rather than saturating.
VISIT_THRESHOLDS = (2, 5, 10, 18, 30, 48)


@dataclass
class FuzzCampaign:
    """Outcome of one fuzzing campaign."""

    scope_size: int
    time_units: float = 0.0
    rounds: int = 0
    functions_covered: int = 0
    gadgets_found: int = 0
    #: Rounds that burned budget without coverage (injected stalls).
    stalled_rounds: int = 0
    #: Simulated time of the most recent new finding.
    last_find_time_units: float = 0.0
    #: (simulated_hour, cumulative_gadgets) samples.
    history: list[tuple[float, int]] = field(default_factory=list)

    @property
    def hours(self) -> float:
        return self.time_units / TIME_UNITS_PER_HOUR

    @property
    def productive_rate(self) -> float:
        """Gadgets per hour up to the last new finding (excludes any
        saturated tail); useful for diagnosing campaign sizing."""
        if self.last_find_time_units <= 0.0:
            return 0.0
        return self.gadgets_found / (
            self.last_find_time_units / TIME_UNITS_PER_HOUR)


def _gadget_thresholds(name: str, n_gadgets: int, seed: int) -> list[int]:
    """Deterministic per-gadget visit thresholds for one function.

    Uses crc32 rather than ``hash()``: the built-in string hash is salted
    per interpreter process (PYTHONHASHSEED), which would make campaign
    results differ across runs and break journal reproducibility.
    """
    return [VISIT_THRESHOLDS[zlib.crc32(f"{seed}:{name}:{k}".encode())
                             % len(VISIT_THRESHOLDS)]
            for k in range(n_gadgets)]


def run_campaign(image: KernelImage,
                 scope: frozenset[str] | None = None,
                 hours: float = 25.0,
                 seed: int = 7) -> FuzzCampaign:
    """Fuzz for a simulated-time budget, optionally bounded to ``scope``.

    Each round reaches one function (sampled by reachability weight) at a
    time cost inverse to that weight; the campaign ends when the budget is
    exhausted.
    """
    rng = random.Random(seed)
    names: list[str] = []
    weights: list[float] = []
    for name, info in image.info.items():
        if scope is not None and name not in scope:
            continue
        names.append(name)
        weights.append(ROLE_REACH_WEIGHT.get(info.role, 1.0))
    campaign = FuzzCampaign(scope_size=len(names))
    if not names:
        return campaign

    thresholds = {
        name: _gadget_thresholds(name, len(image.info[name].gadgets), seed)
        for name in names if image.info[name].gadgets}
    budget = hours * TIME_UNITS_PER_HOUR
    visits: dict[str, int] = {}
    found = 0
    spent = 0.0
    # Pre-draw in blocks for speed.
    while spent < budget:
        block = rng.choices(names, weights=weights, k=64)
        for name in block:
            weight = ROLE_REACH_WEIGHT.get(image.info[name].role, 1.0)
            spent += 1.0 / weight
            campaign.rounds += 1
            if fire("fuzzer-stall"):
                # Stalled executor: the round's time is spent but no
                # visit lands, so coverage (and findings) can only lag
                # the fault-free campaign, never exceed it.
                campaign.stalled_rounds += 1
                if spent >= budget:
                    break
                continue
            count = visits.get(name, 0) + 1
            visits[name] = count
            gadget_thresholds = thresholds.get(name)
            if gadget_thresholds is not None:
                # A gadget surfaces the round its threshold is crossed.
                if count in gadget_thresholds:
                    found += gadget_thresholds.count(count)
                    campaign.last_find_time_units = spent
            if spent >= budget:
                break
        campaign.history.append((spent / TIME_UNITS_PER_HOUR, found))
    campaign.functions_covered = len(visits)
    campaign.gadgets_found = found
    campaign.time_units = spent
    return campaign
