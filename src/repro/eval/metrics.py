"""Derived metrics: normalization, fence breakdowns, and summaries."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.pipeline import ExecResult


def normalized(value: float, baseline: float) -> float:
    """value / baseline (1.0 = parity with UNSAFE).

    A zero baseline means the measurement that should anchor the ratio
    never ran; silently returning 0.0 here used to masquerade as "no
    overhead" in downstream tables.
    """
    if baseline == 0:
        raise ValueError(
            f"normalized: zero baseline for value {value!r} -- the "
            "baseline measurement is missing or empty")
    return value / baseline


def overhead_pct(value: float, baseline: float) -> float:
    """Percentage slowdown over the baseline."""
    return 100.0 * (normalized(value, baseline) - 1.0)


def geomean(values: list[float]) -> float:
    if not values:
        raise ValueError("geomean of an empty sequence is undefined")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


@dataclass
class FenceBreakdown:
    """ISV-vs-DSV fence attribution (Table 10.1)."""

    isv_fences: int = 0
    dsv_fences: int = 0
    other_fences: int = 0
    committed_ops: int = 0

    @classmethod
    def from_exec(cls, exec_result: ExecResult) -> "FenceBreakdown":
        out = cls(committed_ops=exec_result.committed_ops)
        for reason, count in exec_result.fenced_loads.items():
            if reason == "isv":
                out.isv_fences += count
            elif reason == "dsv":
                out.dsv_fences += count
            else:
                out.other_fences += count
        return out

    @property
    def total(self) -> int:
        return self.isv_fences + self.dsv_fences + self.other_fences

    @property
    def isv_share(self) -> float:
        """Fraction of fences attributable to ISVs."""
        denom = self.isv_fences + self.dsv_fences
        return self.isv_fences / denom if denom else 0.0

    @property
    def dsv_share(self) -> float:
        denom = self.isv_fences + self.dsv_fences
        return self.dsv_fences / denom if denom else 0.0

    def fences_per_kiloinstruction(self, kind: str) -> float:
        if self.committed_ops == 0:
            # Zero committed instructions means the measurement backing
            # this breakdown never ran; returning 0.0 here used to
            # masquerade as "no fences" in Table 10.1 (the same failure
            # mode normalized()/geomean() now reject).
            raise ValueError(
                "fences_per_kiloinstruction: no committed instructions -- "
                "the breakdown measurement is missing or empty")
        count = {"isv": self.isv_fences, "dsv": self.dsv_fences,
                 "total": self.total}[kind]
        return 1000.0 * count / self.committed_ops
