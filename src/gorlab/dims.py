"""Homological dimension values with certificates.

A dimension is Finite(n), Infinite (always carrying a periodicity
certificate or an explicit convention flag), or AtLeast(n) when a budget
ran out.  Infinite-by-convention (dimensions of the zero module) is
flagged distinctly from a certified Infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PeriodicityCertificate:
    """A repeated state in an iterated (co)syzygy orbit.

    ``states[preperiod]`` through ``states[preperiod + period - 1]`` repeat
    forever; states are engine-specific descriptions (module coordinates or
    dimension vectors).
    """

    operator: str           # e.g. "syzygy", "cosyzygy", "approximation-kernel"
    preperiod: int
    period: int
    states: tuple = ()

    def __str__(self):
        return "%s-periodic (preperiod %d, period %d)" % (
            self.operator, self.preperiod, self.period)


@dataclass(frozen=True)
class HomologicalDim:
    kind: str                              # "finite" | "infinite" | "atleast"
    value: int | None = None
    certificate: PeriodicityCertificate | None = None
    by_convention: bool = False
    bound_reason: str = ""

    @staticmethod
    def finite(n: int) -> "HomologicalDim":
        return HomologicalDim("finite", int(n))

    @staticmethod
    def infinite(cert: PeriodicityCertificate) -> "HomologicalDim":
        return HomologicalDim("infinite", None, cert)

    @staticmethod
    def infinite_by_convention(reason: str = "zero module") -> "HomologicalDim":
        return HomologicalDim("infinite", None, None, True, reason)

    @staticmethod
    def at_least(n: int, reason: str) -> "HomologicalDim":
        return HomologicalDim("atleast", int(n), None, False, reason)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def ge(self, n: int) -> bool:
        """Certainly >= n (AtLeast(m) counts when m >= n)."""
        if self.kind == "infinite":
            return True
        return self.value >= n

    def consistent_with(self, other: "HomologicalDim") -> bool:
        """Whether some dimension satisfies both values: two finite values
        are equal, a finite value is >= an AtLeast bound, and Infinite
        contradicts only a finite value."""
        fin, rest = (self, other) if self.kind == "finite" else (other, self)
        if fin.kind != "finite":
            return True
        if rest.kind == "finite":
            return fin.value == rest.value
        return rest.kind == "atleast" and fin.value >= rest.value

    def as_int(self) -> int:
        if self.kind != "finite":
            raise ValueError("not a finite dimension: %s" % (self,))
        return self.value

    def __str__(self):
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "atleast":
            return ">=%d" % self.value
        if self.by_convention:
            return "inf(convention)"
        return "inf"

    def __eq__(self, other):
        if isinstance(other, int):
            return self.kind == "finite" and self.value == other
        if isinstance(other, HomologicalDim):
            if self.kind != other.kind:
                return False
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.value))


def dim_max(values) -> HomologicalDim:
    """Max with Infinite dominating; an AtLeast makes the max AtLeast the
    largest value seen, since its true value may be larger."""
    best = HomologicalDim.finite(0)
    bound = None
    for v in values:
        if v.kind == "infinite":
            return v
        if v.kind == "atleast" and (bound is None or v.value > bound.value):
            bound = v
        elif v.kind == "finite" and v.value > best.value:
            best = v
    if bound is None:
        return best
    if bound.value >= best.value:
        return bound
    return HomologicalDim.at_least(best.value, bound.bound_reason)


def dim_min(values) -> HomologicalDim:
    """Min with Finite dominating Infinite; the least Finite value is exact
    only when no AtLeast lies below it."""
    vals = list(values)
    if not vals:
        raise ValueError("dim_min of empty collection")
    least = {}
    for v in vals:
        if v.kind != "infinite" and (v.kind not in least
                                     or v.value < least[v.kind].value):
            least[v.kind] = v
    fin, low = least.get("finite"), least.get("atleast")
    if low is not None and (fin is None or low.value < fin.value):
        return low
    return fin if fin is not None else vals[0]
