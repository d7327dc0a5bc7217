"""Result objects of the register-saturation analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.schedule import Schedule
from ..core.types import RegisterType, Value

__all__ = ["SaturationResult"]


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of a register-saturation computation for one register type.

    Attributes
    ----------
    rtype:
        The register type analysed.
    rs:
        The computed register saturation (exact) or its approximation
        (heuristic); the paper writes ``RS_t(G)`` and ``RS*`` respectively.
    saturating_values:
        A set of values that can be simultaneously alive and whose size is
        ``rs`` (the *saturating values*); used by the reduction pass to pick
        serialization candidates.
    method:
        How the value was obtained (``"greedy-k"``, ``"intlp"``,
        ``"bounds"``, ``"search"``, ``"schedule-enum"``, ...).
    killing_function:
        The killing function exhibiting the saturation, when the method has
        one (maps each value to the operation chosen as its killer).
    witness_schedule:
        A schedule realising a register need of ``rs``, when available
        (always available from the intLP, the bounds and the search,
        optional for heuristics).
    optimal:
        True when the value is proven to be the exact register saturation.
    wall_time:
        Seconds spent computing the result.
    details:
        Free-form extra information (model sizes, fallback reasons...).
    """

    rtype: RegisterType
    rs: int
    saturating_values: Tuple[Value, ...] = ()
    method: str = "unknown"
    killing_function: Optional[Mapping[Value, str]] = None
    witness_schedule: Optional[Schedule] = None
    optimal: bool = False
    wall_time: float = 0.0
    details: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "saturating_values", tuple(self.saturating_values))
        if self.killing_function is not None:
            object.__setattr__(self, "killing_function", dict(self.killing_function))
        object.__setattr__(self, "details", dict(self.details))

    def exceeds(self, available_registers: int) -> bool:
        """True when the saturation exceeds the architectural register count ``R_t``."""

        return self.rs > available_registers

    def summary(self) -> Dict[str, object]:
        return {
            "rtype": self.rtype.name,
            "rs": self.rs,
            "method": self.method,
            "optimal": self.optimal,
            "saturating_values": [str(v) for v in self.saturating_values],
            "wall_time": self.wall_time,
        }
