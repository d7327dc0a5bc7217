"""Instruction-scheduling substrate: the downstream scheduler of Figure 1."""

from .list_scheduler import list_schedule, register_pressure_aware_schedule
from .metrics import ScheduleMetrics, evaluate_schedule, ilp_loss
from .resources import ReservationTable

__all__ = [
    "list_schedule",
    "register_pressure_aware_schedule",
    "ReservationTable",
    "ScheduleMetrics",
    "evaluate_schedule",
    "ilp_loss",
]
