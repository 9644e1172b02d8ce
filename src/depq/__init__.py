"""Concurrent double-ended priority queue built from two single-ended
priority queues, plus the machinery to validate it: per-end serializers
(a lock or combining) for multi-consumer extraction, a linearizability
checker, a sequential oracle, and a stress/bench CLI.
"""

from .atomics import checkpoint, set_controller
from .combining import COMBINING, TWO_LOCKS, Combiner, make_serializer
from .dual_depq import DualDepq, make_multi_consumer
from .items import (MAX, MIN, Arena, is_reserved, key_less, key_of, try_reserve,
                    uid_of, user_key_of)
from .lincheck import (EMPTY, CheckResult, Event, Recorder, Verdict, check,
                       read_history, write_history)
from .list_depq import ListDepq
from .oracle import LockedHeapPq, SeqDepq, seq_apply
from .ordered_list import AuditReport, ListPair, ListPq, comes_before
from .reclaim import DEFERRED, EPOCH, Reclaimer
from .sched import ControlledScheduler, ScheduleError, explore_interleavings

__all__ = [
    "Arena", "AuditReport", "CheckResult", "Combiner",
    "COMBINING", "ControlledScheduler", "DEFERRED", "DualDepq", "EMPTY",
    "EPOCH", "Event", "ListDepq", "ListPair", "ListPq",
    "LockedHeapPq", "MAX", "MIN", "Recorder", "Reclaimer", "ScheduleError",
    "SeqDepq", "TWO_LOCKS", "Verdict", "check", "checkpoint",
    "comes_before", "explore_interleavings", "is_reserved", "key_less",
    "key_of", "make_multi_consumer", "make_serializer", "read_history",
    "seq_apply", "set_controller", "try_reserve", "uid_of", "user_key_of",
    "write_history",
]
