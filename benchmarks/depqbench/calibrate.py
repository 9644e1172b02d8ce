"""A fixed piece of single-threaded interpreter work that gauges machine speed.

The machines this runs on are shared: the same code ran up to 2.7x slower
for tens of seconds at a time while other tenants were busy, far longer
than one run.  So the runner times this loop between rounds and scales each
round's times to a reference speed: ``time * REFERENCE_S / loop_time``,
and rates by the inverse.  The loop does the kinds of work the library does
(object allocation, attribute reads while walking a linked list, dict
updates, lock round trips) but none of its code, so a change to depq never
changes the loop.
"""

from __future__ import annotations

import random
import threading
import time

#: Time of one ``loop()`` on a 2.0 GHz x86-64 vCPU under CPython 3.11, at
#: its fast end.  A scaled time reads as if it had run at that speed.
REFERENCE_S = 0.003

_REPEATS = 3


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int):
        self.value = value
        self.next: _Node | None = None


def ring(size: int = 4000) -> _Node:
    """A linked list whose order is shuffled against allocation order, as a
    sorted list filled with random keys is, so walking it jumps in memory."""
    nodes = [_Node(i) for i in range(size)]
    order = random.Random(0).sample(nodes, size)
    for a, b in zip(order, order[1:]):
        a.next = b
    return order[0]


def loop(head: _Node) -> int:
    lock = threading.Lock()
    total = 0
    node = head
    while node is not None:
        with lock:
            total += node.value
        node = node.next
    fresh = None
    for i in range(2000):
        fresh = _Node(i)
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i & 255] = counts.get(i & 255, 0) + 1
    return total + len(counts) + fresh.value


def loop_seconds(head: _Node) -> float:
    """The fastest of a few timed runs of ``loop`` over ``head``."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        loop(head)
        best = min(best, time.perf_counter() - start)
    return best
