"""Deterministic replays of the scenarios that motivate the design.

Each scenario forces one specific interleaving with the controlled
scheduler and reports what it demonstrated:

* ``counterexample`` — two extract-min consumers at once (breaking the
  dual-consumer contract) produce a history the checker must reject.
* ``twist`` — concurrent inserts against an extraction leave the two lists
  in orders that are not reverses of each other, yet every audit passes and
  subsequent extractions still drain in priority order.
* ``single-item-race`` — extract-min and extract-max fight over the last
  item; in every interleaving exactly one of them gets it.
* ``index-start-reclaimed`` — an insert picks an index entry's node as its
  search start, then stalls while that node is extracted at both ends and
  retired; epoch reclamation must keep it alive until the insert exits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dual_depq import DualDepq
from .items import MAX, MIN, Arena, ReclaimedAccessError, uid_of, user_key_of
from .lincheck import Recorder, Verdict, check
from .list_depq import ListDepq
from .oracle import LockedHeapPq
from .ordered_list import ListPair, ListPq
from .reclaim import EPOCH
from .sched import ControlledScheduler, explore_interleavings

@dataclass
class ReplayOutcome:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"replay {self.name}: {'ok' if self.ok else 'FAILED'}"]
        lines += [f"  {k}: {v}" for k, v in self.details.items()]
        return "\n".join(lines)


def run_counterexample() -> ReplayOutcome:
    """Two same-end consumers race; the recorded history is not linearizable.

    Forced order: consumer E1 pops key 1 from the ascending queue and stalls
    before claiming it.  A second min-consumer E2 then pops and returns 2.
    After E2 finishes, a max-consumer E3 pops 2 (claim fails), pops 1,
    claims it and returns 1.  E2 returning 2 while the later E3 returns 1
    admits no sequential explanation, so the checker must say no.
    """
    arena = Arena()
    dual = DualDepq(arena, LockedHeapPq(arena),
                    LockedHeapPq(arena, descending=True))
    recorder = Recorder()
    recorded = recorder.wrap(dual)

    with ControlledScheduler() as sched:
        recorded.insert(1)
        recorded.insert(2)
        sched.spawn("E1", recorded.extract_min)
        sched.run_until("E1", "reserve")
        got_e2 = recorded.extract_min()
        got_e3 = recorded.extract_max()
        history = recorder.snapshot()
        sched.run_to_completion("E1")

    result = check(history)
    ok = (result.verdict is Verdict.NOT_LINEARIZABLE
          and got_e2 == 2 and got_e3 == 1)
    return ReplayOutcome("counterexample", ok, {
        "E2": got_e2,
        "E3": got_e3,
        "verdict": result.verdict.value,
        "history_len": len(history),
    })


def _list_walk_keys(lists: ListPair, end: int) -> list[int]:
    return [lists.arena.item(i).user_key
            for i in lists.walk(end) if i != lists.dummy]


def _same_order_pair(min_walk: list[int], max_walk: list[int]) -> tuple[int, int] | None:
    """A key pair appearing in the SAME relative order in both physical
    lists; its existence shows the lists are not opposite orders."""
    max_pos = {k: p for p, k in enumerate(max_walk)}
    for i, a in enumerate(min_walk):
        for b in min_walk[i + 1:]:
            if a in max_pos and b in max_pos and max_pos[a] < max_pos[b]:
                return (a, b)
    return None


def run_twist() -> ReplayOutcome:
    """Drive the lists into physically different orders and keep working.

    Starting from keys {1, 2, 5} with 1 logically deleted on the ascending
    side and 5 on the descending side: inserts of 3 and 4 finish their
    ascending-list step, 3 completes its descending step, an extract-max
    then logically deletes 3, and only afterwards does 4 link into the
    descending list, landing after the deleted prefix.  The two lists end
    up sharing a key pair in the same relative order.
    """
    d = ListDepq()
    for k in (1, 2, 5):
        d.insert(k)
    first_min = d.extract_min()    # logically deletes 1 on the ascending side
    first_max = d.extract_max()    # logically deletes 5 on the descending side

    with ControlledScheduler() as sched:
        sched.spawn("ins3", d.insert, 3)
        sched.run_until("ins3", "between-list-inserts")  # on the ascending list only
        sched.spawn("ins4", d.insert, 4)
        sched.run_until("ins4", "between-list-inserts")  # on the ascending list only
        sched.run_to_completion("ins3")  # 3 completes its descending-list step
        got_mid_max = d.extract_max()    # logically deletes 3 on the descending side
        sched.run_to_completion("ins4")  # 4 links in after the deleted prefix

    min_walk = _list_walk_keys(d.lists, MIN)
    max_walk = _list_walk_keys(d.lists, MAX)
    pair = _same_order_pair(min_walk, max_walk)
    audits_ok = not d.problems()
    drained = [d.extract_max(), d.extract_min(), d.extract_min(), d.extract_max()]

    ok = (first_min == 1 and first_max == 5 and got_mid_max == 3
          and pair is not None and audits_ok and drained == [4, 2, None, None])
    return ReplayOutcome("twist", ok, {
        "min_list": min_walk,
        "max_list": max_walk,
        "same_order_pair": pair,
        "mid_extract_max": got_mid_max,
        "drain": drained,
        "audits_ok": audits_ok,
    })


def run_single_item_race() -> ReplayOutcome:
    """Explore every interleaving of both ends extracting the last item
    through the claim loop over the two lists."""

    def factory():
        arena = Arena()
        lists = ListPair(arena)
        dual = DualDepq(arena, ListPq(lists, MIN), ListPq(lists, MAX))
        dual.insert(7)
        return lists, [("min", lambda _state: dual.extract_min()),
                       ("max", lambda _state: dual.extract_max())]

    runs = 0
    winners: set[str] = set()
    exclusive = True
    audits_ok = True
    for outcome in explore_interleavings(factory):
        runs += 1
        got = {name: res for name, res in outcome.results.items()}
        hits = [name for name, res in got.items() if res == 7]
        misses = [name for name, res in got.items() if res is None]
        if len(hits) != 1 or len(misses) != 1:
            exclusive = False
        winners.update(hits)
        if not (outcome.state.audit(MIN).ok and outcome.state.audit(MAX).ok):
            audits_ok = False

    ok = exclusive and audits_ok and winners == {"min", "max"}
    return ReplayOutcome("single-item-race", ok, {
        "interleavings": runs,
        "exclusive_everywhere": exclusive,
        "winners_seen": sorted(winners),
        "audits_ok": audits_ok,
    })


def run_index_start_reclaimed() -> ReplayOutcome:
    """Free an insert's index start node under it; the epoch must hold it.

    Keys 0, 10, ..., 70 are stored.  An insert of a key 5 above an inner
    node S searches the index, picks S's entry as its ascending start,
    and is parked at its first list read.
    Both ends are then drained, so S is deleted from both lists, unlinked
    twice and retired, and the epoch is pushed as far as it will go.  S
    must stay allocated while the insert is inside its epoch, the insert
    must land once it runs on, and S is freed only after the insert exits.
    """
    d = ListDepq(reclaim_mode=EPOCH)
    for key in range(0, 80, 10):
        d.insert(key)
    # Not the first or last key: sweeps keep each list's last deleted node.
    start_key = next(k for k in d.lists.index_keys() if 0 < user_key_of(k) < 70)
    start = uid_of(start_key)           # S's slot
    key = user_key_of(start_key) + 5    # S is the last entry before it

    error = None
    drained: list[int] = []
    retired = held = False
    try:
        with ControlledScheduler() as sched:
            sched.spawn("ins", d.insert, key)
            sched.run_until("ins", "ins-read-link")  # its index search chose ``start``
            while (got := d.extract_min()) is not None:
                drained.append(got)
            while d.extract_max() is not None:
                pass                   # deletes the claimed nodes on the max side
            retired = d.arena.item(start).unlinked == 2
            for _ in range(6):
                d.reclaim.try_advance()
            held = not d.arena.is_poisoned(start)
            sched.run_to_completion("ins")
    except ReclaimedAccessError as exc:
        error = exc

    landed = d.remaining_keys() == [key]
    audits_ok = not d.problems()
    for _ in range(3):
        d.reclaim.try_advance()
    freed_after_exit = d.arena.is_poisoned(start)
    ok = (error is None and retired and held and landed
          and audits_ok and freed_after_exit)
    return ReplayOutcome("index-start-reclaimed", ok, {
        "start_key": user_key_of(start_key),
        "inserted_key": key,
        "drained_min": drained,
        "start_retired_while_frozen": retired,
        "start_held_while_frozen": held,
        "error": None if error is None else str(error),
        "insert_landed": landed,
        "audits_ok": audits_ok,
        "start_freed_after_exit": freed_after_exit,
    })


SCENARIOS = {
    "counterexample": run_counterexample,
    "twist": run_twist,
    "single-item-race": run_single_item_race,
    "index-start-reclaimed": run_index_start_reclaimed,
}


def run(name: str) -> ReplayOutcome:
    return SCENARIOS[name]()
