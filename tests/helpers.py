"""Shared test utilities: the brute-force checker oracle, a generator of
small randomized histories (optionally mutated into likely-wrong ones),
deliberately broken builds, and a bounded runner for uncontrolled threads."""

import itertools
import threading
import time

from depq.atomics import checkpoint
from depq.items import MARKED, MAX, MIN
from depq.lincheck import EMPTY, Event
from depq.list_depq import ListDepq
from depq.oracle import SeqDepq


class UnclaimedListDepq(ListDepq):
    """Deliberately broken build for the checker's mutation tests: its claim
    loop pops without ``try_reserve``, so both ends can return one item."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inner._extract = self._pop_unclaimed

    def _pop_unclaimed(self, end):
        own = self.inner.min_pq if end == MIN else self.inner.max_pq
        index = own.pq_extract_first()
        return None if index is None else self.arena.item(index).user_key


class EagerUnlinkListDepq(ListDepq):
    """Deliberately broken build for the reclamation test: its ascending
    queue reports each node it pops as unlinked at once, though the node
    stays the ascending list's head until that end's next pop.  So the
    other end's sweep can retire the node, and the epoch free it, while
    the ascending consumer still holds it.  The descending queue is left
    whole, so draining that end does not unlink a node a third time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        queue, on_unlink = self.inner.min_pq, self.reclaim.on_unlink
        pop = queue.pq_extract_first

        def pop_and_unlink():
            index = pop()
            if index is not None:
                on_unlink(index)
            return index
        queue.pq_extract_first = pop_and_unlink


class OverskipListDepq(ListDepq):
    """Deliberately broken build for the skip's mutation test: a pop that
    skips a claimed node skips the first unclaimed node after it as well,
    marking its word as the skip marks a claimed node's, so that node's
    key is deleted unreturned.  The skip count includes it, so ``marks``
    still matches the nodes marked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        lists, arena = self.lists, self.arena
        pop = lists.extract_first

        def overskip(end):
            skipped = lists.skipped[end]
            got = pop(end)
            links = arena.links[end]
            if got is None or lists.skipped[end] == skipped or links[got] <= 1:
                return got
            with arena.rmw_lock:
                word = links[got]
                links[got] = word | 1
                got = (word >> 1) - 1
                arena.state[got] |= MARKED[end]
                lists.skipped[end] += 1
            return got
        lists.extract_first = overskip


class EarlyEntryListDepq(ListDepq):
    """Deliberately broken build for the index's mutation test: its pair
    insert adds the new index entry before the descending publish, so
    another insert can take a node that is not yet on the descending list
    as its descending start."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lists.insert = self._insert_entry_early

    def _insert_entry_early(self, index):
        lists = self.lists
        k = self.arena.keys[index]
        ascending, descending = lists._index_search(k)
        lists._publish(index, MIN, ascending, k)
        lists._index_add(k)
        checkpoint("between-list-inserts")
        lists._publish(index, MAX, descending, k)


def ev(thread, kind, arg, result, invoke, response):
    return Event(thread=thread, kind=kind, arg=arg, result=result,
                 invoke=invoke, response=response)


def naive_check(events, initial_keys=()):
    """Enumerate every subset of pending operations and every permutation of
    the chosen operations; accept if any permutation respects real-time
    order and replays correctly.  No memoization, no pruning: this is the
    independent oracle for the real checker."""
    completed = [i for i, e in enumerate(events) if e.completed]
    pending = [i for i, e in enumerate(events) if not e.completed]

    def respects_realtime(perm):
        for pos, a in enumerate(perm):
            for b in perm[pos + 1:]:
                resp_b = events[b].response
                if resp_b is not None and resp_b < events[a].invoke:
                    return False
        return True

    def replays(perm):
        state = SeqDepq(initial_keys)
        for i in perm:
            e = events[i]
            if e.kind == "Insert":
                state.insert(e.arg)
                continue
            got = state.extract_min() if e.kind == "ExtractMin" else state.extract_max()
            if e.completed:
                expected = None if e.result == EMPTY else e.result
                if got != expected:
                    return False
        return True

    for take in range(len(pending) + 1):
        for extra in itertools.combinations(pending, take):
            chosen = completed + list(extra)
            for perm in itertools.permutations(chosen):
                if respects_realtime(perm) and replays(perm):
                    return True
    return False


def random_history(rng, max_ops=6, mutate=False):
    """A small concurrent history produced by simulating a correct queue,
    optionally mutated to be (probably) wrong."""
    n_threads = rng.randint(1, 3)
    state = SeqDepq()
    events = []
    clock = 0
    open_per_thread = {}
    for _ in range(rng.randint(1, max_ops)):
        for t in list(open_per_thread):
            if rng.random() < 0.6:
                e = open_per_thread.pop(t)
                e.response = clock
                clock += 1
        t = rng.randrange(n_threads)
        if t in open_per_thread:
            continue
        roll = rng.random()
        if roll < 0.45:
            key = rng.randrange(4)
            e = ev(t, "Insert", key, None, clock, None)
            state.insert(key)
        else:
            kind = "ExtractMin" if roll < 0.75 else "ExtractMax"
            got = state.extract_min() if kind == "ExtractMin" else state.extract_max()
            e = ev(t, kind, None, EMPTY if got is None else got, clock, None)
        clock += 1
        events.append(e)
        open_per_thread[t] = e
    for t, e in open_per_thread.items():
        if rng.random() < 0.8:
            e.response = clock
            clock += 1
    for e in events:
        if e.response is None:
            e.result = None
    if mutate and events:
        victim = rng.choice(events)
        if victim.kind == "Insert":
            victim.arg = (victim.arg or 0) + rng.randint(1, 3)
        elif victim.completed:
            victim.result = rng.choice([EMPTY, 0, 1, 2, 3])
    return events


def join_threads(threads, timeout=10.0):
    """Join ``threads`` within ``timeout`` seconds in all; fails, naming
    each thread still running, if any is.  Make them daemons, so that one
    left running cannot hold up the interpreter's exit."""
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    running = [thread.name for thread in threads if thread.is_alive()]
    assert not running, f"still running after {timeout} s: {running}"


def run_on_plain_threads(*fns, timeout=10.0):
    """Run each of ``fns`` on its own plain daemon thread, which no
    controlled scheduler pauses, and join them with ``join_threads``;
    returns their results in order.  If any raised, fails with the first
    error raised, naming its thread."""
    results = [None] * len(fns)
    errors = []

    def run(i, fn):
        try:
            results[i] = fn()
        except BaseException as exc:
            errors.append((threading.current_thread().name, exc))

    threads = [threading.Thread(target=run, args=(i, fn), name=f"plain-{i}: {fn!r}",
                                daemon=True)
               for i, fn in enumerate(fns)]
    for thread in threads:
        thread.start()
    join_threads(threads, timeout)
    if errors:
        name, exc = errors[0]
        raise AssertionError(f"{name} raised {exc!r}") from exc
    return results
