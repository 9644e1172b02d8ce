"""Layer microbenchmarks of ``Arena.new_item`` and of a shared word's access.

Run with the pytest-benchmark plugin, outside the tier-1 suite::

    PYTHONPATH=src taskset -c 0 python -m pytest microbench -q

``test_new_item`` times ``Arena.new_item`` calls, ``ITERATIONS`` to a
round, on an arena that grows by one item per call.  It records in
``extra_info["bytes_per_item"]`` the memory that ``BYTES_ITEMS`` calls
allocate per item on a fresh arena, as ``tracemalloc`` counts it (the
arena's slot included).  ``test_word``
times one uncontended access to a shared word, as :mod:`depq.atomics` sets
it out, ``WORD_ITERATIONS`` to a round, with no trace controller
installed: a sited read (``checkpoint`` and a list index) and a sited
compare-and-swap of a slot's link word, in the arena's list of one end's
link words, under the arena's ``rmw_lock`` that succeeds without changing
the word.  Each is one Python call.  Both
helpers are registered with :func:`~depq.atomics.sited`, as every package
function with a site is, so each runs its twin without the
``checkpoint`` call: the form a package access takes with no controller.
``test_lock_idiom`` times one uncontended critical section around a list
store, ``WORD_ITERATIONS`` to a round, taken as ``with lock:`` or as
``lock.acquire()`` and ``try``/``finally: lock.release()``, the idiom of
every per-operation lock in the package; the gap between the two is the
price of ``with`` per lock.  Only the public API is used.
"""

import tracemalloc

import pytest

from depq.atomics import checkpoint, sited
from depq.items import MIN, Arena, user_key_of
from depq.ordered_list import ListPair

ROUNDS = 20_000
ITERATIONS = 10
WORD_ITERATIONS = 100
BYTES_ITEMS = 10_000


def bytes_per_item() -> float:
    arena = Arena()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in range(BYTES_ITEMS):
            arena.new_item(key)
        return (tracemalloc.get_traced_memory()[0] - before) / BYTES_ITEMS
    finally:
        tracemalloc.stop()


def test_new_item(benchmark):
    benchmark.extra_info["bytes_per_item"] = round(bytes_per_item(), 1)
    arena = Arena()
    benchmark.pedantic(arena.new_item, args=(5,), rounds=ROUNDS // ITERATIONS,
                       iterations=ITERATIONS, warmup_rounds=20)
    assert user_key_of(arena.keys[-1]) == 5


@sited
def sited_read(words: list, slot: int):
    checkpoint("ins-read-link")
    return words[slot]


@sited
def sited_cas(words: list, slot: int, expected: int, new: int, lock) -> bool:
    checkpoint("ins-cas")
    lock.acquire()
    try:
        if words[slot] == expected:
            words[slot] = new
            return True
        return False
    finally:
        lock.release()


@pytest.mark.parametrize("op", ["sited_read", "sited_cas"])
def test_word(benchmark, op):
    arena = Arena()
    lists = ListPair(arena)
    index = arena.new_item(7)
    lists.insert(index)
    words = arena.links[MIN]
    word = words[index]
    fn, args, expected = {
        "sited_read": (sited_read, (words, index), word),
        "sited_cas": (sited_cas, (words, index, word, word, arena.rmw_lock), True)}[op]
    result = benchmark.pedantic(fn, args=args, rounds=ROUNDS // WORD_ITERATIONS,
                                iterations=WORD_ITERATIONS, warmup_rounds=2)
    assert result == expected
    assert words[index] == word


def store_with(words: list, value: int, lock) -> None:
    with lock:
        words[0] = value


def store_acquire(words: list, value: int, lock) -> None:
    lock.acquire()
    try:
        words[0] = value
    finally:
        lock.release()


@pytest.mark.parametrize("idiom", ["with", "acquire"])
def test_lock_idiom(benchmark, idiom):
    fn = {"with": store_with, "acquire": store_acquire}[idiom]
    words = [0]
    lock = Arena().rmw_lock
    benchmark.pedantic(fn, args=(words, 3, lock), rounds=ROUNDS // WORD_ITERATIONS,
                       iterations=WORD_ITERATIONS, warmup_rounds=2)
    assert words == [3] and not lock.locked()
