"""Speed probe: a fixed pure-Python loop timed next to every measurement.

On a shared host the same code runs up to twice as slowly, for seconds
to minutes at a time, while other tenants load the machine.  The
slowdown is uniform: this loop, which lowercases and counts a fixed list
of words, slows by the same factor as lexid to within one or two
percent, while either one alone moves by 40% or more from minute to
minute.  So every end-to-end timing is taken between two runs of the
loop and multiplied by ``scale(before, after)``: it then reads as the
time on a machine where the loop takes exactly ``NOMINAL_S``, which is
about a 2-core x86-64 virtual machine running CPython 3.11 when nothing
else loads it.
"""

import math
import random
from time import perf_counter

NOMINAL_S = 0.001
N_WORDS = 6000


def _words() -> list[str]:
    rng = random.Random(0)
    letters = "abcdefghilmnoprstuvàéîõșç"
    vocab = ["".join(rng.choices(letters, k=rng.randint(2, 9))) for _ in range(500)]
    return [w.upper() if i % 7 == 0 else w for i, w in enumerate(rng.choices(vocab, k=N_WORDS))]


WORDS = _words()


def _loop() -> None:
    counts: dict[str, int] = {}
    for word in WORDS:
        key = word.lower()
        counts[key] = counts.get(key, 0) + 1


def probe() -> float:
    """Seconds the loop takes: the faster of two runs."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def probe_sustained(loops: int = 30) -> float:
    """Mean seconds per loop over ``loops`` back-to-back runs.

    Long enough to include the stalls a host imposes on a guest that
    keeps every core busy, which a single short run can miss.
    """
    t0 = perf_counter()
    for _ in range(loops):
        _loop()
    return (perf_counter() - t0) / loops


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into nominal time."""
    return 2 * NOMINAL_S / (before + after)
