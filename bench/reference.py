"""A fixed pure-Python reference kernel that timings are scaled by.

On a shared host a process gets slower in two ways: other processes take
turns on its CPU, which adds wall-clock time but no CPU time, and the CPU
itself runs slower (other tenants on the same cores and caches), which adds
CPU time too. The CPU's speed flips within a fraction of a second, and its
average drifts over minutes. The benchmark therefore times CPU seconds,
which the first kind cannot move, and runs this kernel, timed in CPU
seconds as well, between its stage runs all through a run. It reports each
time scaled to a machine on which the kernel takes exactly REFERENCE_S,
using the kernel's mean time over the whole run, which takes out the drift
of the second kind from one run to the next:

    scaled = measured CPU s * REFERENCE_S / mean kernel CPU s of the run

The kernel does the kinds of work the package does (a character edit-
distance DP, string slicing and bigram counting in a dict, JSON round trips)
on fixed data. It must never change: a change here rescales every timing.
"""

from __future__ import annotations

import json
import resource
from collections import Counter

REFERENCE_S = 0.02  # nominal time of one `kernel_time()`

_A = "今天天气很好我们一起去公园散步吧然后回家吃饭，" * 3
_B = "今天天气不好我们一起去公园跑步吧然后回家做饭！" * 3
_DOC = [{"id": f"pair-{i}", "text": _A[i % 20:], "edits": [[i, i + 1, "好"]]} for i in range(40)]


def _distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        row = [i]
        for j, cb in enumerate(b, 1):
            row.append(min(prev[j - 1] + (ca != cb), row[j - 1] + 1, prev[j] + 1))
        prev = row
    return prev[-1]


def _work() -> int:
    total = _distance(_A, _B)
    grams: Counter = Counter()
    for k in range(20):
        text = _A[k:] + _B[:k]
        grams.update(text[i : i + 2] for i in range(len(text) - 1))
    total += len(grams)
    for _ in range(5):
        total += len(json.loads(json.dumps(_DOC, ensure_ascii=False)))
    return total


_CHECK = _work()


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def kernel_time(reps: int = 4) -> float:
    """CPU seconds taken by `reps` runs of the kernel (about 20 ms in all)."""
    t0 = cpu_seconds()
    for _ in range(reps):
        if _work() != _CHECK:
            raise RuntimeError("reference kernel gave a different result")
    return cpu_seconds() - t0


def factor(kernel_times: list[float]) -> float:
    """What CPU seconds measured alongside `kernel_times` are multiplied by
    to give CPU seconds at reference speed."""
    return REFERENCE_S * len(kernel_times) / sum(kernel_times)
