"""Reference kernels that gauge the host's speed beside the timed work.

On a shared virtual machine the same svopt call can take 1.2 s or 2.1 s
within a minute, and whole 40 s runs drift by up to 40%, with process CPU
time rising as much as wall time: the host runs our code slower, it does
not take the CPU away. No statistic within a run removes that. A timed
run therefore runs a fixed kernel, which does not touch svopt, before
every operation, and scales each pass's times by the kernel's nominal
time over its median time in that pass. Times then read as seconds on a
host on which the kernel takes its nominal time.

Host load slows interpreted object code and whole-array sweeps by
different amounts, so a workload is scaled by the kernels that do its
kind of work: `objects` (attribute reads, tuple keys and dict lookups
over live frozen dataclasses, a keyed sort) for perfmodel's Python
objects, `arrays` (shifted absolute differences, a summed-area box
filter, a running argmin over 540x960 float32 planes) for numpy sweeps,
and the geometric mean of both for a workload that does both. Both
kernels build their data once and do not depend on the seed.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class _Item:
    a: int
    b: int
    c: tuple


_ITEMS = None


def objects() -> None:
    global _ITEMS
    if _ITEMS is None:
        items = [_Item(i, i * 7 % 13, (i, i + 1)) for i in range(6000)]
        _ITEMS = items, {(it.a % 97, it.b): it for it in items}
    items, table = _ITEMS
    acc = 0
    for it in items:
        hit = table.get((it.a % 97, it.b))
        if hit is not None and hit.b <= it.b:
            acc += it.b * it.c[1] // (1 + it.a % 5)
    sorted(items, key=lambda it: (it.b, -it.a))


_PLANES = None


def arrays() -> None:
    global _PLANES
    if _PLANES is None:
        rng = np.random.default_rng(0)
        _PLANES = rng.random((2, 540, 960), dtype=np.float32)
    left, right = _PLANES
    best = np.full(left.shape, np.inf, np.float32)
    best_d = np.zeros(left.shape, np.int32)
    for d in range(2):
        diff = np.abs(left - np.roll(right, d, axis=1))
        sums = np.cumsum(np.cumsum(np.pad(diff, ((3, 2), (3, 2)), mode="edge"), 0), 1)
        cost = sums[5:, 5:] - sums[:-5, 5:] - sums[5:, :-5] + sums[:-5, :-5]
        better = cost < best
        best = np.where(better, cost, best)
        best_d = np.where(better, d, best_d)


# each kernel and its nominal seconds, close to its median on a calm host
KERNELS = {"objects": (objects, 0.005), "arrays": (arrays, 0.018)}


def timed(name: str) -> float:
    """Seconds of one run of a kernel, with the cyclic garbage collector held off."""
    gc.disable()
    try:
        start = perf_counter()
        KERNELS[name][0]()
        return perf_counter() - start
    finally:
        gc.enable()


def scale(names: tuple[str, ...], runs: list[tuple[float, ...]]) -> float:
    """Geometric mean over the kernels of nominal over median seconds.

    `runs` holds one tuple per sample: each kernel's seconds, in `names` order.
    """
    ratios = [KERNELS[name][1] / statistics.median(run[i] for run in runs)
              for i, name in enumerate(names)]
    return math.prod(ratios) ** (1 / len(ratios))
