"""Reference implementation of the scheduler's bounded knapsack.

This is the capacity-wide dynamic program that `svopt.scheduler` used
before its class-level search: every class is split into binary bundles,
a table over every buffer element from 0 to the capacity records which
bundles an optimal packing keeps, and a backtrack from the full capacity
reads the counts back. It stays here, unchanged, so tests can require the
fast `_pack_counts` to return the same counts on every instance.
"""

from __future__ import annotations

import numpy as np


def _pack_counts(classes: list[tuple[int, int, int]], capacity: int) -> list[int]:
    """Exact bounded knapsack over (weight, value, count) classes.

    `classes` arrive in descending selection priority. Counts are split
    into binary bundles and processed lowest priority first, so the
    backtrack visits high-priority bundles first and keeps them on value
    ties.
    """
    taken = [0] * len(classes)
    pseudo = []  # (class index, bundle count, bundle weight, bundle value)
    for ci in range(len(classes) - 1, -1, -1):
        weight, value, count = classes[ci]
        chunk = 1
        while count > 0:
            take = min(chunk, count)
            pseudo.append((ci, take, weight * take, value * take))
            count -= take
            chunk *= 2
    dp = np.zeros(capacity + 1, dtype=np.int64)
    takes = np.zeros((len(pseudo), capacity + 1), dtype=bool)
    for i, (_, _, bw, bv) in enumerate(pseudo):
        if bw > capacity:
            continue
        candidate = dp[: capacity + 1 - bw] + bv
        keep = candidate >= dp[bw:]
        takes[i, bw:] = keep
        dp[bw:] = np.where(keep, candidate, dp[bw:])
    w = capacity
    for i in range(len(pseudo) - 1, -1, -1):
        ci, cnt, bw, _ = pseudo[i]
        if bw <= w and takes[i, w]:
            taken[ci] += cnt
            w -= bw
    return taken
