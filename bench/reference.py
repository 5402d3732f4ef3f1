"""Fixed reference work that the benchmark times next to ridelink's stages.

    python3 bench/reference.py

The runner starts this script before every stage, in the same way as a stage: a
fresh interpreter that imports numpy, searches a seeded grid graph with a
binary heap (like the transit planner) and runs a few vectorised numpy
passes (like the model stages). It reads no input and writes nothing. Its
work never changes, so the time it takes measures how fast the machine ran
at that moment; the runner divides the stage times by its median (see
``run.py``).
"""

import heapq
import random

import numpy as np

SIDE = 60
SEARCHES = 8


def grid_graph(side: int, rng: random.Random) -> dict:
    adj = {}
    for i in range(side):
        for j in range(side):
            adj[(i, j)] = [((a, b), rng.uniform(1.0, 5.0))
                           for a, b in ((i + 1, j), (i, j + 1), (i - 1, j), (i, j - 1))
                           if 0 <= a < side and 0 <= b < side]
    return adj


def shortest_paths(adj: dict, source) -> dict:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist.get(v, float("inf")):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def main() -> None:
    adj = grid_graph(SIDE, random.Random(0))
    for k in range(SEARCHES):
        assert len(shortest_paths(adj, (k % SIDE, 7 * k % SIDE))) == SIDE * SIDE
    x = np.arange(200_000, dtype=float)
    for _ in range(20):
        x = np.sqrt(x * 1.0001 + 1.0)


if __name__ == "__main__":
    main()
