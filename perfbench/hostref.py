"""Fixed reference job that gauges how fast the host runs at the moment.

Prints the mean seconds of two repetitions of its work. The work mixes
what snsgraph spends its time on (hashing tuples of short strings into
dicts, sorting them, and pairwise numpy arithmetic) and uses nothing from
the repository, so a change to the program cannot change this number;
only the host can.
"""

import random
import time

import numpy as np

REPETITIONS = 2


def work() -> int:
    rng = random.Random(20170421)
    names = [f"acct{rng.randrange(20_000):05d}" for _ in range(60_000)]
    weights: dict[tuple[str, str], int] = {}
    for pair in zip(names, names[1:]):
        weights[pair] = weights.get(pair, 0) + 1
    ranked = sorted(weights.items())
    pos = np.random.default_rng(1).random((600, 2))
    for _ in range(10):
        diff = pos[:, None, :] - pos[None, :, :]
        pos = pos + 1e-6 * (diff / ((diff**2).sum(-1)[..., None] + 1.0)).sum(1)
    return len(ranked)


if __name__ == "__main__":
    start = time.perf_counter()
    for _ in range(REPETITIONS):
        work()
    print((time.perf_counter() - start) / REPETITIONS)
