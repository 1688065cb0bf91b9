"""Fixed reference work for measuring how fast the machine runs right now.

The kernel mirrors one Monte Carlo block of the engine at this commit
(seeded PCG64 streams, complex Gaussians coloured by a triangular
factor, phase draws, complex exponentials, a reduction and a log) but
is frozen here, so a change to the program never changes it.  It prints
the median wall time of several repeats of the kernel, which leaves out
interpreter start-up and is steadier than the wall time of the process.
"""

import statistics
import time

import numpy as np

N, TRIALS, BLOCKS, REPEATS = 40, 1024, 4, 5


def kernel() -> float:
    factor = np.tril(np.full((N, N), 0.1)) + np.eye(N)
    total = 0.0
    for block in range(BLOCKS):
        streams = [np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=20157, spawn_key=(s, block)))) for s in range(5)]
        mags = [np.abs(factor @ ((rng.standard_normal((N, TRIALS))
                                  + 1j * rng.standard_normal((N, TRIALS))) / np.sqrt(2.0)))
                for rng in streams[:3]]
        phases = streams[3].vonmises(0.0, 2.0, (N, TRIALS)) + streams[4].uniform(-1, 1, (N, TRIALS))
        gain = np.abs(np.sum(mags[0] * mags[1] * np.exp(1j * phases), axis=0)) ** 2
        total += float(np.log2(1.0 + gain * mags[2][0]).sum())
    return total


def main() -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    print(main())
