"""Self-contained deterministic random number generator.

All randomness in the package flows through :class:`SplitMix64` so that runs
are bit-reproducible from a 64-bit seed, independent of the host platform and
of any other implementation of the same stream.  The generator is the
published splitmix64 sequence: the state advances by the 64-bit golden-ratio
constant and each output is the splitmix64 avalanche finalizer of the state.

Bounded integers use rejection sampling (draw again while the raw 64-bit
value falls in the biased remainder zone), so ``randbelow`` is exactly
uniform.  ``sample`` and ``shuffle`` are Fisher-Yates, and the draw order is
part of the reproducibility contract: ``shuffle`` swaps items i and
randbelow(i + 1) for i descending from len - 1 to 1, ``sample`` swaps items i
and i + randbelow(len - i) for i ascending from 0 to n - 1 and returns the
first n, and ``choice`` makes one draw, randbelow(len).  A seed outside
[0, 2^64) raises ValueError; it is not reduced mod 2^64.
"""

from __future__ import annotations

import operator

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche permutation."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= MASK64:
            raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
        self.state = operator.index(seed)  # TypeError for a non-integer

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        return mix64(self.state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        threshold = (1 << 64) % n
        while True:
            r = self.next_u64()
            if r >= threshold:
                return r % n

    def choice(self, seq):
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending index."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, population, n: int) -> list:
        """n distinct items via partial Fisher-Yates on a copy."""
        items = list(population)
        if not 0 <= n <= len(items):
            raise ValueError(f"cannot sample {n} items from {len(items)}")
        for i in range(n):
            j = i + self.randbelow(len(items) - i)
            items[i], items[j] = items[j], items[i]
        return items[:n]
