import numpy as np
import pytest

from hermcap import SplitMix64, mix64


def test_known_splitmix_values():
    # reference values of the published splitmix64 sequence from seed 0
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
def test_seed_outside_64_bits_raises(seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        SplitMix64(seed)
    assert SplitMix64(2**64 - 1).state == 2**64 - 1  # the top seed is in range


def test_mix64_is_bijective_on_sample():
    xs = [0, 1, 2**63, 2**64 - 1, 123456789]
    ys = [mix64(x) for x in xs]
    assert len(set(ys)) == len(xs)


def test_randbelow_range_and_determinism():
    rng = SplitMix64(7)
    vals = [rng.randbelow(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in vals)
    rng2 = SplitMix64(7)
    assert vals == [rng2.randbelow(10) for _ in range(1000)]


def test_randbelow_roughly_uniform():
    rng = SplitMix64(42)
    counts = np.bincount([rng.randbelow(8) for _ in range(80000)], minlength=8)
    assert counts.min() > 9000 and counts.max() < 11000


def test_sample_is_subset_without_replacement():
    rng = SplitMix64(3)
    pop = list(range(100))
    got = rng.sample(pop, 30)
    assert len(got) == 30 and len(set(got)) == 30 and set(got) <= set(pop)
    assert pop == list(range(100))  # input untouched


@pytest.mark.parametrize("n", [-2, -1, 11])
def test_sample_size_outside_population_raises(n):
    rng = SplitMix64(3)
    with pytest.raises(ValueError, match=f"cannot sample {n} items from 10"):
        rng.sample(range(10), n)
    assert rng.state == SplitMix64(3).state  # nothing was drawn


def test_shuffle_permutes():
    rng = SplitMix64(9)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50)) and items != list(range(50))
