"""Golden streams: every draw against a pure-Python evaluation of the formula
in the ``rng`` module docstring.

Output i of a stream seeded with s is mix64(s + (i + 1) * GOLDEN); a unit
double is its top 53 bits times 2**-53.  The oracle below does that integer
arithmetic with Python ints.  The transcendental step of each distribution
applies the same numpy ufunc to an array of oracle uniforms, so the check is
bitwise on every platform.
"""

import numpy as np
import pytest

from attnatr.rng import SplitMix64, derive_seed

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def outputs(seed, start, n):
    """Outputs start .. start + n - 1 (0-based) of the stream seeded with seed."""
    return [mix((seed & MASK) + (i + 1) * GOLDEN) for i in range(start, start + n)]


def units(seed, start, n):
    return np.array([(z >> 11) * 2.0 ** -53 for z in outputs(seed, start, n)])


def fnv1a(text):
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK
    return h


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_outputs_follow_the_counter_formula():
    rng = SplitMix64(12345)
    assert [rng.next_u64() for _ in range(5)] == outputs(12345, 0, 5)


@pytest.mark.parametrize("seed", [0, 7, MASK, 2**63 + 11])
def test_uniform_stream_is_golden(seed):
    rng = SplitMix64(seed)
    first = rng.uniform((2, 3), -0.25, 0.75)
    scalar = rng.uniform()
    rest = rng.uniform((5,))
    u = units(seed, 0, 12)
    assert same_bits(first, (-0.25 + (0.75 - -0.25) * u[:6]).reshape(2, 3))
    assert scalar == u[6] and isinstance(scalar, np.float64)
    assert same_bits(rest, 0.0 + 1.0 * u[7:])


@pytest.mark.parametrize("n", [1, 6, 7])
def test_gaussian_stream_is_box_muller_over_consecutive_units(n):
    rng = SplitMix64(99)
    rng.next_u64()  # a stream already advanced by one output
    got = rng.gaussian((n,), 0.5, 2.0)
    pairs = (n + 1) // 2
    u = units(99, 1, 2 * pairs)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))
    theta = 2.0 * np.pi * u[pairs:]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    assert same_bits(got, 0.5 + 2.0 * z)
    assert rng.next_u64() == outputs(99, 1 + 2 * pairs, 1)[0]


def test_exponential_stream_is_golden():
    rng = SplitMix64(5)
    got = rng.exponential((2, 2, 3))
    assert same_bits(got, (-np.log1p(-units(5, 0, 12))).reshape(2, 2, 3))
    assert same_bits(rng.exponential(), -np.log1p(-units(5, 12, 1))[0])


@pytest.mark.parametrize("n", [1, 2, 10, 33])
def test_permutation_is_fisher_yates_over_rejection_draws(n):
    seed = 2024 + n
    stream = iter(outputs(seed, 0, 10 * n + 10))
    want = list(range(n))
    for i in range(n - 1, 0, -1):
        bound = i + 1
        limit = MASK - (MASK % bound)
        v = next(stream)
        while v >= limit:
            v = next(stream)
        j = v % bound
        want[i], want[j] = want[j], want[i]
    assert SplitMix64(seed).permutation(n).tolist() == want


@pytest.mark.parametrize("seed, parts", [(0, ()), (7, ("synth", "train", 2, 41)),
                                         (MASK, ("perturb", 3)), (-1, ("é", 2**70))])
def test_derive_seed_is_golden(seed, parts):
    s = mix(seed & MASK)
    for part in parts:
        key = fnv1a(part) if isinstance(part, str) else part & MASK
        s = mix((s ^ key) + GOLDEN)
    assert derive_seed(seed, *parts) == s
    assert SplitMix64(seed).split(*parts).seed == s
