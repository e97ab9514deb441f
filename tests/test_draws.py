import numpy as np
import pytest

from cli_child import run_cli
from specbound.draws import SEED_MAX, Stream
from specbound.errors import InvalidInputError


def splitmix64(seed, n):
    """The reference generator over Python ints, one word at a time."""
    mask = 2 ** 64 - 1
    state, words = seed, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


@pytest.mark.parametrize("seed", [0, 1, SEED_MAX])
def test_bits_match_reference(seed):
    stream = Stream(seed)
    # split calls continue the counter where the last one stopped
    words = [int(w) for chunk in (1, 399, 600) for w in stream.bits(chunk)]
    assert words == splitmix64(seed, 1000)


def test_published_first_word():
    assert int(Stream(1234567).bits(1)[0]) == 6457827717110365317


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1])
def test_seed_out_of_range(seed):
    with pytest.raises(InvalidInputError):
        Stream(seed)


def test_uniform_open_interval_and_scalar():
    stream = Stream(3)
    u = stream.uniform(size=10_000)
    assert u.dtype == np.float64 and 0.0 < u.min() and u.max() < 1.0
    x = stream.uniform(1.1, 5.0)
    assert isinstance(x, float) and 1.1 < x < 5.0
    v = stream.uniform(-1.0, 1.0, size=5)
    assert v.shape == (5,) and np.all(np.abs(v) < 1.0)


def test_integer_in_range():
    stream = Stream(5)
    values = [stream.integer(1, 7) for _ in range(600)]
    assert set(values) == set(range(1, 7))
    assert stream.integer(4, 5) == 4
    with pytest.raises(InvalidInputError):
        stream.integer(3, 3)


@pytest.mark.parametrize("n", [1, 2, 17, 500])
def test_dirichlet_weights(n):
    stream = Stream(11)
    for _ in range(20):
        weights = stream.dirichlet(n)
        assert weights.shape == (n,) and np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 64, 16807])
def test_subsets_distinct_and_in_range(n):
    stream = Stream(13)
    for k in (1, n - 1):
        subset = stream.subset(n, k)
        assert subset.shape == (k,)
        assert len(set(subset.tolist())) == k
        assert subset.min() >= 0 and subset.max() < n
        assert np.all(np.diff(subset) > 0)
    with pytest.raises(InvalidInputError):
        stream.subset(n, 0)


def test_verify_all_leaves_numpy_random_unloaded():
    report = "sys.stderr.write(str(sorted(m for m in sys.modules if m.startswith('numpy.random'))))\n"
    proc = run_cli(["verify", "--suite", "all", "--format", "json"], report,
                   capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.endswith("[]"), proc.stderr[-2000:]
