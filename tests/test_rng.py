import ast
import math
import pathlib
from array import array
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

import motifbench
from motifbench.rng import BULK_BLOCK, SplitMix64, _GAMMA, _MASK64, cut_coder, random_cut


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_known_first_value_is_pinned():
    # Freezes the generator definition: any change to the state transition is
    # a breaking change for every stored checksum.
    assert SplitMix64(0).next_u64() == 16294208416658607535
    assert SplitMix64(1).next_u64() == 10451216379200822465


def test_random_in_unit_interval():
    rng = SplitMix64(7)
    for _ in range(10_000):
        v = rng.random()
        assert 0.0 <= v < 1.0


def test_below_range_and_coverage():
    rng = SplitMix64(9)
    seen = set()
    for _ in range(2000):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


def test_gauss_moments():
    rng = SplitMix64(11)
    n = 200_000
    values = rng.gausses(n, 2.0, 3.0)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    assert abs(mean - 2.0) < 0.03
    assert abs(var - 9.0) < 0.15


def test_uniform_bounds():
    rng = SplitMix64(13)
    for _ in range(1000):
        v = rng.uniform(-1.5, 2.5)
        assert -1.5 <= v < 2.5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       n=st.sampled_from(sorted({0, 1, BULK_BLOCK - 1, BULK_BLOCK, BULK_BLOCK + 1,
                                 3 * BULK_BLOCK + 5, 4095, 4096, 4097, 3 * 4096 + 5})))
def test_u64s_equals_scalar_draws(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    assert list(bulk.u64s(n)) == [scalar.next_u64() for _ in range(n)]
    assert bulk._state == scalar._state
    # The draw count a tracer reads back from the first and last state.
    assert ((bulk._state - seed) * pow(_GAMMA, -1, 2**64)) & _MASK64 == n


def test_u64s_rejects_negative_count():
    with pytest.raises(ValueError):
        SplitMix64(1).u64s(-1)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ValueError):
        SplitMix64(seed)


# ---------------------------------------------------------------------------
# bulk bounded draws: bounded(), belows() and random_cut() against the scalar
# draws they replace

_SEEDS = st.integers(0, 2**64 - 1)
# Bounds that draw nothing, that never reject, the widest, and the rest.
_BOUNDS = st.one_of(st.just(1), st.integers(0, 64).map(lambda k: 2**k),
                    st.just(2**64), st.integers(1, 2**64), st.integers(2, 40))


def _drawn_by(below, bounds, chained):
    """below(n) for each n, or, chained, for a bound that also depends on
    the value drawn before it, as a text word's successor table does."""
    out = []
    for n in bounds:
        if chained and out:
            n = 1 + (out[-1] + n) % 2**64
        out.append(below(n))
    return out


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, bounds=st.lists(_BOUNDS, max_size=60), chained=st.booleans())
def test_bounded_below_equals_scalar_below(seed, bounds, chained):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    with bulk.bounded() as below:
        got = _drawn_by(below, bounds, chained)
    assert got == _drawn_by(scalar.below, bounds, chained)
    assert bulk._state == scalar._state


@settings(max_examples=12, deadline=None)
@given(seed=_SEEDS, cycle=st.lists(_BOUNDS, min_size=1, max_size=5),
       calls=st.sampled_from([BULK_BLOCK - 1, BULK_BLOCK + 1, 3 * BULK_BLOCK + 7]),
       chained=st.booleans())
def test_bounded_below_longer_than_a_block(seed, cycle, calls, chained):
    bounds = (cycle * calls)[:calls]
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    with bulk.bounded() as below:
        got = _drawn_by(below, bounds, chained)
    assert got == _drawn_by(scalar.below, bounds, chained)
    assert bulk._state == scalar._state


class _Stop(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, bounds=st.lists(_BOUNDS, max_size=300), data=st.data())
def test_bounded_state_after_an_exception_inside(seed, bounds, data):
    stop = data.draw(st.integers(0, len(bounds)))
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    with pytest.raises(_Stop):
        with bulk.bounded() as below:
            got = [below(n) for n in bounds[:stop]]
            raise _Stop
    assert got == [scalar.below(n) for n in bounds[:stop]]
    assert bulk._state == scalar._state


@settings(max_examples=80, deadline=None)
@given(seed=_SEEDS, bounds=st.lists(_BOUNDS, min_size=1, max_size=5).map(tuple),
       rounds=st.one_of(st.integers(0, 40), st.sampled_from([BULK_BLOCK, BULK_BLOCK // 3 + 5])))
def test_belows_equals_scalar_below(seed, bounds, rounds):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    assert bulk.belows(bounds, rounds) == \
        [scalar.below(n) for _ in range(rounds) for n in bounds]
    assert bulk._state == scalar._state


@pytest.mark.parametrize("n", [0, -1, -2**70, 2**64 + 1, 2**65])
def test_every_below_form_rejects_a_bound_outside_1_to_2_64(n):
    message = r"below\(\) needs n in \[1, 2\*\*64\], got " + str(n)
    with pytest.raises(ValueError, match=message):
        SplitMix64(1).below(n)
    with pytest.raises(ValueError, match=message):
        SplitMix64(1).belows((5, n), 3)
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match=message):
        with rng.bounded() as below:
            below(5)
            below(n)
    assert rng._state == (1 + _GAMMA) & _MASK64  # the one draw below(5) took


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0), offset=st.integers(-4096, 4096), seed=_SEEDS)
def test_random_cut_and_its_coder_decide_as_random_does(p, offset, seed):
    # Draws on both sides of the cut, and one from the stream; the coder
    # gives 1 where random() >= p.
    cut = random_cut(p)
    zs = array("Q", [z for z in (cut + offset, cut - 1, cut, SplitMix64(seed).next_u64())
                     if 0 <= z < 2**64])
    expected = [0 if (z >> 11) * (1.0 / (1 << 53)) < p else 1 for z in zs]
    assert [0 if z < cut else 1 for z in zs] == expected
    assert list(cut_coder([cut])(zs)) == expected


_CUTS = st.one_of(st.integers(-2**8, 2**64 + 2**12), st.integers(0, 256).map(lambda t: t << 56))


@settings(max_examples=150, deadline=None)
@given(cuts=st.lists(_CUTS, min_size=1, max_size=4).map(sorted), seed=_SEEDS)
def test_cut_coder_counts_the_cuts_at_or_below_each_draw(cuts, seed):
    # Each byte's first and last draw, the draws beside every cut, a block
    # from the stream.
    near = [c + d for c in cuts for d in (-1, 0, 1)]
    zs = [t << 56 for t in range(256)] + [(t << 56) | (2**56 - 1) for t in range(256)]
    zs += [z for z in near if 0 <= z < 2**64] + list(SplitMix64(seed).u64s(64))
    assert list(cut_coder(cuts)(array("Q", zs))) == [bisect_right(cuts, z) for z in zs]


_PER_VALUE_DRAWS = {"below", "random", "uniform", "next_u64"}


def test_no_per_value_draw_outside_rng():
    # The library draws in bulk (see the rng module docstring); the scalar
    # draws define the stream and serve the tests.
    root = pathlib.Path(motifbench.__file__).parent
    calls = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _PER_VALUE_DRAWS):
                calls.append(f"{path.relative_to(root)}:{node.lineno} .{node.func.attr}(")
    assert calls == []
