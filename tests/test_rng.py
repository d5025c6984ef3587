import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import randint_permutation
from hralign.rng import RngState, fnv1a64, shuffled


def test_fnv1a64_known_vectors():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_same_seed_same_sequence(seed):
    a, b = RngState(seed), RngState(seed)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]


def test_serialized_state_resumes_sequence():
    rng = RngState(99)
    _ = [rng.next_u64() for _ in range(5)]
    restored = RngState.from_state(rng.state())
    assert restored.next_u64() == rng.next_u64()
    assert restored.position == rng.position


def test_vectorized_matches_scalar():
    a, b = RngState(123), RngState(123)
    vec = a.u64(17)
    scalars = [b.next_u64() for _ in range(17)]
    assert [int(v) for v in vec] == scalars
    assert a.position == b.position


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    position=st.integers(2**64 - 300, 2**64 - 1),
    n=st.integers(1, 300),
)
def test_vectorized_matches_scalar_across_position_wrap(seed, position, n):
    a, b = RngState(seed, position), RngState(seed, position)
    vec = a.u64(n)
    assert [int(v) for v in vec] == [b.next_u64() for _ in range(n)]
    assert a.position == b.position


def test_uniform_range_and_reproducibility():
    u = RngState(5).uniform((1000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, RngState(5).uniform((1000,)))
    lo_hi = RngState(5).uniform((1000,), -2.0, 3.0)
    assert lo_hi.min() >= -2.0 and lo_hi.max() < 3.0


def test_normal_moments():
    z = RngState(6).normal((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_normal_scalar_consumes_stream():
    rng = RngState(7)
    _ = rng.normal(1)
    assert rng.position == 2  # one Box-Muller pair


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
def test_randint_in_range(n, seed):
    assert 0 <= RngState(seed).randint(n) < n


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**32))
def test_permutation_is_permutation(n, seed):
    perm = RngState(seed).permutation(n)
    assert sorted(perm.tolist()) == list(range(n))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.one_of(st.integers(min_value=0, max_value=2**20), st.integers(min_value=2**64 - 64, max_value=2**64 - 1)),
)
def test_permutation_equals_per_draw_fisher_yates(n, seed, position):
    """One ``u64`` call and ``shuffled`` give the permutation, and the
    stream position, of one ``randint`` draw per swap, across the 2**64 wrap."""
    batched, per_draw = RngState(seed, position), RngState(seed, position)
    perm = batched.permutation(n)
    assert perm.dtype == np.int64
    assert perm.tolist() == randint_permutation(per_draw, n)
    assert batched.state() == per_draw.state()
    assert batched.position == (position + max(n - 1, 0)) % 2**64


def test_shuffled_takes_no_draw_past_its_last():
    draws = iter(RngState(4).u64(6).tolist())
    shuffled(draws, 4)  # three swaps
    assert len(list(draws)) == 3


def test_derive_independent_streams():
    base = RngState(42)
    a = base.derive("stream-a")
    b = base.derive("stream-b")
    assert a.seed != b.seed
    assert base.position == 0  # derive consumes nothing
    assert a.next_u64() != b.next_u64()
    # derivation is itself deterministic
    assert RngState(42).derive("stream-a").next_u64() == RngState(42).derive("stream-a").next_u64()


def test_position_advances_by_draw_count():
    rng = RngState(3)
    rng.uniform((10,))
    assert rng.position == 10
    rng.normal((5,))  # ceil(5/2) pairs -> 6 draws
    assert rng.position == 16
