import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hralign import task_query
from hralign import tensor as T
from hralign.rng import RngState
from hralign.task_query import (
    N_BUCKETS,
    TEXT_DIM,
    bag_of_tokens,
    build_table,
    embed_texts,
    query_projection,
    token_bucket,
)


def test_token_bucket_in_range_and_stable():
    for token in ("stack", "cups", "Open", "DRAWER"):
        b = token_bucket(token)
        assert 0 <= b < N_BUCKETS
        assert b == token_bucket(token)


def test_table_is_built_once_and_read_only():
    """One table per process, the draw of the constant seed, shared read-only."""
    table = build_table()
    assert build_table() is table
    assert not table.flags.writeable
    assert np.array_equal(table, RngState(task_query._TABLE_SEED).normal((N_BUCKETS, TEXT_DIM)) / np.sqrt(TEXT_DIM))


def test_bag_of_tokens_order_invariant():
    projection = query_projection(RngState(1), 32)
    a = embed_texts(projection, ["stack the cups"])
    b = embed_texts(projection, ["cups the stack"])
    assert np.array_equal(a.data, b.data)


def test_case_and_whitespace_normalized():
    projection = query_projection(RngState(1), 32)
    a = embed_texts(projection, ["Stack  The CUPS"])
    b = embed_texts(projection, ["stack the cups"])
    assert np.array_equal(a.data, b.data)


def test_zero_projection_zero_query():
    projection = query_projection(RngState(2), 32)
    for tensor in projection.values():
        tensor.data = np.zeros_like(tensor.data)
    out = embed_texts(projection, ["open the drawer"])
    assert np.array_equal(out.data, np.zeros((1, 32)))


def test_reference_descriptions_differ():
    projection = query_projection(RngState(3), 32)
    a = embed_texts(projection, ["stack cups"])
    b = embed_texts(projection, ["open drawer"])
    assert not np.array_equal(a.data, b.data)


def test_empty_after_tokenize_rejected():
    with pytest.raises(ValueError, match="cannot embed empty task description"):
        bag_of_tokens("   ")


def test_gradients_reach_projection_not_table():
    projection = query_projection(RngState(5), 16)
    table_before = build_table().copy()
    out = embed_texts(projection, ["push the block", "lift the ball"])
    T.tsum(T.mul(out, out)).backward()
    assert projection["query.proj_w"].grad is not None
    assert projection["query.proj_b"].grad is not None
    assert np.array_equal(build_table(), table_before)


def test_projection_is_named_and_drawn_from_its_stream():
    """The projection's two tensors by checkpoint name: the weight drawn
    from the caller's stream, the bias zero."""
    a, b = query_projection(RngState(6), 8), query_projection(RngState(7), 8)
    assert list(a) == ["query.proj_w", "query.proj_b"]
    assert a["query.proj_w"].shape == (TEXT_DIM, 8) and a["query.proj_b"].shape == (8,)
    assert all(t.requires_grad for t in a.values())
    assert not np.array_equal(a["query.proj_w"].data, b["query.proj_w"].data)
    assert np.array_equal(a["query.proj_b"].data, np.zeros(8))
    rng, drawn = RngState(6), RngState(6)
    expected = rng.normal((TEXT_DIM, 8)) * (task_query._PROJ_SCALE / np.sqrt(TEXT_DIM))
    assert np.array_equal(query_projection(drawn, 8)["query.proj_w"].data, expected)
    assert drawn.state() == rng.state()  # the table draws nothing from the caller's stream


@settings(deadline=None, max_examples=25)
@given(st.lists(st.sampled_from("push lift slide stack open close the a ball cup".split()), min_size=1, max_size=6))
def test_embedding_deterministic(tokens):
    text = " ".join(tokens)
    projection = query_projection(RngState(8), 16)
    a = embed_texts(projection, [text])
    b = embed_texts(projection, [text])
    assert np.array_equal(a.data, b.data)


def test_each_description_is_bagged_once(monkeypatch):
    """Embedding a description again reuses its bag: the tokens are hashed
    on the first request only, and the reused bag embeds bitwise alike."""
    bag_of_tokens.cache_clear()
    hashed = []
    monkeypatch.setattr(task_query, "token_bucket", lambda tok, _f=task_query.token_bucket: hashed.append(tok) or _f(tok))
    projection = query_projection(RngState(9), 16)
    embed_texts(projection, ["push the block", "lift the ball"])
    again = embed_texts(projection, ["lift the ball", "push the block"])
    assert sorted(hashed) == sorted("push the block lift the ball".split())
    assert not bag_of_tokens("push the block").flags.writeable
    bag_of_tokens.cache_clear()
    fresh = embed_texts(query_projection(RngState(9), 16), ["lift the ball", "push the block"])
    assert np.array_equal(again.data, fresh.data)
