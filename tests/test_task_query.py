import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hralign import task_query
from hralign import tensor as T
from hralign.rng import RngState
from hralign.task_query import (
    N_BUCKETS,
    QueryEmbedder,
    TaskDescription,
    build_table,
    embed_texts,
    token_bucket,
)


def test_description_requires_text():
    with pytest.raises(ValueError):
        TaskDescription("", 0)


def test_token_bucket_in_range_and_stable():
    for token in ("stack", "cups", "Open", "DRAWER"):
        b = token_bucket(token)
        assert 0 <= b < N_BUCKETS
        assert b == token_bucket(token)


def test_table_identical_across_builds():
    assert np.array_equal(build_table(), build_table())


def test_bag_of_tokens_order_invariant():
    emb = QueryEmbedder.create(RngState(1), 32)
    a = embed_texts(emb, ["stack the cups"])
    b = embed_texts(emb, ["cups the stack"])
    assert np.array_equal(a.data, b.data)


def test_case_and_whitespace_normalized():
    emb = QueryEmbedder.create(RngState(1), 32)
    a = embed_texts(emb, ["Stack  The CUPS"])
    b = embed_texts(emb, ["stack the cups"])
    assert np.array_equal(a.data, b.data)


def test_zero_projection_zero_query():
    emb = QueryEmbedder.create(RngState(2), 32)
    emb.proj_w.data = np.zeros_like(emb.proj_w.data)
    emb.proj_b.data = np.zeros_like(emb.proj_b.data)
    out = embed_texts(emb, ["open the drawer"])
    assert np.array_equal(out.data, np.zeros((1, 32)))


def test_reference_descriptions_differ():
    emb = QueryEmbedder.create(RngState(3), 32)
    a = embed_texts(emb, ["stack cups"])
    b = embed_texts(emb, ["open drawer"])
    assert not np.array_equal(a.data, b.data)


def test_empty_after_tokenize_rejected():
    emb = QueryEmbedder.create(RngState(4), 32)
    with pytest.raises(ValueError):
        emb.bag_of_tokens("   ")


def test_gradients_reach_projection_not_table():
    emb = QueryEmbedder.create(RngState(5), 16)
    table_before = emb.table.copy()
    out = embed_texts(emb, ["push the block", "lift the ball"])
    T.tsum(T.mul(out, out)).backward()
    assert emb.proj_w.grad is not None
    assert emb.proj_b.grad is not None
    assert np.array_equal(emb.table, table_before)
    assert not emb.table.flags.writeable


def test_frozen_table_shared_between_instances():
    a = QueryEmbedder.create(RngState(6), 8)
    b = QueryEmbedder.create(RngState(7), 8)
    assert np.array_equal(a.table, b.table)
    assert not np.array_equal(a.proj_w.data, b.proj_w.data)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.sampled_from("push lift slide stack open close the a ball cup".split()), min_size=1, max_size=6))
def test_embedding_deterministic(tokens):
    text = " ".join(tokens)
    emb = QueryEmbedder.create(RngState(8), 16)
    a = embed_texts(emb, [text])
    b = embed_texts(emb, [text])
    assert np.array_equal(a.data, b.data)


def test_each_description_is_bagged_once(monkeypatch):
    """Embedding a description again reuses its bag: the tokens are hashed
    on the first request only, and the reused bag embeds bitwise alike."""
    hashed = []
    monkeypatch.setattr(task_query, "token_bucket", lambda tok, _f=task_query.token_bucket: hashed.append(tok) or _f(tok))
    emb = QueryEmbedder.create(RngState(9), 16)
    embed_texts(emb, ["push the block", "lift the ball"])
    again = embed_texts(emb, ["lift the ball", "push the block"])
    assert sorted(hashed) == sorted("push the block lift the ball".split())
    fresh = embed_texts(QueryEmbedder.create(RngState(9), 16), ["lift the ball", "push the block"])
    assert np.array_equal(again.data, fresh.data)
    assert not emb.bag_of_tokens("push the block").flags.writeable
