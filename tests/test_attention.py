import band_reference
import dense_reference
import glocal_reference
import numpy as np
import pytest
from autodiff_reference import scale
from dense_reference import merge_heads, split_heads

from stepsum.attention import (
    BAND_BLOCK,
    NO_GLOBAL,
    AttentionConfig,
    MhaParams,
    Segments,
    band_labels,
    band_pattern,
    banded_pair_count,
    bucket_matrix,
    etc_global_local_attention,
    glocal_attention,
    init_glocal_layer,
    init_mha,
    long_attention,
    membership_labels,
    multi_head_attention,
    post_norm_block,
    score_counter,
)
from stepsum.autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    bias_at,
    concat,
    matmul,
    mul,
    narrow,
    softmax,
    sum_all,
)
from stepsum.gradcheck import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def small_cfg(radius=2):
    return AttentionConfig(num_heads=2, model_dim=8, local_radius=radius,
                           relpos_vocab_size=12, max_distance=4)


# -- config and mask types ----------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        AttentionConfig(num_heads=3, model_dim=8, local_radius=1,
                        relpos_vocab_size=12, max_distance=4)


def test_config_rejects_tiny_relpos_vocab():
    with pytest.raises(ValueError):
        AttentionConfig(num_heads=2, model_dim=8, local_radius=1,
                        relpos_vocab_size=8, max_distance=4)


def test_mask_rejects_dead_query_row():
    params = init_mha(np.random.default_rng(0), 8, 0.1)
    x = Tensor(np.zeros((3, 8)))
    allowed = np.ones((3, 3), dtype=bool)
    allowed[1] = False
    with pytest.raises(ValueError, match="row 1"):
        multi_head_attention(x, x, x, allowed, params, 2)


# -- relative position buckets ------------------------------------------------


def test_bucket_center():
    assert bucket_matrix(np.array([5]), np.array([5]), 4)[0, 0] == 4


def test_bucket_clipping():
    clipped = bucket_matrix(np.array([0, 7]), np.array([0, 4, 7]), 4)
    assert clipped[0, 2] == clipped[0, 1] == 8
    assert clipped[1, 0] == 0


def test_bucket_matrix_matches_bruteforce():
    cases = [
        (np.arange(6), np.arange(6), 2),
        (np.array([5]), np.array([5]), 4),           # center
        (np.array([0, 7]), np.array([0, 4, 7]), 4),  # clipping on both sides
    ]
    for q_pos, k_pos, maxd in cases:
        got = bucket_matrix(q_pos, k_pos, maxd)
        assert got.shape == (q_pos.size, k_pos.size)
        for a, i in enumerate(q_pos):
            for b, j in enumerate(k_pos):
                off = max(-maxd, min(maxd, j - i))
                assert got[a, b] == off + maxd


# -- local windows ---------------------------------------------------------------


def _window_rows(pat):
    """Dense [len x len] attend matrix read off the pattern's slot mask."""
    rows = np.zeros((pat.length, pat.length), dtype=bool)
    i, w = np.nonzero(pat.valid)
    rows[i, i + w - pat.radius] = True
    return rows


def test_local_mask_rows():
    rows = _window_rows(band_pattern(np.arange(4), 1))
    assert rows[0].tolist() == [True, True, False, False]
    assert rows[1].tolist() == [True, True, True, False]


def test_local_mask_full_when_radius_covers():
    assert _window_rows(band_pattern(np.arange(5), 4)).all()


def test_local_mask_popcount_matches_clipped_window_sum():
    # sum of clipped windows: n*(2r+1) - r*(r+1) = 10*5 - 6 = 44
    brute = sum(1 for i in range(10) for j in range(10) if abs(i - j) <= 2)
    assert brute == 44
    assert banded_pair_count(10, 2) == brute
    assert band_pattern(np.arange(10), 2).count == brute


# -- dense multi-head attention -------------------------------------------------


def test_single_key_returns_value_row(rng):
    params = init_mha(rng, 8, 0.1)
    q = Tensor(rng.normal(size=(3, 8)))
    kv = Tensor(rng.normal(size=(1, 8)))
    out = multi_head_attention(q, kv, kv, np.ones((3, 1), bool),
                               params, 2)
    # softmax over one key is 1, so every query gets the projected value row
    projected = multi_head_attention(
        Tensor(rng.normal(size=(1, 8))), kv, kv,
        np.ones((1, 1), bool), params, 2)
    for row in out.data:
        np.testing.assert_allclose(row, projected.data[0], atol=1e-12)


def test_two_identical_keys_average_values(rng):
    params = init_mha(rng, 8, 0.1)
    q = Tensor(rng.normal(size=(2, 8)))
    key = rng.normal(size=8)
    k = Tensor(np.stack([key, key]))
    v = Tensor(rng.normal(size=(2, 8)))
    out = multi_head_attention(q, k, v, np.ones((2, 2), bool),
                               params, 2)
    # identical keys force 1/2-1/2 weights: same output as attending the mean value
    v_mean = Tensor(np.stack([v.data.mean(axis=0)]))
    want = multi_head_attention(q, Tensor(key[None, :]), v_mean,
                                np.ones((2, 1), bool), params, 2)
    np.testing.assert_allclose(out.data, want.data, atol=1e-12)


def test_dense_attention_gradients(rng):
    params = init_mha(rng, 8, 0.1, relpos_vocab=12, num_heads=2)
    q = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    k = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    v = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    labels = bucket_matrix(np.arange(6), np.arange(6), 4)
    mask = np.ones((6, 6), bool)
    probe = Tensor(rng.normal(size=(6, 8)))

    def loss():
        return sum_all(mul(multi_head_attention(q, k, v, mask, params, 2, labels),
                           probe))

    leaves = {"q": q, "k": k, "v": v, "wq": params.wq, "relpos": params.relpos}
    assert check_gradients(loss, leaves) == []


def test_mask_soundness_zeroing_masked_rows_bitwise(rng):
    params = init_mha(rng, 8, 0.1)
    q = Tensor(rng.normal(size=(4, 8)))
    k_data = rng.normal(size=(4, 8))
    v_data = rng.normal(size=(4, 8))
    allowed = np.ones((4, 4), dtype=bool)
    allowed[:, 3] = False
    out1 = multi_head_attention(q, Tensor(k_data), Tensor(v_data),
                                allowed, params, 2)
    k2, v2 = k_data.copy(), v_data.copy()
    k2[3] = 0.0
    v2[3] = 0.0
    out2 = multi_head_attention(q, Tensor(k2), Tensor(v2),
                                allowed, params, 2)
    assert np.array_equal(out1.data, out2.data)


def test_labels_on_masked_pairs_are_ignored(rng):
    params = init_mha(rng, 8, 0.1, relpos_vocab=12, num_heads=2)
    q = Tensor(rng.normal(size=(4, 8)))
    k = Tensor(rng.normal(size=(4, 8)))
    v = Tensor(rng.normal(size=(4, 8)))
    allowed = np.ones((4, 4), dtype=bool)
    allowed[:, 2] = False
    labels_a = bucket_matrix(np.arange(4), np.arange(4), 4)
    labels_b = labels_a.copy()
    labels_b[:, 2] = 11  # different labels where the mask blocks anyway
    out_a = multi_head_attention(q, k, v, allowed, params, 2, labels_a)
    out_b = multi_head_attention(q, k, v, allowed, params, 2, labels_b)
    assert np.array_equal(out_a.data, out_b.data)


def test_permutation_equivariance_without_labels(rng):
    params = init_mha(rng, 8, 0.1)
    q = Tensor(rng.normal(size=(5, 8)))
    k_data = rng.normal(size=(5, 8))
    v_data = rng.normal(size=(5, 8))
    mask = np.ones((5, 5), bool)
    out = multi_head_attention(q, Tensor(k_data), Tensor(v_data), mask, params, 2)
    perm = np.random.default_rng(3).permutation(5)
    out_kv = multi_head_attention(q, Tensor(k_data[perm]), Tensor(v_data[perm]),
                                  mask, params, 2)
    np.testing.assert_allclose(out.data, out_kv.data, atol=1e-12)
    out_q = multi_head_attention(Tensor(q.data[perm]), Tensor(k_data),
                                 Tensor(v_data), mask, params, 2)
    np.testing.assert_allclose(out.data[perm], out_q.data, atol=1e-12)


# -- banded primitives ----------------------------------------------------------


def test_band_pattern_examples():
    pat = band_pattern(np.arange(4), 1)
    assert pat.count == banded_pair_count(4, 1) == 10
    assert banded_pair_count(64, 3) == 64 * 7 - 2 * (3 + 2 + 1)


def test_band_pattern_positions_respects_gaps():
    # positions 0, 1, 9: the gap breaks the window
    pat = band_pattern(np.array([0, 1, 9]), 2)
    assert set(zip(*np.nonzero(_window_rows(pat)))) == {(0, 0), (0, 1), (1, 0), (1, 1),
                                                         (2, 2)}
    # positions 0, 1, 3: offsets across a gap narrower than the radius
    pat = band_pattern(np.array([0, 1, 3]), 2)
    assert _window_rows(pat).tolist() == [[True, True, False],
                                          [True, True, True],
                                          [False, True, True]]
    assert pat.offsets[1, 3] == 2 and pat.offsets[2, 1] == -2
    # the masked slots (0, 2) and (2, 0) are evaluated and counted
    assert pat.count == banded_pair_count(3, 2) == 9


def _long_inputs(rng, heads, n_query, n_long, n_glob, dim=4):
    """Random queries, long keys/values and global keys/values, [rows x heads*dim]."""
    def t(rows):
        return Tensor(rng.normal(size=(rows, heads * dim)), requires_grad=True)

    return t(n_query), t(n_long), t(n_long), t(n_glob), t(n_glob)


def _split_heads_around(op):
    """``op`` over head-axis operands, called as ``attention.long_attention`` is.

    The heads are split off the [rows x dim] inputs and merged back into
    the result by tape ops, so gradients reach the same leaves.
    """
    def run(q, k, v, kg, vg, relpos, *rest):
        heads = relpos.shape[1]
        return merge_heads(op(split_heads(q, heads), split_heads(k, heads),
                              split_heads(v, heads), split_heads(kg, heads, keys_last=True),
                              split_heads(vg, heads), relpos, *rest))

    return run


def test_banded_matches_dense_softmax_attention(rng):
    heads, length, dim, radius, n_glob = 2, 9, 4, 3, 2
    q, k, v, kg, vg = _long_inputs(rng, heads, length, length, n_glob, dim)
    pat = band_pattern(np.arange(length), radius)
    # a zero bias table, so scores are the scaled products alone
    relpos = Tensor(np.zeros((12, heads)))
    labels = np.zeros((length, pat.width + n_glob), dtype=np.int64)
    idx = np.arange(length)
    for enable_long_global in (True, False):
        out = long_attention(q, k, v, kg, vg, relpos, pat, np.array([0, length]),
                             np.array([0, n_glob]), labels, enable_long_global)
        assert out.shape == (length, heads * dim)
        for h in range(heads):
            cols = slice(h * dim, (h + 1) * dim)
            scores = q.data[:, cols] @ k.data[:, cols].T / np.sqrt(dim)
            band = np.where(np.abs(idx[:, None] - idx[None, :]) <= radius, scores, -np.inf)
            glob = q.data[:, cols] @ kg.data[:, cols].T / np.sqrt(dim)
            if not enable_long_global:
                glob[:] = -np.inf
            both = np.concatenate([band, glob], axis=1)
            e = np.exp(both - both.max(axis=1, keepdims=True))
            dense = (e / e.sum(axis=1, keepdims=True)) @ np.concatenate([v.data[:, cols],
                                                                         vg.data[:, cols]])
            np.testing.assert_allclose(out.data[:, cols], dense, atol=1e-12)


# -- per-offset slices against the gather-based reference ---------------------

REFERENCE_PATTERNS = {
    "no_gap": (np.arange(9), 3, None),
    # one gap narrower than the radius (3 -> 4), one wider (6 -> 20)
    "compacted_gaps": (np.array([0, 1, 2, 4, 5, 6, 20, 21, 22]), 3, None),
    "padded_active": (np.arange(10), 2, np.array([1, 1, 1, 0, 1, 0, 0, 1, 1, 1], bool)),
    "radius_0": (np.arange(5), 0, None),
    "radius_covers_rows": (np.arange(4), 6, None),
    # more rows than one block of the band ops holds
    "blocks": (np.r_[0:700, 702:1300], 3, None),
    "single_row": (np.arange(1), 2, None),
}


def _gather_long_attention(q, k, v, kg_t, vg, relpos, pat, labels):
    """The long part over one example from the gather-based band ops, on
    head-axis operands: the band's scores beside dense global products, one
    softmax, then each part applied."""
    W, n_glob = pat.width, vg.shape[1]
    s = concat([band_reference.banded_scores(q, k, pat), matmul(q, kg_t)], axis=-1)
    s = add(scale(s, 1.0 / np.sqrt(q.shape[-1])), bias_at(relpos, labels))
    a = softmax(s, -1)
    return add(band_reference.banded_apply(narrow(a, -1, 0, W), v, pat),
               matmul(narrow(a, -1, W, n_glob), vg))


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(REFERENCE_PATTERNS))
def test_banded_ops_match_gather_reference(rng, heads, name):
    """The reference runs over its stream as given, padding rows included; the
    band holds the active rows alone, at their positions."""
    positions, radius, active = REFERENCE_PATTERNS[name]
    n, dim, n_glob = positions.size, 4, 3
    keep = np.ones(n, dtype=bool) if active is None else active
    m = int(keep.sum())
    pat = band_pattern(positions[keep], radius)
    old = (band_reference.band_pattern_for_positions(positions, radius) if active is None
           else band_reference.band_pattern(n, radius, active))
    # the reference's pair (i, j) sits in slot ww of its row i; here in slot
    # j - i + r of the row that i keeps
    rank = np.cumsum(keep) - 1
    oi, ww = old.ii, old.ww
    i = rank[oi]
    w = rank[old.jj] - i + radius
    assert sorted(zip(*np.nonzero(pat.valid))) == sorted(zip(i, w))
    assert pat.count == banded_pair_count(m, radius)
    assert np.array_equal(band_labels(pat, 4)[i, w], band_reference.band_labels(old, 4)[oi, ww])

    def kept(t):
        return Tensor(t.data[keep], requires_grad=True)

    old_q, old_k, old_v, kg, vg = _long_inputs(rng, heads, n, n, n_glob, dim)
    q, k, v = kept(old_q), kept(old_k), kept(old_v)
    relpos = Tensor(rng.normal(size=(12, heads)), requires_grad=True)
    member = rng.integers(9, 11, size=(n, n_glob))
    labels = np.concatenate([band_labels(pat, 4), member[keep]], axis=1)
    old_labels = np.concatenate([band_reference.band_labels(old, 4), member], axis=1)
    # padding rows are probed by 0: they attend to the globals in the
    # reference alone
    old_probe = rng.normal(size=(n, heads * dim)) * keep[:, None]
    (out,), grads = _outputs_and_input_grads(
        lambda: (long_attention(q, k, v, kg, vg, relpos, pat, np.array([0, m]),
                                np.array([0, n_glob]), labels),),
        [q, k, v, kg, vg, relpos], [Tensor(old_probe[keep])])
    (old_out,), old_grads = _outputs_and_input_grads(
        lambda: (_split_heads_around(_gather_long_attention)(
            old_q, old_k, old_v, kg, vg, relpos, old, old_labels),),
        [old_q, old_k, old_v, kg, vg, relpos], [Tensor(old_probe)])

    np.testing.assert_allclose(out, old_out[keep], rtol=0, atol=1e-12)
    for got, want in zip(grads[:3], old_grads[:3]):
        np.testing.assert_allclose(got, want[keep], rtol=0, atol=1e-12)
        assert (want[~keep] == 0.0).all()  # padding rows get and give nothing
    for got, want in zip(grads[3:], old_grads[3:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# -- one long-attention op against the chain of ops it replaced ----------------


def _query_rows(kind, m):
    """Every row, two runs around one skipped row, every third row, or every
    other row: on the "blocks" pattern, 433 scattered queries fill one block
    of the band's key-side gradients and 649 span two."""
    if kind == "full":
        return None
    if kind == "runs":
        return np.delete(np.arange(m), m // 2) if m > 1 else np.arange(m)
    return np.arange(0, m, 3 if kind == "scattered" else 2)


@pytest.mark.parametrize("enable_long_global", [True, False])
@pytest.mark.parametrize("kind", ["full", "runs", "scattered", "every_other"])
@pytest.mark.parametrize("name", sorted(REFERENCE_PATTERNS))
def test_long_attention_matches_chain_reference(rng, name, kind, enable_long_global):
    """Bitwise, forward and every gradient, on two examples with 2 and 3
    globals; the second example's queries start halfway down the stream."""
    positions, radius, active = REFERENCE_PATTERNS[name]
    if active is not None:
        positions = positions[active]
    m, heads, g_off = positions.size, 2, np.array([0, 2, 5])
    pat = band_pattern(positions, radius)
    rows = _query_rows(kind, m)
    if rows is not None:
        pat = pat.at(rows)
        if name == "blocks":  # both ways a band indexes its query rows
            assert (pat.runs is None) == (kind != "runs")
            assert (rows.size > BAND_BLOCK) == (kind != "scattered")
    else:
        rows = np.arange(m)
    q_off = np.searchsorted(rows, [0, m // 2, m])
    q, k, v, kg, vg = _long_inputs(rng, heads, rows.size, m, int(g_off[-1]))
    relpos = Tensor(rng.normal(size=(12, heads)), requires_grad=True)
    labels = rng.integers(0, 12, size=(rows.size, pat.width + 3))
    probe = Tensor(rng.normal(size=(rows.size, heads * 4)))
    inputs = [q, k, v, kg, vg, relpos]

    def run(op):
        return (op(q, k, v, kg, vg, relpos, pat, q_off, g_off, labels,
                   enable_long_global),)

    (out,), grads = _outputs_and_input_grads(lambda: run(long_attention), inputs, [probe])
    (want,), want_grads = _outputs_and_input_grads(
        lambda: run(_split_heads_around(glocal_reference.long_attention)), inputs, [probe])
    assert out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        assert got.tobytes() == ref.tobytes()


# -- one global-local layer against the split-heads composition it replaced -------

# query rows of a stream of two examples (rows 0-12 and 13-21): every row,
# three runs, or scattered anchors with a single one in the second example
LAYER_QUERY_ROWS = {
    "full": None,
    "runs": np.r_[0:5, 6:17, 18:22],
    "anchors": np.array([3, 7, 11, 17]),
}


@pytest.mark.parametrize("enable_long_global", [True, False])
@pytest.mark.parametrize("update_global", [True, False])
@pytest.mark.parametrize("kind", sorted(LAYER_QUERY_ROWS))
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_glocal_matches_split_head_reference(heads, kind, update_global, enable_long_global):
    """Bitwise, both streams and every input and parameter gradient. The first
    example has one global, so one global query row, the second five. A
    product with one row takes BLAS's matrix-vector path, which at a head
    width of 2 (4 heads) gives other bits for a strided head operand."""
    rng = np.random.default_rng(heads)
    dim, radius = 8, 1
    cfg = AttentionConfig(num_heads=heads, model_dim=dim, local_radius=radius,
                          relpos_vocab_size=12, max_distance=4)
    params = init_mha(rng, dim, 0.5, 12, heads)
    for b in (params.bq, params.bk, params.bv, params.bo):
        b.data[:] = rng.normal(size=dim)
    segments = Segments.of([13, 9], [1, 5])
    sid = np.r_[rng.integers(NO_GLOBAL, 1, 13), rng.integers(NO_GLOBAL, 5, 9)]
    long = Tensor(rng.normal(size=(22, dim)), requires_grad=True)
    glob = Tensor(rng.normal(size=(6, dim)), requires_grad=True)
    pat = band_pattern(np.r_[0:13, 16:25], radius)
    rows = LAYER_QUERY_ROWS[kind]
    if rows is not None:
        pat = pat.at(rows)
        assert (pat.runs is None) == (kind == "anchors")
    n_query = 22 if rows is None else rows.size
    probes = [Tensor(rng.normal(size=(n_query, dim)))]
    if update_global:
        probes.append(Tensor(rng.normal(size=(6, dim))))
    inputs = [long, glob, *(getattr(params, f) for f in
                            ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "relpos"))]

    def run(layer):
        outs = layer(long, glob, sid, params, cfg, enable_long_global=enable_long_global,
                     pattern=pat, update_global=update_global, segments=segments)
        assert (outs[1] is None) != update_global
        return [o for o in outs if o is not None]

    outs, grads = _outputs_and_input_grads(lambda: run(glocal_attention), inputs, probes)
    want_outs, want_grads = _outputs_and_input_grads(
        lambda: run(glocal_reference.glocal_attention), inputs, probes)
    assert [o.tobytes() for o in outs] == [o.tobytes() for o in want_outs]
    for got, want in zip(grads, want_grads):
        assert got.tobytes() == want.tobytes()


# -- one dense-attention op against the chain of ops it replaced -------------------

# (query rows, key rows, operands): self-attention reads one tensor as queries,
# keys and values; a lone query row; more keys than queries, three tensors
DENSE_SHAPES = {"self": (5, 5, 1), "one_query": (1, 6, 2), "more_keys": (3, 7, 3)}


def _assert_dense_matches_chain(run, inputs, params, probe, with_labels=False):
    """Bitwise: the output and the gradient of every input and parameter the
    call reads; the relpos table only with labels."""
    leaves = inputs + [t for name, t in vars(params).items()
                       if name != "relpos" or with_labels]
    (out,), grads = _outputs_and_input_grads(lambda: (run(multi_head_attention),),
                                             leaves, [probe])
    (want,), want_grads = _outputs_and_input_grads(
        lambda: (run(dense_reference.multi_head_attention),), leaves, [probe])
    assert out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("with_labels", [False, True])
@pytest.mark.parametrize("shape", sorted(DENSE_SHAPES))
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_dense_attention_matches_chain_reference(heads, lead, shape, with_labels, masked):
    rng = np.random.default_rng(heads)
    dim = 8
    q_len, k_len, operands = DENSE_SHAPES[shape]
    params = init_mha(rng, dim, 0.5, 12, heads)
    q = Tensor(rng.normal(size=lead + (q_len, dim)), requires_grad=True)
    k = q if operands == 1 else Tensor(rng.normal(size=lead + (k_len, dim)),
                                       requires_grad=True)
    v = k if operands < 3 else Tensor(rng.normal(size=lead + (k_len, dim)),
                                      requires_grad=True)
    allowed = np.ones(lead + (q_len, k_len), dtype=bool)
    if masked:
        allowed = rng.random(allowed.shape) < 0.6
        allowed[..., 0] = True
        allowed[..., -1, -1] = False
    labels = rng.integers(0, 12, size=(q_len, k_len)) if with_labels else None
    probe = Tensor(rng.normal(size=lead + (q_len, dim)))
    inputs = list({id(t): t for t in (q, k, v)}.values())

    def run(mha):
        return mha(q, k, v, allowed, params, heads, labels)

    _assert_dense_matches_chain(run, inputs, params, probe, with_labels)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_dense_attention_matches_chain_at_the_sentence_encoders_last_layer(heads):
    """Token 0 of each sentence queries the sentence's real tokens."""
    rng = np.random.default_rng(heads)
    n, width, dim = 4, 6, 8
    params = init_mha(rng, dim, 0.5, num_heads=heads)
    x = Tensor(rng.normal(size=(n, width, dim)), requires_grad=True)
    valid = np.arange(width)[None, :] < np.array([6, 1, 3, 5])[:, None]
    mask = np.broadcast_to(valid[:, None, :], (n, width, width))[:, :1, :]
    probe = Tensor(rng.normal(size=(n, 1, dim)))

    def run(mha):
        return mha(narrow(x, 1, 0, 1), x, x, mask, params, heads)

    _assert_dense_matches_chain(run, [x], params, probe)


# -- head axis --------------------------------------------------------------------


def _single_head_params(params: MhaParams, heads: int, h: int) -> MhaParams:
    """Head ``h`` of ``params`` as a one-head block of the same width.

    Projection columns (and output rows) of other heads are zeroed, and the
    query projection is scaled by sqrt(heads) so the one-head 1/sqrt(dim)
    score scale equals the multi-head 1/sqrt(head_dim).
    """
    dim = params.wq.shape[0]
    dh = dim // heads
    keep = np.zeros(dim)
    keep[h * dh:(h + 1) * dh] = 1.0
    boost = np.sqrt(heads)
    return MhaParams(
        Tensor(params.wq.data * keep * boost), Tensor(params.bq.data * keep * boost),
        Tensor(params.wk.data * keep), Tensor(params.bk.data * keep),
        Tensor(params.wv.data * keep), Tensor(params.bv.data * keep),
        Tensor(params.wo.data * keep[:, None]),
        Tensor(params.bo.data * (1.0 if h == 0 else 0.0)),
        None if params.relpos is None else Tensor(params.relpos.data[:, h:h + 1]),
    )


def _outputs_and_input_grads(run, inputs, probes):
    for x in inputs:
        x.zero_grad()
    with Tape() as tape:
        outs = run()
        loss = sum_all(mul(outs[0], probes[0]))
        for o, p in zip(outs[1:], probes[1:]):
            loss = add(loss, sum_all(mul(o, p)))
        backward(tape, loss)
    return [o.data for o in outs], [x.grad.copy() for x in inputs]


def _assert_head_sum(run, params, heads, inputs, probes):
    """H-head outputs and input gradients equal the sum of one-head runs."""
    outs, grads = _outputs_and_input_grads(lambda: run(params, heads), inputs, probes)
    sum_outs = [np.zeros_like(o) for o in outs]
    sum_grads = [np.zeros_like(g) for g in grads]
    for h in range(heads):
        o1, g1 = _outputs_and_input_grads(
            lambda: run(_single_head_params(params, heads, h), 1), inputs, probes)
        for acc, x in zip(sum_outs + sum_grads, o1 + g1):
            acc += x
    for got, want in zip(outs + grads, sum_outs + sum_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("with_labels", [False, True])
def test_dense_heads_sum_of_single_heads(rng, batched, with_labels):
    heads, dim, q_len, k_len = 4, 8, 5, 6
    lead = (3,) if batched else ()
    params = init_mha(rng, dim, 0.3, relpos_vocab=12, num_heads=heads)
    q = Tensor(rng.normal(size=lead + (q_len, dim)), requires_grad=True)
    k = Tensor(rng.normal(size=lead + (k_len, dim)), requires_grad=True)
    v = Tensor(rng.normal(size=lead + (k_len, dim)), requires_grad=True)
    allowed = rng.random(lead + (q_len, k_len)) < 0.5
    allowed[..., 0] = True
    assert not allowed.all()
    labels = bucket_matrix(np.arange(q_len), np.arange(k_len), 4) if with_labels else None
    probe = Tensor(rng.normal(size=lead + (q_len, dim)))

    def run(p, h):
        return (multi_head_attention(q, k, v, allowed, p, h, labels),)

    _assert_head_sum(run, params, heads, [q, k, v], [probe])


@pytest.mark.parametrize("enable_long_global", [True, False])
def test_glocal_heads_sum_of_single_heads(rng, enable_long_global):
    heads, dim, length, n_glob = 2, 8, 11, 3
    params = init_mha(rng, dim, 0.3, 12, heads)
    long = Tensor(rng.normal(size=(length, dim)), requires_grad=True)
    glob = Tensor(rng.normal(size=(n_glob, dim)), requires_grad=True)
    # two examples in one stream: 5 rows with 1 global, then 6 rows with 2
    sid = np.array([0, 0, 0, 0, -1, 0, 0, 1, 1, 1, -1])
    positions = np.r_[0:5, 8:14]
    segments = Segments.of([5, 6], [1, 2])
    probes = [Tensor(rng.normal(size=(length, dim))), Tensor(rng.normal(size=(n_glob, dim)))]

    def run(p, h):
        cfg = AttentionConfig(num_heads=h, model_dim=dim, local_radius=2,
                              relpos_vocab_size=12, max_distance=4)
        return glocal_attention(long, glob, sid, p, cfg,
                                pattern=band_pattern(positions, 2), segments=segments,
                                enable_long_global=enable_long_global)

    _assert_head_sum(run, params, heads, [long, glob], probes)


# -- global-local ----------------------------------------------------------------


def test_glocal_rejects_empty_global():
    cfg = small_cfg()
    params = init_mha(np.random.default_rng(0), 8, 0.1, 12, 2)
    with pytest.raises(ValueError):
        glocal_attention(Tensor(np.zeros((3, 8))), Tensor(np.zeros((0, 8))),
                         np.zeros(3, dtype=np.int64), params, cfg)


def test_glocal_rejects_sentence_ids_out_of_range():
    cfg = small_cfg()
    params = init_mha(np.random.default_rng(0), 8, 0.1, 12, 2)
    long, glob = Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 8)))
    glocal_attention(long, glob, np.array([NO_GLOBAL, 0, 1]), params, cfg)
    for bad in ([NO_GLOBAL - 1, 0, 1], [0, 2, 1]):
        with pytest.raises(ValueError, match="sentence_id"):
            glocal_attention(long, glob, np.array(bad), params, cfg)


def test_glocal_one_global_one_long_gradients(rng):
    cfg = small_cfg()
    params = init_mha(rng, 8, 0.1, 12, 2)
    long = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
    glob = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
    probe = Tensor(rng.normal(size=(1, 8)))

    def loss():
        lo, go = glocal_attention(long, glob, np.zeros(1, dtype=np.int64),
                                  params, cfg)
        return sum_all(mul(mul(lo, probe), mul(go, probe)))

    assert check_gradients(loss, {"long": long, "glob": glob}) == []


def test_masked_links_cut_both_directions(rng):
    cfg = small_cfg()
    params = init_mha(rng, 8, 0.3, 12, 2)
    long_data = rng.normal(size=(9, 8))
    sid = np.zeros(9, dtype=np.int64)
    outs = [glocal_attention(Tensor(long_data), Tensor(rng.normal(size=(2, 8))), sid,
                             params, cfg, enable_long_global=False) for _ in range(2)]
    # long rows see only their window, whatever the globals hold
    assert np.array_equal(outs[0][0].data, outs[1][0].data)
    glob = Tensor(rng.normal(size=(2, 8)))
    g1 = glocal_attention(Tensor(long_data), glob, sid, params, cfg,
                          enable_long_global=False)[1]
    g2 = glocal_attention(Tensor(long_data + 1.0), glob, sid, params, cfg,
                          enable_long_global=False)[1]
    # global rows see only the globals, whatever the long stream holds
    assert np.array_equal(g1.data, g2.data)


def test_instrumented_count_L64_r3():
    cfg = small_cfg(radius=3)
    rng = np.random.default_rng(2)
    params = init_mha(rng, 8, 0.1, 12, 2)
    long = Tensor(rng.normal(size=(64, 8)))
    glob = Tensor(rng.normal(size=(1, 8)))
    score_counter.reset()
    glocal_attention(long, glob, np.zeros(64, dtype=np.int64), params, cfg)
    assert score_counter.get("long_to_long") == 436


def test_glocal_other_example_influences_nothing(rng):
    """Two examples share a stream: position distance cuts the band between
    them, and the global parts keep to each example's own rows."""
    cfg = small_cfg()
    layer = init_glocal_layer(rng, cfg, 16, 0.1)
    sid = np.array([0, 0, 1, 1, 1, 0, 0, 0, 0])
    positions = np.r_[0:5, 8:12]  # 3 apart, past radius 2
    segments = Segments.of([5, 4], [2, 1])
    base, base_glob = rng.normal(size=(9, 8)), rng.normal(size=(3, 8))

    def run(long, glob):
        return etc_global_local_attention(Tensor(long), Tensor(glob), sid, layer, cfg,
                                          pattern=band_pattern(positions, cfg.local_radius),
                                          segments=segments)

    lo1, go1 = run(base, base_glob)
    long, glob = base.copy(), base_glob.copy()
    long[5:] = 123.0
    glob[2:] = -7.0
    lo2, go2 = run(long, glob)
    assert np.array_equal(lo1.data[:5], lo2.data[:5])
    assert np.array_equal(go1.data[:2], go2.data[:2])
    # each example computes what it computes on its own
    alone, alone_glob = etc_global_local_attention(
        Tensor(base[:5]), Tensor(base_glob[:2]), sid[:5], layer, cfg)
    np.testing.assert_allclose(lo1.data[:5], alone.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(go1.data[:2], alone_glob.data, rtol=0, atol=1e-12)


def dense_padded_layer(long, glob, active, sentence_id, layer, cfg):
    """One global-local layer as one dense masked attention over [long | globals].

    ``long`` holds a row per layout slot and ``active`` marks the occupied
    ones; an empty slot attends to itself alone and nothing attends to it.
    """
    n, g = long.shape[0], glob.shape[0]
    idx = np.arange(n)
    band = (np.abs(idx[:, None] - idx[None, :]) <= cfg.local_radius) & active & active[:, None]
    member = membership_labels(sentence_id, g, cfg)
    mask = np.ones((n + g, n + g), dtype=bool)
    mask[:n, :n] = band | np.eye(n, dtype=bool)
    mask[:n, n:] = active[:, None]
    mask[n:, :n] = active
    labels = np.block([[bucket_matrix(idx, idx, cfg.max_distance), member],
                       [member.T, bucket_matrix(np.arange(g), np.arange(g), cfg.max_distance)]])
    both = concat([long, glob], axis=0)
    out = post_norm_block(both, multi_head_attention(both, both, both, mask, layer.attn,
                                                     cfg.num_heads, labels),
                          layer.ln_attn, layer.ffn, layer.ln_ffn)
    return narrow(out, 0, 0, n), narrow(out, 0, n, g)


def test_two_layer_compacted_equals_padded(rng):
    """Compaction is an encoding choice, not a model change."""
    from stepsum.autodiff import take
    from stepsum.config import config_from_dict
    from stepsum.etc_encoder import StepwiseEtc, assemble_input

    layouts = [
        ([[10, 11], [12, 13, 14]], 2, False),
        # 1 + 17 tokens leave 2 empty slots before [SEP], inside radius 3
        ([[10, 11, 12, 13, 14, 15], [16, 17, 18, 19, 20, 21], [22, 23, 24, 25, 26]], 3,
         True),
    ]
    for doc_units, radius, narrow_gap in layouts:
        cfg = config_from_dict(dict(encoder="etc", dim=8, num_heads=2, ffn_dim=16,
                                    etc_layers=2, long_budget=20, summary_budget=10,
                                    global_cap=8, local_radius=radius, relpos_vocab_size=12,
                                    relpos_max_distance=4))
        model = StepwiseEtc(cfg, 30, rng)
        asm = assemble_input(doc_units, [[12]], [[2]], 1,
                             long_budget=20, summary_budget=10, global_cap=8,
                             cls_id=5, sep_id=6, beg_id=4, eos_id=3)
        compact = model.etc_encode([asm]).data
        # does some valid slot's position offset differ from its index offset?
        pat = band_pattern(asm.position, radius)
        index_offset = np.arange(pat.width) - radius
        assert (pat.valid & (pat.offsets != index_offset)).any() == narrow_gap

        # padded reference: rows back at their layout positions, padding rows
        # (id 0, no global) in the empty slots, dense attention over both streams
        total = int(asm.position[-1]) + 1
        active = np.zeros(total, dtype=bool)
        active[asm.position] = True
        ids = np.zeros(total, dtype=np.int64)
        ids[asm.position] = asm.long_ids
        sentence_id = np.full(total, NO_GLOBAL, dtype=np.int64)
        sentence_id[asm.position] = asm.sentence_id
        long = take(model.params.token, ids)
        glob = take(model.params.global_kind, asm.global_kind)
        for layer in model.params.layers:
            long, glob = dense_padded_layer(long, glob, active, sentence_id, layer,
                                            model.attention)
        padded = long.data[asm.position[asm.candidate_anchor]]
        np.testing.assert_allclose(compact, padded, atol=1e-12)


# -- empty long streams -------------------------------------------------------------


def test_band_at_no_rows_gives_no_long_rows_and_the_global_stream(rng):
    """A layer whose rows are all carried over still updates the global stream:
    no long row, and the global stream bitwise that of the full band, over
    two examples; its gradients reach the long rows through the globals."""
    cfg = small_cfg()
    layer = init_glocal_layer(rng, cfg, 16, 0.3)
    segments = Segments.of([7, 5], [2, 3])
    sid = np.r_[np.arange(7) // 4, np.arange(5) % 3]
    long = Tensor(rng.normal(size=(12, 8)), requires_grad=True)
    glob = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    probe = Tensor(rng.normal(size=(5, 8)))
    full = band_pattern(np.r_[0:7, 10:15], cfg.local_radius)
    none = full.at(np.array([], dtype=np.int64))
    assert none.count == 0 and none.valid.shape == (0, 5)

    def run(pattern):
        out, glob_out = etc_global_local_attention(long, glob, sid, layer, cfg,
                                                   pattern=pattern, segments=segments)
        return [glob_out], out.shape

    score_counter.reset()
    (got,), shape = run(none)
    assert shape == (0, 8)
    assert score_counter.get("long_to_long") == score_counter.get("long_to_global") == 0
    assert score_counter.get("global") == 2 * (2 + 7) + 3 * (3 + 5)
    (want,), _ = run(full)
    assert np.array_equal(got.data, want.data)
    inputs = [long, glob, layer.attn.wk, layer.attn.relpos]
    _, grads = _outputs_and_input_grads(lambda: run(none)[0], inputs, [probe])
    _, want_grads = _outputs_and_input_grads(lambda: run(full)[0], inputs, [probe])
    for g, w in zip(grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    attended, _ = glocal_attention(long, glob, sid, layer.attn, cfg, pattern=none,
                                   update_global=False, segments=segments)
    assert attended.shape == (0, 8)


def test_glocal_rejects_a_long_stream_with_no_rows(rng):
    cfg = small_cfg()
    params = init_mha(rng, 8, 0.5, 12, 2)
    glob = Tensor(rng.normal(size=(2, 8)))
    with pytest.raises(ValueError, match="long stream holds no rows"):
        glocal_attention(Tensor(np.zeros((0, 8))), glob, np.zeros(0, dtype=np.int64),
                         params, cfg)
