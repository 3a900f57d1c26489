"""Attention blocks: dense masked multi-head, banded local, and global-local.

The banded long-to-long path computes each query's clipped window as 2r+1
index-offset slots, one product per run of query rows over a window view of
the key rows, so its cost is linear in sequence length for a fixed radius; a
mask drops slots whose rows lie more than the radius apart in original
position. A band may also hold the queries of some rows only, and is then
built at those rows alone, while its keys stay every row: a stack's upper
layers compute the rows their readers use, and the flat encoder's first
layer splits its rows into a prefix-independent run and the rest. Scattered
query rows gather their windows. Whether a global-local layer updates the
global stream is its own switch, apart from which rows query, and a caller
that carries some rows' keys and values over from an earlier call passes
them in.

Each query stream of a global-local layer is one op, forward and backward:
``long_attention`` for the long rows (band plus their example's globals) and
``global_attention`` for the global rows. A global-local call may carry
several examples end to end (``Segments``): their long rows in one stream
and their global rows in another. Position distance keeps the band within an
example, and both ops loop over the examples for their global products, so
every row-wise step (projections, band, layer norm, feed-forward) runs once
over all examples, and each example's products have the shapes they have on
their own. A module-level counter tracks how many (query, key) score entries
each call actually evaluates, per attention part, masked slots included,
which lets tests pin the sparse paths to their closed-form pattern sizes.
Head count is a constant factor and is excluded from the counts.

Every attention part runs on all heads at once, as one op between its
projections: ``dense_attention`` over any leading batch axes, and the two
global-local ops. Each reads head ``h`` of a [... x rows x dim] projection
in place, as its columns ``h*d:(h+1)*d``, and writes [... x rows x dim]
results, so no layer splits or merges heads on the tape. Inside them, the
products take contiguous per-head copies of their operands (the whole
projections in dense attention, the rows each global product needs in the
global-local ops), which keeps BLAS on the operand layouts, and so the
bits, of a head-axis array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import (
    MASK_NEG,
    Tensor,
    apply_op,
    concat_rows,
    feed_forward as ffn_op,
    layer_norm,
    linear,
    take,
)

LABEL_MEMBER_OFFSET = 1   # label index 2*max_distance + 1: token belongs to the sentence
LABEL_OTHER_OFFSET = 2    # label index 2*max_distance + 2: any other long/global pair
NO_GLOBAL = -1            # sentinel sentence id for tokens past the global budget


class ScoreCounter:
    """Counts evaluated attention-score entries, keyed by attention part."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, part: str, n: int) -> None:
        self.counts[part] = self.counts.get(part, 0) + int(n)

    def get(self, part: str) -> int:
        return self.counts.get(part, 0)

    def reset(self) -> None:
        self.counts.clear()


score_counter = ScoreCounter()


@dataclass(frozen=True)
class AttentionConfig:
    """Shape and sparsity settings shared by all attention calls of a model.

    ``max_distance`` bounds the clipped relative offsets; the two structural
    labels used by long/global links sit right after the 2*max_distance + 1
    positional labels, so the vocabulary must leave room for them.
    """

    num_heads: int
    model_dim: int
    local_radius: int
    relpos_vocab_size: int
    max_distance: int

    def __post_init__(self) -> None:
        if self.model_dim % self.num_heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.relpos_vocab_size < 3:
            raise ValueError("relpos_vocab_size must be at least 3")
        if self.local_radius < 0:
            raise ValueError("local_radius must be non-negative")
        if self.max_distance < 1:
            raise ValueError("max_distance must be at least 1")
        if 2 * self.max_distance + 3 > self.relpos_vocab_size:
            raise ValueError(
                f"relpos vocabulary {self.relpos_vocab_size} too small for "
                f"max_distance {self.max_distance} plus 2 structural labels"
            )

    @property
    def member_label(self) -> int:
        return 2 * self.max_distance + LABEL_MEMBER_OFFSET

    @property
    def other_label(self) -> int:
        return 2 * self.max_distance + LABEL_OTHER_OFFSET


def bucket_matrix(q_pos: np.ndarray, k_pos: np.ndarray, max_distance: int) -> np.ndarray:
    """Label per (query, key): the offset k - q clipped into [0, 2*max_distance]."""
    off = np.asarray(k_pos)[None, :] - np.asarray(q_pos)[:, None]
    return np.clip(off, -max_distance, max_distance) + max_distance


def banded_pair_count(n: int, radius: int, rows: np.ndarray | None = None) -> int:
    """Closed-form number of (i, j) pairs of [0, n) with |i - j| <= radius.

    ``rows`` limits i to those rows; by default i ranges over every row.
    """
    idx = np.arange(n) if rows is None else np.asarray(rows)
    lo = np.maximum(idx - radius, 0)
    hi = np.minimum(idx + radius, n - 1)
    return int((hi - lo + 1).sum())


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class MhaParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    relpos: Tensor | None = None  # [relpos_vocab_size x num_heads] bias table


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


def init_mha(rng: np.random.Generator, dim: int, std: float,
             relpos_vocab: int | None = None, num_heads: int = 1) -> MhaParams:
    def w() -> Tensor:
        return Tensor(rng.normal(0.0, std, size=(dim, dim)), requires_grad=True)

    def b() -> Tensor:
        return Tensor(np.zeros(dim), requires_grad=True)

    relpos = None
    if relpos_vocab is not None:
        relpos = Tensor(rng.normal(0.0, std, size=(relpos_vocab, num_heads)),
                        requires_grad=True)
    return MhaParams(w(), b(), w(), b(), w(), b(), w(), b(), relpos)


def init_ffn(rng: np.random.Generator, dim: int, hidden: int, std: float) -> FfnParams:
    return FfnParams(
        Tensor(rng.normal(0.0, std, size=(dim, hidden)), requires_grad=True),
        Tensor(np.zeros(hidden), requires_grad=True),
        Tensor(rng.normal(0.0, std, size=(hidden, dim)), requires_grad=True),
        Tensor(np.zeros(dim), requires_grad=True),
    )


def init_layer_norm(dim: int) -> LayerNormParams:
    return LayerNormParams(
        Tensor(np.ones(dim), requires_grad=True),
        Tensor(np.zeros(dim), requires_grad=True),
    )


@dataclass
class LayerParams:
    """One post-norm transformer layer, of hibert's sentence stack or the etc stack."""

    attn: MhaParams
    ln_attn: LayerNormParams
    ffn: FfnParams
    ln_ffn: LayerNormParams


def init_layer(rng: np.random.Generator, dim: int, ffn_dim: int, std: float,
               relpos_vocab: int | None = None, num_heads: int = 1) -> LayerParams:
    return LayerParams(
        attn=init_mha(rng, dim, std, relpos_vocab, num_heads),
        ln_attn=init_layer_norm(dim),
        ffn=init_ffn(rng, dim, ffn_dim, std),
        ln_ffn=init_layer_norm(dim),
    )


def feed_forward(x: Tensor, p: FfnParams) -> Tensor:
    return ffn_op(x, p.w1, p.b1, p.w2, p.b2)


def add_norm(x: Tensor, y: Tensor, p: LayerNormParams) -> Tensor:
    """Residual then layer norm, ``norm(x + y)``, as one op."""
    return layer_norm(x, y, p.gain, p.bias)


def post_norm_block(x: Tensor, attended: Tensor, ln_attn: LayerNormParams,
                    ffn: FfnParams, ln_ffn: LayerNormParams) -> Tensor:
    """The tail of a post-norm layer, given its attention result.

    Residual and norm around ``attended``, then around the feed-forward.
    """
    x = add_norm(x, attended, ln_attn)
    return add_norm(x, feed_forward(x, ffn), ln_ffn)


# ---------------------------------------------------------------------------
# heads in place, and dense multi-head attention
# ---------------------------------------------------------------------------


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _by_head(x: np.ndarray, heads: int) -> np.ndarray:
    """The [... x rows x dim] array ``x`` as a [... x heads x rows x head_dim] view."""
    *lead, n, dim = x.shape
    return np.swapaxes(x.reshape(*lead, n, heads, dim // heads), -3, -2)


def _keys_last(k: np.ndarray, heads: int) -> np.ndarray:
    """[... x rows x dim] keys as a contiguous [... x heads x head_dim x rows] copy."""
    return np.ascontiguousarray(_swap(_by_head(k, heads)))


def _merged(x: np.ndarray) -> np.ndarray:
    """[... x heads x rows x head_dim] as a contiguous [... x rows x dim] copy."""
    *lead, heads, n, dh = x.shape
    return np.ascontiguousarray(np.swapaxes(x, -3, -2)).reshape(*lead, n, heads * dh)


def dense_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, allowed: np.ndarray,
                    relpos: Tensor | None = None, labels: np.ndarray | None = None) -> Tensor:
    """Every head's masked softmax attention, as one op, before the output projection.

    ``q`` is [... x q_len x dim] and ``k``/``v`` [... x k_len x dim], each
    as its projection returns it; head ``h`` reads columns ``h*d:(h+1)*d``,
    d = dim / heads, and the result is [... x q_len x dim]. ``allowed`` is
    the boolean key mask, broadcast to [... x q_len x k_len]; ``relpos`` and
    the [q_len x k_len] ``labels`` give the optional relative-position
    bias. The op takes contiguous per-head copies of its operands, keys as
    [... x heads x d x k_len], and runs the scores, scale, bias, mask,
    softmax and apply over them in place, forward and backward, with the
    products and reductions a chain of one op per step takes.
    """
    qh, vh = (np.ascontiguousarray(_by_head(t.data, num_heads)) for t in (q, v))
    k_t = _keys_last(k.data, num_heads)
    c = 1.0 / math.sqrt(qh.shape[-1])
    y = qh @ k_t
    y *= c
    if labels is not None:
        y += np.take(relpos.data.T, labels, axis=1)
    if not allowed.all():
        y += np.where(allowed, 0.0, MASK_NEG)[..., None, :, :]
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = _merged(y @ vh)

    def back(g, accum):
        go = np.ascontiguousarray(_by_head(g, num_heads))
        gy = go @ _swap(vh)
        g_v = _swap(y) @ go
        gs = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        if labels is not None:
            table = relpos.data
            slots = labels * num_heads + np.arange(num_heads)[:, None, None]
            accum(relpos, np.bincount(np.broadcast_to(slots, gs.shape).ravel(),
                                      weights=gs.ravel(), minlength=table.size
                                      ).reshape(table.shape))
        gs *= c
        accum(q, _merged(gs @ _swap(k_t)))
        accum(k, _merged(_swap(_swap(qh) @ gs)))
        accum(v, _merged(g_v))

    inputs = (q, k, v) if labels is None else (q, k, v, relpos)
    return apply_op(out, inputs, back, what="dense_attention")


def multi_head_attention(q_in: Tensor, k_in: Tensor, v_in: Tensor, mask: np.ndarray,
                         params: MhaParams, num_heads: int,
                         labels: np.ndarray | None = None) -> Tensor:
    """Masked scaled dot-product attention with optional relative-position bias.

    Inputs are [len x dim] or batched [... x len x dim]; the boolean mask must
    broadcast to the [... x q_len x k_len] score shape and every query row
    must keep at least one allowed key. Masked pairs receive a large negative
    additive term before the softmax, which underflows to an exact zero
    weight; an all-allowed mask adds nothing. ``labels`` is a [q_len x k_len]
    integer array of relative-position labels, whatever masked pairs hold.
    """
    dim = q_in.shape[-1]
    if dim % num_heads != 0:
        raise ValueError(f"dim {dim} not divisible by {num_heads} heads")
    lead = q_in.shape[:-2]
    q_len = q_in.shape[-2]
    k_len = k_in.shape[-2]

    allowed = np.asarray(mask, dtype=bool)
    dead = np.flatnonzero(~allowed.reshape(-1, allowed.shape[-1]).any(axis=1))
    if dead.size:
        raise ValueError(f"mask query row {int(dead[0])} has no allowed keys")
    if allowed.shape[-2:] != (q_len, k_len):
        raise ValueError(f"mask shape {allowed.shape} does not end in ({q_len}, {k_len})")
    if labels is not None:
        if params.relpos is None:
            raise ValueError("labels given but params carry no relpos table")
        labels = np.asarray(labels)
        if labels.shape != (q_len, k_len):
            raise ValueError(f"labels shape {labels.shape} != ({q_len}, {k_len})")
        if labels.size and (labels.min() < 0 or labels.max() >= params.relpos.shape[0]):
            raise ValueError(f"labels out of range [0, {params.relpos.shape[0]})")

    score_counter.add("dense", int(np.prod(lead, dtype=np.int64)) * q_len * k_len)

    attended = dense_attention(linear(q_in, params.wq, params.bq),
                               linear(k_in, params.wk, params.bk),
                               linear(v_in, params.wv, params.bv),
                               num_heads, allowed, params.relpos, labels)
    return linear(attended, params.wo, params.bo)


# ---------------------------------------------------------------------------
# banded (local-window) attention primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandPattern:
    """A clipped local window laid out as [queries x (2r+1)] index-offset slots.

    Keys are the rows of a stream, at original ``positions``. A full band
    has one query per row; a band at some rows has queries at those rows
    only, and ``rows`` names them. ``runs`` lists the queries as runs of
    consecutive rows, ``(first query, first row, length)``, or is None for
    scattered rows: runs as long as the window on average index with
    slices, shorter ones (a stack's anchors) with integer arrays. Slot ``w``
    of the query at row ``i`` is key row ``i + w - r``. ``valid`` marks the
    slots that attend: the key row exists and the two rows' original
    positions lie within ``radius`` of each other. ``offsets`` holds each
    slot's original-position offset, which ``band_labels`` clips; it is
    meaningful only where ``valid`` holds. Positions are strictly
    increasing, so every pair within ``radius`` in position is within
    ``radius`` in index and owns a slot.
    """

    radius: int
    positions: np.ndarray
    valid: np.ndarray
    offsets: np.ndarray
    runs: tuple[tuple[int, int, int], ...] | None
    rows: np.ndarray | None = None  # None: every row is a query, in order

    @property
    def length(self) -> int:
        return self.positions.size

    @property
    def width(self) -> int:
        return 2 * self.radius + 1

    @property
    def count(self) -> int:
        """Band slots evaluated: every slot whose neighbour row exists."""
        return banded_pair_count(self.length, self.radius, self.rows)

    def at(self, rows: np.ndarray) -> "BandPattern":
        """This full band with queries at ``rows`` only; keys stay every row."""
        if self.rows is not None:
            raise ValueError("a band's query rows come from a full band")
        return band_pattern(self.positions, self.radius, rows=rows)

    def query_rows(self, x: Tensor) -> Tensor:
        """The rows of the [length x ...] stream ``x`` that query this band."""
        if self.rows is None:
            return x
        if self.rows.size == 0:
            return Tensor(x.data[:0])
        if self.runs is None:
            return take(x, self.rows)
        return concat_rows([(x, row, n) for _, row, n in self.runs])


def band_pattern(positions: np.ndarray, radius: int, *,
                 rows: np.ndarray | None = None) -> BandPattern:
    """The band over rows at strictly increasing original ``positions``.

    Its queries are the strictly increasing ``rows``, by default every row;
    only their slots are built. A compacted stream passes the original
    positions of the rows it kept, so compaction changes neither which
    pairs attend nor their labels; rows more than ``radius`` apart in
    position never attend, which is what keeps the examples of one stream
    apart.
    """
    pos = np.asarray(positions, dtype=np.int64)
    n, width = pos.size, 2 * radius + 1
    runs: tuple[tuple[int, int, int], ...] | None = ((0, 0, n),)
    if rows is None:
        queries = np.arange(n)
    else:
        queries = rows = np.asarray(rows, dtype=np.int64)
        if np.any(np.diff(rows) <= 0):
            raise ValueError("a band's query rows are strictly increasing")
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
        runs = None
        if starts.size and rows.size >= width * starts.size:
            ends = np.append(starts[1:], rows.size)
            runs = tuple((int(a), int(rows[a]), int(b - a)) for a, b in zip(starts, ends))
    nb = queries[:, None] + np.arange(-radius, radius + 1)
    inside = (nb >= 0) & (nb < n)
    nb = np.clip(nb, 0, max(n - 1, 0))
    offsets = pos[nb] - pos[queries][:, None]
    return BandPattern(radius, pos, inside & (np.abs(offsets) <= radius), offsets, runs, rows)


# query rows per block of the band's key-side gradients: each key row sums
# its terms block by block, and a block's terms slot by slot
BAND_BLOCK = 512


def band_labels(pat: BandPattern, max_distance: int) -> np.ndarray:
    """Per-slot labels: each slot's original-position offset, clipped."""
    return np.clip(pat.offsets, -max_distance, max_distance) + max_distance


# ---------------------------------------------------------------------------
# global-local attention
# ---------------------------------------------------------------------------


def membership_labels(sentence_id: np.ndarray, n_global: int,
                      cfg: AttentionConfig) -> np.ndarray:
    """[long x global] labels: belongs-to-sentence vs other."""
    member = sentence_id[:, None] == np.arange(n_global)[None, :]
    return np.where(member, cfg.member_label, cfg.other_label)


@dataclass(frozen=True)
class Segments:
    """Examples laid end to end in a (long, global) pair of streams.

    Example ``b`` owns long rows ``long[b]:long[b + 1]`` and global rows
    ``glob[b]:glob[b + 1]``, and its sentence ids number its own global rows
    from 0. Its long rows attend to its own globals, and its globals to its
    own globals and long rows. The band keeps examples apart by position
    alone, so each example's positions start more than the radius past the
    previous example's last one.
    """

    long: np.ndarray
    glob: np.ndarray

    @classmethod
    def of(cls, long_sizes, glob_sizes) -> "Segments":
        def offsets(sizes) -> np.ndarray:
            return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))

        return cls(offsets(long_sizes), offsets(glob_sizes))


def _spans(q_off: np.ndarray, g_off: np.ndarray):
    """(query rows, global rows, global count) of every example with queries."""
    for b in range(q_off.size - 1):
        if q_off[b] < q_off[b + 1]:
            yield (slice(q_off[b], q_off[b + 1]), slice(g_off[b], g_off[b + 1]),
                   int(g_off[b + 1] - g_off[b]))


def _block(view: np.ndarray, rows) -> np.ndarray:
    """Rows ``rows`` of a [heads x rows x d] view, as a contiguous copy.

    Each head's rows then lie as in a head-axis array. BLAS's matrix-vector
    path (a product with one row or one column) gives other bits for a
    matrix read at a wider row stride, so the global products take their
    head operands this way.
    """
    return np.ascontiguousarray(view[:, rows])


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """Read-only [heads x windows x width x d] view of a [heads x rows x d] array:
    slot ``w`` of window ``i`` is row ``i + w``, and the head dimension stays
    innermost, so a product over it sums as one of two contiguous rows does."""
    return np.moveaxis(sliding_window_view(x, width, axis=1), -1, 2)


def _band_windows(pat: BandPattern, heads: int, dim: int):
    """A function from [rows x dim] keys or values to their band windows.

    It returns (queries, windows) for each run of the band, or once for all
    its scattered queries. Slot ``w`` of the [heads x queries x (2r+1) x d]
    window of the query at row ``i`` is row ``i + w - r``, or zeros past
    either end of the stream. Each call copies the rows into one padded
    buffer, allocated once: a run's windows are a read-only view of it, and
    scattered queries gather theirs into a second buffer.
    """
    n, r, W = pat.length, pat.radius, pat.width
    pad = np.empty((n + 2 * r, dim))
    pad[:r] = pad[n + r:] = 0.0
    if pat.runs is None:
        rows = pat.rows[:, None] + np.arange(W)
        gathered = np.empty((*rows.shape, dim))
        views = [(slice(0, rows.shape[0]),
                  np.moveaxis(gathered.reshape(*rows.shape, heads, dim // heads), 2, 0))]
    else:
        win = _windows(_by_head(pad, heads), W)
        views = [(slice(q0, q0 + size), win[:, r0:r0 + size]) for q0, r0, size in pat.runs]

    def windows(x: np.ndarray):
        pad[r:r + n] = x
        if pat.runs is None:
            np.take(pad, rows, axis=0, out=gathered, mode="clip")
        return views

    return windows


def _band_key_grad(pat: BandPattern, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The band's [length x dim] key-side sum of ``weights`` times ``x``.

    Query ``q`` at row ``i`` adds ``weights[:, q, w] * x[:, q]`` to key row
    ``i + w - r``, for [heads x queries x (2r+1)] ``weights`` and [heads x
    queries x d] ``x``. Every key row sums its terms block by block of
    ``BAND_BLOCK`` queries, and within a block in slot order. A block of a
    run takes one product over its reverse windows, which list each key
    row's terms in slot order; the key rows an earlier block already wrote
    add this block's terms one slot at a time. Scattered queries add each
    slot of a block at once: they are distinct, so within one slot their
    key rows are too.
    """
    heads, _, d = x.shape
    n, r, W = pat.length, pat.radius, pat.width
    out = np.zeros((n + 2 * r, heads * d))  # key row j at j + r
    if pat.runs is None:
        by_row, x_rows = out.reshape(n + 2 * r, heads, d), x.swapaxes(0, 1)
        for b0 in range(0, pat.rows.size, BAND_BLOCK):
            qb = slice(b0, b0 + BAND_BLOCK)
            for w in range(W):
                by_row[pat.rows[qb] + w] += weights[:, qb, w].T[..., None] * x_rows[qb]
        return out[r:r + n]
    # a block's rows and slot-major weights at 2r + q, zeros around them: the
    # reverse window of key k0 + k holds block query k - w in slot w. Its
    # weights step forward over the slots, so einsum sums them in slot order;
    # it walks a reduced axis backwards when every operand that moves along
    # it steps back.
    m = min(BAND_BLOCK, max((size for _, _, size in pat.runs), default=0)) + 4 * r
    wbuf, xbuf = np.zeros((heads, W, m)), np.zeros((heads, m, d))
    grad = _by_head(out, heads)
    done = 0  # padded key rows below this have terms from earlier blocks
    for q0, r0, size in pat.runs:
        for b0 in range(0, size, BAND_BLOCK):
            nq = min(BAND_BLOCK, size - b0)
            qa, k0, nk = q0 + b0, r0 + b0, nq + 2 * r
            seen = max(0, done - k0)
            for w in range(min(W, seen)):
                i1 = min(nq, seen - w)
                terms = weights[:, qa:qa + i1, w, None] * x[:, qa:qa + i1]
                grad[:, k0 + w:k0 + w + i1] += terms
            wbuf[..., 2 * r:2 * r + nq] = _swap(weights[:, qa:qa + nq])
            xbuf[:, 2 * r:2 * r + nq] = x[:, qa:qa + nq]
            wbuf[..., 2 * r + nq:] = xbuf[:, 2 * r + nq:] = 0.0
            w_rev = np.diagonal(sliding_window_view(wbuf, W, axis=2)[:, :, seen:nk, ::-1],
                                axis1=1, axis2=3)
            x_rev = _windows(xbuf, W)[:, seen:nk, ::-1]
            np.einsum("hjw,hjwd->hjd", w_rev, x_rev, out=grad[:, k0 + seen:k0 + nk])
            done = k0 + nk
    return out[r:r + n]


def long_attention(ql: Tensor, kl: Tensor, vl: Tensor, kg: Tensor, vg: Tensor,
                   relpos: Tensor, pattern: BandPattern, q_off: np.ndarray,
                   g_off: np.ndarray, labels: np.ndarray,
                   enable_long_global: bool = True) -> Tensor:
    """The long part: each query row attends to its band and its example's globals.

    ``ql`` is [queries x dim], ``kl``/``vl`` are the long rows' keys and
    values [long x dim] and ``kg``/``vg`` the global rows' [globals x dim],
    each as its projection returns it; head ``h`` reads columns
    ``h*d:(h+1)*d`` of each, with ``relpos``'s columns naming the heads and
    d = dim / heads. The queries ``q_off[b]:q_off[b + 1]`` belong to the
    example with globals ``g_off[b]:g_off[b + 1]``. A row's scores fill
    [2r+1 band slots | G global slots] per head, G the most globals of an
    example, and ``labels`` is their [queries x (2r+1+G)] relative-position
    labels. Each row takes one softmax over its band and its own example's
    globals, with biases from ``relpos``, and the result is [queries x dim],
    before the output projection. Switching ``enable_long_global`` off masks
    the globals. Each band pass takes one product per run of query rows, or
    one over all scattered query rows, against their windows of the key or
    value rows: the forward scores and apply and the query-side gradients.
    The key-side gradients go in blocks (``_band_key_grad``). Global slots
    take one product per example, forward and backward.
    """
    table = relpos.data
    heads, W = table.shape[1], pattern.width
    qv, vgv = _by_head(ql.data, heads), _by_head(vg.data, heads)
    kg_t = _keys_last(kg.data, heads)
    inv_sqrt = 1.0 / math.sqrt(qv.shape[-1])
    spans = list(_spans(q_off, g_off))
    s = np.full((heads, qv.shape[1], W + int(np.diff(g_off).max())), MASK_NEG)
    band = s[..., :W]
    windows = _band_windows(pattern, heads, ql.shape[1])
    for qs, win in windows(kl.data):
        np.einsum("hnd,hnwd->hnw", qv[:, qs], win, out=band[:, qs])
    band[:, ~pattern.valid] = MASK_NEG
    for qs, gs, n in spans:
        s[:, qs, W:W + n] = _block(qv, qs) @ kg_t[:, :, gs]
    s *= inv_sqrt
    s += np.moveaxis(np.take(table.T, labels, axis=1), 0, -3)
    if not enable_long_global:
        s[..., W:] += MASK_NEG
    # slots past an example's globals keep weight 0; a masked band slot's
    # weight underflows to exactly 0, so products over it add nothing
    y = np.zeros_like(s)
    for qs, gs, n in spans:
        xs = s[:, qs, :W + n]
        e = np.exp(xs - xs.max(axis=-1, keepdims=True))
        y[:, qs, :W + n] = e / e.sum(axis=-1, keepdims=True)
    del s, band
    out = np.zeros_like(ql.data)
    ov = _by_head(out, heads)
    for qs, win in windows(vl.data):
        np.einsum("hnw,hnwd->hnd", y[:, qs, :W], win, out=ov[:, qs])
    for qs, gs, n in spans:
        ov[:, qs] += np.ascontiguousarray(y[:, qs, W:W + n]) @ _block(vgv, gs)

    def back(g, accum):
        gv = _by_head(g, heads)
        gy = np.zeros_like(y)
        windows = _band_windows(pattern, heads, ql.shape[1])
        for qs, win in windows(vl.data):
            np.einsum("hnd,hnwd->hnw", gv[:, qs], win, out=gy[:, qs, :W])
        gy[..., :W][:, ~pattern.valid] = 0.0
        g_vl = _band_key_grad(pattern, y[..., :W], gv)
        g_kg, g_vg = np.zeros_like(kg.data), np.zeros_like(vg.data)
        gkgv, gvgv = _by_head(g_kg, heads), _by_head(g_vg, heads)
        for qs, gs, n in spans:
            gh = _block(gv, qs)
            gy[:, qs, W:W + n] = gh @ _swap(_block(vgv, gs))
            gvgv[:, gs] = _swap(y[:, qs, W:W + n]) @ gh
        gs_ = gy  # y * (gy - (gy * y).sum(...)), in place
        gs_ -= (gy * y).sum(axis=-1, keepdims=True)
        gs_ *= y
        slots = labels[None] * heads + np.arange(heads)[:, None, None]
        g_table = np.bincount(slots.ravel(), weights=gs_.ravel(), minlength=table.size)
        gs_ *= inv_sqrt
        g_ql = np.zeros_like(ql.data)
        gqv = _by_head(g_ql, heads)
        for qs, win in windows(kl.data):
            np.einsum("hnw,hnwd->hnd", gs_[:, qs, :W], win, out=gqv[:, qs])
        g_kl = _band_key_grad(pattern, gs_[..., :W], qv)
        for qs, gs, n in spans:
            gw = gs_[:, qs, W:W + n]
            gqv[:, qs] += gw @ _swap(kg_t[:, :, gs])
            gkgv[:, gs] = _swap(_swap(_block(qv, qs)) @ gw)
        for t, grad in zip((ql, kl, vl, kg, vg), (g_ql, g_kl, g_vl, g_kg, g_vg)):
            accum(t, grad)
        accum(relpos, g_table.reshape(table.shape))

    return apply_op(out, (ql, kl, vl, kg, vg, relpos), back, what="long_attention")


def global_attention(qg: Tensor, kg: Tensor, vg: Tensor, kl: Tensor, vl: Tensor,
                     relpos: Tensor, segments: Segments, sentence_id: np.ndarray,
                     cfg: AttentionConfig, enable_long_global: bool = True) -> Tensor:
    """The global part: each example's globals attend to its globals and long rows.

    ``qg``/``kg``/``vg`` are the global rows' [globals x dim] and
    ``kl``/``vl`` the long rows' keys and values [long x dim], each as its
    projection returns it, with heads as in ``long_attention``. Each
    example's global rows take one softmax over [its globals | its long
    rows], with relative-position biases from ``relpos``, and the result is
    [globals x dim], before the output projection. Switching
    ``enable_long_global`` off masks the long half. One op loops over the
    examples, forward and backward, as ``long_attention`` does for its
    global slots; backward rebuilds each example's labels.
    """
    table = relpos.data
    heads = table.shape[1]
    qv, vgv, klv, vlv = (_by_head(t.data, heads) for t in (qg, vg, kl, vl))
    kg_t = _keys_last(kg.data, heads)
    inv_sqrt = 1.0 / math.sqrt(qv.shape[-1])
    examples = [(slice(segments.glob[b], segments.glob[b + 1]),
                 slice(segments.long[b], segments.long[b + 1]))
                for b in range(segments.glob.size - 1)]

    def labels_of(gs: slice, ls: slice) -> np.ndarray:
        n = gs.stop - gs.start
        return np.concatenate([bucket_matrix(np.arange(n), np.arange(n), cfg.max_distance),
                               membership_labels(sentence_id[ls], n, cfg).T], axis=1)

    out = np.zeros_like(qg.data)
    ov = _by_head(out, heads)
    member, other = (table[label][:, None, None] for label in (cfg.member_label,
                                                               cfg.other_label))
    ys = []
    for gs, ls in examples:
        # the scores [globals | long rows] in one array, biased and turned
        # into weights in place
        n, qh = gs.stop - gs.start, _block(qv, gs)
        y = np.empty((heads, n, n + ls.stop - ls.start))
        np.matmul(qh, kg_t[:, :, gs], out=y[..., :n])
        # the long keys as a view, but a lone query row takes BLAS's
        # matrix-vector path, whose bits follow the operand's layout
        kl_t = _swap(klv[:, ls])
        np.matmul(qh, kl_t if n > 1 else np.ascontiguousarray(kl_t), out=y[..., n:])
        y *= inv_sqrt
        y[..., :n] += np.take(table.T, bucket_matrix(np.arange(n), np.arange(n),
                                                     cfg.max_distance), axis=1)
        y[..., n:] += np.where(sentence_id[ls] == np.arange(n)[:, None], member, other)
        if not enable_long_global:
            y[..., n:] += MASK_NEG
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        ov[:, gs] = (np.ascontiguousarray(y[..., :n]) @ _block(vgv, gs)
                     + np.ascontiguousarray(y[..., n:]) @ _block(vlv, ls))
        ys.append(y)

    def back(g, accum):
        grads = [np.zeros_like(t.data) for t in (qg, kg, vg, kl, vl)]
        gqv, gkgv, gvgv, gklv, gvlv = (_by_head(a, heads) for a in grads)
        gv = _by_head(g, heads)
        g_table = np.zeros(table.size)
        for (gs, ls), y in zip(examples, ys):
            n, go, qh = gs.stop - gs.start, _block(gv, gs), _block(qv, gs)
            gvgv[:, gs] = _swap(y[..., :n]) @ go
            gvlv[:, ls] = _swap(y[..., n:]) @ go
            gy = np.concatenate([go @ _swap(_block(vgv, gs)), go @ _swap(_block(vlv, ls))],
                                axis=-1)
            gs_ = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
            slots = labels_of(gs, ls)[None] * heads + np.arange(heads)[:, None, None]
            g_table += np.bincount(slots.ravel(), weights=gs_.ravel(), minlength=table.size)
            gs_ *= inv_sqrt
            gqv[:, gs] = (gs_[..., :n] @ _swap(kg_t[:, :, gs])
                          + gs_[..., n:] @ _block(klv, ls))
            gkgv[:, gs] = _swap(_swap(qh) @ gs_[..., :n])
            gklv[:, ls] = _swap(gs_[..., n:]) @ qh
        for t, grad in zip((qg, kg, vg, kl, vl), grads):
            accum(t, grad)
        accum(relpos, g_table.reshape(table.shape))

    return apply_op(out, (qg, kg, vg, kl, vl, relpos), back, what="global_attention")


def glocal_attention(long: Tensor, glob: Tensor, sentence_id: np.ndarray,
                     params: MhaParams, cfg: AttentionConfig, *,
                     enable_long_global: bool = True,
                     pattern: BandPattern | None = None,
                     update_global: bool = True,
                     segments: Segments | None = None,
                     queries: Tensor | None = None,
                     keys_values: tuple[Tensor, Tensor] | None = None
                     ) -> tuple[Tensor, Tensor | None]:
    """Raw four-part attention over a (long, global) pair of streams.

    Long rows attend to their clipped local window plus every global token
    of their example; global rows attend to all global and all long tokens
    of their example. Projection matrices are shared across all four parts;
    the parts differ only in their sparsity pattern and relative-position
    labels. Returns the two output-projected attention results, before any
    residual wiring.

    ``segments`` lays several examples end to end; by default the streams
    hold one. ``pattern`` is the band over the long rows, by default every
    row at its index. A stream whose rows sit at gapped positions (the flat
    encoder's rows at their layout slots, each example's past the previous
    one's by more than the radius) passes the band over those positions. A
    band ``at`` some rows queries from those rows only, and the long result
    holds one row per query; keys and values still come from every row.
    ``queries`` is those rows of ``long`` when the caller has gathered them
    already, and ``keys_values`` the long rows' key and value projections
    when the caller has them (some of their rows carried over from an
    earlier call). A band at no rows gives a [0 x dim] long result; a long
    stream with no rows is an error. Without ``update_global`` the global
    stream is not computed (None); with it, the global rows attend to every
    long row of their example whichever rows query. ``enable_long_global`` exists for gradient
    reachability probes; switching it off masks the long/global links in
    both directions. ``long_to_long`` counts every evaluated window slot,
    masked ones included.
    """
    L = long.shape[0]
    G = glob.shape[0]
    dim = long.shape[1]
    if glob.shape[1] != dim:
        raise ValueError(f"stream dims disagree: {long.shape} vs {glob.shape}")
    if L == 0:
        raise ValueError("the long stream holds no rows; a band at no rows queries none of them")
    seg = segments or Segments.of([L], [G])
    if seg.long[-1] != L or seg.glob[-1] != G:
        raise ValueError(f"segments end at ({seg.long[-1]}, {seg.glob[-1]}), "
                         f"streams hold ({L}, {G}) rows")
    g_size = np.diff(seg.glob)
    if g_size.min() == 0:
        raise ValueError("at least one global token is required")
    sentence_id = np.asarray(sentence_id)
    if sentence_id.shape != (L,):
        raise ValueError(f"sentence_id shape {sentence_id.shape} != ({L},)")
    if np.any(sentence_id >= np.repeat(g_size, np.diff(seg.long))):
        raise ValueError("sentence_id references a global token past the last one")
    if np.any(sentence_id < NO_GLOBAL):
        raise ValueError(f"sentence_id below {NO_GLOBAL}, the no-global sentinel")
    if params.relpos is None:
        raise ValueError("global-local attention requires a relpos table")

    pat = pattern or band_pattern(np.arange(L), cfg.local_radius)
    rows = np.arange(L) if pat.rows is None else pat.rows
    q_off = np.searchsorted(rows, seg.long)
    score_counter.add("long_to_long", pat.count)
    if enable_long_global:
        score_counter.add("long_to_global", int(np.diff(q_off) @ g_size))
    if update_global:
        score_counter.add("global",
                          int(g_size @ (g_size + enable_long_global * np.diff(seg.long))))

    if queries is None:
        queries = pat.query_rows(long)
    ql = linear(queries, params.wq, params.bq) if rows.size else None
    if keys_values is None:
        kl, vl = linear(long, params.wk, params.bk), linear(long, params.wv, params.bv)
    else:
        kl, vl = keys_values
        if kl.shape != long.shape or vl.shape != long.shape:
            raise ValueError(f"keys {kl.shape} and values {vl.shape} do not match "
                             f"the long stream {long.shape}")
    # glob's query projection stays first of its three: moving it would
    # reorder the sum that forms glob's gradient
    qg = linear(glob, params.wq, params.bq) if update_global else None
    kg = linear(glob, params.wk, params.bk)
    vg = linear(glob, params.wv, params.bv)

    long_out = queries  # a band at no rows: no long row
    if ql is not None:
        long_labels = np.concatenate(
            [band_labels(pat, cfg.max_distance),
             membership_labels(sentence_id[rows], int(g_size.max()), cfg)], axis=1)
        attended = long_attention(ql, kl, vl, kg, vg, params.relpos, pat, q_off, seg.glob,
                                  long_labels, enable_long_global)
        long_out = linear(attended, params.wo, params.bo)
    if not update_global:
        return long_out, None

    attended = global_attention(qg, kg, vg, kl, vl, params.relpos, seg, sentence_id, cfg,
                                enable_long_global)
    return long_out, linear(attended, params.wo, params.bo)


def init_glocal_layer(rng: np.random.Generator, cfg: AttentionConfig,
                      ffn_dim: int, std: float) -> LayerParams:
    return init_layer(rng, cfg.model_dim, ffn_dim, std, cfg.relpos_vocab_size,
                      cfg.num_heads)


def etc_global_local_attention(long: Tensor, glob: Tensor, sentence_id: np.ndarray,
                               params: LayerParams, cfg: AttentionConfig, *,
                               enable_long_global: bool = True,
                               pattern: BandPattern | None = None,
                               update_global: bool = True,
                               segments: Segments | None = None,
                               keys_values: tuple[Tensor, Tensor] | None = None
                               ) -> tuple[Tensor, Tensor | None]:
    """One global-local layer: attention, then each stream's post-norm block.

    With a band ``at`` some rows, the layer computes those long rows only,
    gathered once for both the query projection and the residual; without
    ``update_global``, it computes no global stream (None). ``segments`` and
    ``keys_values`` as in ``glocal_attention``.
    """
    rows = long if pattern is None else pattern.query_rows(long)
    attn_l, attn_g = glocal_attention(
        long, glob, sentence_id, params.attn, cfg,
        enable_long_global=enable_long_global, pattern=pattern,
        update_global=update_global, segments=segments, queries=rows,
        keys_values=keys_values,
    )
    tail = (params.ln_attn, params.ffn, params.ln_ffn)
    out_l = post_norm_block(rows, attn_l, *tail) if rows.shape[0] else rows
    return out_l, None if attn_g is None else post_norm_block(glob, attn_g, *tail)
