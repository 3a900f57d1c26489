"""Stepwise global-local encoder over a flat document-plus-plan input.

The document's units and the partial plan are laid out as one long token
sequence with fixed per-segment budgets, one auxiliary global token per
unit/sentence/delimiter, and relative-position labels tying long tokens to
their sentence's global token. A stack of global-local layers then yields a
vector per candidate unit (pooled at the unit's first token, its anchor),
which feeds the same scoring head contract as the hierarchical encoder.

Each layer computes only the rows a later layer reads. The last layer
queries from the anchors alone and leaves the global stream as it is, since
nothing reads either beyond it. The layer before it queries from the rows
within the radius r (in layout position) of an anchor, the rows the last
layer reads, and still updates the global stream from every row; the last
layer's input is those rows alone, at their own positions, so it projects
keys and values for them alone. Layers below those two compute every row.

Several (document, plan prefix) pairs are encoded as one stream: their rows
end to end, each pair's rows contiguous and in layout order, and each
pair's positions shifted more than the radius past the previous pair's
last, so the band never links two pairs; the global parts keep to each
pair's own globals (``attention.Segments``). One call runs every layer
once over all the pairs, with no padding rows.

The first layer is split in two, because the plan prefix changes few of
its rows. Its inputs are token embeddings and, for the global tokens, kind
embeddings, so a row whose window ends before the first [SEP] (layout
position ``p`` with ``p + r < 1 + long_budget``) reads only the document's
rows and the global-kind sequence. Those rows are a leading run. The fixed
part is computed once per (document, global kinds) key from the rows before
[SEP], and callers share it between the prefixes with that key; the fixed
parts of several keys are one stream call too. It carries everything no
prefix changes: the first layer's output at its query rows among the fixed
rows, the first layer's keys and values of the rows before [SEP], and the
second layer's keys and values of those output rows. The per-prefix part is
the rest of the first layer's query rows and the global stream, in one
global-local call that projects keys and values only for the rows from
[SEP] on; the layer's output is each pair's fixed rows followed by its
other rows, the same as the whole layer's, and the second layer projects
keys and values only for those other rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    NO_GLOBAL,
    AttentionConfig,
    LayerParams,
    Segments,
    band_pattern,
    etc_global_local_attention,
    init_glocal_layer,
)
from .autodiff import (
    Tensor,
    concat_rows,
    linear,
    named_tensors,
    reshape,
    segment_matmul,
    take,
)
from .config import RunConfig

# global-token kinds, each with its own learned embedding row
GLOBAL_DELIM = 0
GLOBAL_SPECIAL = 1
GLOBAL_DOC = 2
GLOBAL_SUM = 3
N_GLOBAL_KINDS = 4


@dataclass
class EtcAssembly:
    """The rows of one (document, plan prefix) pair, in layout order.

    The fixed-budget layout is [CLS] + flat input (special units then
    document units, within the long budget) + [SEP] + plan segment (begin
    marker then the plan's tokens, within the summary budget) + [SEP]. Only
    its occupied slots become rows, and ``position`` gives each row's slot,
    so attention windows and relative-position labels are those of the
    fixed layout. ``sentence_id`` names each row's global token, or the
    no-global sentinel for units past the global cap. ``candidate_anchor``
    holds the row of every candidate unit's first token, specials first.
    """

    long_ids: np.ndarray
    position: np.ndarray
    sentence_id: np.ndarray
    global_kind: np.ndarray
    candidate_anchor: np.ndarray

    # ``perfbench/tracer.py`` counts rows and warnings through these names
    @property
    def active(self) -> np.ndarray:
        return np.ones(self.long_ids.size, dtype=bool)

    @property
    def warnings(self) -> list[str]:
        return []


def assemble_input(doc_units: list[list[int]], plan_units: list[list[int]],
                   special_units: list[list[int]], candidate_special_count: int,
                   *, long_budget: int, summary_budget: int, global_cap: int,
                   cls_id: int, sep_id: int, beg_id: int, eos_id: int) -> EtcAssembly:
    """Lay out the rows; a pure function of its arguments.

    ``plan_units`` are the already-selected elements in prediction order,
    each a token list (a break element is the single break-marker token);
    the plan segment groups them into sentences at break markers for global
    token assignment. A unit that does not fit the long budget, or a plan
    element that does not fit the summary budget, is an error: the caller
    fits the input first (``models.trim_for_flat_budget``).
    """
    ids: list[int] = []
    position: list[int] = []
    sentence_id: list[int] = []
    globals_kind: list[int] = []

    def new_global(kind: int) -> int:
        if len(globals_kind) >= global_cap:
            return NO_GLOBAL
        globals_kind.append(kind)
        return len(globals_kind) - 1

    def put(tokens: list[int], start: int, gid: int) -> None:
        ids.extend(tokens)
        position.extend(range(start, start + len(tokens)))
        sentence_id.extend([gid] * len(tokens))

    put([cls_id], 0, new_global(GLOBAL_DELIM))

    # flat input: special pseudo-units then document units; the anchors come
    # in the scorers' candidate order, candidate specials first
    anchors: list[int] = []
    pos = 1
    flat_end = 1 + long_budget
    for ui, unit in enumerate(special_units + doc_units):
        if pos + len(unit) > flat_end:
            raise ValueError(f"unit {ui} ({len(unit)} tokens) overflows "
                             f"long_budget {long_budget}")
        is_special = ui < len(special_units)
        gid = new_global(GLOBAL_SPECIAL if is_special else GLOBAL_DOC)
        if not is_special or ui < candidate_special_count:
            anchors.append(len(ids))
        put(unit, pos, gid)
        pos += len(unit)

    put([sep_id], flat_end, new_global(GLOBAL_DELIM))

    # plan segment: begin marker, then plan tokens grouped into sentences
    sum_end = flat_end + 1 + summary_budget
    put([beg_id], flat_end + 1, new_global(GLOBAL_SPECIAL))
    pos = flat_end + 2
    current_gid: int | None = None
    for pi, unit in enumerate(plan_units):
        if pos + len(unit) > sum_end:
            raise ValueError(f"plan element {pi} ({len(unit)} tokens) overflows "
                             f"summary_budget {summary_budget}")
        if current_gid is None:
            current_gid = new_global(GLOBAL_SUM)
        put(unit, pos, current_gid)
        pos += len(unit)
        if len(unit) == 1 and unit[0] == eos_id:
            current_gid = None  # a break closes the sentence group

    put([sep_id], sum_end, new_global(GLOBAL_DELIM))

    def array(values: list[int]) -> np.ndarray:
        return np.asarray(values, dtype=np.int64)

    return EtcAssembly(
        long_ids=array(ids),
        position=array(position),
        sentence_id=array(sentence_id),
        global_kind=array(globals_kind),
        candidate_anchor=array(anchors),
    )


@dataclass
class EtcParams:
    token: Tensor
    global_kind: Tensor
    layers: list[LayerParams]
    scorer_w: Tensor


def init_etc(cfg: RunConfig, acfg: AttentionConfig, vocab_size: int,
             rng: np.random.Generator) -> EtcParams:
    std = cfg.init_std
    return EtcParams(
        token=Tensor(rng.normal(0.0, std, size=(vocab_size, cfg.dim)), requires_grad=True),
        global_kind=Tensor(rng.normal(0.0, std, size=(N_GLOBAL_KINDS, cfg.dim)),
                           requires_grad=True),
        layers=[init_glocal_layer(rng, acfg, cfg.ffn_dim, std)
                for _ in range(cfg.etc_layers)],
        scorer_w=Tensor(rng.normal(0.0, std, size=(cfg.dim, 1)), requires_grad=True),
    )


@dataclass
class EtcStream:
    """Several assemblies' rows end to end, as one global-local call reads them.

    ``position`` holds each row's layout slot, shifted per example so that
    every example starts more than the radius past the previous one's last
    row; ``sentence_id`` numbers each example's own globals from 0.
    ``anchor`` holds the stream row of every candidate, in pair order.
    """

    long_ids: np.ndarray
    position: np.ndarray
    sentence_id: np.ndarray
    global_kind: np.ndarray
    anchor: np.ndarray
    segments: Segments


def build_stream(assemblies: list[EtcAssembly], radius: int,
                 n_rows: list[int] | None = None) -> EtcStream:
    """The first ``n_rows[b]`` rows of each assembly (all by default) in one stream."""
    sizes = [a.long_ids.size for a in assemblies] if n_rows is None else n_rows
    segments = Segments.of(sizes, [a.global_kind.size for a in assemblies])
    position, shift = [], 0
    for a, n in zip(assemblies, sizes):
        position.append(a.position[:n] + shift)
        shift += int(a.position[n - 1]) + radius + 1

    def joined(arrays) -> np.ndarray:
        return np.concatenate(list(arrays))

    return EtcStream(
        long_ids=joined(a.long_ids[:n] for a, n in zip(assemblies, sizes)),
        position=joined(position),
        sentence_id=joined(a.sentence_id[:n] for a, n in zip(assemblies, sizes)),
        global_kind=joined(a.global_kind for a in assemblies),
        anchor=joined(a.candidate_anchor + o for a, o in zip(assemblies, segments.long)),
        segments=segments,
    )


# rows ``start:start + length`` of a tensor
Rows = tuple[Tensor, int, int]


@dataclass
class FixedPart:
    """What the pairs of one (document, global kinds) key share, as rows of
    the fixed-part call's tensors.

    ``out`` is layer 0's output at the key's fixed query rows. ``keys`` and
    ``values`` hold, per layer, the projections of the leading rows of that
    layer's input that no prefix changes: layer 0's of the document rows
    (every row before the first [SEP]) and, in a stack of two or more
    layers, layer 1's of the ``out`` rows.
    """

    out: Rows
    keys: list[Rows]
    values: list[Rows]


def rows_near(position: np.ndarray, rows: np.ndarray, radius: int) -> np.ndarray:
    """The rows whose position lies within ``radius`` of some row of ``rows``."""
    n = position.size
    lo = np.searchsorted(position, position[rows] - radius)
    hi = np.searchsorted(position, position[rows] + radius, side="right")
    depth = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))
    return np.flatnonzero(depth[:n])


def _stitch(carried: list[Rows | None], fresh: Tensor | None, counts: list[int]) -> Tensor:
    """Each pair's carried rows, then its ``counts[b]`` next rows of ``fresh``."""
    if all(c is None for c in carried):
        return fresh
    pieces, at = [], 0
    for c, n in zip(carried, counts):
        if c is not None:
            pieces.append(c)
        if n:
            pieces.append((fresh, at, n))
            at += n
    t, start, n = pieces[0]
    return t if len(pieces) == 1 and start == 0 and n == t.shape[0] else concat_rows(pieces)


def _keys_values(i: int, layer: LayerParams, fixed: list[FixedPart | None], fresh: Tensor,
                 counts: list[int]) -> tuple[Tensor, Tensor]:
    """Layer ``i``'s keys and values: each pair's carried rows, then the
    projections of its ``counts[b]`` next rows of ``fresh``."""
    a = layer.attn
    k, v = ((linear(fresh, w, bias) if sum(counts) else None)
            for w, bias in ((a.wk, a.bk), (a.wv, a.bv)))
    return (_stitch([f and f.keys[i] for f in fixed], k, counts),
            _stitch([f and f.values[i] for f in fixed], v, counts))


def _leading(part: FixedPart, n: int) -> FixedPart:
    """``part`` carrying only its first ``n`` output rows, and layer 1's
    keys and values of those rows alone."""
    def cut(rows: Rows) -> Rows:
        return rows[0], rows[1], n

    return FixedPart(cut(part.out), part.keys[:1] + [cut(k) for k in part.keys[1:]],
                     part.values[:1] + [cut(v) for v in part.values[1:]])


@dataclass
class _Split:
    """Layer 0's computed query rows (stream rows), how many each pair has,
    the (start, length) stream rows whose keys and values it projects, one
    run per pair, and each pair's fixed part or None."""

    rows: np.ndarray
    counts: list[int]
    fresh: list[tuple[int, int]]
    fixed: list[FixedPart | None]


class StepwiseEtc:
    """Global-local next-unit scorer over the flat document-plus-plan input."""

    def __init__(self, cfg: RunConfig, vocab_size: int, rng: np.random.Generator):
        self.cfg = cfg
        self.attention = cfg.attention()
        self.params = init_etc(cfg, self.attention, vocab_size, rng)

    def named_parameters(self) -> dict[str, Tensor]:
        """The checkpoint's tensors, by name, in payload order."""
        p = self.params
        return named_tensors({"emb": {"token": p.token, "global_kind": p.global_kind},
                              "layer": p.layers, "scorer": {"w": p.scorer_w}})

    def _queries(self, position: np.ndarray, anchor: np.ndarray) -> list[np.ndarray | None]:
        """Each layer's query rows, of rows at ``position`` with anchors ``anchor``.

        The last layer queries from the anchors, the one before it from the
        rows within r in position of an anchor (the rows the last layer
        reads), and every layer below from every row (None).
        """
        rows: list[np.ndarray | None] = [None] * len(self.params.layers)
        if len(rows) > 1:
            rows[-2] = rows_near(position, anchor, self.cfg.local_radius)
        rows[-1] = anchor
        return rows

    def _fixed_queries(self, assembly: EtcAssembly) -> np.ndarray:
        """Layer 0's query rows that no plan prefix changes.

        A row at layout position ``p`` with ``p + r`` before the first [SEP]
        is fixed: its window holds document rows only, so its layer-0 output
        is the same for every plan prefix with the same global kinds. Fixed
        rows are a leading run, since positions increase.
        """
        queries = self._queries(assembly.position, assembly.candidate_anchor)[0]
        n_fixed = int(np.searchsorted(assembly.position,
                                      1 + self.cfg.long_budget - self.cfg.local_radius))
        if queries is None:
            return np.arange(n_fixed)
        return queries[:np.searchsorted(queries, n_fixed)]

    def _embed(self, stream: EtcStream) -> tuple[Tensor, Tensor]:
        return (take(self.params.token, stream.long_ids),
                take(self.params.global_kind, stream.global_kind))

    def fixed_parts(self, assemblies: list[EtcAssembly]) -> list[FixedPart | None]:
        """The fixed part of each assembly, all in one call.

        A fixed part depends on the document's rows before the first [SEP]
        and on the global kinds alone, so pairs of one document that share
        ``global_kind`` share it (``etc_encode``'s ``fixed``). Layer 0's
        keys and values are the rows before [SEP], and the global stream is
        not updated. An assembly with fewer than two fixed query rows (a
        radius past the document, or a short stack with no read row far
        enough from [SEP]) gets None: with none there is little to share,
        and a lone query row would take BLAS's matrix-vector path in its
        example's products, which gives it other bits than the several rows
        of the whole layer get.
        """
        r, layers = self.cfg.local_radius, self.params.layers
        queries = [self._fixed_queries(a) for a in assemblies]
        keep = [b for b, q in enumerate(queries) if q.size > 1]
        parts: list[FixedPart | None] = [None] * len(assemblies)
        if not keep:
            return parts
        n_doc = [int(np.searchsorted(assemblies[b].position, 1 + self.cfg.long_budget))
                 for b in keep]
        stream = build_stream([assemblies[b] for b in keep], r, n_doc)
        rows = np.concatenate([queries[b] + o for b, o in zip(keep, stream.segments.long)])
        long, glob = self._embed(stream)
        attn = layers[0].attn
        kv = [(linear(long, attn.wk, attn.bk), linear(long, attn.wv, attn.bv))]
        out, _ = etc_global_local_attention(
            long, glob, stream.sentence_id, layers[0], self.attention,
            pattern=band_pattern(stream.position, r, rows=rows), update_global=False,
            segments=stream.segments, keys_values=kv[0],
        )
        if len(layers) > 1:
            attn = layers[1].attn
            kv.append((linear(out, attn.wk, attn.bk), linear(out, attn.wv, attn.bv)))
        at = 0
        for j, b in enumerate(keep):
            # layer 0 carries the document rows, layer 1 the output rows
            spans = ((int(stream.segments.long[j]), n_doc[j]), (at, queries[b].size))
            parts[b] = FixedPart(out=(out, *spans[1]),
                                 keys=[(k, *span) for (k, _), span in zip(kv, spans)],
                                 values=[(v, *span) for (_, v), span in zip(kv, spans)])
            at += queries[b].size
        return parts

    def etc_encode(self, assemblies: list[EtcAssembly],
                   fixed: list[FixedPart | None] | None = None) -> Tensor:
        """Candidate vectors of every pair, in pair order: one stream, one stack.

        The band is built over the stream's shifted layout positions, so
        windows and relative-position labels are those of each pair's
        fixed-budget layout. Each layer computes the rows a later layer
        reads (``_queries``), over keys and values from every row of its
        input. The last layer's input holds only the rows it reads, at
        their own positions, so it projects keys and values for those rows
        alone; every anchor keeps the same valid keys in the same window
        slots. The last layer skips the global stream; the one before it
        still updates it from every row. ``fixed`` holds each pair's
        ``fixed_parts`` entry or None (``_split``). The ``long_to_long``
        count also has the masked slots that reach across a run of empty
        slots or into the next pair, at most r(r+1) per run.
        """
        r, layers = self.cfg.local_radius, self.params.layers
        stream = build_stream(assemblies, r)
        queries = self._queries(stream.position, stream.anchor)
        split = self._split(stream, queries[0], fixed)
        if split is not None and len(layers) == 1 and split.rows.size == 0:
            return _stitch([f and f.out for f in split.fixed], None, split.counts)
        long, glob = self._embed(stream)
        position, sentence_id, segments = stream.position, stream.sentence_id, stream.segments
        for i, layer in enumerate(layers):
            rows, kv = queries[i], None
            if i and queries[i - 1] is not None:  # ``long`` holds the rows computed below
                held = queries[i - 1]
                position, sentence_id = stream.position[held], stream.sentence_id[held]
                segments = Segments(np.searchsorted(held, stream.segments.long),
                                    stream.segments.glob)
                rows = np.searchsorted(held, rows)
            if split is not None and i == 0:
                rows = split.rows
                kv = _keys_values(0, layer, split.fixed,
                                  concat_rows([(long, s, n) for s, n in split.fresh]),
                                  [n for _, n in split.fresh])
            elif split is not None and i == 1:
                kv = _keys_values(1, layer, split.fixed, computed, split.counts)
            computed, glob = etc_global_local_attention(
                long, glob, sentence_id, layer, self.attention,
                pattern=band_pattern(position, r, rows=rows), update_global=i < len(layers) - 1,
                segments=segments, keys_values=kv,
            )
            long = computed
            if split is not None and i == 0:
                long = _stitch([f and f.out for f in split.fixed], computed, split.counts)
        return long

    def _split(self, stream: EtcStream, queries: np.ndarray | None,
               fixed: list[FixedPart | None] | None) -> _Split | None:
        """Layer 0's query rows, split between the pairs' fixed parts and the rest.

        A pair with a fixed part takes its leading query rows' output from
        it, and its leading rows' keys and values at layers 0 and 1 (the
        document rows', and those of the fixed part's output rows); layer 0
        computes the rest of its query rows, and projects the keys and
        values of its rows from the first [SEP] on. A pair without one has
        every row computed and projected. A pair that would leave one query
        row to compute computes its last fixed row too: a lone row of an
        example takes BLAS's matrix-vector path in its products, and other
        bits. None when no pair has a fixed part.
        """
        if fixed is None or all(f is None for f in fixed):
            return None
        offsets = stream.segments.long
        queries = np.arange(offsets[-1]) if queries is None else queries
        bounds = np.searchsorted(queries, offsets)
        rows, counts, fresh, used = [], [], [], []
        for b, f in enumerate(fixed):
            own, start = queries[bounds[b]:bounds[b + 1]], int(offsets[b])
            if f is not None:
                if own.size - f.out[2] == 1:
                    f = _leading(f, f.out[2] - 1)
                own, start = own[f.out[2]:], start + f.keys[0][2]
            rows.append(own)
            counts.append(own.size)
            fresh.append((start, int(offsets[b + 1]) - start))
            used.append(f)
        return _Split(np.concatenate(rows), counts, fresh, used)

    def score_candidates(self, contextual: Tensor, counts: list[int] | None = None) -> Tensor:
        """One logit per candidate row; each pair's ``counts[b]`` rows on their own
        (by default, every row is one pair's)."""
        offsets = np.concatenate(([0], np.cumsum(counts or [contextual.shape[0]])))
        return reshape(segment_matmul(contextual, self.params.scorer_w, offsets),
                       (contextual.shape[0],))

    def logits(self, assemblies: list[EtcAssembly],
               fixed: list[FixedPart | None] | None = None) -> Tensor:
        """Every pair's candidate logits, concatenated in pair order."""
        return self.score_candidates(self.etc_encode(assemblies, fixed),
                                     [a.candidate_anchor.size for a in assemblies])
