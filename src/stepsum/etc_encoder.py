"""Stepwise global-local encoder over a flat document-plus-plan input.

The document's units and the partial plan are laid out as one long token
sequence with fixed per-segment budgets, one auxiliary global token per
unit/sentence/delimiter, and relative-position labels tying long tokens to
their sentence's global token. A stack of global-local layers then yields a
vector per candidate unit (pooled at the unit's first token, its anchor),
which feeds the same scoring head contract as the hierarchical encoder. The
last layer computes the anchor rows alone and leaves the global stream
as it is, since nothing reads either beyond it.

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
rows and the global-kind sequence. Those rows are a leading run; their
first-layer output, the fixed part, is computed once per (document, global
kinds) key from the rows before [SEP], and callers share it between the
prefixes with that key. The fixed parts of several keys are one stream
call too. The per-prefix part is the rest: the last r document rows,
[SEP], the plan rows and the global stream, in one global-local call whose
keys and values come from every row. The layer's output is each pair's
fixed rows followed by its other rows, the same as the whole layer's. When
the first layer is also the last, both parts query from the anchors among
their rows.
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
from .autodiff import Tensor, concat_rows, named_tensors, reshape, segment_matmul, take
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


# rows ``start:start + length`` of a stream call's output: one pair's fixed part
FixedPart = tuple[Tensor, int, int]


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

    def _layer0_queries(self, assembly: EtcAssembly) -> tuple[np.ndarray, np.ndarray]:
        """Layer 0's query rows, split into the fixed part's and the rest.

        Layer 0 queries from every row, or from the anchors when it is also
        the last layer. A row at layout position ``p`` with ``p + r`` before
        the first [SEP] is fixed: its window holds document rows only, so its
        layer-0 output is the same for every plan prefix with the same
        global kinds. Fixed rows are a leading run, since positions increase.
        """
        n = assembly.long_ids.size
        queries = assembly.candidate_anchor if len(self.params.layers) == 1 else np.arange(n)
        n_fixed = np.searchsorted(assembly.position,
                                  1 + self.cfg.long_budget - self.cfg.local_radius)
        cut = int(np.searchsorted(queries, n_fixed))
        return queries[:cut], queries[cut:]

    def _embed(self, stream: EtcStream) -> tuple[Tensor, Tensor]:
        return (take(self.params.token, stream.long_ids),
                take(self.params.global_kind, stream.global_kind))

    def fixed_parts(self, assemblies: list[EtcAssembly]) -> list[FixedPart | None]:
        """Layer 0's output at the fixed query rows of each assembly, in one call.

        A fixed part depends on the document's rows before the first [SEP]
        and on the global kinds alone, so pairs of one document that share
        ``global_kind`` share it (``etc_encode``'s ``fixed``). Its keys and
        values are the rows before [SEP]; the global stream is not updated.
        When no assembly has a fixed query row (a radius past the document,
        or one layer with no anchor far enough from [SEP]), there is nothing
        to share and every entry is None.
        """
        r = self.cfg.local_radius
        n_doc = [int(np.searchsorted(a.position, 1 + self.cfg.long_budget))
                 for a in assemblies]
        stream = build_stream(assemblies, r, n_doc)
        fixed = [self._layer0_queries(a)[0] for a in assemblies]
        rows = np.concatenate([q + o for q, o in zip(fixed, stream.segments.long)])
        starts = np.concatenate(([0], np.cumsum([q.size for q in fixed])))
        if rows.size == 0:
            return [None] * len(assemblies)
        long, _ = etc_global_local_attention(
            *self._embed(stream), stream.sentence_id, self.params.layers[0], self.attention,
            pattern=band_pattern(stream.position, r).at(rows), update_global=False,
            segments=stream.segments,
        )
        return [(long, int(s), q.size) for s, q in zip(starts, fixed)]

    def etc_encode(self, assemblies: list[EtcAssembly],
                   fixed: list[FixedPart | None] | None = None) -> Tensor:
        """Candidate vectors of every pair, in pair order: one stream, one stack.

        The band is built over the stream's shifted layout positions, so
        windows and relative-position labels are those of each pair's
        fixed-budget layout. ``fixed`` holds each pair's ``fixed_parts``
        entry or None; layer 0 then computes only the other rows of those
        pairs (every row of the rest) and the global stream, over keys and
        values from every row, and its output is each pair's fixed rows
        followed by its other rows. The last layer computes only what the
        pooling reads: it queries from the anchor rows alone (keys and
        values still come from every row) and skips the global stream. The
        ``long_to_long`` count also has the masked slots that reach across
        a run of empty slots or into the next pair, at most r(r+1) per run.
        """
        fixed = fixed or [None] * len(assemblies)
        stream = build_stream(assemblies, self.cfg.local_radius)
        pattern = band_pattern(stream.position, self.cfg.local_radius)
        long, glob = self._embed(stream)
        last = len(self.params.layers) - 1
        for i, layer in enumerate(self.params.layers):
            rows = stream.anchor if i == last else None
            pieces = None
            if i == 0 and any(f is not None for f in fixed):
                rows, pieces = self._split_layer0(assemblies, fixed, stream.segments.long)
                if rows.size == 0:  # one layer, and every anchor is fixed
                    return concat_rows(pieces)
            out, glob = etc_global_local_attention(
                long, glob, stream.sentence_id, layer, self.attention,
                pattern=pattern if rows is None else pattern.at(rows),
                update_global=i < last, segments=stream.segments,
            )
            long = out if pieces is None else concat_rows(
                [(out, s, n) if t is None else (t, s, n) for t, s, n in pieces])
        return long

    def _split_layer0(self, assemblies: list[EtcAssembly], fixed: list[FixedPart | None],
                      offsets: np.ndarray) -> tuple[np.ndarray, list]:
        """Layer 0's computed query rows, and the pieces of its output.

        A piece is a fixed part, or ``(None, start, length)`` for rows of the
        layer's own output, which the caller fills in.
        """
        rows, pieces, at = [], [], 0
        for a, f, o in zip(assemblies, fixed, offsets):
            kept, rest = self._layer0_queries(a)
            if f is None:
                rest = np.concatenate([kept, rest])
            elif f[2]:
                pieces.append(f)
            if rest.size:
                pieces.append((None, at, rest.size))
            rows.append(rest + o)
            at += rest.size
        return np.concatenate(rows), pieces

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
