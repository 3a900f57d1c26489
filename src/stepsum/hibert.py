"""Stepwise hierarchical encoder.

A sentence encoder turns each content unit into one vector (independently,
so attention maps stay per-sentence; the vector is token 0's, so the last
sentence layer computes that token alone), and a document encoder fuses
the unit vectors with the representations of the already-selected plan
through three nested attentions per layer: document self-attention and
summary self-attention run in parallel on shared weights, then a
document-summary cross attention lets every unit see what the plan already
covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import plan as planlib
from .attention import (
    FfnParams,
    LayerNormParams,
    LayerParams,
    MhaParams,
    add_norm,
    init_ffn,
    init_layer,
    init_layer_norm,
    init_mha,
    multi_head_attention,
    post_norm_block,
)
from .autodiff import Tensor, add, concat, matmul, named_tensors, narrow, reshape, take
from .config import RunConfig


@dataclass
class EmbeddingTables:
    """Four distinct (never aliased) embedding tables plus the empty-plan slot."""

    token: Tensor
    pos_token: Tensor
    pos_doc: Tensor
    pos_sum: Tensor
    begin_summary: Tensor


@dataclass
class DocLayerParams:
    # self_attn serves both the document and the summary stream: one storage
    # location, two call sites.
    self_attn: MhaParams
    ln_self: LayerNormParams
    cross_attn: MhaParams
    ln_cross: LayerNormParams
    ffn: FfnParams
    ln_ffn: LayerNormParams


@dataclass
class HibertParams:
    embeddings: EmbeddingTables
    sent_layers: list[LayerParams]
    doc_layers: list[DocLayerParams]
    scorer_w: Tensor


@dataclass
class SentenceBatch:
    """Padded unit tokens [n_sents x max_len] with per-sentence true lengths."""

    token_ids: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.token_ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D, got {self.token_ids.shape}")
        if self.lengths.shape != (self.token_ids.shape[0],):
            raise ValueError("lengths must have one entry per sentence")
        if self.lengths.size and self.lengths.min() < 1:
            raise ValueError("empty sentences are rejected at ingestion")
        if self.lengths.size and self.lengths.max() > self.token_ids.shape[1]:
            raise ValueError("length exceeds padded width")

    @classmethod
    def from_units(cls, units: list[list[int]], pad_id: int = 0) -> "SentenceBatch":
        if any(len(u) == 0 for u in units):
            raise ValueError("empty sentences are rejected at ingestion")
        width = max(len(u) for u in units)
        ids = np.full((len(units), width), pad_id, dtype=np.int64)
        for i, u in enumerate(units):
            ids[i, : len(u)] = u
        return cls(ids, np.array([len(u) for u in units], dtype=np.int64))


def init_hibert(cfg: RunConfig, vocab_size: int, rng: np.random.Generator) -> HibertParams:
    std = cfg.init_std

    def table(rows: int) -> Tensor:
        return Tensor(rng.normal(0.0, std, size=(rows, cfg.dim)), requires_grad=True)

    emb = EmbeddingTables(
        token=table(vocab_size),
        pos_token=table(cfg.max_sent_len),
        pos_doc=table(cfg.max_doc_sents),
        pos_sum=table(cfg.max_plan_len),
        begin_summary=table(1),
    )
    sent_layers = [init_layer(rng, cfg.dim, cfg.ffn_dim, std) for _ in range(cfg.sent_layers)]
    doc_layers = [
        DocLayerParams(
            self_attn=init_mha(rng, cfg.dim, std),
            ln_self=init_layer_norm(cfg.dim),
            cross_attn=init_mha(rng, cfg.dim, std),
            ln_cross=init_layer_norm(cfg.dim),
            ffn=init_ffn(rng, cfg.dim, cfg.ffn_dim, std),
            ln_ffn=init_layer_norm(cfg.dim),
        )
        for _ in range(cfg.doc_layers)
    ]
    return HibertParams(
        embeddings=emb,
        sent_layers=sent_layers,
        doc_layers=doc_layers,
        scorer_w=Tensor(rng.normal(0.0, std, size=(cfg.dim, 1)), requires_grad=True),
    )


class StepwiseHibert:
    """Hierarchical next-unit scorer conditioned on the selected plan prefix."""

    def __init__(self, cfg: RunConfig, vocab_size: int, rng: np.random.Generator):
        self.cfg = cfg
        self.params = init_hibert(cfg, vocab_size, rng)

    def named_parameters(self) -> dict[str, Tensor]:
        """The checkpoint's tensors, by name, in payload order."""
        p = self.params
        return named_tensors({"emb": p.embeddings, "sent": p.sent_layers, "doc": p.doc_layers,
                              "scorer": {"w": p.scorer_w}})

    # -- sentence level ----------------------------------------------------

    def encode_sentences(self, batch: SentenceBatch) -> Tensor:
        """One vector per unit: embed, run the sentence stack, pool token 0.

        The last layer computes only the pooled row: token 0 is its one
        query, over keys and values from every token.
        """
        cfg = self.cfg
        n, width = batch.token_ids.shape
        if width > cfg.max_sent_len:
            raise ValueError(f"sentence width {width} exceeds max_sent_len {cfg.max_sent_len}")
        x = take(self.params.embeddings.token, batch.token_ids)
        x = add(x, take(self.params.embeddings.pos_token, np.arange(width)))
        # keys limited to real tokens; every query row keeps at least token 0
        valid = np.arange(width)[None, :] < batch.lengths[:, None]
        mask = np.broadcast_to(valid[:, None, :], (n, width, width))
        last = len(self.params.sent_layers) - 1
        for i, layer in enumerate(self.params.sent_layers):
            q, m = (narrow(x, 1, 0, 1), mask[:, :1, :]) if i == last else (x, mask)
            a = multi_head_attention(q, x, x, m, layer.attn, cfg.num_heads)
            x = post_norm_block(q, a, layer.ln_attn, layer.ffn, layer.ln_ffn)
        return reshape(x, (n, cfg.dim))

    # -- document level ----------------------------------------------------

    def encode_document_stepwise(self, doc_reps: Tensor, summary_reps: Tensor,
                                 doc_valid: np.ndarray, summary_valid: np.ndarray) -> Tensor:
        """Summary-informed contextual unit vectors.

        ``doc_reps`` is [n x dim] and ``summary_reps`` [k x dim], or both carry
        the same leading batch axis, one document/summary pair per entry.
        They already carry their positional terms; the summary stream always
        starts with the learned begin-of-plan slot, so it is never empty.
        ``doc_valid`` [... x n] and ``summary_valid`` [... x k] mark the real
        rows of padded streams: padding is never attended to as a key, and
        its own output rows carry no meaning.
        """
        cfg = self.cfg
        if summary_reps.shape[-2] == 0:
            raise ValueError("summary stream must hold at least the begin slot")
        *lead, n, _ = doc_reps.shape
        k = summary_reps.shape[-2]
        # key-validity masks: every query row sees the real keys
        dd = np.broadcast_to(doc_valid[..., None, :], (*lead, n, n))
        ss = np.broadcast_to(summary_valid[..., None, :], (*lead, k, k))
        ds = np.broadcast_to(summary_valid[..., None, :], (*lead, n, k))
        d, s = doc_reps, summary_reps
        for layer in self.params.doc_layers:
            dsa = multi_head_attention(d, d, d, dd, layer.self_attn, cfg.num_heads)
            ssa = multi_head_attention(s, s, s, ss, layer.self_attn, cfg.num_heads)
            d1 = add_norm(d, dsa, layer.ln_self)
            s = add_norm(s, ssa, layer.ln_self)
            cross = multi_head_attention(d1, s, s, ds, layer.cross_attn, cfg.num_heads)
            d = post_norm_block(d1, cross, layer.ln_cross, layer.ffn, layer.ln_ffn)
        return d

    def score_candidates(self, contextual: Tensor) -> Tensor:
        """One logit per candidate row; the trainer applies softmax + loss."""
        return reshape(matmul(contextual, self.params.scorer_w), contextual.shape[:-1])

    # -- full step ----------------------------------------------------------

    def unit_representations(self, units: list[list[int]]) -> Tensor:
        return self.encode_sentences(SentenceBatch.from_units(units))

    def logits_batch(self, reps: Tensor, docs: Sequence[Sequence[int]],
                     summaries: Sequence[Sequence[int]]) -> Tensor:
        """[B x n_max] candidate logits for B (document, plan prefix) pairs, one pass.

        ``reps`` holds unit vectors. Pair b's document is the rows
        ``docs[b]`` of ``reps``, pseudo-units first; its summary stream is
        the learned begin slot followed by the rows ``summaries[b]`` (see
        ``summary_rows``). Documents and summaries shorter than the batch's
        longest are padded and masked as attention keys, so the first
        ``len(docs[b])`` logits of row b score pair b and the rest are
        padding. Without padding, every row is the arithmetic of a one-pair
        pass.
        """
        if not docs or len(docs) != len(summaries):
            raise ValueError("logits_batch needs one summary per document, at least one")
        sizes = np.array([len(rows) for rows in docs], dtype=np.int64)
        lengths = np.array([1 + len(rows) for rows in summaries], dtype=np.int64)
        n, k = int(sizes.max()), int(lengths.max())
        if n > self.cfg.max_doc_sents:
            raise ValueError(f"{n} units exceed max_doc_sents {self.cfg.max_doc_sents}")
        # padding gathers row 0; row 0 of the summary table is the begin slot
        # and row 1 + r is unit vector r
        doc_ids = np.zeros((len(docs), n), dtype=np.int64)
        sum_ids = np.zeros((len(docs), k), dtype=np.int64)
        for b, (rows, summary) in enumerate(zip(docs, summaries)):
            doc_ids[b, : len(rows)] = rows
            sum_ids[b, 1: 1 + len(summary)] = np.asarray(summary, dtype=np.int64) + 1
        emb = self.params.embeddings
        d = take(reps, doc_ids)
        if self.cfg.doc_positions_enabled():
            d = add(d, take(emb.pos_doc, np.arange(n)))
        table = concat([emb.begin_summary, reps], axis=0)
        s = add(take(table, sum_ids), take(emb.pos_sum, np.arange(k)))

        ctx = self.encode_document_stepwise(d, s, np.arange(n) < sizes[:, None],
                                            np.arange(k) < lengths[:, None])
        return self.score_candidates(ctx)

    def summary_rows(self, prefix: tuple[planlib.PlanStep, ...], special_count: int,
                     break_slot: int | None) -> list[int]:
        """The document's unit row that stands for each unfinished-prefix step."""
        if len(prefix) + 1 > self.cfg.max_plan_len:
            raise ValueError(
                f"prefix of {len(prefix)} steps exceeds max_plan_len {self.cfg.max_plan_len}"
            )
        rows = []
        for step in prefix:
            if step.is_end:
                raise ValueError("prefix must be unfinished")
            if step.is_break:
                if break_slot is None:
                    raise ValueError("break step in prefix but no break slot configured")
                rows.append(break_slot)
            else:
                rows.append(special_count + step.unit)
        return rows
