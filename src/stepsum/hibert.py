"""Stepwise hierarchical encoder.

A sentence encoder turns each content unit into one vector (independently,
so attention maps stay per-sentence), and a document encoder fuses the unit
vectors with the representations of the already-selected plan through three
nested attentions per layer: document self-attention and summary
self-attention run in parallel on shared weights, then a document-summary
cross attention lets every unit see what the plan already covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import plan as planlib
from .attention import (
    FfnParams,
    LayerNormParams,
    MhaParams,
    feed_forward,
    init_ffn,
    init_layer_norm,
    init_mha,
    multi_head_attention,
)
from .autodiff import Tensor, add, concat, layer_norm, linear, narrow, reshape, take


@dataclass
class HibertConfig:
    dim: int = 64
    num_heads: int = 2
    ffn_dim: int = 256
    sent_layers: int = 2
    doc_layers: int = 2
    vocab_size: int = 64
    max_sent_len: int = 16
    max_doc_sents: int = 32
    max_plan_len: int = 8
    use_doc_pos: bool = True
    init_std: float = 0.02
    ln_eps: float = 1e-6


@dataclass
class EmbeddingTables:
    """Four distinct (never aliased) embedding tables plus the empty-plan slot."""

    token: Tensor
    pos_token: Tensor
    pos_doc: Tensor
    pos_sum: Tensor
    begin_summary: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.token": self.token,
            f"{prefix}.pos_token": self.pos_token,
            f"{prefix}.pos_doc": self.pos_doc,
            f"{prefix}.pos_sum": self.pos_sum,
            f"{prefix}.begin_summary": self.begin_summary,
        }


@dataclass
class SentLayerParams:
    attn: MhaParams
    ln_attn: LayerNormParams
    ffn: FfnParams
    ln_ffn: LayerNormParams

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.attn.named(f"{prefix}.attn"))
        out.update(self.ln_attn.named(f"{prefix}.ln_attn"))
        out.update(self.ffn.named(f"{prefix}.ffn"))
        out.update(self.ln_ffn.named(f"{prefix}.ln_ffn"))
        return out


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

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.self_attn.named(f"{prefix}.self_attn"))
        out.update(self.ln_self.named(f"{prefix}.ln_self"))
        out.update(self.cross_attn.named(f"{prefix}.cross_attn"))
        out.update(self.ln_cross.named(f"{prefix}.ln_cross"))
        out.update(self.ffn.named(f"{prefix}.ffn"))
        out.update(self.ln_ffn.named(f"{prefix}.ln_ffn"))
        return out


@dataclass
class HibertParams:
    embeddings: EmbeddingTables
    sent_layers: list[SentLayerParams]
    doc_layers: list[DocLayerParams]
    scorer_w: Tensor
    scorer_b: Tensor

    def named(self) -> dict[str, Tensor]:
        out = self.embeddings.named("emb")
        for i, layer in enumerate(self.sent_layers):
            out.update(layer.named(f"sent.{i}"))
        for i, layer in enumerate(self.doc_layers):
            out.update(layer.named(f"doc.{i}"))
        out["scorer.w"] = self.scorer_w
        out["scorer.b"] = self.scorer_b
        return out


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


def init_hibert(cfg: HibertConfig, rng: np.random.Generator) -> HibertParams:
    std = cfg.init_std

    def table(rows: int) -> Tensor:
        return Tensor(rng.normal(0.0, std, size=(rows, cfg.dim)), requires_grad=True)

    emb = EmbeddingTables(
        token=table(cfg.vocab_size),
        pos_token=table(cfg.max_sent_len),
        pos_doc=table(cfg.max_doc_sents),
        pos_sum=table(cfg.max_plan_len),
        begin_summary=table(1),
    )
    sent_layers = [
        SentLayerParams(
            attn=init_mha(rng, cfg.dim, std),
            ln_attn=init_layer_norm(cfg.dim),
            ffn=init_ffn(rng, cfg.dim, cfg.ffn_dim, std),
            ln_ffn=init_layer_norm(cfg.dim),
        )
        for _ in range(cfg.sent_layers)
    ]
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
        scorer_b=Tensor(np.zeros(1), requires_grad=True),
    )


class StepwiseHibert:
    """Hierarchical next-unit scorer conditioned on the selected plan prefix."""

    def __init__(self, cfg: HibertConfig, rng: np.random.Generator | None = None,
                 params: HibertParams | None = None):
        self.cfg = cfg
        if params is None:
            params = init_hibert(cfg, rng if rng is not None else np.random.default_rng(0))
        self.params = params

    def named_parameters(self) -> dict[str, Tensor]:
        return self.params.named()

    # -- sentence level ----------------------------------------------------

    def encode_sentences(self, batch: SentenceBatch) -> Tensor:
        """One vector per unit: embed, run the sentence stack, pool token 0."""
        cfg = self.cfg
        n, width = batch.token_ids.shape
        if width > cfg.max_sent_len:
            raise ValueError(f"sentence width {width} exceeds max_sent_len {cfg.max_sent_len}")
        x = take(self.params.embeddings.token, batch.token_ids)
        x = add(x, take(self.params.embeddings.pos_token, np.arange(width)))
        # keys limited to real tokens; every query row keeps at least token 0
        valid = np.arange(width)[None, :] < batch.lengths[:, None]
        mask = np.broadcast_to(valid[:, None, :], (n, width, width))
        for layer in self.params.sent_layers:
            a = multi_head_attention(x, x, x, mask, layer.attn, cfg.num_heads)
            x = _ln(add(x, a), layer.ln_attn, cfg.ln_eps)
            x = _ln(add(x, feed_forward(x, layer.ffn)), layer.ln_ffn, cfg.ln_eps)
        return reshape(narrow(x, 1, 0, 1), (n, cfg.dim))

    # -- document level ----------------------------------------------------

    def encode_document_stepwise(self, doc_reps: Tensor, summary_reps: Tensor) -> Tensor:
        """Summary-informed contextual unit vectors.

        ``doc_reps`` is [n x dim] and ``summary_reps`` [k x dim], or both carry
        the same leading batch axis, one document/summary pair per entry.
        They already carry their positional terms; the summary stream always
        starts with the learned begin-of-plan slot, so it is never empty.
        """
        cfg = self.cfg
        if summary_reps.shape[-2] == 0:
            raise ValueError("summary stream must hold at least the begin slot")
        n = doc_reps.shape[-2]
        k = summary_reps.shape[-2]
        full_dd = np.ones((n, n), dtype=bool)
        full_ss = np.ones((k, k), dtype=bool)
        full_ds = np.ones((n, k), dtype=bool)
        d, s = doc_reps, summary_reps
        for layer in self.params.doc_layers:
            ds = multi_head_attention(d, d, d, full_dd, layer.self_attn, cfg.num_heads)
            ss = multi_head_attention(s, s, s, full_ss, layer.self_attn, cfg.num_heads)
            d1 = _ln(add(d, ds), layer.ln_self, cfg.ln_eps)
            s1 = _ln(add(s, ss), layer.ln_self, cfg.ln_eps)
            cross = multi_head_attention(d1, s1, s1, full_ds, layer.cross_attn,
                                         cfg.num_heads)
            d2 = _ln(add(d1, cross), layer.ln_cross, cfg.ln_eps)
            d = _ln(add(d2, feed_forward(d2, layer.ffn)), layer.ln_ffn, cfg.ln_eps)
            s = s1
        return d

    def score_candidates(self, contextual: Tensor) -> Tensor:
        """One logit per candidate row; the trainer applies softmax + loss."""
        return reshape(linear(contextual, self.params.scorer_w, self.params.scorer_b),
                       contextual.shape[:-1])

    # -- full step ----------------------------------------------------------

    def unit_representations(self, units: list[list[int]]) -> Tensor:
        return self.encode_sentences(SentenceBatch.from_units(units))

    def logits(self, units: list[list[int]], prefix: tuple[planlib.PlanStep, ...],
               special_count: int, break_slot: int | None = None,
               unit_reps: Tensor | None = None) -> Tensor:
        """Candidate logits given the document's units and a plan prefix.

        ``units`` lists the pseudo-units first (stop marker, and the sentence
        break marker in table mode), then the real units. ``break_slot`` is
        the row index of the break pseudo-unit, used to represent break steps
        on the summary side. ``unit_reps`` short-circuits the sentence
        encoder when the caller already holds the unit vectors.
        """
        rows = self._summary_rows(prefix, special_count, break_slot)
        reps = unit_reps if unit_reps is not None else self.unit_representations(units)
        d = self._document_stream(reps)
        if rows:
            row_idx = np.asarray(rows, dtype=np.int64)
            s = concat([self.params.embeddings.begin_summary, take(reps, row_idx)], axis=0)
        else:
            s = self.params.embeddings.begin_summary
        s = add(s, take(self.params.embeddings.pos_sum, np.arange(len(rows) + 1)))

        ctx = self.encode_document_stepwise(d, s)
        return self.score_candidates(ctx)

    def logits_batch(self, units: list[list[int]],
                     prefixes: list[tuple[planlib.PlanStep, ...]],
                     special_count: int, break_slot: int | None = None,
                     unit_reps: Tensor | None = None) -> Tensor:
        """[B x n] candidate logits for B prefixes of one length, one pass.

        Row b equals ``logits`` for ``prefixes[b]``: the document stream is
        [B x n x dim], the same rows for every prefix, and the summary stream
        [B x (t+1) x dim] gathers the begin slot and each prefix's unit
        vectors from one table.
        """
        if not prefixes:
            raise ValueError("logits_batch needs at least one prefix")
        t = len(prefixes[0])
        if any(len(p) != t for p in prefixes):
            raise ValueError("logits_batch needs prefixes of one length")
        # row 0 of the table is the begin slot, row 1 + r is unit vector r
        ids = np.array([[0] + [1 + r for r in self._summary_rows(p, special_count,
                                                                break_slot)]
                        for p in prefixes], dtype=np.int64)
        reps = unit_reps if unit_reps is not None else self.unit_representations(units)
        d = self._document_stream(reps)
        n = reps.shape[0]
        d = take(d, np.broadcast_to(np.arange(n), (len(prefixes), n)))
        table = concat([self.params.embeddings.begin_summary, reps], axis=0)
        s = add(take(table, ids), take(self.params.embeddings.pos_sum, np.arange(t + 1)))

        ctx = self.encode_document_stepwise(d, s)
        return self.score_candidates(ctx)

    def _document_stream(self, reps: Tensor) -> Tensor:
        """Unit vectors plus their document positions."""
        n = reps.shape[0]
        if n > self.cfg.max_doc_sents:
            raise ValueError(f"{n} units exceed max_doc_sents {self.cfg.max_doc_sents}")
        if self.cfg.use_doc_pos:
            return add(reps, take(self.params.embeddings.pos_doc, np.arange(n)))
        return reps

    def _summary_rows(self, prefix: tuple[planlib.PlanStep, ...], special_count: int,
                      break_slot: int | None) -> list[int]:
        """The unit-vector row that stands for each step of an unfinished prefix."""
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


def _ln(x: Tensor, p: LayerNormParams, eps: float) -> Tensor:
    return layer_norm(x, p.gain, p.bias, eps)
