"""Task-level glue: build either encoder and score steps for a document.

``build_model`` initialises a model from a seed; ``load_model`` lays out
the same parameter tree from a checkpoint's arrays, with no random draw.

``score_pairs`` is the one scoring path: given (prepared document, plan
prefix) pairs, it returns one logits vector, a logit per candidate of each
pair at that pair's span, and it is the only place that tells the encoders
apart. The hierarchical encoder scores all pairs in one padded
document-encoder pass, after one sentence-encoder pass over their distinct
documents. The flat encoder assembles each pair and encodes all of them as
one stream, with no padding rows; its first layer's prefix-independent rows
(``StepwiseEtc.fixed_parts``) are computed once per (document, global kinds)
key that pairs can share, which a lone empty prefix's key is not, the new
keys of a call in one more stream call. Training, validation and decode all
score through it. ``ModelStepScorer`` adapts it to the decoder protocol: it
keeps what is prefix-independent (the hierarchical encoder's unit vectors,
the flat encoder's fixed parts) across calls and memoizes each prefix's
log-probabilities, so a decode runs the model once per distinct prefix and
scores a beam depth's new prefixes in one call.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from . import data as datalib
from .autodiff import Tensor, cross_entropy, reshape
from .checkpoint import restore_params
from .config import RunConfig
from .data import PreparedDoc, Vocab, candidate_index
from .etc_encoder import EtcAssembly, StepwiseEtc, assemble_input
from .hibert import StepwiseHibert
from .plan import PlanStep

Model = StepwiseHibert | StepwiseEtc


def _model_class(cfg: RunConfig) -> type[Model]:
    return StepwiseHibert if cfg.encoder == "hibert" else StepwiseEtc


def build_model(cfg: RunConfig, vocab_size: int, seed: int | None = None) -> Model:
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    return _model_class(cfg)(cfg, vocab_size, rng)


class _ZeroDraws:
    """An init generator whose every draw is zeros: it draws nothing."""

    @staticmethod
    def normal(loc: float, scale: float, size) -> np.ndarray:
        return np.zeros(size)


def load_model(cfg: RunConfig, vocab_size: int, arrays: dict[str, np.ndarray]) -> Model:
    """The model ``build_model`` lays out, holding the checkpoint ``arrays``.

    ``restore_params`` fills it, and rejects a missing, extra or misshapen
    tensor.
    """
    model = _model_class(cfg)(cfg, vocab_size, _ZeroDraws())
    restore_params(model.named_parameters(), arrays)
    return model


def trim_for_flat_budget(prepared: PreparedDoc, cfg: RunConfig,
                         vocab: Vocab) -> PreparedDoc:
    """Drop the trailing real units that do not fit the flat layout.

    The flat input holds the special units (plus the plan-begin marker in
    table mode) and then the document units; whatever does not fit the long
    budget could never be a candidate, so it is removed up front to keep the
    candidate list aligned with the layout. This is the only place that
    drops document units; ``assemble_input`` rejects a unit that overflows.
    """
    specials = [len(u) for u in prepared.units[: prepared.special_count]]
    extra = 1 if prepared.break_slot is not None else 0  # begin marker unit
    used = sum(specials) + extra
    keep = 0
    for u in prepared.units[prepared.special_count:]:
        if used + len(u) > cfg.long_budget:
            break
        used += len(u)
        keep += 1
    if keep == prepared.n_real_units:
        return prepared
    n = prepared.special_count + keep
    return PreparedDoc(
        doc_id=prepared.doc_id,
        units=prepared.units[:n],
        unit_tokens=prepared.unit_tokens[:n],
        candidates=prepared.candidates[:n],
        special_count=prepared.special_count,
        break_slot=prepared.break_slot,
        records=prepared.records[:keep],
    )


def assemble_for(cfg: RunConfig, vocab: Vocab, prepared: PreparedDoc,
                 prefix: tuple[PlanStep, ...]) -> EtcAssembly:
    """The flat layout of one pair; a pair that does not fit it is an error,
    never a silently shortened input."""
    if any(step.is_end for step in prefix):
        raise ValueError("prefix must be unfinished")
    special_units = list(prepared.units[: prepared.special_count])
    if prepared.break_slot is not None:
        special_units.append([vocab[datalib.BEG]])
    plan_units = [prepared.units[candidate_index(prepared, step)] for step in prefix]
    try:
        return assemble_input(
            prepared.units[prepared.special_count:],
            plan_units,
            special_units,
            prepared.special_count,
            long_budget=cfg.long_budget,
            summary_budget=cfg.summary_budget,
            global_cap=cfg.global_cap,
            cls_id=vocab[datalib.CLS],
            sep_id=vocab[datalib.SEP],
            beg_id=vocab[datalib.BEG],
            eos_id=vocab[datalib.EOS],
        )
    except ValueError as e:
        raise ValueError(f"document {prepared.doc_id}: {e}") from None


def score_pairs(model: Model, cfg: RunConfig, vocab: Vocab,
                pairs: Sequence[tuple[PreparedDoc, tuple[PlanStep, ...]]],
                reps_cache: dict | None = None) -> tuple[Tensor, list[tuple[int, int]]]:
    """Candidate logits of all pairs, one 1-D tensor, and each pair's span in it.

    ``reps_cache``, when given, keeps what is prefix-independent across
    calls on the same documents: the hierarchical encoder's unit vectors,
    and the flat encoder's fixed part per (document, global kinds) key,
    computed even for a key one pair uses, since later calls may reuse it.
    The empty prefix's key is the exception: every longer prefix opens a
    plan global, so it shares that key only when the document's globals
    already fill ``global_cap``. Without a cache, and for an empty prefix
    with one, a fixed part is computed only for a key two or more pairs of
    the call share; a lone pair computes its first layer whole, in one call
    instead of two. All flat-encoder pairs are one
    ``StepwiseEtc.logits`` call; a pair that does not fit its layout is an
    error (``assemble_for``).
    """
    if isinstance(model, StepwiseHibert):
        starts: dict[int, int] = {}
        units: list[list[int]] = []
        for doc, _ in pairs:
            if id(doc) not in starts:
                starts[id(doc)] = len(units)
                units.extend(doc.units)
        cache = {} if reps_cache is None else reps_cache
        key = tuple(starts)
        if key not in cache:
            cache[key] = model.unit_representations(units)
        docs = [range(starts[id(doc)], starts[id(doc)] + len(doc.units)) for doc, _ in pairs]
        summaries = [[starts[id(doc)] + r
                      for r in model.summary_rows(prefix, doc.special_count, doc.break_slot)]
                     for doc, prefix in pairs]
        logits = model.logits_batch(cache[key], docs, summaries)
        width = logits.shape[1]
        return (reshape(logits, (len(pairs) * width,)),
                [(b * width, len(rows)) for b, rows in enumerate(docs)])
    assemblies = [assemble_for(cfg, vocab, doc, prefix) for doc, prefix in pairs]
    keys = [(id(doc), asm.global_kind.tobytes()) for (doc, _), asm in zip(pairs, assemblies)]
    cache = {} if reps_cache is None else reps_cache
    shared = Counter(keys)
    new: dict = {}
    for (_, prefix), key, asm in zip(pairs, keys, assemblies):
        if key not in cache and (shared[key] > 1 or reps_cache is not None and prefix):
            new.setdefault(key, asm)
    if new:
        cache.update(zip(new, model.fixed_parts(list(new.values()))))
    logits = model.logits(assemblies, [cache.get(key) for key in keys])
    counts = [asm.candidate_anchor.size for asm in assemblies]
    return logits, [(sum(counts[:i]), n) for i, n in enumerate(counts)]


def log_softmax(values: np.ndarray) -> np.ndarray:
    m = values.max()
    shifted = values - m
    return shifted - np.log(np.exp(shifted).sum())


def batch_mean_loss(model: Model, cfg: RunConfig, vocab: Vocab,
                    batch: list) -> Tensor:
    """Mean cross-entropy over a minibatch of step examples, scored in one call."""
    logits, spans = score_pairs(model, cfg, vocab, [(ex.doc, ex.prefix) for ex in batch])
    return cross_entropy(logits, [ex.target for ex in batch], spans)


class ModelStepScorer:
    """Decoder-facing view of one (model, document) pair.

    Log-probabilities are memoized by prefix, so no prefix of the document
    runs the model twice, and each call scores its new prefixes together.
    """

    def __init__(self, model: Model, cfg: RunConfig, vocab: Vocab,
                 prepared: PreparedDoc):
        self.model = model
        self.cfg = cfg
        self.vocab = vocab
        self.prepared = prepared
        self.candidates = list(prepared.candidates)
        self._reps_cache: dict = {}
        self._memo: dict[tuple[PlanStep, ...], np.ndarray] = {}

    def step_log_probs(self, prefix: tuple[PlanStep, ...]) -> np.ndarray:
        return self.step_log_probs_batch([prefix])[0]

    def step_log_probs_batch(self, prefixes: list[tuple[PlanStep, ...]]
                             ) -> list[np.ndarray]:
        """One row per prefix; rows are the memo's own arrays, not copies."""
        new = [p for p in dict.fromkeys(prefixes) if p not in self._memo]
        if new:
            logits, spans = score_pairs(self.model, self.cfg, self.vocab,
                                        [(self.prepared, p) for p in new], self._reps_cache)
            for prefix, (s, n) in zip(new, spans):
                self._memo[prefix] = log_softmax(logits.data[s:s + n])
        return [self._memo[p] for p in prefixes]

    def candidate_tokens(self, index: int) -> list[str]:
        return self.prepared.unit_tokens[index]
