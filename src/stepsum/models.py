"""Task-level glue: build either encoder and score steps for a document.

Both encoders expose the same contract here: given a prepared document and a
plan prefix, produce one logit per candidate. ``ModelStepScorer`` adapts
that to the decoder protocol. It caches whatever is prefix-independent (the
hierarchical encoder's unit vectors in particular) and memoizes each
prefix's log-probabilities, so a decode runs the model once per distinct
prefix. The hierarchical encoder scores the new prefixes of one length,
such as all live hypotheses of a beam depth, in one batched pass; the flat
encoder scores prefixes one at a time.
"""

from __future__ import annotations

import numpy as np

from . import data as datalib
from .autodiff import Tensor
from .config import RunConfig
from .data import PreparedDoc, Vocab
from .etc_encoder import EtcAssembly, EtcConfig, StepwiseEtc, assemble_input
from .hibert import HibertConfig, StepwiseHibert
from .plan import PlanStep

Model = StepwiseHibert | StepwiseEtc


def build_model(cfg: RunConfig, vocab_size: int, seed: int | None = None) -> Model:
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    if cfg.encoder == "hibert":
        hcfg = HibertConfig(
            dim=cfg.dim,
            num_heads=cfg.num_heads,
            ffn_dim=cfg.ffn_dim,
            sent_layers=cfg.sent_layers,
            doc_layers=cfg.doc_layers,
            vocab_size=vocab_size,
            max_sent_len=cfg.max_sent_len,
            max_doc_sents=cfg.max_doc_sents,
            max_plan_len=cfg.max_plan_len,
            use_doc_pos=cfg.doc_positions_enabled(),
            init_std=cfg.init_std,
        )
        return StepwiseHibert(hcfg, rng)
    ecfg = EtcConfig(
        dim=cfg.dim,
        num_heads=cfg.num_heads,
        ffn_dim=cfg.ffn_dim,
        layers=cfg.etc_layers,
        vocab_size=vocab_size,
        long_budget=cfg.long_budget,
        summary_budget=cfg.summary_budget,
        global_cap=cfg.global_cap,
        local_radius=cfg.local_radius,
        relpos_vocab_size=cfg.relpos_vocab_size,
        max_distance=cfg.relpos_max_distance,
        init_std=cfg.init_std,
    )
    return StepwiseEtc(ecfg, rng)


def trim_for_flat_budget(prepared: PreparedDoc, cfg: RunConfig,
                         vocab: Vocab) -> PreparedDoc:
    """Drop trailing real units so the flat layout never truncates mid-run.

    The flat input holds the special units (plus the plan-begin marker in
    table mode) and then the document units; whatever does not fit the long
    budget could never be a candidate, so it is removed up front to keep the
    candidate list aligned with the layout.
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
    eos_id = vocab[datalib.EOS]
    special_units = list(prepared.units[: prepared.special_count])
    if prepared.break_slot is not None:
        special_units.append([vocab[datalib.BEG]])
    plan_units = []
    for step in prefix:
        if step.is_end:
            raise ValueError("prefix must be unfinished")
        if step.is_break:
            plan_units.append([eos_id])
        else:
            plan_units.append(prepared.units[prepared.special_count + step.unit])
    return assemble_input(
        prepared.units[prepared.special_count:],
        plan_units,
        special_units,
        prepared.special_count,
        long_budget=cfg.long_budget,
        summary_budget=cfg.summary_budget,
        global_cap=cfg.global_cap,
        pad_id=vocab.pad_id,
        cls_id=vocab[datalib.CLS],
        sep_id=vocab[datalib.SEP],
        beg_id=vocab[datalib.BEG],
        eos_id=eos_id,
    )


def model_logits(model: Model, cfg: RunConfig, vocab: Vocab,
                 prepared: PreparedDoc, prefix: tuple[PlanStep, ...]) -> Tensor:
    if isinstance(model, StepwiseHibert):
        return model.logits(prepared.units, prefix, prepared.special_count,
                            prepared.break_slot)
    assembly = assemble_for(cfg, vocab, prepared, prefix)
    if assembly.truncated_doc_units:
        raise ValueError(
            f"{assembly.truncated_doc_units} units truncated at assembly; "
            "trim the document before scoring"
        )
    return model.logits(assembly)


def log_softmax(values: np.ndarray) -> np.ndarray:
    m = values.max()
    shifted = values - m
    return shifted - np.log(np.exp(shifted).sum())


def batch_mean_loss(model: Model, cfg: RunConfig, vocab: Vocab,
                    batch: list) -> Tensor:
    """Mean cross-entropy over a minibatch of step examples.

    With the hierarchical encoder, unit vectors depend only on the document,
    so the batch's unique documents share one sentence-encoder pass and each
    example reuses its document's rows from that joint computation.
    """
    from .autodiff import add, cross_entropy, narrow, scale

    losses = []
    if isinstance(model, StepwiseHibert):
        unique: dict[int, PreparedDoc] = {}
        for ex in batch:
            unique.setdefault(id(ex.doc), ex.doc)
        all_units: list[list[int]] = []
        offsets: dict[int, tuple[int, int]] = {}
        for key, prep in unique.items():
            offsets[key] = (len(all_units), len(prep.units))
            all_units.extend(prep.units)
        reps_all = model.unit_representations(all_units)
        reps_of = {
            key: narrow(reps_all, 0, off, n) for key, (off, n) in offsets.items()
        }
        for ex in batch:
            logits = model.logits(ex.doc.units, ex.prefix, ex.doc.special_count,
                                  ex.doc.break_slot, unit_reps=reps_of[id(ex.doc)])
            losses.append(cross_entropy(logits, ex.target))
    else:
        for ex in batch:
            logits = model_logits(model, cfg, vocab, ex.doc, ex.prefix)
            losses.append(cross_entropy(logits, ex.target))
    total = losses[0]
    for piece in losses[1:]:
        total = add(total, piece)
    return scale(total, 1.0 / len(losses))


class ModelStepScorer:
    """Decoder-facing view of one (model, document) pair.

    Log-probabilities are memoized by prefix, so no prefix of the document
    runs the model twice. The hierarchical encoder scores each group of new
    prefixes that share a length in one batched pass; the flat encoder
    scores them one at a time, since its summary side differs in length from
    prefix to prefix.
    """

    def __init__(self, model: Model, cfg: RunConfig, vocab: Vocab,
                 prepared: PreparedDoc):
        self.model = model
        self.cfg = cfg
        self.vocab = vocab
        self.prepared = prepared
        self.candidates = list(prepared.candidates)
        self._unit_reps: Tensor | None = None
        if isinstance(model, StepwiseHibert):
            self._unit_reps = model.unit_representations(prepared.units)
        self._memo: dict[tuple[PlanStep, ...], np.ndarray] = {}

    def step_log_probs(self, prefix: tuple[PlanStep, ...]) -> np.ndarray:
        return self.step_log_probs_batch([prefix])[0]

    def step_log_probs_batch(self, prefixes: list[tuple[PlanStep, ...]]
                             ) -> list[np.ndarray]:
        """One row per prefix; rows are the memo's own arrays, not copies."""
        new = [p for p in dict.fromkeys(prefixes) if p not in self._memo]
        if isinstance(self.model, StepwiseHibert):
            by_length: dict[int, list[tuple[PlanStep, ...]]] = {}
            for prefix in new:
                by_length.setdefault(len(prefix), []).append(prefix)
            prep = self.prepared
            for group in by_length.values():
                logits = self.model.logits_batch(prep.units, group, prep.special_count,
                                                 prep.break_slot, unit_reps=self._unit_reps)
                for prefix, row in zip(group, logits.data):
                    self._memo[prefix] = log_softmax(row)
        else:
            for prefix in new:
                logits = model_logits(self.model, self.cfg, self.vocab, self.prepared,
                                      prefix)
                self._memo[prefix] = log_softmax(logits.data)
        return [self._memo[p] for p in prefixes]

    def candidate_tokens(self, index: int) -> list[str]:
        return self.prepared.unit_tokens[index]
