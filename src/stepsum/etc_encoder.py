"""Stepwise global-local encoder over a flat document-plus-plan input.

The document's units and the partial plan are laid out as one long token
sequence with fixed per-segment budgets, one auxiliary global token per
unit/sentence/delimiter, and relative-position labels tying long tokens to
their sentence's global token. A stack of global-local layers then yields a
vector per candidate unit (pooled at the unit's first token, its anchor),
which feeds the same scoring head contract as the hierarchical encoder. The
last layer computes the anchor rows alone and leaves the global stream
as it is, since nothing reads either beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (
    NO_GLOBAL,
    AttentionConfig,
    LayerParams,
    band_pattern,
    etc_global_local_attention,
    init_glocal_layer,
)
from .autodiff import Tensor, matmul, named_tensors, reshape, take
from .config import RunConfig

SEG_SPECIAL = 0
SEG_DOC = 1
SEG_SUM = 2
SEG_PAD = 3

# global-token kinds, each with its own learned embedding row
GLOBAL_DELIM = 0
GLOBAL_SPECIAL = 1
GLOBAL_DOC = 2
GLOBAL_SUM = 3
N_GLOBAL_KINDS = 4


@dataclass
class EtcAssembly:
    """Deterministic flat layout of one (document, plan prefix) pair.

    ``long_ids`` is [CLS] + flat input (special units then document units,
    padded to the long budget) + [SEP] + plan segment (begin marker then the
    plan's tokens, padded to the summary budget) + [SEP]. ``sentence_id``
    names each token's global token, or the no-global sentinel for padding
    and for units past the global cap. ``candidate_anchor`` holds the first
    token position of every candidate unit, specials first.
    """

    long_ids: np.ndarray
    sentence_id: np.ndarray
    segment: np.ndarray
    global_count: int
    global_kind: np.ndarray
    candidate_anchor: np.ndarray
    truncated_doc_units: int = 0
    truncated_plan_elements: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def active(self) -> np.ndarray:
        return self.segment != SEG_PAD


def assemble_input(doc_units: list[list[int]], plan_units: list[list[int]],
                   special_units: list[list[int]], candidate_special_count: int,
                   *, long_budget: int, summary_budget: int, global_cap: int,
                   pad_id: int, cls_id: int, sep_id: int, beg_id: int,
                   eos_id: int) -> EtcAssembly:
    """Lay out the flat input; a pure function of its arguments.

    ``plan_units`` are the already-selected elements in prediction order,
    each a token list (a break element is the single break-marker token);
    the plan segment groups them into sentences at break markers for global
    token assignment. Oversized documents lose trailing units whole (a split
    unit could not be selected); a single unit wider than the whole long
    budget is an error.
    """
    total = long_budget + summary_budget + 3
    long_ids = np.full(total, pad_id, dtype=np.int64)
    sentence_id = np.full(total, NO_GLOBAL, dtype=np.int64)
    segment = np.full(total, SEG_PAD, dtype=np.int64)

    globals_kind: list[int] = []

    def new_global(kind: int) -> int:
        if len(globals_kind) >= global_cap:
            return NO_GLOBAL
        globals_kind.append(kind)
        return len(globals_kind) - 1

    # [CLS]
    long_ids[0] = cls_id
    segment[0] = SEG_SPECIAL
    sentence_id[0] = new_global(GLOBAL_DELIM)

    # flat input: special pseudo-units then document units; the anchors come
    # in the scorers' candidate order, candidate specials first
    anchors: list[int] = []
    pos = 1
    flat_end = 1 + long_budget
    truncated = 0
    all_units = special_units + doc_units
    for ui, unit in enumerate(all_units):
        is_special = ui < len(special_units)
        if len(unit) > long_budget:
            raise ValueError(f"unit {ui} has {len(unit)} tokens, over the long budget")
        if pos + len(unit) > flat_end:
            if is_special:
                raise ValueError("special units alone exceed the long budget")
            # drop this and all trailing units whole; a split unit could not
            # serve as a candidate
            truncated = len(all_units) - ui
            break
        gid = new_global(GLOBAL_SPECIAL if is_special else GLOBAL_DOC)
        if not is_special or ui < candidate_special_count:
            anchors.append(pos)
        long_ids[pos: pos + len(unit)] = unit
        segment[pos: pos + len(unit)] = SEG_SPECIAL if is_special else SEG_DOC
        sentence_id[pos: pos + len(unit)] = gid
        pos += len(unit)

    # first [SEP]
    sep1 = flat_end
    long_ids[sep1] = sep_id
    segment[sep1] = SEG_SPECIAL
    sentence_id[sep1] = new_global(GLOBAL_DELIM)

    # plan segment: begin marker, then plan tokens grouped into sentences
    sum_start = sep1 + 1
    sum_end = sum_start + summary_budget
    pos = sum_start
    long_ids[pos] = beg_id
    segment[pos] = SEG_SUM
    sentence_id[pos] = new_global(GLOBAL_SPECIAL)
    pos += 1

    truncated_plan = 0
    current_gid: int | None = None
    for pi, unit in enumerate(plan_units):
        if pos + len(unit) > sum_end:
            truncated_plan = len(plan_units) - pi
            break
        if current_gid is None:
            current_gid = new_global(GLOBAL_SUM)
        long_ids[pos: pos + len(unit)] = unit
        segment[pos: pos + len(unit)] = SEG_SUM
        sentence_id[pos: pos + len(unit)] = current_gid
        pos += len(unit)
        if len(unit) == 1 and unit[0] == eos_id:
            current_gid = None  # a break closes the sentence group

    # final [SEP]
    long_ids[sum_end] = sep_id
    segment[sum_end] = SEG_SPECIAL
    sentence_id[sum_end] = new_global(GLOBAL_DELIM)

    warnings = []
    if truncated:
        warnings.append(f"dropped {truncated} trailing document units over long_budget")
    if truncated_plan:
        warnings.append(f"dropped {truncated_plan} trailing plan elements over summary_budget")

    return EtcAssembly(
        long_ids=long_ids,
        sentence_id=sentence_id,
        segment=segment,
        global_count=len(globals_kind),
        global_kind=np.asarray(globals_kind, dtype=np.int64),
        candidate_anchor=np.asarray(anchors, dtype=np.int64),
        truncated_doc_units=truncated,
        truncated_plan_elements=truncated_plan,
        warnings=warnings,
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

    def etc_encode(self, assembly: EtcAssembly) -> Tensor:
        """Candidate vectors: run the stack, pool each unit's anchor token.

        Padding positions are dropped before encoding; the band pattern is
        built over the surviving tokens' original positions, so attention
        windows and relative-position labels are those of the padded layout.
        The last layer computes only what the pooling reads: it queries from
        the anchor rows alone (keys and values still come from every row)
        and skips the global stream. The ``long_to_long`` count also has the
        masked slots that reach across a padding gap, at most r(r+1) per gap.
        """
        active_idx = np.flatnonzero(assembly.active)
        anchors = np.searchsorted(active_idx, assembly.candidate_anchor)
        if not np.array_equal(active_idx[anchors], assembly.candidate_anchor):
            raise ValueError("candidate anchor points at a padding position")
        pattern = band_pattern(active_idx, self.cfg.local_radius)
        long = take(self.params.token, assembly.long_ids[active_idx])
        glob = take(self.params.global_kind, assembly.global_kind)
        sentence_id = assembly.sentence_id[active_idx]
        last = len(self.params.layers) - 1
        for i, layer in enumerate(self.params.layers):
            long, glob = etc_global_local_attention(
                long, glob, sentence_id, layer, self.attention,
                pattern=pattern.at(anchors) if i == last else pattern,
            )
        return long

    def score_candidates(self, contextual: Tensor) -> Tensor:
        return reshape(matmul(contextual, self.params.scorer_w), (contextual.shape[0],))

    def logits(self, assembly: EtcAssembly) -> Tensor:
        return self.score_candidates(self.etc_encode(assembly))
