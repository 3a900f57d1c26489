"""Extractive oracles: the greedy training oracle and its exhaustive check.

The training oracle is greedy: starting from an empty selection, repeatedly
add the sentence that most improves the mean of Rouge-1/2/L F1 against the
reference, stopping at the first non-improving round or at the size cap
(the SummaRuNNer labelling of Nallapati et al. 2017). Each round scores
every candidate sentence at once: numpy adds each sentence's counts of the
reference's unigrams and bigrams to the selection's and clips them at the
reference's, and the F1s of all candidates come from one vectorised pass.
Only the bigrams a candidate makes and breaks at its selected neighbours
and its bit-parallel LCS are computed per candidate. The integers and float
expressions are those of ``mean_rouge_f1`` on the concatenated selection,
so the output equals the plain recompute-everything loop bit for bit. An
exhaustive-subset oracle (small inputs only) exists purely to verify it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Hashable, Iterable, Sequence

import numpy as np

from .metrics import lcs_from_state, lcs_masks, lcs_scan, mean_f1_from_counts, mean_rouge_f1


@dataclass
class OracleResult:
    selected: list[int]            # in selection order
    score: float                   # mean Rouge F1 of the final selection
    trace: list[tuple[int, float]]  # (added index, score after adding)


def _selection_score(doc: Sequence[Sequence[str]], reference: Sequence[str],
                     selected: Sequence[int]) -> float:
    tokens = [t for i in sorted(selected) for t in doc[i]]
    return mean_rouge_f1(tokens, reference)


def _columns(grams: Iterable[Hashable]) -> dict[Hashable, int]:
    """A column for each distinct gram, in order of first appearance."""
    return {g: k for k, g in enumerate(dict.fromkeys(grams))}


def _counts(columns: dict[Hashable, int], rows: Sequence[Iterable[Hashable]]) -> np.ndarray:
    """``[rows x columns]`` counts of each row's grams; grams without a column are dropped."""
    width = len(columns)
    flat = [i * width + k for i, grams in enumerate(rows) for g in grams
            if (k := columns.get(g)) is not None]
    return np.bincount(np.array(flat, dtype=np.intp),
                       minlength=len(rows) * width).reshape(len(rows), width)


def oracle_full(doc: Sequence[Sequence[str]], reference: Sequence[str],
                max_size: int = 4) -> OracleResult:
    """Greedy best-improvement selection; ties go to the lowest index.

    A candidate ``selected + [i]`` is scored on the sentences concatenated
    in document order. Its clipped unigram and bigram overlaps are those of
    the current selection plus sentence ``i``'s tokens and internal
    bigrams, plus the bigrams it makes and less the one it breaks at its
    neighbours in that order. Its LCS resumes from the bit-parallel state
    after the selected sentences before ``i``. Empty sentences add nothing,
    so never improve.
    """
    if not doc or not reference:
        raise ValueError("oracle needs a non-empty document and reference")
    ref_len = len(reference)
    ref_bigrams = list(zip(reference, reference[1:]))
    col1, col2 = _columns(reference), _columns(ref_bigrams)
    cap1, cap2 = _counts(col1, [reference])[0], _counts(col2, [ref_bigrams])[0]
    # each sentence's share of the reference: unigrams, internal bigrams, LCS masks
    uni = _counts(col1, doc)
    bi = _counts(col2, [zip(s, s[1:]) for s in doc])
    masks = lcs_masks(reference)
    rows = [[masks[t] for t in s if t in masks] for s in doc]
    lengths = np.array([len(s) for s in doc], dtype=np.int64)
    candidate = lengths > 0  # sentences that may still join the selection

    # the selection: its counts, its sentences in document order, and the
    # LCS state after each of them
    have1 = np.zeros_like(cap1)
    have2 = np.zeros_like(cap2)
    have_len = 0
    order: list[int] = []
    states = [(1 << ref_len) - 1]

    def joins(i: int, left: str | None, right: str | None) -> dict[int, int]:
        """Reference bigram columns that sentence ``i`` makes (+1) or breaks
        (-1) between the selected sentences ending in ``left`` and starting
        with ``right``; None, where there is no such sentence, is in no bigram."""
        sent = doc[i]
        out: dict[int, int] = {}
        for gram, step in (((left, sent[0]), 1), ((sent[-1], right), 1),
                           ((left, right), -1)):
            k = col2.get(gram)
            if k is not None:
                out[k] = out.get(k, 0) + step
        return out

    selected: list[int] = []
    trace: list[tuple[int, float]] = []
    score = 0.0
    while len(selected) < max_size and candidate.any():
        # the tokens on either side of each gap in the selection
        ends = [(doc[order[p - 1]][-1] if p else None,
                 doc[order[p]][0] if p < len(order) else None)
                for p in range(len(order) + 1)]
        hits1 = np.minimum(have1 + uni, cap1).sum(1)
        with_bi = have2 + bi
        hits2 = np.minimum(with_bi, cap2).sum(1)
        lcs = [0] * len(doc)
        for i in np.flatnonzero(candidate).tolist():
            pos = bisect_left(order, i)
            for k, step in joins(i, *ends[pos]).items():
                base, cap = int(with_bi[i, k]), int(cap2[k])
                hits2[i] += min(base + step, cap) - min(base, cap)
            state = lcs_scan(states[pos], rows[i])
            for j in order[pos:]:
                state = lcs_scan(state, rows[j])
            lcs[i] = lcs_from_state(state, ref_len)
        scores = mean_f1_from_counts(have_len + lengths, ref_len, hits1, hits2,
                                     np.array(lcs, dtype=np.int64))
        scores[~candidate] = -np.inf
        best = int(np.argmax(scores))
        if not scores[best] > score:
            break
        pos = bisect_left(order, best)
        have1 += uni[best]
        have2 += bi[best]
        for k, step in joins(best, *ends[pos]).items():
            have2[k] += step
        have_len += len(doc[best])
        order.insert(pos, best)
        del states[pos + 1:]
        for j in order[pos:]:
            states.append(lcs_scan(states[-1], rows[j]))
        candidate[best] = False
        selected.append(best)
        score = float(scores[best])
        trace.append((best, score))
    return OracleResult(selected, score, trace)


def brute_force_oracle(doc: Sequence[Sequence[str]], reference: Sequence[str],
                       max_size: int = 4) -> OracleResult:
    """Exhaustive argmax over all subsets of size <= max_size (test oracle).

    Ties resolve to the lexicographically smallest sorted index set. Only
    meant for verification, so documents beyond 15 sentences are rejected.
    """
    n = len(doc)
    if n > 15:
        raise ValueError(f"brute force limited to 15 sentences, got {n}")
    best: tuple[int, ...] = ()
    best_score = 0.0
    subsets = chain.from_iterable(
        combinations(range(n), k) for k in range(1, min(max_size, n) + 1)
    )
    for subset in subsets:
        score = _selection_score(doc, reference, subset)
        if score > best_score or (score == best_score and best and subset < best):
            best = subset
            best_score = score
    return OracleResult(list(best), best_score, [])
