"""Extractive oracles: the greedy training oracle and its exhaustive check.

The training oracle is greedy: starting from an empty selection, repeatedly
add the sentence that most improves the mean of Rouge-1/2/L F1 against the
reference, stopping at the first non-improving round or at the size cap
(the SummaRuNNer labelling of Nallapati et al. 2017). It scores candidates
incrementally from per-sentence counts, with the same integers and the same
float expressions as ``mean_rouge_f1`` on the concatenated selection, so
its output equals the plain recompute-everything loop bit for bit. An
exhaustive-subset oracle (small inputs only) exists purely to verify it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

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


def oracle_full(doc: Sequence[Sequence[str]], reference: Sequence[str],
                max_size: int = 4) -> OracleResult:
    """Greedy best-improvement selection; ties go to the lowest index.

    A candidate ``selected + [i]`` is scored on the sentences concatenated
    in document order. Its clipped unigram and bigram overlaps are those of
    the current selection updated by sentence ``i``'s tokens, its internal
    bigrams and the bigrams it makes and breaks at its neighbours in that
    order. Its LCS resumes from the bit-parallel state after the selected
    sentences before ``i``. Empty sentences add nothing, so never improve.
    """
    if not doc or not reference:
        raise ValueError("oracle needs a non-empty document and reference")
    ref_len = len(reference)
    ref1 = Counter(reference)
    ref2 = Counter(zip(reference, reference[1:]))
    masks = lcs_masks(reference)
    # each sentence's share of the reference: unigrams, internal bigrams, LCS masks
    uni = [Counter(t for t in s if t in ref1) for s in doc]
    bi = [Counter(b for b in zip(s, s[1:]) if b in ref2) for s in doc]
    rows = [[masks[t] for t in s if t in masks] for s in doc]

    selected: list[int] = []
    trace: list[tuple[int, float]] = []
    score = 0.0
    while len(selected) < max_size:
        order = sorted(selected)
        tokens = [t for j in order for t in doc[j]]
        have1 = Counter(tokens)
        have2 = Counter(zip(tokens, tokens[1:]))
        hits1 = sum(min(c, ref1[t]) for t, c in have1.items())
        hits2 = sum(min(c, ref2[b]) for b, c in have2.items())
        states = [(1 << ref_len) - 1]  # LCS state after each selected sentence
        for j in order:
            states.append(lcs_scan(states[-1], rows[j]))

        best_idx = -1
        best_score = score
        for i, sent in enumerate(doc):
            if not sent or i in selected:
                continue
            h1 = hits1
            for t, c in uni[i].items():
                have, cap = have1[t], ref1[t]
                h1 += min(have + c, cap) - min(have, cap)

            pos = bisect_left(order, i)
            joins = bi[i].copy()
            if pos > 0:
                left = doc[order[pos - 1]][-1]
                joins[left, sent[0]] += 1
            if pos < len(order):
                right = doc[order[pos]][0]
                joins[sent[-1], right] += 1
                if pos > 0:
                    joins[left, right] -= 1
            h2 = hits2
            for b, c in joins.items():
                cap = ref2[b]
                if cap:
                    have = have2[b]
                    h2 += min(have + c, cap) - min(have, cap)

            state = lcs_scan(states[pos], rows[i])
            for j in order[pos:]:
                state = lcs_scan(state, rows[j])
            cand = mean_f1_from_counts(len(tokens) + len(sent), ref_len, h1, h2,
                                       lcs_from_state(state, ref_len))
            if cand > best_score:
                best_score = cand
                best_idx = i
        if best_idx < 0:
            break
        selected.append(best_idx)
        score = best_score
        trace.append((best_idx, score))
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
