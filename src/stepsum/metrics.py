"""Evaluation mathematics: Rouge, edit-distance ordering, record overlap.

Everything here is a pure function over token or record sequences. Rouge-L
uses the longest common subsequence over concatenated tokens, computed
bit-parallel (Allison & Dix 1986; Hyyro 2004): one bit mask per distinct
reference token and a few big-int operations per candidate token, the same
integer as the O(n*m) dynamic program. Rouge-N uses clipped n-gram counts,
and one helper turns match counts into precision, recall and F1 for both,
and for the greedy oracle's arrays of counts, one entry per candidate.
Plan comparison uses multiset record intersection (selection) and the
complement of the normalized Damerau-Levenshtein distance (ordering). The
edit distance is the restricted variant (optimal string alignment), the one
conventional for plan-ordering scores.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .plan import RecordRef
from .stemmer import stem_tokens

__all__ = [
    "RougeScore", "CsResult", "rouge_n", "rouge_l", "mean_rouge_f1",
    "mean_f1_from_counts", "lcs_masks", "lcs_scan", "lcs_from_state",
    "dld", "co_score", "cs_scores", "stem_tokens", "PLAN_FILTER_TYPES",
]

# dropped before content-selection scoring when the filter flag is on
PLAN_FILTER_TYPES = frozenset({
    "TEAM-NAME", "TEAM-CITY", "PLAYER-FIRST_NAME", "PLAYER-SECOND_NAME",
    "MATCH-DATE",
})


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class CsResult:
    precision: float
    recall: float
    f1: float


# The helpers below take Python numbers or numpy arrays, one entry per
# candidate, with the same expressions either way. Counts stay far below
# 2**53, so numpy's float64 true division gives Python's floats.


def _ratio(num, den):
    """``num / den``, and 0.0 where ``den`` is 0 (``num`` is then 0 too)."""
    return num / (den + (den == 0))


def _f1(p, r):
    return _ratio(2 * p * r, p + r)


def _prf(hits, cand_total, ref_total: int):
    """Precision, recall and F1 of ``hits`` matches; no candidate units scores 0."""
    p = _ratio(hits, cand_total)
    r = hits / ref_total
    return p, r, _f1(p, r)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def _overlap(candidate: Sequence[str], reference: Sequence[str], n: int) -> int:
    return sum((_ngrams(candidate, n) & _ngrams(reference, n)).values())


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(reference) < n:
        return RougeScore(0.0, 0.0, 0.0)
    return RougeScore(*_prf(_overlap(candidate, reference, n),
                            max(len(candidate) - n + 1, 0), len(reference) - n + 1))


def lcs_masks(reference: Sequence[Hashable]) -> dict[Hashable, int]:
    """Bit j of a token's mask is set where ``reference[j]`` is that token."""
    masks: dict[Hashable, int] = {}
    for j, tok in enumerate(reference):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    return masks


def lcs_scan(state: int, masks: Iterable[int]) -> int:
    """Advance a bit-parallel LCS state over candidate tokens' masks.

    Start from ``(1 << len(reference)) - 1``; tokens absent from the
    reference have mask 0 and leave the state unchanged, so callers may
    drop them. Carries out of the low ``len(reference)`` bits are harmless.
    """
    for m in masks:
        u = state & m
        state = (state + u) | (state - u)
    return state


def lcs_from_state(state: int, ref_len: int) -> int:
    """The LCS length: the number of cleared bits among the low ``ref_len``."""
    return ref_len - (state & ((1 << ref_len) - 1)).bit_count()


def _lcs_length(a: Sequence, b: Sequence) -> int:
    masks = lcs_masks(b)
    state = lcs_scan((1 << len(b)) - 1, [masks[t] for t in a if t in masks])
    return lcs_from_state(state, len(b))


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence precision/recall/F1."""
    if not reference:
        return RougeScore(0.0, 0.0, 0.0)
    return RougeScore(*_prf(_lcs_length(candidate, reference),
                            len(candidate), len(reference)))


def mean_f1_from_counts(cand_len, ref_len: int, unigram_hits, bigram_hits, lcs):
    """Mean Rouge-1/2/L F1 from token counts, clipped overlaps and the LCS.

    The candidate's counts are ints, or integer arrays that give an array
    of scores, one per candidate. A reference shorter than n scores 0 on
    Rouge-N, as in ``rouge_n``.
    """
    r1 = _prf(unigram_hits, cand_len, ref_len)[2] if ref_len >= 1 else 0.0
    # one bigram fewer than tokens, and none in an empty candidate
    r2 = (_prf(bigram_hits, cand_len - (cand_len > 0), ref_len - 1)[2]
          if ref_len >= 2 else 0.0)
    rl = _prf(lcs, cand_len, ref_len)[2] if ref_len >= 1 else 0.0
    return (r1 + r2 + rl) / 3.0


def mean_rouge_f1(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Arithmetic mean of Rouge-1, Rouge-2 and Rouge-L F1."""
    return mean_f1_from_counts(len(candidate), len(reference),
                               _overlap(candidate, reference, 1),
                               _overlap(candidate, reference, 2),
                               _lcs_length(candidate, reference))


# ---------------------------------------------------------------------------
# edit distance and plan comparison
# ---------------------------------------------------------------------------


def dld(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Restricted Damerau-Levenshtein distance (optimal string alignment).

    Insert, delete, substitute and adjacent transpose, where no substring
    is edited more than once: nothing is edited inside a transposed pair.
    """
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        prev2, prev = prev, cur
    return prev[lb]


def co_score(gen: Sequence[Hashable], ref: Sequence[Hashable]) -> float:
    """Ordering agreement: 1 - normalized edit distance; both empty scores 1."""
    if not gen and not ref:
        return 1.0
    return 1.0 - dld(gen, ref) / max(len(gen), len(ref))


def cs_scores(gen: Sequence[RecordRef], ref: Sequence[RecordRef],
              drop_name_city_date: bool = False) -> CsResult:
    """Content-selection precision/recall over record multisets."""
    if drop_name_city_date:
        gen = [r for r in gen if r.type not in PLAN_FILTER_TYPES]
        ref = [r for r in ref if r.type not in PLAN_FILTER_TYPES]
    if not gen:
        return CsResult(0.0, 0.0, 0.0)
    overlap = sum((Counter(gen) & Counter(ref)).values())
    p = overlap / len(gen)
    r = overlap / len(ref) if ref else 0.0
    return CsResult(p, r, _f1(p, r))
