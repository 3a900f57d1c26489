"""Reference copies of the Rouge and greedy-oracle code that the bit-parallel
LCS and the incremental oracle replaced, kept verbatim as test oracles.

The differential tests require the replacements to give exactly the same
integers, floats, selections and traces as these plain loops.
"""

from collections import Counter


def _f1(p, r):
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def rouge_n_f1(candidate, reference, n):
    if len(reference) < n:
        return 0.0
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    overlap = sum((cand & ref).values())
    p = overlap / max(sum(cand.values()), 1) if cand else 0.0
    r = overlap / sum(ref.values())
    return _f1(p, r)


def lcs_length_dp(a, b):
    """The O(len(a) * len(b)) dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_l_f1(candidate, reference):
    if not reference:
        return 0.0
    if not candidate:
        return 0.0
    lcs = lcs_length_dp(candidate, reference)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return _f1(p, r)


def mean_rouge_f1(candidate, reference):
    return (rouge_n_f1(candidate, reference, 1)
            + rouge_n_f1(candidate, reference, 2)
            + rouge_l_f1(candidate, reference)) / 3.0


def oracle_full(doc, reference, max_size=4):
    """Greedy oracle that rescores every candidate selection from scratch.

    Returns ``(selected, score, trace)``.
    """
    if not doc or not reference:
        raise ValueError("oracle needs a non-empty document and reference")
    selected = []
    trace = []
    score = 0.0
    while len(selected) < max_size:
        best_idx = -1
        best_score = score
        for i in range(len(doc)):
            if i in selected:
                continue
            tokens = [t for j in sorted(selected + [i]) for t in doc[j]]
            cand = mean_rouge_f1(tokens, reference)
            if cand > best_score:
                best_score = cand
                best_idx = i
        if best_idx < 0:
            break
        selected.append(best_idx)
        score = best_score
        trace.append((best_idx, score))
    return selected, score, trace
