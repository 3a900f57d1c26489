"""Turn a trained step scorer into plans.

The decoder is generic over a scorer: anything exposing the candidate list
and a log-probability vector per prefix, for one prefix or a batch of them.
Plans are compared by raw log probability (sum of step log-probs, no length
normalization); ties break toward the lexicographically smaller
candidate-index sequence, then the shorter hypothesis, which keeps every
decode reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .plan import END_STEP, PlanStep


class StepScorer(Protocol):
    """What the decoder needs from a model.

    ``beam_decode`` scores all live hypotheses of a depth with one
    ``step_log_probs_batch`` call; the greedy floor asks for one prefix at a
    time. A scorer with no faster batch path may subclass this protocol and
    inherit the default batch, one ``step_log_probs`` call per prefix.
    """

    candidates: list[PlanStep]

    def step_log_probs(self, prefix: tuple[PlanStep, ...]) -> np.ndarray:
        """Log probabilities over ``candidates`` given an unfinished prefix."""
        ...

    def step_log_probs_batch(self, prefixes: Sequence[tuple[PlanStep, ...]]
                             ) -> list[np.ndarray]:
        """One ``step_log_probs`` row per prefix, in the order given."""
        return [self.step_log_probs(prefix) for prefix in prefixes]

    def candidate_tokens(self, index: int) -> list[str]:
        """Surface tokens of a candidate unit (for trigram blocking)."""
        ...


# table mode: records of these types may repeat even under no_repeat
REPEAT_EXEMPT_TYPES = frozenset({"TEAM-NAME", "TEAM-CITY"})


@dataclass(frozen=True)
class DecodeConstraints:
    no_repeat: bool = True
    trigram_blocking: bool = False
    # table mode: breaks plus REPEAT_EXEMPT_TYPES records may repeat
    repeat_exceptions: bool = False


@dataclass(frozen=True)
class Hypothesis:
    steps: tuple[PlanStep, ...]
    index_trace: tuple[int, ...]
    log_prob: float
    finished: bool


@dataclass
class DecodeResult:
    steps: list[PlanStep]
    log_prob: float
    incomplete: bool = False  # set when every expansion was pruned mid-decode


def token_trigrams(tokens: Sequence[str]) -> set[tuple[str, ...]]:
    """Every run of three consecutive tokens."""
    return {tuple(tokens[i: i + 3]) for i in range(len(tokens) - 2)}


def trigram_block(candidate_tokens: Sequence[str],
                  summary_trigrams: set[tuple[str, ...]]) -> bool:
    """True when the candidate has a token trigram among ``summary_trigrams``."""
    return any(
        tuple(candidate_tokens[i: i + 3]) in summary_trigrams
        for i in range(len(candidate_tokens) - 2)
    )


def _summary_tokens(scorer: StepScorer, steps: Sequence[PlanStep]) -> list[str]:
    out: list[str] = []
    for step in steps:
        if step.kind == "unit":
            out.extend(scorer.candidate_tokens(scorer.candidates.index(step)))
    return out


def _step_blocked(scorer: StepScorer, taken: set[PlanStep], step: PlanStep, index: int,
                  constraints: DecodeConstraints,
                  summary_trigrams: set[tuple[str, ...]] | None) -> bool:
    if step.is_end or step.is_break:
        return False
    if constraints.no_repeat and step in taken:
        if not (constraints.repeat_exceptions and step.record is not None
                and step.record.type in REPEAT_EXEMPT_TYPES):
            return True
    if summary_trigrams and trigram_block(scorer.candidate_tokens(index),
                                          summary_trigrams):
        return True
    return False


def _expand(scorer: StepScorer, hyp: Hypothesis, log_probs: np.ndarray,
            constraints: DecodeConstraints) -> list[tuple[float, int]]:
    """``(log prob, candidate index)`` of every allowed one-step extension of ``hyp``."""
    summary_trigrams = None
    if constraints.trigram_blocking:
        summary_trigrams = token_trigrams(_summary_tokens(scorer, hyp.steps))
    taken = set(hyp.steps)
    row = log_probs.tolist()
    return [(hyp.log_prob + row[ci], ci) for ci, step in enumerate(scorer.candidates)
            if not _step_blocked(scorer, taken, step, ci, constraints, summary_trigrams)]


def _extend(scorer: StepScorer, hyp: Hypothesis, log_prob: float, ci: int,
            max_steps: int) -> Hypothesis:
    """``hyp`` extended by candidate ``ci``, at its expansion's ``log_prob``."""
    step = scorer.candidates[ci]
    steps = hyp.steps + (step,)
    return Hypothesis(steps=steps, index_trace=hyp.index_trace + (ci,), log_prob=log_prob,
                      finished=step.is_end or len(steps) >= max_steps)


def _better(a: Hypothesis, b: Hypothesis) -> bool:
    """Total order for final selection: score, then index trace, then length."""
    if a.log_prob != b.log_prob:
        return a.log_prob > b.log_prob
    if a.index_trace != b.index_trace:
        return a.index_trace < b.index_trace
    return len(a.steps) < len(b.steps)


def _best(hyps: Sequence[Hypothesis]) -> Hypothesis:
    best = hyps[0]
    for hyp in hyps[1:]:
        if _better(hyp, best):
            best = hyp
    return best


def greedy_rollout(scorer: StepScorer, max_steps: int,
                   constraints: DecodeConstraints) -> Hypothesis:
    """Always take the best allowed step; may return unfinished when stuck."""
    hyp = Hypothesis((), (), 0.0, False)
    while not hyp.finished:
        expansions = _expand(scorer, hyp, scorer.step_log_probs(hyp.steps), constraints)
        if not expansions:
            return hyp
        log_prob, ci = min(expansions, key=lambda e: (-e[0], e[1]))
        hyp = _extend(scorer, hyp, log_prob, ci, max_steps)
    return hyp


def beam_decode(scorer: StepScorer, beam_size: int, max_steps: int,
                constraints: DecodeConstraints | None = None) -> DecodeResult:
    """Beam search over step distributions.

    All live hypotheses of a depth are scored with one batch call.
    Constraint-violating expansions are pruned before the top-k cut. The
    greedy rollout is kept as a floor, so the result never scores below
    greedy; with beam_size 1 the result is exactly the greedy plan. When
    everything is pruned before any hypothesis can finish, the best
    unfinished hypothesis comes back flagged incomplete.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be at least 1")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if constraints is None:
        constraints = DecodeConstraints()

    beams = [Hypothesis((), (), 0.0, False)]
    finished: list[Hypothesis] = []
    stuck: list[Hypothesis] = []
    while beams:
        rows = scorer.step_log_probs_batch([hyp.steps for hyp in beams])
        expansions = [(log_prob, hyp, ci) for hyp, log_probs in zip(beams, rows)
                      for log_prob, ci in _expand(scorer, hyp, log_probs, constraints)]
        if not expansions:
            stuck = beams
            break
        # every live hypothesis has as many steps as the others, so its index
        # trace, then the candidate index, orders the expansions as their own
        # index traces do
        expansions.sort(key=lambda e: (-e[0], e[1].index_trace, e[2]))
        top = [_extend(scorer, hyp, log_prob, ci, max_steps)
               for log_prob, hyp, ci in expansions[:beam_size]]
        beams = [h for h in top if not h.finished]
        finished.extend(h for h in top if h.finished)

    greedy = greedy_rollout(scorer, max_steps, constraints)
    if greedy.finished:
        finished.append(greedy)
    else:
        stuck = stuck + [greedy]

    if finished:
        best = _best(finished)
        return DecodeResult(list(best.steps), best.log_prob)
    best = _best(stuck)
    return DecodeResult(list(best.steps), best.log_prob, incomplete=True)


def greedy_decode_with_repeat_exceptions(scorer: StepScorer,
                                         max_steps: int) -> list[PlanStep]:
    """Table-mode greedy decode: skip forbidden repeats, fall to the next rank.

    Breaks and records of ``REPEAT_EXEMPT_TYPES`` may repeat; when every
    candidate is forbidden the plan ends immediately.
    """
    if max_steps < 1:
        return []
    hyp = greedy_rollout(scorer, max_steps,
                         DecodeConstraints(no_repeat=True, repeat_exceptions=True))
    return list(hyp.steps) if hyp.finished else list(hyp.steps) + [END_STEP]
