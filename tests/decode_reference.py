"""Reference copy of the beam decoder that scored one prefix per call, kept as
a differential test oracle.

Every hypothesis of a depth is expanded by its own ``step_log_probs`` call,
and trigram blocking rebuilds the hypothesis's summary tokens and their
trigram set for every candidate it checks. Selection order, tie breaks, the
greedy floor and the incomplete flag are those of the decoder it replaced.
"""

from stepsum.decoding import REPEAT_EXEMPT_TYPES, DecodeConstraints, DecodeResult, Hypothesis


def trigram_block(candidate_tokens, summary_tokens):
    if len(candidate_tokens) < 3:
        return False
    summary_tris = {
        tuple(summary_tokens[i: i + 3]) for i in range(len(summary_tokens) - 2)
    }
    if not summary_tris:
        return False
    return any(
        tuple(candidate_tokens[i: i + 3]) in summary_tris
        for i in range(len(candidate_tokens) - 2)
    )


def _summary_tokens(scorer, steps):
    out = []
    for step in steps:
        if step.kind == "unit":
            out.extend(scorer.candidate_tokens(scorer.candidates.index(step)))
    return out


def _step_blocked(scorer, hyp, step, index, constraints):
    if step.is_end or step.is_break:
        return False
    if constraints.no_repeat and step in hyp.steps:
        if not (constraints.repeat_exceptions and step.record is not None
                and step.record.type in REPEAT_EXEMPT_TYPES):
            return True
    if constraints.trigram_blocking and trigram_block(
            scorer.candidate_tokens(index), _summary_tokens(scorer, hyp.steps)):
        return True
    return False


def _expand(scorer, hyp, max_steps, constraints):
    log_probs = scorer.step_log_probs(hyp.steps)
    out = []
    for ci, step in enumerate(scorer.candidates):
        if _step_blocked(scorer, hyp, step, ci, constraints):
            continue
        steps = hyp.steps + (step,)
        out.append(Hypothesis(
            steps=steps,
            index_trace=hyp.index_trace + (ci,),
            log_prob=hyp.log_prob + float(log_probs[ci]),
            finished=step.is_end or len(steps) >= max_steps,
        ))
    return out


def _better(a, b):
    if a.log_prob != b.log_prob:
        return a.log_prob > b.log_prob
    if a.index_trace != b.index_trace:
        return a.index_trace < b.index_trace
    return len(a.steps) < len(b.steps)


def _best(hyps):
    best = hyps[0]
    for hyp in hyps[1:]:
        if _better(hyp, best):
            best = hyp
    return best


def greedy_rollout(scorer, max_steps, constraints):
    hyp = Hypothesis((), (), 0.0, False)
    while not hyp.finished:
        expansions = _expand(scorer, hyp, max_steps, constraints)
        if not expansions:
            return hyp
        hyp = min(expansions, key=lambda h: (-h.log_prob, h.index_trace))
    return hyp


def beam_decode(scorer, beam_size, max_steps, constraints=None):
    if beam_size < 1:
        raise ValueError("beam_size must be at least 1")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if constraints is None:
        constraints = DecodeConstraints()

    beams = [Hypothesis((), (), 0.0, False)]
    finished = []
    stuck = []
    while beams:
        expansions = []
        for hyp in beams:
            expansions.extend(_expand(scorer, hyp, max_steps, constraints))
        if not expansions:
            stuck = beams
            break
        expansions.sort(key=lambda h: (-h.log_prob, h.index_trace, len(h.steps)))
        top = expansions[:beam_size]
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
