from dataclasses import replace

import decode_reference
import numpy as np
import pytest

from stepsum.acceptance import ScriptedScorer, exhaustive_best_plan
from stepsum.decoding import (
    DecodeConstraints,
    StepScorer,
    beam_decode,
    greedy_decode_with_repeat_exceptions,
    greedy_rollout,
    token_trigrams,
    trigram_block,
)
from stepsum.plan import BREAK_STEP, END_STEP, RecordRef, unit_step


class TableScorer(StepScorer):
    """Hand-written step tables keyed by chosen-index prefixes."""

    def __init__(self, candidates, tables, tokens=None):
        self.candidates = candidates
        self.tables = {k: np.log(np.asarray(v)) for k, v in tables.items()}
        self.tokens = tokens or {}

    def step_log_probs(self, prefix):
        key = tuple(self.candidates.index(s) for s in prefix)
        return self.tables[key]

    def candidate_tokens(self, index):
        return self.tokens.get(index, [f"u{index}"])


def two_unit_scorer():
    candidates = [END_STEP, unit_step(0), unit_step(1)]
    tables = {
        (): [0.1, 0.6, 0.3],
        (1,): [0.2, 0.1, 0.7],
        (2,): [0.3, 0.6, 0.1],
        (1, 2): [0.9, 0.05, 0.05],
        (2, 1): [0.5, 0.25, 0.25],
        (1, 1): [0.6, 0.3, 0.1],
        (2, 2): [0.6, 0.3, 0.1],
    }
    return TableScorer(candidates, tables)


def test_uniform_distribution_on_symmetric_model():
    """All-equal embeddings give indistinguishable candidates."""
    from stepsum.config import config_from_dict
    from stepsum.hibert import StepwiseHibert
    from stepsum.models import log_softmax

    cfg = config_from_dict(dict(encoder="hibert", dim=16, num_heads=2, ffn_dim=32,
                                sent_layers=1, doc_layers=1, max_sent_len=4,
                                max_doc_sents=8, max_plan_len=4, max_steps=3))
    model = StepwiseHibert(cfg, 20, np.random.default_rng(0))
    emb = model.params.embeddings
    emb.token.data[:] = emb.token.data[0]
    emb.pos_token.data[:] = 0.0
    emb.pos_doc.data[:] = 0.0
    units = [[2], [3], [4], [5]]
    logits = model.logits_batch(model.unit_representations(units), [range(4)], [[]])
    probs = np.exp(log_softmax(logits.data[0]))
    np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-9)


def test_beam_one_equals_greedy_everywhere():
    for seed in range(25):
        scorer = ScriptedScorer(int(np.random.default_rng(seed).integers(2, 6)),
                                seed=seed)
        constraints = DecodeConstraints(no_repeat=bool(seed % 2))
        result = beam_decode(scorer, 1, 4, constraints)
        greedy = greedy_rollout(scorer, 4, constraints)
        assert result.steps == list(greedy.steps)
        assert result.log_prob == pytest.approx(greedy.log_prob, abs=1e-12)


def test_scripted_beam_matches_exhaustive():
    scorer = two_unit_scorer()
    constraints = DecodeConstraints(no_repeat=False)
    result = beam_decode(scorer, 64, 2, constraints)
    want_steps, want_score = exhaustive_best_plan(scorer, 2, constraints)
    assert result.steps == want_steps
    assert result.log_prob == pytest.approx(want_score, abs=1e-12)


def test_beam_scripted_four_units_three_steps_exhaustive():
    scorer = ScriptedScorer(4, seed=123)
    constraints = DecodeConstraints(no_repeat=True)
    result = beam_decode(scorer, 4096, 3, constraints)
    want_steps, want_score = exhaustive_best_plan(scorer, 3, constraints)
    assert result.steps == want_steps
    assert result.log_prob == pytest.approx(want_score, abs=1e-12)


def test_no_repeat_yields_distinct_units():
    for seed in range(20):
        scorer = ScriptedScorer(5, seed=seed)
        result = beam_decode(scorer, 3, 4, DecodeConstraints(no_repeat=True))
        units = [s.unit for s in result.steps if s.kind == "unit"]
        assert len(units) == len(set(units))


def test_beam_never_below_greedy():
    for seed in range(40):
        scorer = ScriptedScorer(5, seed=seed)
        constraints = DecodeConstraints(no_repeat=True)
        beam = beam_decode(scorer, 3, 4, constraints)
        greedy = greedy_rollout(scorer, 4, constraints)
        assert beam.log_prob >= greedy.log_prob - 1e-12


def test_beam_rejects_budgets_below_one():
    with pytest.raises(ValueError, match="max_steps"):
        beam_decode(ScriptedScorer(3, 0), 3, 0)
    with pytest.raises(ValueError, match="max_steps"):
        beam_decode(ScriptedScorer(3, 0), 1, -2)
    with pytest.raises(ValueError, match="beam_size"):
        beam_decode(ScriptedScorer(3, 0), 0, 3)


def replay_log_prob(scorer, steps):
    """Recompute a plan's log probability step by step."""
    total = 0.0
    prefix = ()
    for step in steps:
        log_probs = scorer.step_log_probs(prefix)
        total += float(log_probs[scorer.candidates.index(step)])
        prefix = prefix + (step,)
    return total


def test_replay_reproduces_log_prob():
    scorer = ScriptedScorer(5, seed=9)
    result = beam_decode(scorer, 3, 4, DecodeConstraints(no_repeat=True))
    assert replay_log_prob(scorer, result.steps) == pytest.approx(
        result.log_prob, abs=1e-9)


def test_all_pruned_returns_unfinished_with_warning():
    # no stop candidate and a single unit: after using it nothing is allowed
    candidates = [unit_step(0)]
    tables = {(): [1.0], (0,): [1.0]}
    scorer = TableScorer(candidates, tables)
    result = beam_decode(scorer, 2, 3, DecodeConstraints(no_repeat=True))
    assert result.incomplete
    assert result.steps == [unit_step(0)]


# -- rotowire greedy ------------------------------------------------------------


def roto_candidates():
    refs = [RecordRef("P1", "PLAYER-PTS", "20"),
            RecordRef("TeamA", "TEAM-NAME", "Hawks"),
            RecordRef("P2", "PLAYER-REB", "7")]
    return [BREAK_STEP, END_STEP] + [unit_step(i, r) for i, r in enumerate(refs)]


def test_repeat_exception_emits_second_ranked():
    refs = [RecordRef("P1", "PLAYER-PTS", "20"),
            RecordRef("P2", "PLAYER-REB", "7"),
            RecordRef("P3", "PLAYER-AST", "4")]
    candidates = [BREAK_STEP, END_STEP] + [unit_step(i, r) for i, r in enumerate(refs)]
    # the first player record always ranks highest; once used, the decoder
    # must fall through to the next-ranked fresh record at every later step
    tables = {
        (): [0.05, 0.05, 0.6, 0.2, 0.1],
        (2,): [0.05, 0.05, 0.6, 0.2, 0.1],
        (2, 3): [0.05, 0.05, 0.6, 0.2, 0.1],
        (2, 3, 4): [0.1, 0.7, 0.1, 0.05, 0.05],
    }
    scorer = TableScorer(candidates, tables)
    steps = greedy_decode_with_repeat_exceptions(scorer, max_steps=5)
    assert steps == [candidates[2], candidates[3], candidates[4], END_STEP]
    # the top-ranked record appears exactly once despite always ranking first
    assert steps.count(candidates[2]) == 1


def test_team_name_may_repeat():
    candidates = roto_candidates()
    tables = {
        (): [0.05, 0.05, 0.1, 0.7, 0.1],
        (3,): [0.05, 0.05, 0.1, 0.7, 0.1],
        (3, 3): [0.1, 0.7, 0.1, 0.05, 0.05],
    }
    scorer = TableScorer(candidates, tables)
    steps = greedy_decode_with_repeat_exceptions(scorer, max_steps=4)
    assert steps == [candidates[3], candidates[3], END_STEP]


def test_five_record_hand_simulation():
    refs = [RecordRef("TeamA", "TEAM-NAME", "Hawks"),
            RecordRef("TeamA", "TEAM-PTS", "100"),
            RecordRef("P1", "PLAYER-PTS", "30"),
            RecordRef("P2", "PLAYER-PTS", "22"),
            RecordRef("P1", "PLAYER-REB", "9")]
    candidates = [BREAK_STEP, END_STEP] + [unit_step(i, r) for i, r in enumerate(refs)]
    # hand simulation, indices 2=name 3=pts 4=p1pts 5=p2pts 6=p1reb:
    #   step 1: name tops -> name
    #   step 2: pts tops -> pts
    #   step 3: pts tops again but may not repeat; name is next and exempt
    #   step 4: stop tops -> end of plan
    tables = {
        (): [0.01, 0.02, 0.50, 0.20, 0.12, 0.10, 0.05],
        (2,): [0.01, 0.02, 0.05, 0.50, 0.20, 0.12, 0.10],
        (2, 3): [0.01, 0.02, 0.30, 0.50, 0.07, 0.05, 0.05],
        (2, 3, 2): [0.01, 0.60, 0.10, 0.10, 0.09, 0.05, 0.05],
    }
    scorer = TableScorer(candidates, tables)
    steps = greedy_decode_with_repeat_exceptions(scorer, max_steps=5)
    assert steps == [candidates[2], candidates[3], candidates[2], END_STEP]


def test_all_forbidden_emits_end():
    candidates = [unit_step(0, RecordRef("P", "PLAYER-PTS", "10"))]
    tables = {(): [1.0], (0,): [1.0]}
    scorer = TableScorer(candidates, tables)
    steps = greedy_decode_with_repeat_exceptions(scorer, max_steps=3)
    assert steps == [candidates[0], END_STEP]


def _reference_table_greedy(scorer, max_steps,
                            exempt_types=frozenset({"TEAM-NAME", "TEAM-CITY"})):
    """The stand-alone table-mode greedy loop that ``greedy_rollout`` replaced."""
    steps = []
    used = set()
    while len(steps) < max_steps:
        log_probs = scorer.step_log_probs(tuple(steps))
        order = sorted(range(len(scorer.candidates)),
                       key=lambda ci: (-log_probs[ci], ci))
        chosen = None
        for ci in order:
            step = scorer.candidates[ci]
            if step.kind == "unit" and step in used:
                exempt = step.record is not None and step.record.type in exempt_types
                if not exempt:
                    continue
            chosen = step
            break
        if chosen is None:
            steps.append(END_STEP)
            break
        steps.append(chosen)
        if chosen.kind == "unit":
            used.add(chosen)
        if chosen.is_end:
            break
    return steps


class RandomTableScorer(StepScorer):
    """Random table-mode candidates with step tables keyed by the index prefix.

    Half the scorers draw log-probabilities from three levels, so exact ties
    are common; some lack the end or break candidate, so every candidate can
    end up forbidden.
    """

    TYPES = ("TEAM-NAME", "TEAM-CITY", "TEAM-PTS", "PLAYER-PTS", "PLAYER-REB")

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        units = []
        for i in range(int(rng.integers(1, 7))):
            record = (None if rng.random() < 0.15 else
                      RecordRef(f"E{i % 3}", self.TYPES[rng.integers(len(self.TYPES))], str(i)))
            units.append(unit_step(i, record))
        specials = [s for s, p in ((BREAK_STEP, 0.6), (END_STEP, 0.8)) if rng.random() < p]
        pool = specials + units
        self.candidates = [pool[i] for i in rng.permutation(len(pool))]
        self.seed = seed
        self.ties = rng.random() < 0.5

    def step_log_probs(self, prefix):
        key = tuple(self.candidates.index(s) for s in prefix)
        rng = np.random.default_rng((self.seed, 31, *key))
        n = len(self.candidates)
        logits = (rng.integers(0, 3, size=n).astype(float) if self.ties
                  else rng.normal(size=n) * 2.0)
        return logits - np.log(np.exp(logits).sum())

    def candidate_tokens(self, index):
        return [f"u{index}"]


class RandomWordsScorer(RandomTableScorer):
    """A ``RandomTableScorer`` whose candidates read as 1-5 tokens over three
    words, so trigram blocking prunes often."""

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng((seed, 7))
        self.tokens = [[str(w) for w in rng.choice(["a", "b", "c"], size=rng.integers(1, 6))]
                       for _ in self.candidates]

    def candidate_tokens(self, index):
        return self.tokens[index]


def test_beam_decode_matches_reference_decoder():
    stuck = pruned = 0
    for seed in range(400):
        scorer = RandomWordsScorer(seed)
        beam, max_steps = 1 + seed % 4, 1 + seed % 7
        constraints = DecodeConstraints(no_repeat=seed % 5 != 0,
                                        trigram_blocking=seed % 2 == 0,
                                        repeat_exceptions=seed % 3 == 0)
        got = beam_decode(scorer, beam, max_steps, constraints)
        want = decode_reference.beam_decode(scorer, beam, max_steps, constraints)
        assert (got.steps, got.log_prob, got.incomplete) == (
            want.steps, want.log_prob, want.incomplete), seed
        stuck += want.incomplete
        if constraints.trigram_blocking:
            free = replace(constraints, trigram_blocking=False)
            pruned += decode_reference.beam_decode(scorer, beam, max_steps, free) != want
    assert stuck > 0 and pruned > 0


def test_table_greedy_matches_reference_loop():
    ended_stuck = exempt_repeats = 0
    for seed in range(300):
        scorer = RandomTableScorer(seed)
        max_steps = seed % 8
        want = _reference_table_greedy(scorer, max_steps)
        assert greedy_decode_with_repeat_exceptions(scorer, max_steps) == want, seed
        ended_stuck += END_STEP in want and END_STEP not in scorer.candidates
        units = [s for s in want if s.kind == "unit"]
        exempt_repeats += len(units) > len(set(units))
    assert ended_stuck > 0 and exempt_repeats > 0


# -- trigram blocking -----------------------------------------------------------


def test_trigram_blocks_verbatim_repeat():
    sent = "the cat sat on the mat".split()
    assert trigram_block(sent, token_trigrams(sent))


def test_trigram_disjoint_not_blocked():
    assert not trigram_block("a b c d".split(), token_trigrams("e f g h".split()))


def test_trigram_shared_interior():
    assert trigram_block("a b c d".split(), token_trigrams("x a b c".split()))


def test_trigram_short_candidate_never_blocked():
    assert not trigram_block(["a", "b"], token_trigrams("a b c d".split()))


def test_trigram_constraint_in_beam():
    candidates = [END_STEP, unit_step(0), unit_step(1)]
    tables = {
        (): [0.02, 0.88, 0.10],
        (1,): [0.05, 0.05, 0.90],
        (2,): [0.05, 0.90, 0.05],
        (1, 2): [0.90, 0.05, 0.05],
        (2, 1): [0.90, 0.05, 0.05],
    }
    tokens = {1: "the big dog ran".split(), 2: "the big dog slept".split()}
    scorer = TableScorer(candidates, tables, tokens)

    # without blocking, following unit 0 with unit 1 wins outright
    plain = beam_decode(scorer, 3, 2, DecodeConstraints(no_repeat=True))
    assert [s.unit for s in plain.steps if s.kind == "unit"] == [0, 1]

    blocked = beam_decode(scorer, 3, 2, DecodeConstraints(
        no_repeat=True, trigram_blocking=True))
    chosen = [s.unit for s in blocked.steps if s.kind == "unit"]
    assert chosen == [0]  # unit 1 shares "the big dog" and is pruned
