import json
import random

import numpy as np
import pytest
import rouge_reference as old
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsum.data import Document, PreparedDoc, Vocab, examples_from_plan, prepare_cnndm
from stepsum.oracle import brute_force_oracle, oracle_full
from stepsum.plan import BREAK_STEP, END_STEP, unit_step


def test_verbatim_sentence_wins_with_perfect_score():
    doc = [["alpha", "beta"], ["gamma", "delta", "epsilon"], ["zeta", "eta"]]
    result = oracle_full(doc, ["gamma", "delta", "epsilon"])
    assert result.selected == [1]
    assert result.score == pytest.approx(1.0)


def test_disjoint_reference_selects_nothing():
    doc = [["a", "b"], ["c", "d"]]
    result = oracle_full(doc, ["x", "y", "z"])
    assert result.selected == []
    assert result.score == 0.0


def test_greedy_matches_bruteforce_on_bigram_overlap_doc():
    doc = [
        "a b c d".split(),
        "c d e f".split(),
        "e f g h".split(),
        "g h a b".split(),
        "x y z w".split(),
        "b c d e".split(),
    ]
    reference = "a b c d e f g h".split()
    greedy = oracle_full(doc, reference, max_size=3)
    brute = brute_force_oracle(doc, reference, max_size=3)
    assert greedy.score == pytest.approx(brute.score, rel=1e-12)
    assert sorted(greedy.selected) == list(brute.selected)


def test_greedy_never_beats_bruteforce():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(15)]
        doc = [[vocab[int(t)] for t in rng.integers(0, 15, 5)] for _ in range(7)]
        ref = [vocab[int(t)] for t in rng.integers(0, 15, 10)]
        g = oracle_full(doc, ref, max_size=3)
        b = brute_force_oracle(doc, ref, max_size=3)
        assert g.score <= b.score + 1e-12


def test_trace_monotone_and_strictly_improving():
    doc = ["a b".split(), "c d".split(), "e f".split()]
    ref = "a b c d".split()
    result = oracle_full(doc, ref)
    scores = [s for _, s in result.trace]
    assert scores == sorted(scores)
    assert len(set(scores)) == len(scores)  # each addition strictly improved


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        oracle_full([], ["a"])
    with pytest.raises(ValueError):
        oracle_full([["a"]], [])


# -- the incremental oracle against the rescore-everything loop it replaced ---


def assert_same_as_reference(doc, ref, max_size):
    got = oracle_full(doc, ref, max_size)
    selected, score, trace = old.oracle_full(doc, ref, max_size)
    assert got.selected == selected
    assert got.score == score  # exact, not approximate
    assert got.trace == trace
    # plain Python numbers, not numpy scalars
    assert type(got.score) is float
    assert all(type(i) is int and type(s) is float for i, s in got.trace)
    assert all(type(i) is int for i in got.selected)


small_tokens = st.sampled_from(["a", "b", "c", "d", "e"])


@given(st.lists(st.lists(small_tokens, max_size=7), min_size=1, max_size=9),
       st.lists(small_tokens, min_size=1, max_size=14),
       st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_oracle_matches_reference_on_small_documents(doc, ref, max_size):
    assert_same_as_reference(doc, ref, max_size)


def zipf_lexicon(rng, size=3000):
    words = [f"w{i}" for i in range(size)]
    weights = [1.0 / (r + 1) ** 1.1 for r in range(size)]
    return lambda k: rng.choices(words, weights=weights, k=k)


def benchmark_shaped_document(rng, sample):
    """8-48 sentences of 6-30 Zipf tokens; a ~55-token abstract of fragments."""
    doc = [sample(rng.randint(6, 30)) for _ in range(rng.randint(8, 48))]
    ref = []
    for si in sorted(rng.sample(range(min(len(doc), 12)), 4)):
        sent = doc[si]
        frag = max(3, round(0.7 * len(sent)))
        start = rng.randint(0, len(sent) - frag)
        ref += sent[start: start + frag] + sample(1)
    return doc, ref


def test_oracle_matches_reference_on_benchmark_shaped_documents():
    rng = random.Random(11)
    sample = zipf_lexicon(rng)
    for k in range(16):
        doc, ref = benchmark_shaped_document(rng, sample)
        if k % 4 == 1:    # repeated sentences: exact ties between candidates
            doc = doc + [list(s) for s in doc[:6]]
        elif k % 4 == 2:  # a one-token reference
            ref = ref[:1]
        elif k % 4 == 3:  # the reference is a run of whole sentences
            ref = [t for s in doc[3:6] for t in s]
        assert_same_as_reference(doc, ref, max_size=k // 4 + 1)


def test_oracle_matches_reference_on_ties_and_edge_cases():
    cases = [
        ([["a", "b"], ["a", "b"], ["b", "a"]], ["a", "b"]),        # exact ties
        ([["x"], ["a"], ["a"]], ["a"]),                            # one-token reference
        ([[], ["a", "b"], []], ["a", "b", "a"]),                   # empty sentences
        ([["a"], ["b"], ["a"], ["b"]], ["a", "b", "a", "b"]),      # cross-sentence bigrams
        ([["b", "c"], ["a", "b"], ["c", "a"]], ["a", "b", "c", "a", "b"]),
        ([["a", "a", "a"], ["a"]], ["a", "a"]),                    # clipped repeats
    ]
    for doc, ref in cases:
        for max_size in (1, 2, 3, 4):
            assert_same_as_reference(doc, ref, max_size)


def table_shaped_document(rng):
    """44 one-record sentences of 3-9 tokens from a few templates, and a
    ~50-token reference of some records' words with filler between."""
    entities = [f"player{i}" for i in range(8)] + ["home", "away"]
    stats = ["points", "rebounds", "assists", "minutes", "steals"]
    doc = []
    for _ in range(44):
        sent = [rng.choice(entities), rng.choice(stats), str(rng.randint(0, 30))]
        sent += rng.sample(["of", "is", "the", "which", "best", "team"], rng.randint(0, 6))
        doc.append(sent)
    ref = []
    while len(ref) < 50:
        ref += rng.choice(doc)[:3] + rng.sample(["scored", "the", "and", "with"], 2)
    return doc, ref


def test_oracle_matches_reference_on_table_shaped_documents():
    rng = random.Random(5)
    for k in range(12):
        doc, ref = table_shaped_document(rng)
        assert_same_as_reference(doc, ref, max_size=4)


@pytest.mark.parametrize("doc, ref", [
    # the bigram a candidate makes at its neighbour is one of its own
    ([["a", "b", "a"], ["b", "a", "b"]], ["a", "b", "a", "b", "a", "b"]),
    # a candidate between two selected sentences makes the bigram it breaks,
    # on its left and on its right
    ([["x", "a"], ["b", "z"], ["b", "y"]], ["x", "a", "b", "y"]),
    ([["x", "a"], ["z", "a"], ["b", "y"]], ["x", "a", "b", "y"]),
    # a candidate inserted between two selected sentences that improves
    ([["a", "b"], ["x"], ["e", "f"]], ["a", "b", "x", "e", "f"]),
    # references of one and of two tokens
    ([["a", "b"], ["b"], ["a"]], ["a"]),
    ([["a", "b"], ["b", "a"], ["a"]], ["a", "b"]),
    ([["b"], ["a"]], ["a", "b"]),
    # duplicate sentences tie, and the lowest index wins
    ([["a", "b", "c"], ["x"], ["a", "b", "c"], ["a", "b", "c"]],
     ["a", "b", "c", "a", "b", "c"]),
])
def test_oracle_matches_reference_on_join_cases(doc, ref):
    for max_size in (1, 2, 3, 4):
        assert_same_as_reference(doc, ref, max_size)


def test_cli_oracle_rows_hold_plain_numbers(tmp_path, monkeypatch):
    from stepsum import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ntask = cnndm\n")
    docs = tmp_path / "docs.jsonl"
    rng = random.Random(7)
    sample = zipf_lexicon(rng)
    with open(docs, "w") as fh:
        for k in range(3):
            doc, ref = benchmark_shaped_document(rng, sample)
            fh.write(json.dumps({"id": f"d{k}", "sentences": doc, "abstract": [ref]}) + "\n")
    written = []
    monkeypatch.setattr(cli, "write_jsonl", lambda path, rows: written.extend(rows))
    assert cli.main(["oracle", "--config", str(cfg), "--in", str(docs),
                     "--out", str(tmp_path / "out.jsonl")]) == 0
    assert len(written) == 3
    for row in written:
        assert row["selected"] and all(type(i) is int for i in row["selected"])
        assert type(row["score"]) is float


def test_bruteforce_rejects_large_documents():
    doc = [["a"]] * 16
    with pytest.raises(ValueError):
        brute_force_oracle(doc, ["a"])


def test_bruteforce_single_sentence_cases():
    assert brute_force_oracle([["a", "b"]], ["a"]).selected == [0]
    assert brute_force_oracle([["a", "b"]], ["x"]).selected == []


def _oracle_examples(n_sentences, selected):
    """Training pairs the way ``train`` builds them from an oracle selection."""
    doc = Document("d", [[f"s{i}"] for i in range(n_sentences)])
    prep = prepare_cnndm(doc, Vocab.from_corpus(doc.sentences),
                         max_doc_sents=8, max_sent_len=4)
    examples = examples_from_plan(prep, [unit_step(i) for i in sorted(selected)])
    return [(ex.prefix, prep.candidates[ex.target]) for ex in examples]


def test_stepwise_examples_position_order():
    pairs = _oracle_examples(5, [4, 1])
    assert pairs == [
        ((), unit_step(1)),
        ((unit_step(1),), unit_step(4)),
        ((unit_step(1), unit_step(4)), END_STEP),
    ]


def test_empty_oracle_yields_single_stop_example():
    assert _oracle_examples(1, []) == [((), END_STEP)]


def test_plan_with_breaks_one_example_per_element():
    plan = [unit_step(0), unit_step(1), BREAK_STEP, unit_step(2), BREAK_STEP,
            unit_step(3), unit_step(4), BREAK_STEP]
    # table-mode layout: break slot, stop slot, then five units
    prep = PreparedDoc("t", [[0]] * 7, [["u"]] * 7,
                       [BREAK_STEP, END_STEP] + [unit_step(i) for i in range(5)],
                       special_count=2, break_slot=0)
    pairs = [(ex.prefix, prep.candidates[ex.target])
             for ex in examples_from_plan(prep, plan)]
    assert len(pairs) == len(plan) + 1  # every element plus the final stop
    assert pairs[-1][1] == END_STEP
    assert pairs[2][1] == BREAK_STEP
    # round trip: concatenating targets reproduces the plan
    assert [t for _, t in pairs[:-1]] == plan


def test_targets_round_trip_reproduces_selection():
    pairs = _oracle_examples(6, [3, 0, 5])
    units = [t.unit for _, t in pairs if t.kind == "unit"]
    assert units == [0, 3, 5]


def test_oracle_index_outside_document_rejected():
    with pytest.raises(ValueError, match="outside"):
        _oracle_examples(1, [9])
    with pytest.raises(ValueError, match="outside"):
        _oracle_examples(1, [-1])