import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import rouge_reference as old

from stepsum.acceptance import osa_search
from stepsum.metrics import (
    PLAN_FILTER_TYPES,
    _lcs_length,
    co_score,
    cs_scores,
    dld,
    mean_rouge_f1,
    rouge_l,
    rouge_n,
)
from stepsum.plan import RecordRef
from stepsum.stemmer import stem

short_seq = st.lists(st.sampled_from(["a", "b", "c"]), max_size=6)


# -- rouge --------------------------------------------------------------------


def test_rouge_n_identical():
    s = "the quick brown fox".split()
    for n in (1, 2, 3, 4):
        r = rouge_n(s, s, n)
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)


def test_rouge_n_disjoint():
    r = rouge_n("a b c".split(), "x y z".split(), 1)
    assert r.f1 == 0.0


def test_rouge_2_hand_case():
    r = rouge_n("a b c".split(), "a b d".split(), 2)
    assert r.precision == pytest.approx(0.5)
    assert r.recall == pytest.approx(0.5)
    assert r.f1 == pytest.approx(0.5)


def test_rouge_short_reference_flagged():
    r = rouge_n(["a", "b"], ["a"], 2)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def test_rouge_l_identical():
    s = "w x y z".split()
    assert rouge_l(s, s).f1 == 1.0


def test_rouge_l_hand_case():
    r = rouge_l("a b c".split(), "a c".split())
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == pytest.approx(1.0)
    assert r.f1 == pytest.approx(0.8)


def test_rouge_l_reversal():
    r = rouge_l("a b".split(), "b a".split())
    assert r.f1 == pytest.approx(0.5)


def test_mean_rouge_hand_combination():
    cand, ref = "a b c".split(), "a b d".split()
    want = (rouge_n(cand, ref, 1).f1 + rouge_n(cand, ref, 2).f1
            + rouge_l(cand, ref).f1) / 3
    assert mean_rouge_f1(cand, ref) == pytest.approx(want, abs=1e-12)
    assert mean_rouge_f1(cand, cand) == 1.0
    assert mean_rouge_f1(cand, ["z"]) == 0.0


@given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=12))
def test_rouge_self_is_one_and_in_range(tokens):
    for n in (1, 2):
        r = rouge_n(tokens, tokens, n)
        assert r.f1 == pytest.approx(1.0)
    other = list(reversed(tokens))
    for n in (1, 2):
        r = rouge_n(tokens, other, n)
        assert 0.0 <= r.precision <= 1.0
        assert 0.0 <= r.recall <= 1.0
        assert 0.0 <= r.f1 <= 1.0


# -- bit-parallel LCS against the dynamic program it replaced ----------------


def test_lcs_empty_sequences():
    assert _lcs_length([], []) == 0
    assert _lcs_length([], ["a", "b"]) == 0
    assert _lcs_length(["a", "b"], []) == 0


def test_lcs_repeated_tokens():
    cases = [("aaaa", "aa"), ("aa", "aaaa"), ("abab", "baba"), ("aab", "abb"),
             ("abcabc", "cbacba"), ("a" * 70, "a" * 65)]
    for a, b in cases:
        assert _lcs_length(list(a), list(b)) == old.lcs_length_dp(list(a), list(b)), (a, b)


def test_lcs_reference_longer_than_a_machine_word():
    rng = np.random.default_rng(7)
    for n_ref in (63, 64, 65, 128, 200):
        ref = [f"w{t}" for t in rng.integers(0, 6, n_ref)]
        cand = [f"w{t}" for t in rng.integers(0, 8, 90)]
        assert _lcs_length(cand, ref) == old.lcs_length_dp(cand, ref)
        assert _lcs_length(ref, ref) == n_ref


@given(st.lists(st.sampled_from("abcd"), max_size=140),
       st.lists(st.sampled_from("abcde"), max_size=140))
@settings(max_examples=300)
def test_lcs_matches_dynamic_program(a, b):
    assert _lcs_length(a, b) == old.lcs_length_dp(a, b)


@given(st.lists(st.sampled_from("abcd"), max_size=90),
       st.lists(st.sampled_from("abcd"), max_size=90))
@settings(max_examples=300)
def test_rouge_matches_reference_exactly(cand, ref):
    for n in (1, 2, 3):
        assert rouge_n(cand, ref, n).f1 == old.rouge_n_f1(cand, ref, n)
    assert rouge_l(cand, ref).f1 == old.rouge_l_f1(cand, ref)
    assert mean_rouge_f1(cand, ref) == old.mean_rouge_f1(cand, ref)


def test_rouge_edge_cases_match_reference():
    for cand, ref in [([], ["a"]), (["a"], ["a"]), (["a", "b"], ["a"]),
                      ([], []), (["a"], []), (["b", "a"], ["a", "b"])]:
        assert mean_rouge_f1(cand, ref) == old.mean_rouge_f1(cand, ref)
    r = rouge_l([], ["a"])
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    r = rouge_l(["a"], [])
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


# -- edit distance ---------------------------------------------------------------


def test_dld_equal_sequences():
    assert dld("abc", "abc") == 0


def test_dld_transposition_hand_case():
    assert dld(["a", "b"], ["b", "a"]) == 1


def test_dld_empty_cases():
    assert dld([], ["a", "b", "c"]) == 3
    assert dld(["a", "b"], []) == 2


@given(short_seq, short_seq)
@settings(max_examples=300)
def test_dld_symmetry(a, b):
    assert dld(a, b) == dld(b, a)


@given(short_seq, short_seq)
@settings(max_examples=300)
def test_dld_identity_and_dominance(a, b):
    assert (dld(a, b) == 0) == (a == b)
    # bounded by the length gap below and by substitute-then-insert above,
    # which keeps co_score inside [0, 1]
    assert abs(len(a) - len(b)) <= dld(a, b) <= max(len(a), len(b))


@given(short_seq, short_seq)
@settings(max_examples=150)
def test_dld_matches_exhaustive_search(a, b):
    assert dld(a, b) == osa_search(tuple(a), tuple(b))


# -- plan ordering and selection ---------------------------------------------------


def test_co_identical():
    assert co_score(["a", "b", "c"], ["a", "b", "c"]) == 1.0


def test_co_transposition():
    assert co_score(["a", "b"], ["b", "a"]) == pytest.approx(0.5)


def test_co_full_substitution():
    assert co_score(["a"], ["b"]) == 0.0


def test_co_both_empty():
    assert co_score([], []) == 1.0


def r(entity, rtype, value=""):
    return RecordRef(entity, rtype, value)


def test_cs_simple_overlap():
    gen = [r("a", "T1"), r("b", "T2"), r("c", "T3")]
    ref = [r("b", "T2"), r("c", "T3"), r("d", "T4")]
    out = cs_scores(gen, ref)
    assert out.precision == pytest.approx(2 / 3)
    assert out.recall == pytest.approx(2 / 3)


def test_cs_multiset_duplicates():
    out = cs_scores([r("a", "T1"), r("a", "T1")], [r("a", "T1")])
    assert out.precision == pytest.approx(0.5)
    assert out.recall == pytest.approx(1.0)


def test_cs_empty_generated_flagged():
    out = cs_scores([], [r("a", "T1")])
    assert (out.precision, out.recall, out.f1) == (0.0, 0.0, 0.0)


def test_cs_filter_drops_name_city_date():
    gen = [r("team", "TEAM-NAME"), r("team", "TEAM-PTS", "10"),
           r("match", "MATCH-DATE")]
    ref = [r("team", "TEAM-CITY"), r("team", "TEAM-PTS", "10")]
    plain = cs_scores(gen, ref)
    filtered = cs_scores(gen, ref, drop_name_city_date=True)
    assert plain.precision == pytest.approx(1 / 3)
    assert filtered.precision == 1.0 and filtered.recall == 1.0
    assert "PLAYER-FIRST_NAME" in PLAN_FILTER_TYPES


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
       st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
@settings(max_examples=200)
def test_cs_swap_symmetry(xs, ys):
    gen = [r(x, f"T-{x}") for x in xs]
    ref = [r(y, f"T-{y}") for y in ys]
    fwd = cs_scores(gen, ref)
    rev = cs_scores(ref, gen)
    assert fwd.precision == pytest.approx(rev.recall, abs=1e-12)
    assert fwd.recall == pytest.approx(rev.precision, abs=1e-12)


# -- stemming -------------------------------------------------------------------


@pytest.mark.parametrize("word,want", [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("running", "run"),
    ("relational", "relat"),
    ("adjustment", "adjust"),
    ("hopeful", "hope"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cats", "cat"),
    ("agreed", "agre"),
    ("sky", "sky"),
])
def test_porter_spot_checks(word, want):
    assert stem(word) == want
