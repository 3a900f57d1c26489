import numpy as np
import pytest

from stepsum.autodiff import Tape, backward, mul, narrow, sum_all
from stepsum.config import config_from_dict
from stepsum.etc_encoder import (
    SEG_SUM,
    StepwiseEtc,
    assemble_input,
)

VOCAB_SIZE = 50


def tiny_cfg(**overrides):
    values = dict(encoder="etc", dim=16, num_heads=2, ffn_dim=32, etc_layers=2,
                  long_budget=32, summary_budget=16, global_cap=16,
                  local_radius=3, relpos_vocab_size=12, relpos_max_distance=4)
    values.update(overrides)
    return config_from_dict(values)


IDS = dict(pad_id=0, cls_id=5, sep_id=6, beg_id=4, eos_id=3)


def assemble(doc_units, plan_units, special_units=None, cand_specials=1,
             long_budget=32, summary_budget=16, global_cap=16):
    if special_units is None:
        special_units = [[2]]
    return assemble_input(doc_units, plan_units, special_units, cand_specials,
                          long_budget=long_budget, summary_budget=summary_budget,
                          global_cap=global_cap, **IDS)


def test_paper_scale_budget_arithmetic():
    asm = assemble([[10, 11]], [], long_budget=6141, summary_budget=2048,
                   global_cap=512)
    assert asm.long_ids.size == 6141 + 2048 + 3 == 8192


def test_empty_plan_layout_valid():
    asm = assemble([[10, 11], [12]], [])
    sum_positions = np.flatnonzero(asm.segment == SEG_SUM)
    assert sum_positions.tolist() == [34]  # only the begin marker
    assert asm.long_ids[34] == IDS["beg_id"]


def test_hand_checked_delimiter_positions():
    asm = assemble([[10, 11, 12], [13, 14], [15, 16, 17, 18]], [[13, 14]])
    assert asm.long_ids[0] == IDS["cls_id"]
    assert asm.long_ids[33] == IDS["sep_id"]
    assert asm.long_ids[50] == IDS["sep_id"]
    assert asm.long_ids.size == 51


def test_layout_is_deterministic():
    a = assemble([[10, 11], [12, 13]], [[12, 13]])
    b = assemble([[10, 11], [12, 13]], [[12, 13]])
    assert np.array_equal(a.long_ids, b.long_ids)
    assert np.array_equal(a.sentence_id, b.sentence_id)
    assert np.array_equal(a.segment, b.segment)
    assert np.array_equal(a.candidate_anchor, b.candidate_anchor)


def test_unit_wider_than_budget_rejected():
    with pytest.raises(ValueError, match="unit 1"):
        assemble([list(range(40))], [], special_units=[[2]], long_budget=32)


def test_trailing_units_dropped_whole():
    asm = assemble([[10] * 20, [11] * 20, [12] * 2], [], long_budget=32)
    # unit 1 does not fit after unit 0; everything from it on is dropped
    assert asm.candidate_anchor.size == 1 + 1  # the candidate special, then unit 0
    assert asm.truncated_doc_units == 2


def test_budget_monotonicity_plan_never_displaces_document():
    no_plan = assemble([[10, 11, 12], [13, 14]], [])
    with_plan = assemble([[10, 11, 12], [13, 14]], [[13, 14], [3]])
    doc_region = slice(0, 33)
    assert np.array_equal(no_plan.long_ids[doc_region],
                          with_plan.long_ids[doc_region])
    assert np.array_equal(no_plan.candidate_anchor, with_plan.candidate_anchor)


def test_global_assignment_and_overflow():
    doc_units = [[10], [11], [12], [13]]
    asm = assemble(doc_units, [[10]], global_cap=5)
    # cap 5: CLS, stop marker, then only 3 of 4 document units get globals
    assert asm.global_count == 5
    assert asm.sentence_id[asm.candidate_anchor[-1]] == -1
    # delimiters, begin marker and summary sentence got nothing (cap hit)
    assert (asm.sentence_id[asm.segment == SEG_SUM] == -1).all()


def test_sentence_grouping_in_plan_segment():
    asm = assemble([[10], [11]], [[10], [3], [11]])  # unit, break, unit
    sum_pos = np.flatnonzero(asm.segment == SEG_SUM)
    sids = asm.sentence_id[sum_pos]
    # begin marker has its own global; the break closes the first sentence
    assert sids[0] != sids[1]
    assert sids[1] == sids[2]  # unit and its break share a sentence group
    assert sids[3] != sids[1]


def test_candidate_anchors_point_at_first_tokens():
    asm = assemble([[10, 11, 12], [13, 14]], [])
    assert asm.long_ids[asm.candidate_anchor[0]] == 2  # the stop pseudo-unit
    assert asm.long_ids[asm.candidate_anchor[1]] == 10
    assert asm.long_ids[asm.candidate_anchor[2]] == 13


def test_encode_output_shape():
    cfg = tiny_cfg()
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(0))
    asm = assemble([[10, 11], [12, 13], [14]], [[12, 13]])
    out = model.etc_encode(asm)
    assert out.shape == (1 + 3, cfg.dim)


def test_pad_embedding_mutation_leaves_candidates_unchanged():
    cfg = tiny_cfg()
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(0))
    asm = assemble([[10, 11], [12, 13]], [[12]])
    before = model.logits(asm).data.copy()
    model.params.token.data[IDS["pad_id"]] += 100.0
    after = model.logits(asm).data
    np.testing.assert_allclose(before, after, atol=1e-12)


def test_summary_token_reaches_candidates_through_globals():
    """A plan token farther than the local radius still influences candidates."""
    cfg = tiny_cfg(local_radius=2)
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(1))
    asm = assemble([[10, 11], [12, 13]], [[25]])
    plan_pos = int(np.flatnonzero(asm.long_ids == 25)[0])
    anchor = int(asm.candidate_anchor[1])
    assert abs(plan_pos - anchor) > 2 * cfg.local_radius

    with Tape() as tape:
        out = model.etc_encode(asm)
        row = narrow(out, 0, 1, 1)
        backward(tape, sum_all(mul(row, row)))
    grad_row = model.params.token.grad[25]
    assert np.any(grad_row != 0.0)


def test_scorer_tied_rows_tied_logits():
    cfg = tiny_cfg()
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(0))
    from stepsum.autodiff import Tensor

    row = np.random.default_rng(2).normal(size=cfg.dim)
    logits = model.score_candidates(Tensor(np.stack([row, row])))
    assert logits.data[0] == logits.data[1]


def test_overfit_tiny_assembly_reaches_target():
    from stepsum.autodiff import Adam, cross_entropy

    cfg = tiny_cfg(etc_layers=1)
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(3))
    asm = assemble([[10, 11], [12, 13], [14, 15]], [])
    target = 2
    opt = Adam(model.named_parameters(), learning_rate=0.01)
    for _ in range(60):
        opt.zero_grad()
        with Tape() as tape:
            loss = cross_entropy(model.logits(asm), target)
            backward(tape, loss)
        opt.step()
    assert int(np.argmax(model.logits(asm).data)) == target
