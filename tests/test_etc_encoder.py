import numpy as np
import pytest
from assembly_reference import reference_assemble_input
from autodiff_reference import train_flat_and_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsum.autodiff import Tape, backward, cross_entropy, mul, narrow, sum_all
from stepsum.config import config_from_dict
from stepsum.data import PreparedDoc, Vocab
from stepsum.etc_encoder import StepwiseEtc, assemble_input
from stepsum.models import trim_for_flat_budget
from stepsum.plan import END_STEP, unit_step

VOCAB_SIZE = 50


def tiny_cfg(**overrides):
    values = dict(encoder="etc", dim=16, num_heads=2, ffn_dim=32, etc_layers=2,
                  long_budget=32, summary_budget=16, global_cap=16,
                  local_radius=3, relpos_vocab_size=12, relpos_max_distance=4)
    values.update(overrides)
    return config_from_dict(values)


IDS = dict(cls_id=5, sep_id=6, beg_id=4, eos_id=3)
PAD_ID = 0  # the vocabulary's padding id, which no row holds


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
    # [CLS], stop unit, document unit, [SEP], begin marker, [SEP]; the
    # closing [SEP] sits at the last slot of the 8192-slot layout
    assert asm.position.tolist() == [0, 1, 2, 3, 6142, 6143, 8191]
    assert asm.position[-1] + 1 == 6141 + 2048 + 3 == 8192


def plan_rows(asm, long_budget=32):
    """Rows of the plan segment: past the first [SEP] (slot 1 + long_budget),
    before the closing one."""
    return np.flatnonzero(asm.position > 1 + long_budget)[:-1]


def test_empty_plan_layout_valid():
    asm = assemble([[10, 11], [12]], [])
    sum_rows = plan_rows(asm)
    assert asm.position[sum_rows].tolist() == [34]  # only the begin marker
    assert asm.long_ids[sum_rows].tolist() == [IDS["beg_id"]]


def test_hand_checked_delimiter_positions():
    asm = assemble([[10, 11, 12], [13, 14], [15, 16, 17, 18]], [[13, 14]])
    assert asm.long_ids[0] == IDS["cls_id"] and asm.position[0] == 0
    assert asm.position[asm.long_ids == IDS["sep_id"]].tolist() == [33, 50]
    # [CLS], stop unit, 9 document tokens, [SEP], begin marker, 2 plan tokens, [SEP]
    assert asm.long_ids.size == 16
    assert asm.position[-1] == 50


def test_layout_is_deterministic():
    a = assemble([[10, 11], [12, 13]], [[12, 13]])
    b = assemble([[10, 11], [12, 13]], [[12, 13]])
    for name in ("long_ids", "position", "sentence_id", "global_kind",
                 "candidate_anchor"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_unit_wider_than_budget_rejected():
    with pytest.raises(ValueError, match="unit 1"):
        assemble([list(range(40))], [], special_units=[[2]], long_budget=32)


def test_trailing_units_dropped_whole():
    """The trim drops trailing units whole; the assembly rejects any unit that
    overflows, so it never drops one itself."""
    units = [[2], [10] * 20, [11] * 20, [12] * 2]
    with pytest.raises(ValueError, match=r"unit 2 \(20 tokens\) overflows long_budget 32"):
        assemble(units[1:], [], long_budget=32)
    prep = PreparedDoc("d", units, [["eot"]] + [["w"] * len(u) for u in units[1:]],
                       [END_STEP] + [unit_step(i) for i in range(3)],
                       special_count=1, break_slot=None)
    trimmed = trim_for_flat_budget(prep, tiny_cfg(long_budget=32), Vocab([]))
    # unit 1 does not fit after unit 0; everything from it on is dropped
    assert trimmed.units == units[:2]
    assert trimmed.candidates == prep.candidates[:2]
    asm = assemble(trimmed.units[1:], [], long_budget=32)
    assert asm.candidate_anchor.size == 1 + 1  # the candidate special, then unit 0


def test_plan_element_over_summary_budget_rejected():
    assemble([[10, 11]], [[10, 11]] * 7, summary_budget=15)
    with pytest.raises(ValueError, match=r"plan element 7 \(2 tokens\) overflows "
                                         "summary_budget 15"):
        assemble([[10, 11]], [[10, 11]] * 8, summary_budget=15)


def test_budget_monotonicity_plan_never_displaces_document():
    no_plan = assemble([[10, 11, 12], [13, 14]], [])
    with_plan = assemble([[10, 11, 12], [13, 14]], [[13, 14], [3]])
    doc_rows = slice(0, int(np.searchsorted(no_plan.position, 33)))
    for name in ("long_ids", "position", "sentence_id"):
        assert np.array_equal(getattr(no_plan, name)[doc_rows],
                              getattr(with_plan, name)[doc_rows]), name
    assert np.array_equal(no_plan.candidate_anchor, with_plan.candidate_anchor)


def test_global_assignment_and_overflow():
    doc_units = [[10], [11], [12], [13]]
    asm = assemble(doc_units, [[10]], global_cap=5)
    # cap 5: CLS, stop marker, then only 3 of 4 document units get globals
    assert asm.global_kind.size == 5
    assert asm.sentence_id[asm.candidate_anchor[-1]] == -1
    # delimiters, begin marker and summary sentence got nothing (cap hit)
    assert (asm.sentence_id[plan_rows(asm)] == -1).all()


def test_sentence_grouping_in_plan_segment():
    asm = assemble([[10], [11]], [[10], [3], [11]])  # unit, break, unit
    sum_rows = plan_rows(asm)
    sids = asm.sentence_id[sum_rows]
    # begin marker has its own global; the break closes the first sentence
    assert sids[0] != sids[1]
    assert sids[1] == sids[2]  # unit and its break share a sentence group
    assert sids[3] != sids[1]


def test_candidate_anchors_point_at_first_tokens():
    asm = assemble([[10, 11, 12], [13, 14]], [])
    assert asm.long_ids[asm.candidate_anchor[0]] == 2  # the stop pseudo-unit
    assert asm.long_ids[asm.candidate_anchor[1]] == 10
    assert asm.long_ids[asm.candidate_anchor[2]] == 13


@st.composite
def layouts(draw):
    """Random inputs for both assemblies, fitting or not: document units,
    plan elements (document units and breaks), 1 or 3 specials, budgets
    and a global cap that is often hit."""
    unit = st.lists(st.integers(7, 30), min_size=1, max_size=6)
    doc_units = draw(st.lists(unit, max_size=8))
    element = (st.sampled_from(doc_units) | st.just([IDS["eos_id"]])
               if doc_units else st.just([IDS["eos_id"]]))
    table = draw(st.booleans())
    return dict(
        doc_units=doc_units,
        plan_units=draw(st.lists(element, max_size=8)),
        special_units=[[3], [2], [4]] if table else [[2]],
        candidate_special_count=2 if table else 1,
        long_budget=draw(st.integers(1, 40)),
        summary_budget=draw(st.integers(1, 30)),
        global_cap=draw(st.integers(0, 20)),
    )


@given(layouts())
@settings(max_examples=400, deadline=None)
def test_compact_layout_equals_padded_reference_at_its_rows(args):
    try:
        ref = reference_assemble_input(**args, pad_id=PAD_ID, **IDS)
        ref_fits = not (ref.truncated_doc_units or ref.truncated_plan_elements)
    except ValueError:
        ref_fits = False
    if not ref_fits:
        with pytest.raises(ValueError, match="overflows"):
            assemble_input(**args, **IDS)
        return
    asm = assemble_input(**args, **IDS)
    rows = np.flatnonzero(ref.active)
    assert np.array_equal(asm.position, rows)
    for name in ("long_ids", "sentence_id"):
        assert np.array_equal(getattr(asm, name), getattr(ref, name)[rows]), name
    assert np.array_equal(asm.global_kind, ref.global_kind)
    assert np.array_equal(rows[asm.candidate_anchor], ref.candidate_anchor)
    assert asm.active.sum() == rows.size and asm.warnings == []


def test_encode_output_shape():
    cfg = tiny_cfg()
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(0))
    asm = assemble([[10, 11], [12, 13], [14]], [[12, 13]])
    out = model.etc_encode([asm])
    assert out.shape == (1 + 3, cfg.dim)


def test_pad_embedding_mutation_leaves_candidates_unchanged():
    """No row holds the padding id, so its embedding reaches no candidate."""
    cfg = tiny_cfg()
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(0))
    asm = assemble([[10, 11], [12, 13]], [[12]])
    assert PAD_ID not in asm.long_ids
    before = model.logits([asm]).data.copy()
    model.params.token.data[PAD_ID] += 100.0
    assert np.array_equal(before, model.logits([asm]).data)


def test_summary_token_reaches_candidates_through_globals():
    """A plan token farther than the local radius still influences candidates."""
    cfg = tiny_cfg(local_radius=2)
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(1))
    asm = assemble([[10, 11], [12, 13]], [[25]])
    plan_pos = int(np.flatnonzero(asm.long_ids == 25)[0])
    anchor = int(asm.candidate_anchor[1])
    assert abs(plan_pos - anchor) > 2 * cfg.local_radius

    with Tape() as tape:
        out = model.etc_encode([asm])
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
    from stepsum.autodiff import Adam

    cfg = tiny_cfg(etc_layers=1)
    model = StepwiseEtc(cfg, VOCAB_SIZE, np.random.default_rng(3))
    asm = assemble([[10, 11], [12, 13], [14, 15]], [])
    target = 2
    opt = Adam(model.named_parameters(), learning_rate=0.01)
    for _ in range(60):
        opt.zero_grad()
        with Tape() as tape:
            loss = cross_entropy(model.logits([asm]), [target])
            backward(tape, loss)
        opt.step()
    assert int(np.argmax(model.logits([asm]).data)) == target


def test_flat_adam_matches_the_per_tensor_reference():
    """30 steps leave every parameter bitwise equal to the per-tensor
    optimizer's, including ``unused``, which never gets a gradient."""
    doc = [[10, 11], [12, 13], [14, 15]]
    layouts = [assemble(doc, []), assemble(doc, [[12, 13]]), assemble(doc, [[12, 13], [10, 11]])]

    def loss_of(model, step):
        return cross_entropy(model.logits([layouts[step % 3]]), [step % 4])

    build = lambda: StepwiseEtc(tiny_cfg(), VOCAB_SIZE, np.random.default_rng(3))  # noqa: E731
    flat, reference = train_flat_and_reference(build, loss_of)
    start = build().named_parameters()
    assert list(flat) == list(reference)
    for name in flat:
        assert flat[name].tobytes() == reference[name].tobytes(), name
    assert flat["unused"].tobytes() == np.linspace(-1.0, 1.0, 6).reshape(2, 3).tobytes()
    assert all(not np.array_equal(p.data, flat[name]) for name, p in start.items())
