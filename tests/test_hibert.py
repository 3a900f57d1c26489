import numpy as np
import pytest
from autodiff_reference import train_flat_and_reference
from hibert_reference import reference_logits

from stepsum.attention import score_counter
from stepsum.autodiff import Tape, Tensor, backward, cross_entropy, narrow, reshape, sum_all
from stepsum.gradcheck import check_gradients
from stepsum.config import config_from_dict
from stepsum.data import Vocab, examples_from_plan, prepare_cnndm
from stepsum.hibert import SentenceBatch, StepwiseHibert
from stepsum.models import batch_mean_loss, build_model
from stepsum.plan import unit_step
from stepsum.synthetic import make_overfit_corpus


def make_model(seed=5, **overrides):
    values = dict(encoder="hibert", dim=16, num_heads=2, ffn_dim=32, sent_layers=2,
                  doc_layers=2, max_sent_len=6, max_doc_sents=8, max_plan_len=4, max_steps=1)
    values.update(overrides)
    return StepwiseHibert(config_from_dict(values), 50, np.random.default_rng(seed))


def encode_unpadded(model, doc, summary):
    """The document encoder on one unpadded (document, summary) pair."""
    return model.encode_document_stepwise(doc, summary, np.ones(doc.shape[:-1], dtype=bool),
                                          np.ones(summary.shape[:-1], dtype=bool))


def one_pair(model, units, prefix=(), special_count=1, break_slot=None):
    """1-D logits of one (document, prefix) pair through the batched pass."""
    logits = model.logits_batch(model.unit_representations(units), [range(len(units))],
                                [model.summary_rows(prefix, special_count, break_slot)])
    return reshape(logits, (len(units),))


def test_sentence_batch_rejects_empty_sentence():
    with pytest.raises(ValueError):
        SentenceBatch.from_units([[1, 2], []])


def test_embedding_tables_never_aliased():
    emb = make_model().params.embeddings
    tables = [emb.token, emb.pos_token, emb.pos_doc, emb.pos_sum,
              emb.begin_summary]
    assert len({id(t) for t in tables}) == len(tables)
    assert len({id(t.data) for t in tables}) == len(tables)


def test_concurrent_models_on_threads():
    """Distinct tapes and models stay independent across threads."""
    import threading

    results = {}

    def work(seed):
        model = make_model(seed=seed, sent_layers=1, doc_layers=1)
        units = [[2], [4, 5], [6, 7]]
        with Tape() as tape:
            loss = cross_entropy(one_pair(model, units), [1])
            backward(tape, loss)
        results[seed] = loss.item()

    threads = [threading.Thread(target=work, args=(s,)) for s in (1, 2, 3, 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4
    # same-seed serial run agrees with what the thread computed
    model = make_model(seed=1, sent_layers=1, doc_layers=1)
    serial = cross_entropy(one_pair(model, [[2], [4, 5], [6, 7]]), [1])
    assert results[1] == serial.item()


def test_identical_sentences_identical_rows_bitwise():
    model = make_model()
    reps = model.unit_representations([[4, 5, 6], [4, 5, 6], [7, 8, 9]])
    assert np.array_equal(reps.data[0], reps.data[1])
    assert not np.array_equal(reps.data[0], reps.data[2])


def test_padding_leaves_rows_unchanged():
    model = make_model()
    narrow_batch = SentenceBatch.from_units([[4, 5], [7, 8, 9]])
    wide = SentenceBatch(
        np.array([[4, 5, 0, 0, 0], [7, 8, 9, 0, 0]]), np.array([2, 3]))
    a = model.encode_sentences(narrow_batch)
    b = model.encode_sentences(wide)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_token_table_gradient_on_two_sentence_toy():
    model = make_model(sent_layers=1, doc_layers=1)
    units = [[2], [4, 5], [6, 7]]

    def loss():
        return cross_entropy(one_pair(model, units), [1])

    fails = check_gradients(loss, {"token": model.params.embeddings.token},
                            samples_per_tensor=40,
                            rng=np.random.default_rng(0))
    assert fails == []


def test_stepwise_shapes_minimal():
    model = make_model()
    doc = Tensor(np.random.default_rng(0).normal(size=(1, 16)))
    summary = Tensor(np.random.default_rng(1).normal(size=(1, 16)))
    out = encode_unpadded(model, doc, summary)
    assert out.shape == (1, 16)
    assert np.all(np.isfinite(out.data))


def test_stepwise_rejects_empty_summary():
    model = make_model()
    doc = Tensor(np.zeros((2, 16)))
    with pytest.raises(ValueError):
        encode_unpadded(model, doc, Tensor(np.zeros((0, 16))))


def test_document_permutation_equivariance_without_positions():
    model = make_model()
    rng = np.random.default_rng(9)
    doc = rng.normal(size=(3, 16))
    summary = Tensor(rng.normal(size=(2, 16)))
    out = encode_unpadded(model, Tensor(doc), summary)
    perm = np.array([2, 0, 1])
    out_p = encode_unpadded(model, Tensor(doc[perm]), summary)
    np.testing.assert_allclose(out.data[perm], out_p.data, atol=1e-12)


def test_every_summary_row_reaches_every_output_row():
    model = make_model()
    rng = np.random.default_rng(11)
    doc_data = rng.normal(size=(3, 16))
    sum_data = rng.normal(size=(2, 16))
    for i in range(3):
        summary = Tensor(sum_data, requires_grad=True)
        with Tape() as tape:
            out = encode_unpadded(model, Tensor(doc_data), summary)
            row = narrow(out, 0, i, 1)
            from stepsum.autodiff import mul

            backward(tape, sum_all(mul(row, row)))
        for j in range(2):
            assert np.any(summary.grad[j] != 0.0), f"no path from x{j} to d'{i}"


def test_score_candidates_tied_rows_tied_logits():
    model = make_model()
    row = np.random.default_rng(2).normal(size=16)
    contextual = Tensor(np.stack([row, row, row * 2]))
    logits = model.score_candidates(contextual)
    assert logits.data[0] == logits.data[1]
    assert logits.data[0] != logits.data[2]


def test_softmax_shift_invariance_of_logits():
    from stepsum.models import log_softmax

    logits = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(np.exp(log_softmax(logits)),
                               np.exp(log_softmax(logits + 123.0)), atol=1e-12)


def test_parameter_sharing_doc_and_summary_self_attention():
    model = make_model()
    layer = model.params.doc_layers[0]
    rng = np.random.default_rng(3)
    doc = Tensor(rng.normal(size=(2, 16)))
    summary = Tensor(rng.normal(size=(2, 16)))
    before = encode_unpadded(model, doc, summary).data.copy()
    # mutating the shared tensor changes both attention call sites
    layer.self_attn.wq.data += 0.05
    after = encode_unpadded(model, doc, summary).data
    assert not np.allclose(before, after)
    # and the parameter truly appears once in the manifest
    names = [n for n in model.named_parameters() if "self_attn.wq" in n]
    assert len(names) == model.cfg.doc_layers


def test_sentence_encoder_score_count_is_per_sentence():
    model = make_model(sent_layers=2)
    n, width = 4, 6
    units = [[2, 3, 4, 5, 6, 7] for _ in range(n)]
    score_counter.reset()
    model.unit_representations(units)
    # every token of the first layer, token 0 alone in the last
    assert score_counter.get("dense") == n * width * width + n * width


def test_replay_same_prefix_bitwise_identical():
    model = make_model()
    units = [[2], [4, 5, 6], [7, 8], [9, 10, 11]]
    prefix = (unit_step(2),)
    a = one_pair(model, units, prefix).data
    b = one_pair(model, units, prefix).data
    assert np.array_equal(a, b)


def test_prefix_too_long_rejected():
    model = make_model(max_plan_len=2)
    units = [[2], [4, 5]]
    with pytest.raises(ValueError):
        one_pair(model, units, (unit_step(0), unit_step(0)))


def test_finished_prefix_rejected():
    from stepsum.plan import END_STEP

    model = make_model()
    with pytest.raises(ValueError):
        one_pair(model, [[2], [4]], (END_STEP,))


def test_overfit_tiny_doc_selects_target_unit():
    """A 3-unit toy trained to pick unit 2 ends up picking unit 2."""
    from stepsum.autodiff import Adam

    model = make_model(sent_layers=1, doc_layers=1)
    units = [[2], [10, 11], [12, 13], [14, 15]]
    target = 3  # candidate index of unit 2 (slot 0 is the stop marker)
    opt = Adam(model.named_parameters(), learning_rate=0.01)
    for _ in range(60):
        opt.zero_grad()
        with Tape() as tape:
            loss = cross_entropy(one_pair(model, units), [target])
            backward(tape, loss)
        opt.step()
    final = one_pair(model, units)
    assert int(np.argmax(final.data)) == target


@pytest.mark.parametrize("task", ["cnndm", "rotowire"])
def test_flat_adam_matches_the_per_tensor_reference(task):
    """30 steps leave every parameter bitwise equal to the per-tensor
    optimizer's, including ``unused`` and, in table mode, ``emb.pos_doc``,
    which never get a gradient."""
    units = [[2], [10, 11], [12, 13], [14, 15]]

    def loss_of(model, step):
        return cross_entropy(one_pair(model, units, (unit_step(step % 3),)), [step % 4])

    build = lambda: make_model(sent_layers=1, doc_layers=1, task=task)  # noqa: E731
    flat, reference = train_flat_and_reference(build, loss_of)
    start = build().named_parameters()
    assert list(flat) == list(reference)
    for name in flat:
        assert flat[name].tobytes() == reference[name].tobytes(), name
    assert flat["unused"].tobytes() == np.linspace(-1.0, 1.0, 6).reshape(2, 3).tobytes()
    moved = {name for name, p in start.items() if not np.array_equal(p.data, flat[name])}
    assert moved == set(start) - ({"emb.pos_doc"} if task == "rotowire" else set())


@pytest.mark.parametrize("case", ["too_long", "finished", "break_without_slot",
                                  "too_many_units"])
def test_batched_logits_keep_every_prefix_check(case):
    from stepsum.plan import BREAK_STEP, END_STEP

    model = make_model(max_plan_len=3, max_doc_sents=4)
    units = [[2], [4, 5], [6], [7, 8]]
    prefix = {"too_long": (unit_step(0), unit_step(1), unit_step(2)),
              "finished": (unit_step(0), END_STEP),
              "break_without_slot": (unit_step(0), BREAK_STEP),
              "too_many_units": (unit_step(0),)}[case]
    if case == "too_many_units":
        units = units + [[9]]
    with pytest.raises(ValueError):
        reference_logits(model, units, prefix, 1, None)
    with pytest.raises(ValueError):
        one_pair(model, units, prefix)
    # nor in a batch whose other pair is valid
    with pytest.raises(ValueError):
        model.logits_batch(model.unit_representations(units),
                           [range(2), range(len(units))],
                           [[], model.summary_rows(prefix, 1, None)])


def test_desk_training_step_records_one_op_per_attention():
    """Each dense attention is one tape node between its projections: one
    desk-preset `hibert` step records no head split, merge or softmax node.
    Each residual and its norm are one node, and so is the batch loss."""
    cfg = config_from_dict(dict(encoder="hibert"))
    docs, _ = make_overfit_corpus(n_docs=2, n_sents=7, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    batch = []
    for d, plan in zip(docs, ([3, 0, 5], [1, 2, 4])):
        prep = prepare_cnndm(d, vocab, max_doc_sents=cfg.max_doc_sents,
                             max_sent_len=cfg.max_sent_len)
        batch += examples_from_plan(prep, [unit_step(u) for u in plan])
    assert len(batch) == cfg.batch_size
    model = build_model(cfg, len(vocab))
    with Tape() as tape:
        loss = batch_mean_loss(model, cfg, vocab, batch)
        kinds = [node.backward.__qualname__.split(".")[0] for node in tape.nodes]
        backward(tape, loss)
    # one per sentence layer, three per document layer
    assert kinds.count("dense_attention") == cfg.sent_layers + 3 * cfg.doc_layers == 8
    assert not {"transpose", "softmax", "add_const", "bias_at"} & set(kinds)
    # the pooled sentence vectors, the scorer's logits and their flattening
    assert kinds.count("reshape") == 3
    assert kinds.count("linear") == 32
    # one feed-forward node per sentence layer and per document layer
    assert kinds.count("feed_forward") == cfg.sent_layers + cfg.doc_layers == 4
    # two norms per sentence layer and four per document layer (its
    # self-attention norm on both streams), none of them right after an
    # add; the adds are the three positional sums
    assert kinds.count("layer_norm") == 2 * cfg.sent_layers + 4 * cfg.doc_layers == 12
    assert ("add", "layer_norm") not in set(zip(kinds, kinds[1:]))
    assert kinds.count("add") == 3
    # one loss node over the padded rows; the one narrow is the sentence
    # stack's last query row, token 0
    assert kinds.count("cross_entropy") == 1 and kinds[-1] == "cross_entropy"
    assert kinds.count("narrow") == 1 and "scale" not in kinds
    assert len(kinds) == 72
