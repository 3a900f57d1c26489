"""The one-op ``linear``, the blocked in-place ``gelu`` and residual
``layer_norm``, the batch ``cross_entropy`` over spans and the adopting
backward sweep against the code they replaced (``autodiff_reference.py``):
forward values and every leaf gradient are bitwise equal. The sweep adopts a first gradient as it is, so no backward
may write into the gradient it receives; a read-only gradient proves it.
"""

import numpy as np
import pytest
from autodiff_reference import (
    reference_backward,
    reference_gelu,
    reference_layer_norm,
    reference_linear,
    reference_batch_loss,
    scale,
)

from stepsum import attention, models
from stepsum import autodiff as ad
from stepsum.acceptance import _op_cases
from stepsum.autodiff import BLOCK_ELEMENTS, ShapeError, Tape, Tensor, backward
from stepsum.config import config_from_dict
from stepsum.data import Vocab, examples_from_plan, prepare_cnndm
from stepsum.models import batch_mean_loss, build_model, trim_for_flat_budget
from stepsum.plan import unit_step
from stepsum.synthetic import make_overfit_corpus


def bits(a) -> tuple:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.shape, a.view(np.uint64).tobytes()


def leaf_grads(loss_fn, leaves, sweep=backward):
    for p in leaves:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        sweep(tape, loss)
    return [bits(loss.data)] + [bits(p.grad) for p in leaves]


def leaf(rng, shape, zeros=False):
    data = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 30.0], size=shape)
    if zeros and data.size > 2:
        data.flat[:2] = [0.0, -0.0]
    return Tensor(data, requires_grad=True)


def probed(out: Tensor, probe: np.ndarray) -> Tensor:
    return ad.sum_all(ad.mul(out, Tensor(probe)))


def row_counts(block: int) -> list[int]:
    return [1, block - 1, block, block + 1]


GELU_ROWS = BLOCK_ELEMENTS // 256  # rows of 256 in one gelu block
LN_ROWS = BLOCK_ELEMENTS // 48     # rows of 48 in one layer_norm block
# 0-d, 1-D, 2-D and stacked inputs, within one block and across blocks; the
# widest layer_norm rows exceed a block, so each block is one row
GELU_SHAPES = ([(), (7,), (BLOCK_ELEMENTS + 1,), (2, 3, 256), (3, GELU_ROWS // 2, 256)]
               + [(n, 256) for n in row_counts(GELU_ROWS)])
LN_SHAPES = ([(48,), (2, 3, 48), (3, LN_ROWS // 2, 48), (5, BLOCK_ELEMENTS + 3)]
             + [(n, 48) for n in row_counts(LN_ROWS)])


@pytest.mark.parametrize("shape", GELU_SHAPES, ids=str)
def test_gelu_matches_reference(shape):
    rng = np.random.default_rng(len(shape) + sum(shape))
    x = leaf(rng, shape, zeros=True)
    assert bits(ad.gelu(x).data) == bits(reference_gelu(x).data)
    probe = rng.normal(size=shape)
    got = leaf_grads(lambda: probed(ad.gelu(x), probe), [x])
    want = leaf_grads(lambda: probed(reference_gelu(x), probe), [x], reference_backward)
    assert got == want


@pytest.mark.parametrize("shape", LN_SHAPES, ids=str)
def test_layer_norm_matches_reference(shape):
    rng = np.random.default_rng(len(shape) + sum(shape))
    x, gain, bias = leaf(rng, shape, zeros=True), leaf(rng, shape[-1:]), leaf(rng, shape[-1:])
    # signed zeros in the same places, so some sums are 0.0 and -0.0
    r = leaf(rng, shape, zeros=True)
    assert bits(ad.layer_norm(x, r, gain, bias).data) == bits(
        reference_layer_norm(x, r, gain, bias).data)
    probe = rng.normal(size=shape)
    leaves = [x, r, gain, bias]
    got = leaf_grads(lambda: probed(ad.layer_norm(x, r, gain, bias), probe), leaves)
    want = leaf_grads(lambda: probed(reference_layer_norm(x, r, gain, bias), probe),
                      leaves, reference_backward)
    assert got == want
    # summands of one ancestor: both gradients reach it
    got = leaf_grads(lambda: probed(ad.layer_norm(x, ad.mul(x, r), gain, bias), probe),
                     leaves)
    want = leaf_grads(lambda: probed(reference_layer_norm(x, ad.mul(x, r), gain, bias), probe),
                      leaves, reference_backward)
    assert got == want


def test_layer_norm_checks_shapes():
    x, gain = Tensor(np.ones((2, 3))), Tensor(np.ones(3))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, Tensor(np.ones(3)), gain, gain)
    with pytest.raises(ShapeError):
        ad.layer_norm(x, x, Tensor(np.ones(2)), gain)


SPANS = {
    "one row": ([(0, 7)], [3]),
    "one span inside": ([(2, 4)], [1]),
    "padded rows": ([(0, 5), (8, 3), (16, 6)], [4, 0, 2]),
    "end to end": ([(0, 2), (2, 7), (9, 1), (10, 12)], [1, 6, 0, 11]),
    "padded batch of 8": ([(8 * b, 3 + b % 4) for b in range(8)], [b % 3 for b in range(8)]),
}


@pytest.mark.parametrize("case", sorted(SPANS))
def test_cross_entropy_over_spans_matches_reference(case):
    """One op over spans gives the bits of a ``narrow``, a one-row loss per
    span, a chain of ``add`` and a ``scale``, the batch loss it replaced."""
    spans, targets = SPANS[case]
    rng = np.random.default_rng(len(spans))
    x = leaf(rng, (64,), zeros=True)
    got = leaf_grads(lambda: ad.cross_entropy(x, targets, spans), [x])
    want = leaf_grads(lambda: reference_batch_loss(x, targets, spans), [x], reference_backward)
    assert got == want
    # also under a gradient other than one, and with logits upstream
    w = leaf(rng, (64,))
    got = leaf_grads(lambda: ad.mul(ad.cross_entropy(ad.mul(x, w), targets, spans),
                                    ad.sum_all(w)), [x, w])
    want = leaf_grads(lambda: ad.mul(reference_batch_loss(ad.mul(x, w), targets, spans),
                                     ad.sum_all(w)), [x, w], reference_backward)
    assert got == want


def test_cross_entropy_checks_spans_and_targets():
    x = Tensor(np.zeros(6))
    for spans, targets in (([(0, 3)], [3]), ([(4, 3)], [0]), ([(-1, 2)], [0]),
                           ([(0, 3), (3, 3)], [0]), ([], [])):
        with pytest.raises(ad.AutodiffError):
            ad.cross_entropy(x, targets, spans)
    with pytest.raises(ShapeError):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), [0])


@pytest.mark.parametrize("shape", [(1, 6), (9, 6), (2, 5, 6), (3, 1, 6)], ids=str)
def test_linear_matches_reference(shape):
    rng = np.random.default_rng(sum(shape))
    x, w, b = leaf(rng, shape), leaf(rng, (6, 4)), leaf(rng, (4,))
    assert bits(ad.linear(x, w, b).data) == bits(reference_linear(x, w, b).data)
    probe = rng.normal(size=shape[:-1] + (4,))
    got = leaf_grads(lambda: probed(ad.linear(x, w, b), probe), [x, w, b])
    want = leaf_grads(lambda: probed(reference_linear(x, w, b), probe), [x, w, b],
                      reference_backward)
    assert got == want


def test_linear_is_one_op_and_checks_shapes():
    w, b = Tensor(np.ones((3, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    with Tape() as tape:
        ad.linear(Tensor(np.ones((4, 3))), w, b)
    assert len(tape.nodes) == 1
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.ones(3)), w, b)
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.ones((4, 2))), w, b)
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.ones((4, 3))), w, Tensor(np.zeros(3)))


def _aliasing_cases():
    """Graphs whose gradients reach a tensor shared, as views, or many times."""
    rng = np.random.default_rng(7)
    a, b = leaf(rng, (4, 6)), leaf(rng, (4, 6))
    p1, p2, p3 = (rng.normal(size=(4, 6)) for _ in range(3))
    wide = rng.normal(size=(4, 12))

    def add_self():
        x = scale(a, 1.5)
        return probed(ad.add(x, x), p1)

    def fan_out():
        # one gradient array adopted by both consumers, then each gets more
        x, y = ad.gelu(a), scale(b, 0.5)
        z = ad.add(x, y)
        return ad.add(ad.add(probed(z, p1), probed(x, p2)), probed(y, p3))

    def last_axis_concat():
        # the slices of a last-axis concat gradient are not contiguous
        x, y = scale(a, 2.0), ad.gelu(b)
        c = ad.concat([x, y], axis=-1)
        return ad.add(ad.add(probed(c, wide), probed(x, p1)), probed(y, p2))

    def first_axis_concat():
        # a first-axis concat hands out contiguous views of its gradient
        x, y = scale(a, 2.0), ad.gelu(b)
        c = ad.concat([x, y], axis=0)
        return ad.add(ad.add(probed(c, np.concatenate([p1, p2])), probed(x, p3)),
                      probed(y, p1))

    def reshape_views():
        x = scale(a, 3.0)
        r = ad.reshape(x, (2, 12))
        t = ad.reshape(ad.transpose(x), (6, 4))
        return ad.add(ad.add(probed(r, p1.reshape(2, 12)), probed(t, p2.reshape(6, 4))),
                      probed(x, p3))

    def three_consumers():
        # first adopted, then a new sum the sweep owns, then added in place
        x = ad.gelu(a)
        y = ad.mul(x, b)
        return ad.add(ad.add(probed(x, p1), probed(ad.add(x, y), p2)), probed(x, p3))

    cases = [add_self, fan_out, last_axis_concat, first_axis_concat, reshape_views,
             three_consumers]
    return [pytest.param(fn, [a, b], id=fn.__name__) for fn in cases]


@pytest.mark.parametrize("loss_fn, leaves", _aliasing_cases())
def test_adopting_sweep_matches_copying_sweep(loss_fn, leaves):
    assert leaf_grads(loss_fn, leaves) == leaf_grads(loss_fn, leaves, reference_backward)
    assert leaf_grads(loss_fn, leaves) == leaf_grads(loss_fn, leaves, read_only_backward)


def read_only_backward(tape: Tape, loss: Tensor) -> None:
    """``backward`` with every node's incoming gradient made read-only."""
    for node in tape.nodes:
        node.backward = _read_only(node.backward)
    backward(tape, loss)


def _read_only(back):
    def run(g, accum):
        g.flags.writeable = False
        back(g, accum)

    return run


def training_batch(encoder: str):
    """A model and a minibatch of step examples over two documents."""
    cfg = config_from_dict(dict(
        encoder=encoder, dim=16, ffn_dim=64, sent_layers=1, doc_layers=1, etc_layers=2,
        max_sent_len=8, max_doc_sents=16, long_budget=64, summary_budget=32,
        global_cap=16, local_radius=3, seed=3))
    docs, _ = make_overfit_corpus(n_docs=2, n_sents=7, n_gold=2, sent_len=5, seed=3)
    vocab = Vocab.from_corpus(s for d in docs for s in d.sentences)
    batch = []
    for d, plan in zip(docs, ([3, 0, 5], [1, 2])):
        prep = prepare_cnndm(d, vocab, max_doc_sents=cfg.max_doc_sents,
                             max_sent_len=cfg.max_sent_len)
        if encoder == "etc":
            prep = trim_for_flat_budget(prep, cfg, vocab)
        batch += examples_from_plan(prep, [unit_step(u) for u in plan])
    return cfg, vocab, build_model(cfg, len(vocab)), batch


@pytest.mark.parametrize("encoder", ["hibert", "etc"])
def test_training_step_matches_reference(monkeypatch, encoder):
    cfg, vocab, model, batch = training_batch(encoder)
    params = list(model.named_parameters().values())
    step = lambda: batch_mean_loss(model, cfg, vocab, batch)  # noqa: E731
    got = leaf_grads(step, params)
    assert got == leaf_grads(step, params, read_only_backward)
    for name, ref in (("linear", reference_linear), ("gelu", reference_gelu),
                      ("layer_norm", reference_layer_norm)):
        monkeypatch.setattr(attention, name, ref)
    monkeypatch.setattr(models, "cross_entropy", reference_batch_loss)
    assert got == leaf_grads(step, params, reference_backward)


@pytest.mark.parametrize("seed", [0, 1])
def test_no_op_case_backward_writes_its_gradient(seed):
    for name, params, loss_fn in _op_cases(seed):
        leaves = list(params.values())
        assert leaf_grads(loss_fn, leaves, read_only_backward) == leaf_grads(
            loss_fn, leaves), name
