import math
import weakref

import numpy as np
import pytest
from autodiff_reference import add_const, scale

from stepsum import autodiff as ad
from stepsum.autodiff import (
    Adam,
    AutodiffError,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    cross_entropy,
    layer_norm,
    matmul,
    softmax,
    sum_all,
)
from stepsum.gradcheck import check_gradients


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_inner_product():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    fails = check_gradients(lambda: sum_all(matmul(a, b)), {"a": a, "b": b},
                            rtol=1e-6)
    assert fails == []


def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_softmax_large_values_no_overflow():
    big = 1e8
    out = softmax(Tensor([big, big - 1000.0]))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_gradient():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    fails = check_gradients(
        lambda: sum_all(ad.mul(softmax(x), Tensor([0.3, -1.0, 2.0]))),
        {"x": x}, rtol=1e-6)
    assert fails == []


def test_softmax_rejects_bad_axis():
    with pytest.raises(ShapeError):
        softmax(Tensor([[1.0, 2.0]]), axis=2)


def test_layer_norm_constant_row_collapses_to_bias():
    # the norm is of x + residual, a constant row
    x, residual = Tensor([[3.0, 5.0, 7.0]]), Tensor([[4.0, 2.0, 0.0]])
    out = layer_norm(x, residual, Tensor(np.ones(3)), Tensor([1.0, 2.0, 3.0]), eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]], atol=1e-5)


def test_layer_norm_already_normalized_row():
    x, residual = Tensor([[0.5, -2.0]]), Tensor([[0.5, 1.0]])
    out = layer_norm(x, residual, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-14)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    gain = Tensor(rng.normal(size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 6)))
    residual = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    fails = check_gradients(
        lambda: sum_all(ad.mul(layer_norm(x, residual, gain, bias), probe)),
        {"x": x, "residual": residual, "gain": gain, "bias": bias}, rtol=1e-5)
    assert fails == []


def test_cross_entropy_uniform_two_classes():
    out = cross_entropy(Tensor([0.5, 0.5]), [1])
    assert out.item() == pytest.approx(math.log(2), rel=1e-12)


def test_cross_entropy_confident():
    out = cross_entropy(Tensor([40.0, -40.0]), [0])
    assert out.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_hand_computed_value_and_gradient():
    logits = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    exp = np.exp([1.0, 2.0, 3.0])
    p = exp / exp.sum()
    with Tape() as tape:
        loss = cross_entropy(logits, [1])
        backward(tape, loss)
    assert loss.item() == pytest.approx(-math.log(p[1]), rel=1e-12)
    want = p.copy()
    want[1] -= 1.0
    np.testing.assert_allclose(logits.grad, want, rtol=1e-12)


def test_cross_entropy_over_spans_is_the_mean_row_loss():
    """Two rows of one vector with a gap between them: the mean of the two
    rows' losses; the gap takes no gradient."""
    logits = Tensor([1.0, 2.0, 3.0, 9.0, 9.0, 0.5, -0.5], requires_grad=True)
    rows = [np.exp([1.0, 2.0, 3.0]), np.exp([0.5, -0.5])]
    p = [e / e.sum() for e in rows]
    with Tape() as tape:
        loss = cross_entropy(logits, [2, 1], [(0, 3), (5, 2)])
        backward(tape, loss)
    assert loss.item() == pytest.approx(-(math.log(p[0][2]) + math.log(p[1][1])) / 2,
                                        rel=1e-12)
    p[0][2] -= 1.0
    p[1][1] -= 1.0
    np.testing.assert_allclose(logits.grad, np.concatenate([p[0], [0.0, 0.0], p[1]]) / 2,
                               rtol=1e-12)


def test_cross_entropy_rejects_out_of_range_target():
    with pytest.raises(AutodiffError):
        cross_entropy(Tensor([0.0, 1.0]), [2])


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_rule():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            backward(tape, y)


def test_backward_rejects_unreachable_loss():
    x = Tensor([1.0], requires_grad=True)
    loose = Tensor(np.asarray(3.0))
    with Tape() as tape:
        sum_all(x)
        with pytest.raises(AutodiffError):
            backward(tape, loose)


def test_gradients_accumulate_across_backward_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            loss = sum_all(x)
            backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    # a tape is swept once: the sweep consumed it
    assert tape.nodes == [] and tape.produced == set()
    with pytest.raises(AutodiffError, match="swept already"):
        backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_sweep_frees_op_outputs_and_keeps_the_loss():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        hidden = scale(x, 2.0)
        loss = sum_all(ad.mul(hidden, hidden))
        freed = weakref.ref(hidden.data)
        del hidden
        assert freed() is not None  # the tape holds it until the sweep
        backward(tape, loss)
        assert freed() is None
    assert loss.item() == 4.0 * (x.data ** 2).sum()
    np.testing.assert_array_equal(x.grad, 8.0 * x.data)


def test_swept_tape_forgets_the_ids_it_produced():
    # an id the sweep dropped may come back on a new tensor, which must not
    # pass for a tracked one
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(scale(x, 3.0)))
        fresh = [Tensor([float(i)]) for i in range(64)]
        assert not any(ad._tracked(tape, t) for t in fresh)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_backward_does_not_mutate_forward_values():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with Tape() as tape:
        y = softmax(ad.matmul(x, x))
        snapshot = y.data.copy()
        backward(tape, sum_all(ad.mul(y, y)))
    np.testing.assert_array_equal(y.data, snapshot)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_op_producing_inf_names_the_op():
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match="^scale produced non-finite values$"):
        scale(Tensor([1e300]), 1e300)
    with pytest.raises(NonFiniteError, match="^tensor construction produced"):
        Tensor([1.0, np.inf])


def test_bias_at_places_heads_before_label_axes():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    labels = np.array([[[0, 3], [2, 1]], [[1, 1], [3, 0]]])
    out = ad.bias_at(table, labels)
    assert out.shape == (2, 3, 2, 2)
    for b in range(2):
        for h in range(3):
            np.testing.assert_array_equal(out.data[b, h], table.data[labels[b], h])


def test_add_const_broadcasts_but_never_grows():
    a = Tensor(np.zeros((2, 3, 4)))
    out = add_const(a, np.arange(4.0))
    np.testing.assert_array_equal(out.data[1, 2], np.arange(4.0))
    with pytest.raises(ShapeError):
        add_const(Tensor(np.zeros((3, 4))), np.zeros((2, 3, 4)))


def test_ops_outside_tape_do_not_record():
    x = Tensor([1.0], requires_grad=True)
    y = sum_all(x)  # no tape active
    assert y.item() == 1.0
    assert x.grad is None


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(ad.mul(softmax(matmul(a, b)), a))
            backward(tape, loss)
        return loss.item(), a.grad.copy(), b.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# -- Adam -------------------------------------------------------------------


def test_adam_first_step_moves_by_learning_rate():
    p = Tensor(np.full(4, 10.0), requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.25)
    p.grad = np.ones(4)
    opt.step()
    # bias correction makes mhat/sqrt(vhat) equal 1 on the first step
    np.testing.assert_allclose(p.data, 10.0 - 0.25, rtol=1e-7)
    assert opt.steps == 1


def test_adam_zero_grad_keeps_param_but_counts_step():
    p = Tensor([5.0], requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.5)
    p.grad = np.zeros(1)
    opt.step()
    assert p.data[0] == 5.0
    assert opt.steps == 1


def test_adam_two_runs_bitwise_identical():
    def run():
        p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.05)
        for step in range(3):
            p.grad = np.array([0.1, -0.2, 0.3]) * (step + 1)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_adam_reads_a_missing_grad_as_zeros():
    """A parameter without a gradient gets a zero update: its moments stay
    0, so it keeps its bits, -0.0 included, while the others move."""
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([2.0, -0.0], requires_grad=True)
    opt = Adam({"a": a, "b": b}, learning_rate=0.1)
    for _ in range(3):
        a.grad = np.ones(1)
        opt.step()
    assert a.data[0] != 1.0
    assert b.data.tobytes() == np.array([2.0, -0.0]).tobytes()
    assert opt.steps == 3
    opt.zero_grad()
    assert a.grad is None


def test_adam_lays_params_out_in_one_buffer_in_order():
    """Each parameter becomes a view of the flat buffer, in the dict's order
    (the checkpoint payload's), with its values unchanged."""
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor([-0.0, 7.5], requires_grad=True)
    opt = Adam({"a": a, "b": b}, learning_rate=0.1)
    assert opt.flat.tobytes() == np.concatenate([np.arange(6.0), [-0.0, 7.5]]).tobytes()
    assert a.shape == (2, 3) and a.data.flags.c_contiguous
    assert np.shares_memory(a.data, opt.flat[:6]) and np.shares_memory(b.data, opt.flat[6:])
