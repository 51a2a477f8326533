import pickle

import numpy as np
import pytest

import madlab.trainer as trainer
from madlab.config import default_config, to_experiment
from madlab.data import Dataset
from madlab.errors import NumericsError, ShapeError, StateError
from madlab.numcore import (ADAM, BLOCK_BYTES, ROW_BLOCK, SGD, Arena, Mlp,
                            OptimizerState, apply_lr_schedule, init_params,
                            mlp_backward, optimizer_step, row_blocks)
from madlab.spheres import CenterSet
from madlab.trainer import EncoderModel, transfer_weights

from _oracles import (central_diff, grads_close, per_array_step, random_mlp,
                      two_list_backward, unblocked_forward)

# row counts around the 24-row GEMM tile and the 240-row block; 241 and 481
# end in a lone row, which joins the block before it
BLOCK_ROWS = (1, 23, 24, 25, 239, 240, 241, 481, 5000)


def identity_layer_model(dim):
    return Mlp((dim, dim), params=[np.eye(dim), np.zeros(dim)])


def test_identity_layer_passthrough():
    model = identity_layer_model(2)
    out = model.forward(np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_zero_weights_relu_all_zero():
    # the hidden layer's pre-activation is its bias; ReLU clips it to 0
    model = Mlp((3, 4, 1), params=[np.zeros((3, 4)), np.array([0.0, -1, 0, -2]),
                                   np.ones((4, 1)), np.ones(1)])
    tape = []
    model.forward(np.array([[1.0, -2.0, 5.0], [0.1, 0.2, 0.3]]), tape)
    assert np.array_equal(tape[1], np.zeros((2, 4)))


def test_two_layer_hand_computed():
    # x=[1,2]; W1=I, b1=[1,-3] -> pre [2,-1] -> relu [2,0]; W2=[[1],[1]] -> [2]
    model = Mlp((2, 2, 1), params=[np.eye(2), np.array([1.0, -3.0]),
                                   np.array([[1.0], [1.0]]), np.zeros(1)])
    out = model.forward(np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[2.0]])


def test_forward_shape_error_names_both_dims():
    model = identity_layer_model(3)
    with pytest.raises(ShapeError, match="2.*3|3.*2"):
        model.forward(np.zeros((1, 2)))


@pytest.mark.parametrize("n", (0, 2, 3, 480, 721, *BLOCK_ROWS))
def test_row_blocks_cover_the_rows_from_multiples_of_the_block(n):
    """Widths on both sides of the widest a 240-row block fits (1 092), the
    reference counts of the benchmark's kNN calls and one past any block."""
    assert row_blocks(n) == row_blocks(n, 1)
    for width in (1, 1092, 1093, 1950, 3900, 10**6):
        step = row_blocks(10**4, width)[1].start
        assert step % 24 == 0 and 24 <= step <= ROW_BLOCK
        assert step == 24 or step * width * 8 <= BLOCK_BYTES
        assert step == ROW_BLOCK or (step + 24) * width * 8 > BLOCK_BYTES
        assert width != 1 or step == ROW_BLOCK
        blocks = row_blocks(n, width)
        starts = [rows.start for rows in blocks]
        assert starts[:1] == [0] * bool(n) and all(s % step == 0 for s in starts)
        assert [rows.stop for rows in blocks] == starts[1:] + [n] * bool(n)
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(size <= step + 1 for size in sizes)
        assert n < 2 or min(sizes) > 1  # no lone row


def _encoder_and_batch(n):
    """The default encoder's shapes, biases off zero, and ``n`` input rows."""
    rng = np.random.default_rng(n)
    model = Mlp((32, 64, 32, 16), rng=rng)
    for p in model.parameters()[1::2]:
        p += rng.normal(0.0, 0.1, size=p.shape)
    return model, rng.normal(size=(n, 32))


@pytest.mark.parametrize("n", BLOCK_ROWS, ids=[f"full-{n}" for n in BLOCK_ROWS])
def test_untaped_forward_bit_identical_to_one_pass(n):
    """A 1-row GEMV or a block start off the GEMM tile would move the bits
    of some row."""
    model, x = _encoder_and_batch(n)
    assert np.array_equal(model.forward(x), unblocked_forward(model, x))


@pytest.mark.parametrize("n", BLOCK_ROWS)
def test_pretext_body_embedding_bit_identical_to_one_pass(n, monkeypatch):
    """The pretext-space embedding that ``score_splits`` hands the kNN
    score, for the train references and a split of ``n`` rows each, has the
    bits of the pretext net's body layers run over the whole batch."""
    pretext, x = _encoder_and_batch(n)
    cfg = to_experiment(default_config())
    assert pretext.widths == (cfg.dims.input_dim, *cfg.dims.body,
                              cfg.dims.proj_dim)
    pretext_model = EncoderModel(pretext)
    train, split = (Dataset(x, np.zeros(n), np.ones(n), np.zeros(n),
                            np.zeros(n), name) for name in ("train", "test"))
    seen = []

    def knn_score(queries, refs, *args):
        seen.append((queries, refs))
        return np.zeros(len(queries))

    monkeypatch.setattr(trainer, "knn_score", knn_score)
    trainer.score_splits(cfg, pretext_model, transfer_weights(pretext_model, cfg),
                         CenterSet(np.zeros((1, cfg.dims.mad_dim)), [True], [0]),
                         train, [split], "pretext")
    want = unblocked_forward(pretext, x, n_layers=len(cfg.dims.body))
    [(queries, refs)] = seen
    assert np.array_equal(queries, want) and np.array_equal(refs, want)


def test_untaped_forward_refuses_a_non_finite_block():
    model = identity_layer_model(2)
    x = np.ones((2 * ROW_BLOCK + 5, 2))
    x[ROW_BLOCK + 3, 1] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericsError,
                                                  match="non-finite"):
        model.forward(x)


def test_linear_layer_weight_gradient_is_outer_product():
    model = Mlp((3, 2), rng=1)
    x = np.random.default_rng(2).normal(size=(5, 3))
    g = np.random.default_rng(3).normal(size=(5, 2))
    tape = []
    model.forward(x, tape)
    grads = mlp_backward(model, tape, g)
    assert np.allclose(grads[0], x.T @ g)
    assert np.allclose(grads[1], g.sum(axis=0))


def test_backward_without_forward_raises():
    model = Mlp((1, 1, 1), rng=0)
    with pytest.raises(StateError):
        mlp_backward(model, [], np.zeros((1, 1)))
    tape = []
    Mlp((1, 1), rng=0).forward(np.ones((1, 1)), tape)  # one layer, not two
    with pytest.raises(StateError):
        mlp_backward(model, tape, np.zeros((1, 1)))


def test_backward_output_shape_mismatch():
    model = identity_layer_model(2)
    tape = []
    model.forward(np.ones((3, 2)), tape)
    with pytest.raises(ShapeError):
        mlp_backward(model, tape, np.ones((2, 2)))


def test_zero_output_gradient_gives_zero_parameter_gradients():
    model, batch = random_mlp(np.random.default_rng(4))
    tape = []
    out = model.forward(batch, tape)
    grads = mlp_backward(model, tape, np.zeros_like(out))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)


@pytest.mark.parametrize("seed", range(12))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    model, batch = random_mlp(rng)
    direction = rng.normal(size=(batch.shape[0], model.widths[-1]))

    tape = []
    model.forward(batch, tape)
    grads = mlp_backward(model, tape, direction)

    params = model.parameters()
    for i, p in enumerate(params):
        def loss_at(_arr, idx=i):
            return float(np.sum(model.forward(batch) * direction))
        numeric = central_diff(loss_at, p)
        assert grads_close(grads[i], numeric), f"param {i} mismatch"


@pytest.mark.parametrize("seed", range(12))
def test_backward_matches_two_list_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(300 + seed)
    model, batch = random_mlp(rng)
    direction = rng.normal(size=(batch.shape[0], model.widths[-1]))
    tape = []
    model.forward(batch, tape)
    got = mlp_backward(model, tape, direction)
    want = two_list_backward(model, batch, direction)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_backward_matches_two_list_oracle_at_exact_zeros():
    # hidden pre-activations of exactly 0 beside live and dead units
    model = Mlp((2, 4, 3), params=[
        np.array([[1.0, 0.0, 1.0, -1.0], [1.0, 0.0, 1.0, 1.0]]),
        np.array([0.0, 0.0, -0.0, 0.5]), np.arange(12.0).reshape(4, 3) - 5,
        np.array([0.1, -0.2, 0.3])])
    batch = np.array([[1.0, -2.0], [-3.0, 3.0], [0.5, -0.5]])
    preacts = batch @ model.parameters()[0] + model.parameters()[1]
    assert (preacts == 0.0).sum() == 7 and (preacts > 0).any()
    direction = np.random.default_rng(5).normal(size=(3, 3))
    tape = []
    model.forward(batch, tape)
    got = mlp_backward(model, tape, direction)
    want = two_list_backward(model, batch, direction)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    # numpy's matmul sums an exact zero to +0.0, so a forward pass yields no
    # -0.0 pre-activation; the mask identity holds for it all the same
    z = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf])
    assert np.array_equal(np.maximum(z, 0.0) > 0.0, z > 0.0)


def test_tape_holds_each_layers_input():
    model, batch = random_mlp(np.random.default_rng(6), max_layers=3)
    tape = [np.zeros(1)]  # a stale record is cleared
    out = model.forward(batch, tape)
    assert len(tape) == len(model.widths) - 1
    assert np.array_equal(tape[0], batch)
    for i, h in enumerate(tape[1:]):
        assert np.array_equal(h, unblocked_forward(model, batch, i + 1))
    assert np.array_equal(out, model.forward(batch))


def test_relu_subgradient_zero_at_zero():
    # a hidden pre-activation of exactly 0 must propagate no gradient
    model = Mlp((1, 1, 1), params=[np.zeros((1, 1)), np.zeros(1),
                                   np.ones((1, 1)), np.zeros(1)])
    tape = []
    model.forward(np.array([[5.0]]), tape)
    grads = mlp_backward(model, tape, np.array([[1.0]]))
    assert grads[3][0] == 1.0  # the linear output layer passes it on
    assert grads[0][0, 0] == 0.0 and grads[1][0] == 0.0


def test_sgd_direct_rule():
    p = Arena([np.array([1.0])])
    optimizer_step(OptimizerState(), p, Arena([np.array([0.5])]), SGD, 0.1, 0.0)
    assert np.allclose(p[0], 0.95)


@pytest.mark.parametrize("rule", [SGD, ADAM])
def test_zero_gradient_zero_decay_leaves_parameters(rule):
    p = Arena([np.array([1.5, -2.0])])
    before = p[0].copy()
    optimizer_step(OptimizerState(), p, Arena([np.zeros(2)]), rule, 0.1, 0.0)
    assert np.array_equal(p[0], before)


def test_adam_first_step_closed_form():
    # bias correction makes the first step ~ -lr * sign(g)
    p = Arena([np.zeros(1)])
    optimizer_step(OptimizerState(), p, Arena([np.ones(1)]), ADAM, 1e-3, 0.0)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert np.allclose(p[0], expected, atol=1e-15)
    assert abs(p[0][0] + 1e-3) < 1e-6


def test_decoupled_weight_decay_both_rules():
    for rule in (SGD, ADAM):
        p = Arena([np.array([1.0])])
        optimizer_step(OptimizerState(), p, Arena([np.zeros(1)]), rule, 0.1, 0.1)
        assert np.allclose(p[0], 1.0 - 0.1 * 0.1 * 1.0)


def test_non_finite_gradient_aborts():
    with pytest.raises(NumericsError):
        optimizer_step(OptimizerState(), Arena([np.zeros(1)]),
                       Arena([np.array([np.nan])]), SGD, 0.1, 0.0)


def test_optimizer_shape_mismatch():
    with pytest.raises(ShapeError):
        optimizer_step(OptimizerState(), Arena([np.zeros(2)]),
                       Arena([np.zeros(3)]), SGD, 0.1, 0.0)


@pytest.mark.parametrize("rule", [SGD, ADAM])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_fused_step_matches_per_array_oracle_bit_for_bit(rule, weight_decay):
    model, batch = random_mlp(np.random.default_rng(21), max_layers=3)
    state, ref = OptimizerState(), OptimizerState()
    ref_params = [p.copy() for p in model.parameters()]
    for _ in range(50):
        tape = []
        out = model.forward(batch, tape)
        grads = mlp_backward(model, tape, out)  # d/dp of 0.5*sum(out^2)
        per_array_step(ref, ref_params, [g.copy() for g in grads], rule, 1e-2,
                       weight_decay)
        optimizer_step(state, model.parameters(), grads, rule, 1e-2,
                       weight_decay)
    assert all(np.array_equal(p, q)
               for p, q in zip(model.parameters(), ref_params))
    if rule == ADAM:
        assert state.step_count == ref.step_count == 50
        assert all(np.array_equal(a, b) for a, b in zip(state.m, ref.m))
        assert all(np.array_equal(a, b) for a, b in zip(state.v, ref.v))
    else:
        assert state.m is None and state.v is None


def test_parameters_and_moments_are_views_of_one_vector():
    model, batch = random_mlp(np.random.default_rng(22))
    state = OptimizerState()
    tape = []
    grads = mlp_backward(model, tape, model.forward(batch, tape))
    optimizer_step(state, model.parameters(), grads, ADAM, 1e-3, 0.0)
    for arena in (model.parameters(), grads, state.m, state.v,
                  pickle.loads(pickle.dumps(model.parameters()))):
        assert isinstance(arena, list)
        assert sum(a.size for a in arena) == arena.flat.size
        assert all(np.shares_memory(a, arena.flat) for a in arena)
    assert not np.shares_memory(state.m.flat, state.v.flat)


def test_pickled_mlp_rebuilds_a_zero_gradient_arena():
    """The copy's gradient arena, stale values and all, is one vector of
    views again, and its backward pass overwrites it in place."""
    model, batch = random_mlp(np.random.default_rng(23))
    tape = []
    mlp_backward(model, tape, model.forward(batch, tape))  # non-zero grads
    copy = pickle.loads(pickle.dumps(model))
    grads = copy._grads
    assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
    assert all(np.shares_memory(g, grads.flat) for g in grads)
    ones = np.ones((batch.shape[0], model.widths[-1]))
    want = mlp_backward(model, tape, ones)
    copy_tape = []
    copy.forward(batch, copy_tape)
    got = mlp_backward(copy, copy_tape, ones)
    assert got is grads
    assert np.array_equal(got.flat, want.flat)


def test_in_place_edit_of_a_view_changes_forward():
    model = identity_layer_model(2)
    model.parameters()[1] += 1.0
    model.parameters()[0].ravel()[0] = 3.0  # as central_diff edits an entry
    assert np.array_equal(model.forward(np.array([[1.0, 2.0]])), [[4.0, 3.0]])


def test_mlp_copies_the_callers_arrays():
    arrays = [np.eye(2), np.zeros(2)]
    model = Mlp((2, 2), params=arrays)
    assert not any(np.shares_memory(a, model.parameters().flat) for a in arrays)
    arrays[0][0, 0] = 5.0
    model.parameters()[1][0] = 7.0
    assert np.array_equal(model.forward(np.array([[1.0, 0.0]])), [[8.0, 0.0]])
    assert np.array_equal(arrays[1], np.zeros(2))


def test_lr_schedule_paper_settings():
    ms = (70, 90)
    assert apply_lr_schedule(10, 1e-3, ms, 0.1) == 1e-3
    assert np.isclose(apply_lr_schedule(75, 1e-3, ms, 0.1), 1e-4)
    assert np.isclose(apply_lr_schedule(95, 1e-3, ms, 0.1), 1e-5)
    assert apply_lr_schedule(42, 1e-3, (), 0.1) == 1e-3


def test_determinism_bit_identical_runs():
    def run():
        rng = np.random.default_rng(7)
        model, batch = random_mlp(rng, max_layers=2, max_dim=8)
        state = OptimizerState()
        for _ in range(20):
            tape = []
            out = model.forward(batch, tape)
            grads = mlp_backward(model, tape, out)  # d/dp of 0.5*sum(out^2)
            optimizer_step(state, model.parameters(), grads, ADAM, 1e-3, 1e-6)
        return [p.copy() for p in model.parameters()]

    a, b = run(), run()
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_shape_closure_forward_backward():
    rng = np.random.default_rng(11)
    for _ in range(10):
        model, batch = random_mlp(rng)
        tape = []
        out = model.forward(batch, tape)
        assert out.shape == (batch.shape[0], model.widths[-1])
        grads = mlp_backward(model, tape, np.ones_like(out))
        for g, p in zip(grads, model.parameters()):
            assert g.shape == p.shape


def test_init_bounds_and_zero_bias():
    params = init_params((6, 10), np.random.default_rng(0))
    limit = np.sqrt(6.0 / 16.0)
    assert np.all(np.abs(params[0]) <= limit)
    assert np.array_equal(params[1], np.zeros(10))


@pytest.mark.parametrize("widths", [(), (3,), (3, 0, 1), (0, 2)])
def test_widths_guard(widths):
    with pytest.raises(ShapeError, match="at least 2 widths, each >= 1"):
        Mlp(widths, rng=0)
