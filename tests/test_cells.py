import numpy as np
import pytest

from specto import Matrix, jacobian_norm_bound_check, two_norm
from specto.rnn import (
    GATE_ORDER,
    accuracy,
    backward,
    batch_loss_and_grads,
    extract_recurrent_matrices,
    forward,
    generate_adding,
    init_cell,
    loss,
    param_items,
    rnn_jacobian_product_norms,
)


def perturbed_cell(kind, task, seed, hidden=5, d=3, spread=0.3):
    rng = np.random.default_rng(seed)
    out_dim = 1 if task == "adding" else 10
    cell = init_cell(kind, d, hidden, out_dim, seed=rng, memory_bias=0.3)
    for _, arr in param_items(cell):
        arr += rng.normal(0, spread, arr.shape)
    return cell, rng


class TestForward:
    def test_pass_through_single_step(self):
        cell = init_cell("rnn", 2, 2, 1, seed=0)
        cell.w_rec["recurrent"][:] = 0.0
        cell.w_in["recurrent"][:] = np.eye(2)
        cell.b["recurrent"][:] = 0.0
        states, _ = forward(cell, np.array([[0.2, 1.0]]))
        np.testing.assert_allclose(states[0], [0.2, 1.0], atol=1e-15)

    def test_zero_everything_stays_zero(self):
        cell = init_cell("rnn", 2, 3, 1, seed=0)
        cell.w_in["recurrent"][:] = 0.0
        cell.b["recurrent"][:] = 0.0
        states, _ = forward(cell, np.zeros((6, 2)))
        np.testing.assert_allclose(states, 0.0, atol=1e-15)

    def test_matches_independent_reimplementation(self):
        # step-by-step loop oracle for the literal recurrence
        cell, rng = perturbed_cell("rnn", "adding", seed=3)
        seq = rng.normal(0, 1, (9, 3))
        states, out = forward(cell, seq)
        w = cell.w_rec["recurrent"]
        u = cell.w_in["recurrent"]
        b = cell.b["recurrent"]
        x = np.zeros(cell.hidden)
        for t in range(9):
            x = w @ np.tanh(x) + u @ seq[t] + b
            np.testing.assert_allclose(states[t], x, atol=1e-12)
        np.testing.assert_allclose(out, cell.w_out @ x + cell.b_out, atol=1e-12)

    def test_shape_mismatch(self):
        cell = init_cell("gru", 2, 4, 1, seed=0)
        with pytest.raises(ValueError):
            forward(cell, np.zeros((5, 3)))


class TestLoss:
    def test_exact_prediction(self):
        assert loss(np.array([0.7]), 0.7, "adding") == 0.0

    def test_squared_error(self):
        assert loss(np.array([0.5]), 0.7, "adding") == pytest.approx(0.04, abs=1e-12)

    def test_uniform_softmax(self):
        assert loss(np.zeros(10), 3, "mnist") == pytest.approx(np.log(10), abs=1e-12)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            loss(np.zeros(2), 0, "sorting")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_softmax_keeps_a_finite_loss(self):
        # the label's softmax probability e^-800 underflows to 0; -log of it would be inf
        logits = np.zeros(10)
        logits[0] = 800.0
        assert loss(logits, 1, "mnist") == 800.0
        cell = init_cell("gru", 2, 3, 10, seed=0)
        cell.w_out[:] = 0.0
        cell.b_out[:] = logits
        value, grads = batch_loss_and_grads(cell, np.zeros((2, 4, 2)), np.array([1, 1]), "mnist")
        assert value == 800.0
        assert all(np.isfinite(g).all() for g in grads.values())


class TestBackward:
    @pytest.mark.parametrize("kind", ("rnn", "lstm", "gru"))
    @pytest.mark.parametrize("task", ("adding", "mnist"))
    def test_matches_finite_differences(self, kind, task):
        cell, rng = perturbed_cell(kind, task, seed=17, hidden=4, d=2)
        seq = rng.normal(0, 1, (6, 2))
        target = 0.6 if task == "adding" else 4
        grads = backward(cell, seq, target, task)
        h = 1e-5
        for name, arr in param_items(cell):
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                _, up = forward(cell, seq)
                flat[k] = orig - h
                _, dn = forward(cell, seq)
                flat[k] = orig
                num = (loss(up, target, task) - loss(dn, target, task)) / (2 * h)
                got = grads[name].reshape(-1)[k]
                assert abs(got - num) <= 1e-4 * max(abs(got), abs(num), 1e-6)

    def test_zero_loss_means_zero_gradients(self):
        cell = init_cell("gru", 2, 3, 1, seed=5)
        cell.w_out[:] = 0.0
        cell.b_out[:] = 0.25
        seq = np.random.default_rng(0).normal(0, 1, (5, 2))
        grads = backward(cell, seq, 0.25, "adding")
        for name, _ in param_items(cell):
            np.testing.assert_allclose(grads[name], 0.0, atol=1e-10)

    def test_batch_mean_is_mean_of_singles(self):
        cell, rng = perturbed_cell("lstm", "adding", seed=8, hidden=3, d=2)
        seqs = rng.normal(0, 1, (3, 5, 2))
        targets = np.array([0.1, 0.9, 0.4])
        batch_val, batch_grads = batch_loss_and_grads(cell, seqs, targets, "adding")
        singles = [batch_loss_and_grads(cell, seqs[i : i + 1], targets[i : i + 1], "adding") for i in range(3)]
        assert batch_val == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for name, _ in param_items(cell):
            np.testing.assert_allclose(
                batch_grads[name], np.mean([s[1][name] for s in singles], axis=0), atol=1e-12
            )


class TestJacobianProducts:
    def test_bounded_by_norm_product(self, rng):
        for seed in range(5):
            cell, cell_rng = perturbed_cell("rnn", "adding", seed=seed, hidden=6, d=2)
            seq = cell_rng.normal(0, 1, (8, 2))
            norms = rnn_jacobian_product_norms(cell, seq)
            w = Matrix(cell.w_rec["recurrent"])
            for span, val in enumerate(norms, start=1):
                bound = jacobian_norm_bound_check(w, 1.0, span)
                assert val <= bound * (1 + 1e-10)

    def test_contractive_weights_shrink(self):
        cell = init_cell("rnn", 2, 4, 1, seed=0)
        cell.w_rec["recurrent"][:] = 0.2 * np.eye(4)
        seq = np.random.default_rng(1).normal(0, 1, (10, 2))
        norms = rnn_jacobian_product_norms(cell, seq)
        assert norms[-1] < norms[0]

    def test_only_for_vanilla(self):
        cell = init_cell("gru", 2, 3, 1, seed=0)
        with pytest.raises(ValueError):
            rnn_jacobian_product_norms(cell, np.zeros((4, 2)))


class TestAccuracy:
    def test_perfect_predictor(self):
        data = generate_adding(200, 10, seed=0)
        cell = init_cell("rnn", 2, 2, 1, seed=0)
        cell.w_out[:] = 0.0
        # cheat: replace targets with a constant and predict it exactly
        const = np.full_like(data.targets, 0.5)
        from specto.rnn import Dataset

        data = Dataset(data.inputs, const, "adding")
        cell.b_out[:] = 0.5
        assert accuracy(cell, data, "adding") == 1.0

    def test_constant_one_matches_analytic_mass(self):
        # P(|S - 1| <= 0.04) for S = sum of two uniforms = 2*(0.04 - 0.04^2/2)
        data = generate_adding(40000, 12, seed=5)
        cell = init_cell("gru", 2, 2, 1, seed=0)
        cell.w_out[:] = 0.0
        cell.b_out[:] = 1.0
        analytic = 2 * (0.04 - 0.04**2 / 2)
        assert accuracy(cell, data, "adding") == pytest.approx(analytic, abs=0.01)

    def test_random_ten_class_predictor_near_chance(self, rng):
        from specto.rnn import Dataset

        inputs = rng.normal(0, 1, (3000, 4, 5))
        labels = rng.integers(0, 10, 3000)
        data = Dataset(inputs, labels, "mnist")
        cell = init_cell("rnn", 5, 8, 10, seed=1)
        assert accuracy(cell, data, "mnist") == pytest.approx(0.1, abs=0.04)


class TestGateExtraction:
    @pytest.mark.parametrize("kind,count", (("rnn", 1), ("lstm", 4), ("gru", 3)))
    def test_counts_and_order(self, kind, count):
        cell = init_cell(kind, 3, 4, 2, seed=0)
        mats = extract_recurrent_matrices(cell)
        assert [g for g, _ in mats] == list(GATE_ORDER[kind])
        assert len(mats) == count
        for g, m in mats:
            assert m.shape == (4, 4)
            np.testing.assert_allclose(m.array.real, cell.w_rec[g], atol=0)


class TestInit:
    def test_deterministic(self):
        a = init_cell("lstm", 3, 5, 2, seed=9)
        b = init_cell("lstm", 3, 5, 2, seed=9)
        for (n1, x), (n2, y) in zip(param_items(a), param_items(b)):
            assert n1 == n2
            assert np.array_equal(x, y)

    def test_memory_bias_lands_on_gate(self):
        lstm = init_cell("lstm", 2, 3, 1, seed=0, memory_bias=1.5)
        np.testing.assert_allclose(lstm.b["forget"], 1.5)
        np.testing.assert_allclose(lstm.b["input"], 0.0)
        gru = init_cell("gru", 2, 3, 1, seed=0, memory_bias=1.5)
        np.testing.assert_allclose(gru.b["update"], 1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            init_cell("elman", 2, 3, 1)
