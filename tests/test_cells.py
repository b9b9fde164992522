import numpy as np
import pytest
from scipy.special import expit as sigmoid

import specto.rnn.cells as cells
from specto import Matrix, two_norm
from specto.rnn import (
    GATE_ORDER,
    Dataset,
    accuracy,
    batch_loss_and_grads,
    forward_batch,
    generate_adding,
    init_cell,
    loss,
    param_items,
    predictions,
)

# ---------------------------------------------------------------------------
# Reference BPTT: one GEMM per gate per step in batch-major (B, hidden)
# layout, expit for the sigmoid, gradients accumulated inside the time loop.
# The fused kernels must match it to rounding.
# ---------------------------------------------------------------------------


def _ref_rnn_forward(cell, inputs):
    bsz, steps, _ = inputs.shape
    w, u, b = cell.w_rec["recurrent"], cell.w_in["recurrent"], cell.b["recurrent"]
    x = np.zeros((steps + 1, bsz, cell.hidden))
    s = np.empty((steps, bsz, cell.hidden))
    for t in range(steps):
        s[t] = np.tanh(x[t])
        x[t + 1] = s[t] @ w.T + inputs[:, t] @ u.T + b
    return x, {"s": s}


def _ref_rnn_backward(cell, inputs, cache, g, grads):
    w, s = cell.w_rec["recurrent"], cache["s"]
    for t in range(inputs.shape[1] - 1, -1, -1):
        grads["w_rec.recurrent"] += g.T @ s[t]
        grads["w_in.recurrent"] += g.T @ inputs[:, t]
        grads["b.recurrent"] += g.sum(axis=0)
        g = (g @ w) * (1.0 - s[t] ** 2)


def _ref_lstm_forward(cell, inputs):
    bsz, steps, _ = inputs.shape
    h = np.zeros((steps + 1, bsz, cell.hidden))
    c = np.zeros((steps + 1, bsz, cell.hidden))
    gates = {k: np.empty((steps, bsz, cell.hidden)) for k in ("i", "f", "z", "o", "tc")}

    def pre(g, t):
        return h[t] @ cell.w_rec[g].T + inputs[:, t] @ cell.w_in[g].T + cell.b[g]

    for t in range(steps):
        i = gates["i"][t] = sigmoid(pre("input", t))
        f = gates["f"][t] = sigmoid(pre("forget", t))
        z = gates["z"][t] = np.tanh(pre("cell", t))
        o = gates["o"][t] = sigmoid(pre("output", t))
        c[t + 1] = f * c[t] + i * z
        gates["tc"][t] = np.tanh(c[t + 1])
        h[t + 1] = o * gates["tc"][t]
    return h, {"h": h, "c": c, **gates}


def _ref_lstm_backward(cell, inputs, cache, dh, grads):
    h, c = cache["h"], cache["c"]
    dc = np.zeros_like(dh)
    for t in range(inputs.shape[1] - 1, -1, -1):
        i, f, z, o, tc = (cache[k][t] for k in ("i", "f", "z", "o", "tc"))
        da_o = (dh * tc) * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tc**2)
        da_i = (dc * z) * i * (1.0 - i)
        da_z = (dc * i) * (1.0 - z**2)
        da_f = (dc * c[t]) * f * (1.0 - f)
        deltas = {"input": da_i, "forget": da_f, "cell": da_z, "output": da_o}
        for gate, da in deltas.items():
            grads[f"w_rec.{gate}"] += da.T @ h[t]
            grads[f"w_in.{gate}"] += da.T @ inputs[:, t]
            grads[f"b.{gate}"] += da.sum(axis=0)
        dh = sum(da @ cell.w_rec[gate] for gate, da in deltas.items())
        dc = dc * f


def _ref_gru_forward(cell, inputs):
    bsz, steps, _ = inputs.shape
    h = np.zeros((steps + 1, bsz, cell.hidden))
    gates = {k: np.empty((steps, bsz, cell.hidden)) for k in ("z", "r", "n")}
    for t in range(steps):
        xt = inputs[:, t]
        z = gates["z"][t] = sigmoid(h[t] @ cell.w_rec["update"].T + xt @ cell.w_in["update"].T + cell.b["update"])
        r = gates["r"][t] = sigmoid(h[t] @ cell.w_rec["reset"].T + xt @ cell.w_in["reset"].T + cell.b["reset"])
        n = gates["n"][t] = np.tanh(
            (r * h[t]) @ cell.w_rec["candidate"].T + xt @ cell.w_in["candidate"].T + cell.b["candidate"]
        )
        h[t + 1] = (1.0 - z) * n + z * h[t]
    return h, {"h": h, **gates}


def _ref_gru_backward(cell, inputs, cache, dh, grads):
    h = cache["h"]
    for t in range(inputs.shape[1] - 1, -1, -1):
        z, r, n = cache["z"][t], cache["r"][t], cache["n"][t]
        hp, xt = h[t], inputs[:, t]
        da_n = (dh * (1.0 - z)) * (1.0 - n**2)
        da_z = (dh * (hp - n)) * z * (1.0 - z)
        dhr = da_n @ cell.w_rec["candidate"]
        da_r = (dhr * hp) * r * (1.0 - r)
        grads["w_rec.candidate"] += da_n.T @ (r * hp)
        grads["w_rec.update"] += da_z.T @ hp
        grads["w_rec.reset"] += da_r.T @ hp
        for gate, da in (("update", da_z), ("reset", da_r), ("candidate", da_n)):
            grads[f"w_in.{gate}"] += da.T @ xt
            grads[f"b.{gate}"] += da.sum(axis=0)
        dh = dh * z + da_z @ cell.w_rec["update"] + da_r @ cell.w_rec["reset"] + dhr * r


_REF = {
    "rnn": (_ref_rnn_forward, _ref_rnn_backward),
    "lstm": (_ref_lstm_forward, _ref_lstm_backward),
    "gru": (_ref_gru_forward, _ref_gru_backward),
}


def reference_loss_and_grads(cell, inputs, targets, task):
    """(loss, logits, states, grads) of the reference BPTT."""
    ref_forward, ref_backward = _REF[cell.kind]
    states, cache = ref_forward(cell, inputs)
    logits = states[-1] @ cell.w_out.T + cell.b_out
    bsz = inputs.shape[0]
    if task == "adding":
        err = logits[:, 0] - targets
        value = np.mean(err**2)
        dlogits = np.zeros_like(logits)
        dlogits[:, 0] = 2.0 * err / bsz
    else:
        rows, labels = np.arange(bsz), targets.astype(int)
        shifted = logits - logits.max(axis=1, keepdims=True)
        total = np.exp(shifted).sum(axis=1, keepdims=True)
        value = np.mean(np.log(total[:, 0]) - shifted[rows, labels])
        dlogits = np.exp(shifted) / total
        dlogits[rows, labels] -= 1.0
        dlogits /= bsz
    grads = {name: np.zeros_like(arr) for name, arr in param_items(cell)}
    grads["w_out"] += dlogits.T @ states[-1]
    grads["b_out"] += dlogits.sum(axis=0)
    ref_backward(cell, inputs, cache, dlogits @ cell.w_out, grads)
    return value, logits, states, grads


def assert_scaled_close(got, ref, tol=1e-12):
    """max |got - ref| <= tol * max(1, max |ref|)."""
    ref = np.asarray(ref)
    assert np.shape(got) == ref.shape
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    assert float(np.abs(np.asarray(got) - ref).max(initial=0.0)) <= tol * scale


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
        states, _, _ = forward_batch(cell, np.array([[[0.2, 1.0]]]))
        np.testing.assert_allclose(states[1, 0], [0.2, 1.0], atol=1e-15)

    def test_zero_everything_stays_zero(self):
        cell = init_cell("rnn", 2, 3, 1, seed=0)
        cell.w_in["recurrent"][:] = 0.0
        cell.b["recurrent"][:] = 0.0
        states, _, _ = forward_batch(cell, np.zeros((1, 6, 2)))
        np.testing.assert_allclose(states, 0.0, atol=1e-15)

    def test_matches_independent_reimplementation(self):
        # step-by-step loop oracle for the literal recurrence
        cell, rng = perturbed_cell("rnn", "adding", seed=3)
        seq = rng.normal(0, 1, (9, 3))
        states, out, _ = forward_batch(cell, seq[None])
        states, out = states[1:, 0], out[0]
        w = cell.w_rec["recurrent"]
        u = cell.w_in["recurrent"]
        b = cell.b["recurrent"]
        x = np.zeros(cell.hidden)
        for t in range(9):
            x = w @ np.tanh(x) + u @ seq[t] + b
            np.testing.assert_allclose(states[t], x, atol=1e-12)
        np.testing.assert_allclose(out, cell.w_out @ x + cell.b_out, atol=1e-12)

    def test_lstm_matches_literal_recurrence(self):
        cell, rng = perturbed_cell("lstm", "adding", seed=4)
        seq = rng.normal(0, 1, (9, 3))
        states, out, _ = forward_batch(cell, seq[None])
        states, out = states[1:, 0], out[0]

        def gate(g, act, h, u):
            return act(cell.w_rec[g] @ h + cell.w_in[g] @ u + cell.b[g])

        h = c = np.zeros(cell.hidden)
        for t in range(9):
            i = gate("input", sigmoid, h, seq[t])
            f = gate("forget", sigmoid, h, seq[t])
            z = gate("cell", np.tanh, h, seq[t])
            o = gate("output", sigmoid, h, seq[t])
            c = f * c + i * z
            h = o * np.tanh(c)
            np.testing.assert_allclose(states[t], h, atol=1e-12)
        np.testing.assert_allclose(out, cell.w_out @ h + cell.b_out, atol=1e-12)

    def test_gru_matches_literal_recurrence(self):
        cell, rng = perturbed_cell("gru", "adding", seed=5)
        seq = rng.normal(0, 1, (9, 3))
        states, out, _ = forward_batch(cell, seq[None])
        states, out = states[1:, 0], out[0]
        w, u, b = cell.w_rec, cell.w_in, cell.b
        h = np.zeros(cell.hidden)
        for t in range(9):
            z = sigmoid(w["update"] @ h + u["update"] @ seq[t] + b["update"])
            r = sigmoid(w["reset"] @ h + u["reset"] @ seq[t] + b["reset"])
            n = np.tanh(w["candidate"] @ (r * h) + u["candidate"] @ seq[t] + b["candidate"])
            h = (1.0 - z) * n + z * h
            np.testing.assert_allclose(states[t], h, atol=1e-12)
        np.testing.assert_allclose(out, cell.w_out @ h + cell.b_out, atol=1e-12)

    def test_shape_mismatch(self):
        cell = init_cell("gru", 2, 4, 1, seed=0)
        with pytest.raises(ValueError):
            forward_batch(cell, np.zeros((1, 5, 3)))


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
        _, grads = batch_loss_and_grads(cell, seq[None], np.array([target]), task)
        h = 1e-5
        for name, arr in param_items(cell):
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                _, up, _ = forward_batch(cell, seq[None])
                flat[k] = orig - h
                _, dn, _ = forward_batch(cell, seq[None])
                flat[k] = orig
                num = (loss(up[0], target, task) - loss(dn[0], target, task)) / (2 * h)
                got = grads[name].reshape(-1)[k]
                assert abs(got - num) <= 1e-4 * max(abs(got), abs(num), 1e-6)

    def test_zero_loss_means_zero_gradients(self):
        cell = init_cell("gru", 2, 3, 1, seed=5)
        cell.w_out[:] = 0.0
        cell.b_out[:] = 0.25
        seq = np.random.default_rng(0).normal(0, 1, (5, 2))
        _, grads = batch_loss_and_grads(cell, seq[None], np.array([0.25]), "adding")
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


class TestFusedKernels:
    @pytest.mark.parametrize("hidden", (1, 5, 32))
    @pytest.mark.parametrize("steps", (1, 7, 50))
    @pytest.mark.parametrize("bsz", (1, 3, 16))
    @pytest.mark.parametrize(
        "task,d",
        (("adding", 2), ("mnist", 4), ("mnist", 28)),  # 28: an MNIST row, nearly as wide as the state
        ids=("adding", "mnist", "mnist-d28"),
    )
    @pytest.mark.parametrize("kind", ("rnn", "lstm", "gru"))
    def test_matches_reference_bptt(self, kind, task, d, bsz, steps, hidden):
        cell, rng = perturbed_cell(kind, task, seed=hidden * 100 + steps, hidden=hidden, d=d)
        inputs = rng.normal(0, 1, (bsz, steps, d))
        targets = rng.uniform(0, 2, bsz) if task == "adding" else rng.integers(0, 10, bsz)
        ref_value, ref_logits, ref_states, ref_grads = reference_loss_and_grads(cell, inputs, targets, task)
        states, logits, _ = forward_batch(cell, inputs)
        assert_scaled_close(states, ref_states)
        assert_scaled_close(logits, ref_logits)
        value, grads = batch_loss_and_grads(cell, inputs, targets, task)
        assert_scaled_close(value, ref_value)
        assert list(grads) == [name for name, _ in param_items(cell)]
        for name, ref in ref_grads.items():
            assert_scaled_close(grads[name], ref)

    @pytest.mark.parametrize("table", ("w_rec", "w_in", "b"))
    @pytest.mark.parametrize("kind", ("rnn", "lstm", "gru"))
    def test_in_place_parameter_edits_reach_the_next_call(self, kind, table):
        # the stacked gate matrices are rebuilt on every call, never cached on the cell
        cell, rng = perturbed_cell(kind, "adding", seed=21)
        inputs = rng.normal(0, 1, (4, 6, 3))
        targets = rng.uniform(0, 2, 4)
        for gate in cell.gates:
            before, _ = batch_loss_and_grads(cell, inputs, targets, "adding")
            getattr(cell, table)[gate] += 0.25
            after, grads = batch_loss_and_grads(cell, inputs, targets, "adding")
            assert after != before
            ref_value, _, _, ref_grads = reference_loss_and_grads(cell, inputs, targets, "adding")
            assert_scaled_close(after, ref_value)
            for name, ref in ref_grads.items():
                assert_scaled_close(grads[name], ref)

    @pytest.mark.parametrize("kind", ("rnn", "lstm", "gru"))
    def test_no_time_steps(self, kind):
        cell, _ = perturbed_cell(kind, "adding", seed=2)
        value, grads = batch_loss_and_grads(cell, np.zeros((3, 0, 3)), np.ones(3), "adding")
        ref_value, _, _, ref_grads = reference_loss_and_grads(cell, np.zeros((3, 0, 3)), np.ones(3), "adding")
        assert value == ref_value
        for name, ref in ref_grads.items():
            assert_scaled_close(grads[name], ref)


def rnn_jacobian_product_norms(cell, seq):
    """2-norms of the running BPTT Jacobian products of a vanilla RNN.

    Entry l-1 is ||prod_{i=T-l+1..T} W^T diag(tanh'(x_{i-1}))||_2, the
    state-to-state Jacobian across the last l steps; each entry is bounded
    by (||W||_2 * max tanh')^l.
    """
    states, _, _ = forward_batch(cell, np.asarray(seq, dtype=float)[None])
    w = cell.w_rec["recurrent"]
    x = states[:, 0, :]
    steps = len(seq)
    prod = np.eye(cell.hidden)
    norms = np.empty(steps)
    for k, i in enumerate(range(steps, 0, -1)):
        deriv = 1.0 - np.tanh(x[i - 1]) ** 2
        prod = prod @ (w.T * deriv[None, :])
        norms[k] = np.linalg.svd(prod, compute_uv=False)[0]
    return norms


class TestJacobianProducts:
    def test_bounded_by_norm_product(self, rng):
        for seed in range(5):
            cell, cell_rng = perturbed_cell("rnn", "adding", seed=seed, hidden=6, d=2)
            seq = cell_rng.normal(0, 1, (8, 2))
            norms = rnn_jacobian_product_norms(cell, seq)
            gain = two_norm(Matrix(cell.w_rec["recurrent"]))  # tanh' <= 1
            for span, val in enumerate(norms, start=1):
                assert val <= gain**span * (1 + 1e-10)

    def test_contractive_weights_shrink(self):
        cell = init_cell("rnn", 2, 4, 1, seed=0)
        cell.w_rec["recurrent"][:] = 0.2 * np.eye(4)
        seq = np.random.default_rng(1).normal(0, 1, (10, 2))
        norms = rnn_jacobian_product_norms(cell, seq)
        assert norms[-1] < norms[0]


class TestAccuracy:
    def test_perfect_predictor(self):
        data = generate_adding(200, 10, seed=0)
        cell = init_cell("rnn", 2, 2, 1, seed=0)
        cell.w_out[:] = 0.0
        # cheat: replace targets with a constant and predict it exactly
        const = np.full_like(data.targets, 0.5)
        data = Dataset(data.inputs, const, "adding")
        cell.b_out[:] = 0.5
        assert accuracy(cell, data) == 1.0

    def test_constant_one_matches_analytic_mass(self):
        # P(|S - 1| <= 0.04) for S = sum of two uniforms = 2*(0.04 - 0.04^2/2)
        data = generate_adding(40000, 12, seed=5)
        cell = init_cell("gru", 2, 2, 1, seed=0)
        cell.w_out[:] = 0.0
        cell.b_out[:] = 1.0
        analytic = 2 * (0.04 - 0.04**2 / 2)
        assert accuracy(cell, data) == pytest.approx(analytic, abs=0.01)

    def test_random_ten_class_predictor_near_chance(self, rng):
        inputs = rng.normal(0, 1, (3000, 4, 5))
        labels = rng.integers(0, 10, 3000)
        data = Dataset(inputs, labels, "mnist")
        cell = init_cell("rnn", 5, 8, 10, seed=1)
        assert accuracy(cell, data) == pytest.approx(0.1, abs=0.04)

    def test_adding_scores_within_the_tolerance(self):
        # predictions 0.5 against targets 0.5 + offset: correct up to |offset| = 0.04
        offsets = np.array([0.0, 0.03, -0.039, 0.041, -0.05, 0.5])
        data = Dataset(np.zeros((offsets.size, 3, 2)), 0.5 + offsets, "adding")
        cell = init_cell("rnn", 2, 2, 1, seed=0)
        cell.w_out[:] = 0.0
        cell.b_out[:] = 0.5
        assert accuracy(cell, data) == 3 / 6

    def test_mnist_scores_by_argmax(self):
        # a fixed readout peaks at class 3: right exactly for the label-3 sequences
        data = Dataset(np.zeros((5, 3, 2)), np.array([3, 0, 3, 9, 3]), "mnist")
        cell = init_cell("gru", 2, 2, 10, seed=0)
        cell.w_out[:] = 0.0
        cell.b_out[:] = 0.0
        cell.b_out[3] = 0.1
        assert accuracy(cell, data) == 3 / 5

    def test_unknown_task(self):
        cell = init_cell("rnn", 2, 2, 1, seed=0)
        with pytest.raises(ValueError, match="unknown task"):
            accuracy(cell, Dataset(np.zeros((2, 3, 2)), np.zeros(2), "sorting"))


class TestPredictions:
    def test_forward_passes_stay_within_the_buffer_bound(self, monkeypatch):
        data = generate_adding(600, 50, seed=0)
        cell = init_cell("gru", 2, 32, 1, seed=0)  # the CLI's default GRU
        _, whole, _ = forward_batch(cell, data.inputs)
        sizes = []

        def recording(c, inputs):
            sizes.append(inputs.shape[0])
            return forward_batch(c, inputs)

        monkeypatch.setattr(cells, "forward_batch", recording)
        logits = predictions(cell, data.inputs)
        assert sum(sizes) == 600 and len(sizes) > 1
        # doubles per sequence: (T, gates*hidden) activations, (T+1, hidden+input+1)
        # operand and the candidate's (T, hidden+input+1) operand; 4 MiB in all
        assert max(sizes) * (50 * 3 * 32 + 51 * 35 + 50 * 35) <= 1 << 19
        assert_scaled_close(logits, whole)


class TestGateExtraction:
    @pytest.mark.parametrize("kind,count", (("rnn", 1), ("lstm", 4), ("gru", 3)))
    def test_counts_and_order(self, kind, count):
        # the per-gate recurrent matrices the CLI writes and analyzes, in the documented order
        cell = init_cell(kind, 3, 4, 2, seed=0)
        assert list(cell.gates) == list(GATE_ORDER[kind])
        assert len(cell.gates) == count
        for g in cell.gates:
            m = Matrix(cell.w_rec[g])
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
