"""Minimal recurrent cells with exact reverse-mode gradients.

Three cell kinds over a shared parameter layout:

* ``rnn``  -- x_t = W tanh(x_{t-1}) + W_in u_t + b, with the nonlinearity
  applied to the previous state inside the recurrence and the state itself
  kept pre-activation.
* ``lstm`` -- standard gates, order (input, forget, cell, output).
* ``gru``  -- standard gates, order (update, reset, candidate); the reset
  gate multiplies the previous state before the candidate's recurrent
  matrix.

The readout is affine on the final state; classification consumers apply a
softmax on top. Batched forward/backward operate on (batch, time, dim)
arrays; the single-sequence API wraps a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

GATE_ORDER = {
    "rnn": ("recurrent",),
    "lstm": ("input", "forget", "cell", "output"),
    "gru": ("update", "reset", "candidate"),
}
KINDS = tuple(GATE_ORDER)

TASKS = ("adding", "mnist")


@dataclass
class CellParams:
    """Weights of one recurrent cell plus its affine readout.

    ``w_rec[g]`` is (hidden, hidden), ``w_in[g]`` is (hidden, input) and
    ``b[g]`` is (hidden,) for every gate g in the kind's documented order;
    ``w_out`` is (output, hidden).
    """

    kind: str
    w_rec: dict[str, np.ndarray]
    w_in: dict[str, np.ndarray]
    b: dict[str, np.ndarray]
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        gates = GATE_ORDER[self.kind]
        for table in (self.w_rec, self.w_in, self.b):
            if tuple(table) != gates:
                raise ValueError(f"{self.kind} cell needs gates {gates}, got {tuple(table)}")
        h = self.hidden
        d = self.input_dim
        for g in gates:
            if self.w_rec[g].shape != (h, h) or self.w_in[g].shape != (h, d):
                raise ValueError(f"inconsistent shapes in gate {g!r}")
            if self.b[g].shape != (h,):
                raise ValueError(f"bias shape mismatch in gate {g!r}")
        if self.w_out.shape[1] != h or self.b_out.shape != (self.w_out.shape[0],):
            raise ValueError("readout shape mismatch")
        for _, arr in param_items(self):
            if not np.isfinite(arr).all():
                raise ValueError("cell parameters must be finite")

    @property
    def gates(self) -> tuple[str, ...]:
        return GATE_ORDER[self.kind]

    @property
    def hidden(self) -> int:
        return self.w_rec[self.gates[0]].shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_in[self.gates[0]].shape[1]

    @property
    def output_dim(self) -> int:
        return self.w_out.shape[0]


def param_items(cell: CellParams) -> list[tuple[str, np.ndarray]]:
    """Dotted-name view of all trainable arrays, in a fixed order."""
    items = []
    for g in cell.gates:
        items.append((f"w_rec.{g}", cell.w_rec[g]))
        items.append((f"w_in.{g}", cell.w_in[g]))
        items.append((f"b.{g}", cell.b[g]))
    items.append(("w_out", cell.w_out))
    items.append(("b_out", cell.b_out))
    return items


def init_cell(
    kind: str,
    input_dim: int,
    hidden: int,
    output_dim: int,
    seed: int | np.random.Generator = 0,
    memory_bias: float = 0.0,
) -> CellParams:
    """Seeded uniform init scaled by 1/sqrt(fan-in); biases start at zero.

    ``memory_bias`` is added to the LSTM forget-gate / GRU update-gate bias
    so those cells start out retaining state, which helps plain SGD on
    long-horizon tasks.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if kind not in KINDS:
        raise ValueError(f"unknown cell kind {kind!r}")
    w_rec, w_in, b = {}, {}, {}
    s_rec = 1.0 / np.sqrt(hidden)
    s_in = 1.0 / np.sqrt(input_dim)
    for g in GATE_ORDER[kind]:
        w_rec[g] = rng.uniform(-s_rec, s_rec, (hidden, hidden))
        w_in[g] = rng.uniform(-s_in, s_in, (hidden, input_dim))
        b[g] = np.zeros(hidden)
    if kind == "lstm":
        b["forget"] = b["forget"] + memory_bias
    elif kind == "gru":
        b["update"] = b["update"] + memory_bias
    w_out = rng.uniform(-s_rec, s_rec, (output_dim, hidden))
    return CellParams(kind, w_rec, w_in, b, w_out, np.zeros(output_dim))


# ---------------------------------------------------------------------------
# Batched forward passes. inputs is (B, T, d); caches hold whatever the
# matching backward pass needs.
# ---------------------------------------------------------------------------


def _rnn_forward(cell, inputs):
    bsz, steps, _ = inputs.shape
    h = cell.hidden
    w, u, b = cell.w_rec["recurrent"], cell.w_in["recurrent"], cell.b["recurrent"]
    x = np.zeros((steps + 1, bsz, h))
    s = np.empty((steps, bsz, h))
    for t in range(steps):
        s[t] = np.tanh(x[t])
        x[t + 1] = s[t] @ w.T + inputs[:, t] @ u.T + b
    return x, {"x": x, "s": s}


def _rnn_backward(cell, inputs, cache, g_last, grads):
    steps = inputs.shape[1]
    w = cell.w_rec["recurrent"]
    s = cache["s"]
    g = g_last
    dw = grads["w_rec.recurrent"]
    du = grads["w_in.recurrent"]
    db = grads["b.recurrent"]
    for t in range(steps - 1, -1, -1):
        dw += g.T @ s[t]
        du += g.T @ inputs[:, t]
        db += g.sum(axis=0)
        g = (g @ w) * (1.0 - s[t] ** 2)


def _lstm_forward(cell, inputs):
    bsz, steps, _ = inputs.shape
    n = cell.hidden
    h = np.zeros((steps + 1, bsz, n))
    c = np.zeros((steps + 1, bsz, n))
    gi, gf, gz, go, tc = (np.empty((steps, bsz, n)) for _ in range(5))
    for t in range(steps):
        xt = inputs[:, t]
        gi[t] = sigmoid(h[t] @ cell.w_rec["input"].T + xt @ cell.w_in["input"].T + cell.b["input"])
        gf[t] = sigmoid(h[t] @ cell.w_rec["forget"].T + xt @ cell.w_in["forget"].T + cell.b["forget"])
        gz[t] = np.tanh(h[t] @ cell.w_rec["cell"].T + xt @ cell.w_in["cell"].T + cell.b["cell"])
        go[t] = sigmoid(h[t] @ cell.w_rec["output"].T + xt @ cell.w_in["output"].T + cell.b["output"])
        c[t + 1] = gf[t] * c[t] + gi[t] * gz[t]
        tc[t] = np.tanh(c[t + 1])
        h[t + 1] = go[t] * tc[t]
    return h, {"h": h, "c": c, "i": gi, "f": gf, "z": gz, "o": go, "tc": tc}


def _lstm_backward(cell, inputs, cache, g_last, grads):
    steps = inputs.shape[1]
    h, c = cache["h"], cache["c"]
    dh = g_last
    dc = np.zeros_like(dh)
    for t in range(steps - 1, -1, -1):
        i, f, z, o, tc = (cache[k][t] for k in ("i", "f", "z", "o", "tc"))
        xt = inputs[:, t]
        da_o = (dh * tc) * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tc**2)
        da_i = (dc * z) * i * (1.0 - i)
        da_z = (dc * i) * (1.0 - z**2)
        da_f = (dc * c[t]) * f * (1.0 - f)
        for gate, da in (("input", da_i), ("forget", da_f), ("cell", da_z), ("output", da_o)):
            grads[f"w_rec.{gate}"] += da.T @ h[t]
            grads[f"w_in.{gate}"] += da.T @ xt
            grads[f"b.{gate}"] += da.sum(axis=0)
        dh = (
            da_i @ cell.w_rec["input"]
            + da_f @ cell.w_rec["forget"]
            + da_z @ cell.w_rec["cell"]
            + da_o @ cell.w_rec["output"]
        )
        dc = dc * f


def _gru_forward(cell, inputs):
    bsz, steps, _ = inputs.shape
    n = cell.hidden
    h = np.zeros((steps + 1, bsz, n))
    gz, gr, gn = (np.empty((steps, bsz, n)) for _ in range(3))
    for t in range(steps):
        xt = inputs[:, t]
        gz[t] = sigmoid(h[t] @ cell.w_rec["update"].T + xt @ cell.w_in["update"].T + cell.b["update"])
        gr[t] = sigmoid(h[t] @ cell.w_rec["reset"].T + xt @ cell.w_in["reset"].T + cell.b["reset"])
        gn[t] = np.tanh(
            (gr[t] * h[t]) @ cell.w_rec["candidate"].T
            + xt @ cell.w_in["candidate"].T
            + cell.b["candidate"]
        )
        h[t + 1] = (1.0 - gz[t]) * gn[t] + gz[t] * h[t]
    return h, {"h": h, "z": gz, "r": gr, "n": gn}


def _gru_backward(cell, inputs, cache, g_last, grads):
    steps = inputs.shape[1]
    h = cache["h"]
    dh = g_last
    for t in range(steps - 1, -1, -1):
        z, r, n = cache["z"][t], cache["r"][t], cache["n"][t]
        hp = h[t]
        xt = inputs[:, t]
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


_FORWARD = {"rnn": _rnn_forward, "lstm": _lstm_forward, "gru": _gru_forward}
_BACKWARD = {"rnn": _rnn_backward, "lstm": _lstm_backward, "gru": _gru_backward}


def forward_batch(cell: CellParams, inputs: np.ndarray):
    """States (T+1, B, hidden), readout logits (B, output), cache."""
    if inputs.ndim != 3 or inputs.shape[2] != cell.input_dim:
        raise ValueError(
            f"inputs must be (batch, time, {cell.input_dim}), got {inputs.shape}"
        )
    states, cache = _FORWARD[cell.kind](cell, inputs)
    logits = states[-1] @ cell.w_out.T + cell.b_out
    return states, logits, cache


def forward(cell: CellParams, seq: np.ndarray):
    """Single sequence (T, input) -> (states x_1..x_T, affine readout).

    Classification consumers apply a softmax to the returned output.
    """
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise ValueError(f"seq must be (time, input), got shape {seq.shape}")
    states, logits, _ = forward_batch(cell, seq[None])
    return states[1:, 0, :], logits[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loss(output: np.ndarray, target, task: str) -> float:
    """Terminal loss: squared error (adding) or softmax cross-entropy (mnist)."""
    return _loss_and_dlogits(np.asarray(output, dtype=float)[None], np.asarray([target]), task)[0]


def _zero_grads(cell: CellParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in param_items(cell)}


def _loss_and_dlogits(logits: np.ndarray, targets: np.ndarray, task: str):
    """Batch-mean terminal loss and its gradient w.r.t. the logits."""
    bsz = logits.shape[0]
    if task == "adding":
        err = logits[:, 0] - targets
        dlogits = np.zeros_like(logits)
        dlogits[:, 0] = 2.0 * err / bsz
        return float(np.mean(err**2)), dlogits
    if task == "mnist":
        rows, labels = np.arange(bsz), targets.astype(int)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=1, keepdims=True)
        nll = np.log(total[:, 0]) - shifted[rows, labels]  # log-sum-exp: no log of an underflowed 0
        dlogits = e / total
        dlogits[rows, labels] -= 1.0
        return float(nll.mean()), dlogits / bsz
    raise ValueError(f"unknown task {task!r}")


def batch_loss_and_grads(cell: CellParams, inputs: np.ndarray, targets: np.ndarray, task: str):
    """Mean terminal loss over the batch and exact gradients for every parameter."""
    states, logits, cache = forward_batch(cell, inputs)
    value, dlogits = _loss_and_dlogits(logits, np.asarray(targets), task)
    grads = _zero_grads(cell)
    grads["w_out"] += dlogits.T @ states[-1]
    grads["b_out"] += dlogits.sum(axis=0)
    g_last = dlogits @ cell.w_out
    _BACKWARD[cell.kind](cell, inputs, cache, g_last, grads)
    return value, grads


def backward(cell: CellParams, seq: np.ndarray, target, task: str) -> dict[str, np.ndarray]:
    """Exact gradients of the terminal loss for one sequence."""
    seq = np.asarray(seq, dtype=float)
    _, grads = batch_loss_and_grads(cell, seq[None], np.asarray([target]), task)
    return grads


def predictions(cell: CellParams, inputs: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Readout logits for many sequences, evaluated in memory-bounded chunks."""
    outs = []
    for lo in range(0, inputs.shape[0], chunk):
        _, logits, _ = forward_batch(cell, inputs[lo : lo + chunk])
        outs.append(logits)
    return np.concatenate(outs, axis=0)


def accuracy(cell: CellParams, data, task: str | None = None, tol: float = 0.04) -> float:
    """Fraction correct: |prediction - target| <= tol (adding) or argmax (mnist)."""
    task = task or data.task
    logits = predictions(cell, data.inputs)
    if task == "adding":
        return float(np.mean(np.abs(logits[:, 0] - data.targets) <= tol))
    if task == "mnist":
        return float(np.mean(np.argmax(logits, axis=1) == data.targets))
    raise ValueError(f"unknown task {task!r}")


def extract_recurrent_matrices(cell: CellParams):
    """Per-gate recurrent matrices in the documented gate order."""
    from ..matrix import Matrix

    return [(g, Matrix(cell.w_rec[g])) for g in cell.gates]


def rnn_jacobian_product_norms(cell: CellParams, seq: np.ndarray) -> np.ndarray:
    """2-norms of the running BPTT Jacobian products of a vanilla RNN.

    Entry l-1 is ||prod_{i=T-l+1..T} W^T diag(tanh'(x_{i-1}))||_2, the
    state-to-state Jacobian across the last l steps; each entry is bounded
    by (||W||_2 * max tanh')^l.
    """
    if cell.kind != "rnn":
        raise ValueError("jacobian product norms are defined for the vanilla rnn cell")
    seq = np.asarray(seq, dtype=float)
    states, _, cache = forward_batch(cell, seq[None])
    w = cell.w_rec["recurrent"]
    x = cache["x"][:, 0, :]
    steps = seq.shape[0]
    prod = np.eye(cell.hidden)
    norms = np.empty(steps)
    for k, i in enumerate(range(steps, 0, -1)):
        deriv = 1.0 - np.tanh(x[i - 1]) ** 2
        prod = prod @ (w.T * deriv[None, :])
        norms[k] = np.linalg.svd(prod, compute_uv=False)[0]
    return norms
