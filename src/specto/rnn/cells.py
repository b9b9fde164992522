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
# Fused kernels. Each call stacks every gate's weights into one matrix, so a
# step runs one recurrent GEMM (the GRU two: update+reset, then the candidate
# on r*h). States are hidden-major, (T+1, hidden, B), so each gate is a
# contiguous row block of that GEMM's result. Sigmoid gates come first and
# their rows are stored halved (exact in binary): one tanh over all rows and
# one affine map give sigmoid(a) = 0.5 + 0.5 tanh(a/2). The input projection
# of all steps is one matmul whose (T, G*hidden, B) buffer becomes the gate
# activation cache. Backward turns that cache in place into the derivative
# factors, then into the gate deltas da, so it holds no copy of its own; the
# weight gradients are sums over the (T*B) columns of da after the time loop.
# ---------------------------------------------------------------------------

# Fused row order: sigmoid gates first; in the LSTM the three gates whose
# deltas scale the cell gradient (input, forget, cell) are adjacent, in the
# GRU the two whose deltas scale the state gradient (update, candidate).
_FUSED_ORDER = {
    "rnn": ("recurrent",),
    "lstm": ("output", "input", "forget", "cell"),
    "gru": ("reset", "update", "candidate"),
}
_SIGMOID_GATES = {"rnn": 0, "lstm": 3, "gru": 2}


def _stack(cell: CellParams, table: dict[str, np.ndarray]) -> np.ndarray:
    """One gate table stacked in fused row order (a fresh array)."""
    return np.concatenate([table[g] for g in _FUSED_ORDER[cell.kind]])


def _halve_sigmoid_rows(cell: CellParams, arr: np.ndarray) -> np.ndarray:
    arr[: _SIGMOID_GATES[cell.kind] * cell.hidden] *= 0.5
    return arr


def _project(cell: CellParams, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """U u_t + b for every step into ``out`` (T, G*hidden, B), sigmoid rows halved."""
    u = _halve_sigmoid_rows(cell, _stack(cell, cell.w_in))
    b = _halve_sigmoid_rows(cell, _stack(cell, cell.b))
    np.matmul(u, xs, out=out)
    out += b[:, None]
    return out


def _column_sums(da: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """sum_t da_t acts_t^T over all (T*B) columns: (rows of da, rows of acts)."""
    return np.matmul(da, acts.transpose(0, 2, 1)).sum(axis=0)


def _weight_grads(da: np.ndarray, rec: np.ndarray, xs: np.ndarray):
    """(w_rec, w_in, b) gradients in fused row order; rec[t] is what W multiplies at step t."""
    return _column_sums(da, rec), _column_sums(da, xs), da.sum(axis=0).sum(axis=1)


def _rnn_forward(cell, xs):
    steps, _, bsz = xs.shape
    w = cell.w_rec["recurrent"]
    x = np.empty((steps + 1, cell.hidden, bsz))
    x[0] = 0.0
    _project(cell, xs, out=x[1:])
    for t in range(steps):
        x[t + 1] += w @ np.tanh(x[t])
    return x, {"x": x}


def _rnn_backward(cell, cache, dh):
    x, xs = cache["x"], cache["xs"]
    s = np.tanh(x[:-1])
    deriv = np.multiply(s, s, out=x[:-1])  # x_0..x_{T-1} are spent: reuse them
    np.subtract(1.0, deriv, out=deriv)
    da = x[1:]  # da[t] = dloss/dx_{t+1}, written over deriv[t+1] once it is used
    da[-1:] = dh  # a slice, so that T = 0 has nothing to set
    wt = cell.w_rec["recurrent"].T
    for t in range(xs.shape[0] - 1, 0, -1):
        np.multiply(wt @ da[t], deriv[t], out=da[t - 1])
    return _weight_grads(da, s, xs)


def _lstm_forward(cell, xs):
    # fused rows: output, input, forget (sigmoid), cell candidate z (tanh)
    steps, _, bsz = xs.shape
    n = cell.hidden
    act = _project(cell, xs, out=np.empty((steps, 4 * n, bsz)))
    w = _halve_sigmoid_rows(cell, _stack(cell, cell.w_rec))
    h = np.zeros((steps + 1, n, bsz))
    c = np.zeros((steps + 1, n, bsz))
    for t in range(steps):
        a = act[t]
        a += w @ h[t]
        np.tanh(a, out=a)
        sig = a[: 3 * n]
        sig *= 0.5
        sig += 0.5
        np.multiply(a[2 * n : 3 * n], c[t], out=c[t + 1])
        c[t + 1] += a[n : 2 * n] * a[3 * n :]
        np.tanh(c[t + 1], out=h[t + 1])
        h[t + 1] *= a[:n]
    return h, {"h": h, "c": c, "act": act}


def _lstm_backward(cell, cache, dh):
    h, c, act, xs = cache["h"], cache["c"], cache["act"], cache["xs"]
    steps, _, bsz = act.shape
    n = cell.hidden
    o, i, f, z = (act[:, k * n : (k + 1) * n] for k in range(4))
    # Derivative factors, over the gate values in place: o -> tanh(c) o (1-o),
    # i -> z i (1-i), f -> c_prev f (1-f), z -> i (1-z^2). keep_f holds f and
    # into_c the factor o (1-tanh^2 c) that carries dh into dc.
    tc = np.tanh(c[1:])
    into_c = np.multiply(tc, tc)
    np.subtract(1.0, into_c, out=into_c)
    into_c *= o
    tc *= o
    np.subtract(1.0, o, out=o)
    o *= tc
    keep_f = tc  # tanh(c) o is spent
    np.multiply(z, z, out=keep_f)
    np.subtract(1.0, keep_f, out=keep_f)
    keep_f *= i
    z *= i
    np.subtract(1.0, i, out=i)
    i *= z
    np.copyto(z, keep_f)
    np.copyto(keep_f, f)
    np.subtract(1.0, f, out=f)
    f *= keep_f
    f *= c[:-1]
    # Gate deltas, over the factors step by step: (da_i, da_f, da_z) = dc * rows n:4n.
    from_c = act[:, n:].reshape(steps, 3, n, bsz)
    wt = _stack(cell, cell.w_rec).T
    dc = np.zeros((n, bsz))
    for t in range(steps - 1, -1, -1):
        da = act[t]
        da[:n] *= dh
        dc += dh * into_c[t]
        from_c[t] *= dc
        if t:
            dh = wt @ da
            dc *= keep_f[t]
    return _weight_grads(act, h[:-1], xs)


def _gru_forward(cell, xs):
    # fused rows: reset r, update z (sigmoid), candidate n (tanh on W_n (r*h))
    steps, _, bsz = xs.shape
    n = cell.hidden
    act = _project(cell, xs, out=np.empty((steps, 3 * n, bsz)))
    w = _halve_sigmoid_rows(cell, _stack(cell, cell.w_rec))
    w_rz, w_n = w[: 2 * n], w[2 * n :]
    h = np.zeros((steps + 1, n, bsz))
    for t in range(steps):
        a = act[t]
        rz, cand = a[: 2 * n], a[2 * n :]
        rz += w_rz @ h[t]
        np.tanh(rz, out=rz)
        rz *= 0.5
        rz += 0.5
        cand += w_n @ (a[:n] * h[t])
        np.tanh(cand, out=cand)
        # h' = (1 - z) n + z h = n + z (h - n)
        np.subtract(h[t], cand, out=h[t + 1])
        h[t + 1] *= a[n : 2 * n]
        h[t + 1] += cand
    return h, {"h": h, "act": act}


def _gru_backward(cell, cache, dh):
    h, act, xs = cache["h"], cache["act"], cache["xs"]
    steps, rows, bsz = act.shape
    n = cell.hidden
    hp = h[:-1]
    r, z, cand = act[:, :n], act[:, n : 2 * n], act[:, 2 * n :]
    # Derivative factors, over the gate values in place: r -> h r (1-r),
    # z -> (h - n) z (1-z), n -> (1-z)(1-n^2); keep_r and keep_z hold r and z.
    rh = r * hp
    keep_r, keep_z = r.copy(), z.copy()
    np.subtract(1.0, r, out=r)
    r *= rh
    diff = hp - cand
    diff *= keep_z
    np.subtract(1.0, z, out=z)
    np.multiply(cand, cand, out=cand)
    np.subtract(1.0, cand, out=cand)
    cand *= z
    z *= diff
    # Gate deltas, over the factors step by step: (da_z, da_n) = dh * rows n:3n.
    from_h = act[:, n:].reshape(steps, 2, n, bsz)
    w = _stack(cell, cell.w_rec)
    wt_rz, wt_n = w[: 2 * n].T, w[2 * n :].T
    for t in range(steps - 1, -1, -1):
        da = act[t]
        from_h[t] *= dh
        dhr = wt_n @ da[2 * n :]
        da[:n] *= dhr
        if t:
            dh_prev = wt_rz @ da[: 2 * n]
            dh_prev += dh * keep_z[t]
            dh_prev += dhr * keep_r[t]
            dh = dh_prev
    dw = np.empty((rows, n))
    dw[: 2 * n] = _column_sums(act[:, : 2 * n], hp)
    dw[2 * n :] = _column_sums(act[:, 2 * n :], rh)
    return dw, _column_sums(act, xs), act.sum(axis=0).sum(axis=1)


_FORWARD = {"rnn": _rnn_forward, "lstm": _lstm_forward, "gru": _gru_forward}
_BACKWARD = {"rnn": _rnn_backward, "lstm": _lstm_backward, "gru": _gru_backward}


def forward_batch(cell: CellParams, inputs: np.ndarray):
    """States (T+1, B, hidden), readout logits (B, output), cache.

    The cache is private to this module: it holds what the matching
    backward pass needs.
    """
    if inputs.ndim != 3 or inputs.shape[2] != cell.input_dim:
        raise ValueError(
            f"inputs must be (batch, time, {cell.input_dim}), got {inputs.shape}"
        )
    xs = np.ascontiguousarray(np.transpose(inputs, (1, 2, 0)), dtype=float)  # (T, d, B)
    hidden_major, cache = _FORWARD[cell.kind](cell, xs)
    cache["xs"] = xs
    states = hidden_major.transpose(0, 2, 1)
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


def loss(output: np.ndarray, target, task: str) -> float:
    """Terminal loss: squared error (adding) or softmax cross-entropy (mnist)."""
    return _loss_and_dlogits(np.asarray(output, dtype=float)[None], np.asarray([target]), task)[0]


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
    dw_out, db_out = dlogits.T @ states[-1], dlogits.sum(axis=0)  # backward overwrites the cache
    dw, du, db = _BACKWARD[cell.kind](cell, cache, cell.w_out.T @ dlogits.T)
    n = cell.hidden
    rows = {g: slice(k * n, (k + 1) * n) for k, g in enumerate(_FUSED_ORDER[cell.kind])}
    grads = {}
    for g in cell.gates:
        grads[f"w_rec.{g}"] = dw[rows[g]]
        grads[f"w_in.{g}"] = du[rows[g]]
        grads[f"b.{g}"] = db[rows[g]]
    grads["w_out"] = dw_out
    grads["b_out"] = db_out
    return value, grads


def backward(cell: CellParams, seq: np.ndarray, target, task: str) -> dict[str, np.ndarray]:
    """Exact gradients of the terminal loss for one sequence."""
    seq = np.asarray(seq, dtype=float)
    _, grads = batch_loss_and_grads(cell, seq[None], np.asarray([target]), task)
    return grads


# Doubles in the (T, gates*hidden, chunk) activation buffer of one forward pass in
# `predictions` (4 MiB). A larger block, once freed, raises glibc's dynamic mmap
# threshold, and the heap then keeps later large temporaries resident: a GRU
# train followed by analyze in one process peaked 18 MB higher at 512 sequences
# per pass (19.7 MB buffers).
_EVAL_SCALARS = 1 << 19


def predictions(cell: CellParams, inputs: np.ndarray) -> np.ndarray:
    """Readout logits for many sequences, evaluated in memory-bounded chunks."""
    steps = inputs.shape[1]
    chunk = max(1, _EVAL_SCALARS // max(1, steps * len(cell.gates) * cell.hidden))
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
    states, _, _ = forward_batch(cell, seq[None])
    w = cell.w_rec["recurrent"]
    x = states[:, 0, :]
    steps = seq.shape[0]
    prod = np.eye(cell.hidden)
    norms = np.empty(steps)
    for k, i in enumerate(range(steps, 0, -1)):
        deriv = 1.0 - np.tanh(x[i - 1]) ** 2
        prod = prod @ (w.T * deriv[None, :])
        norms[k] = np.linalg.svd(prod, compute_uv=False)[0]
    return norms
