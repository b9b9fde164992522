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
softmax on top. Forward and backward operate on (batch, time, dim) arrays;
one sequence is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CellParams",
    "GATE_ORDER",
    "KINDS",
    "param_items",
    "init_cell",
    "forward_batch",
    "loss",
    "batch_loss_and_grads",
    "predictions",
    "accuracy",
]

GATE_ORDER = {
    "rnn": ("recurrent",),
    "lstm": ("input", "forget", "cell", "output"),
    "gru": ("update", "reset", "candidate"),
}
KINDS = tuple(GATE_ORDER)

_ADDING_TOL = 0.04  # an adding-task prediction within this of the target counts as correct


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
# Fused kernels. Each call stacks every gate's [W | U | b] into one augmented
# matrix, so a step's pre-activations are one GEMM over an operand whose
# column per sequence is [state; u_t; 1] (the GRU runs two: update and reset
# over [h; u; 1], then the candidate over [r*h; u; 1]). Operands are
# hidden-major, (slots, hidden+input+1, B): rows hidden: hold the inputs and a
# row of ones, written once per call, and rows :hidden receive each step's
# state, so each gate is a contiguous row block of the GEMM's result. Sigmoid
# gates come first and their rows are stored halved (exact in binary): one
# tanh over all rows and one affine map give sigmoid(a) = 0.5 + 0.5 tanh(a/2).
# The (T, G*hidden, B) buffer of GEMM results becomes the gate activation
# cache. Backward turns that cache in place into the derivative factors, then
# into the gate deltas da, so it holds no copy of its own; after the time loop
# the [W | U | b] gradient over an operand is one sum over the (T*B) columns
# of da and that operand, taken in chunks of steps.
#
# Every array of a call that grows with T*B comes from `_buffer`, under its
# role in the call's `work` dict (a fresh one when the caller gives none), so
# a training loop that passes one dict allocates them once per shape instead
# of once per batch.
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


def _augmented(cell: CellParams) -> np.ndarray:
    """[W | U | b] in fused row order, sigmoid rows halved: (G*hidden, hidden+input+1)."""
    w = np.concatenate(
        (_stack(cell, cell.w_rec), _stack(cell, cell.w_in), _stack(cell, cell.b)[:, None]), axis=1
    )
    w[: _SIGMOID_GATES[cell.kind] * cell.hidden] *= 0.5
    return w


# Doubles in the product chunk of `_column_sums` (256 KiB, more only when one
# step's products need it): the gradient sums form as many steps' products at
# a time as fit. One product over all steps, (T, G*hidden, hidden+input+1),
# would be a training batch's largest temporary (1.8 MB for the default LSTM).
_SUM_SCALARS = 1 << 15


def _buffer(work: dict, role: str, shape: tuple) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: ``work[role]`` when it has that shape.

    A dict's array of another shape is dropped before its replacement is
    allocated, so the two never coexist.
    """
    if role not in work or work[role].shape != shape:
        work.pop(role, None)
        work[role] = np.empty(shape)
    return work[role]


def _operand(inputs: np.ndarray, hidden: int, slots: int, work: dict, role: str) -> np.ndarray:
    """(slots, hidden+input+1, B) operand: rows hidden: of slot t < T hold [u_t; 1].

    Rows :hidden are left for the caller's states; a slot past the last
    step holds only a state.
    """
    bsz, steps, d = inputs.shape
    v = _buffer(work, role, (slots, hidden + d + 1, bsz))
    v[:steps, hidden:-1] = inputs.transpose(1, 2, 0)
    v[:, -1] = 1.0
    return v


def _weight_grads(cell: CellParams, work: dict):
    """A fresh (G*hidden, hidden+input+1) [W | U | b] gradient and the product buffer that fills it."""
    dw = np.empty((len(cell.gates) * cell.hidden, cell.hidden + cell.input_dim + 1))
    return dw, _buffer(work, "sums", (max(_SUM_SCALARS, dw.size),))


def _column_sums(da: np.ndarray, operand: np.ndarray, out: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """sum_t da_t operand_t^T over all (T*B) columns into ``out``: (rows of da, rows of operand).

    The products of as many steps as the flat ``sums`` holds are formed at a
    time, and the running sum is added into each chunk's first product, so
    ``out`` is bitwise the sequential sum ``np.matmul(da, operandᵀ).sum(axis=0)``.
    """
    steps, rows, _ = da.shape
    cols = operand.shape[1]
    chunk = sums.size // (rows * cols)
    out[...] = 0.0  # T = 0 has no products
    for lo in range(0, steps, chunk):
        hi = min(lo + chunk, steps)
        prod = sums[: (hi - lo) * rows * cols].reshape(hi - lo, rows, cols)
        np.matmul(da[lo:hi], operand[lo:hi].transpose(0, 2, 1), out=prod)
        if lo:
            prod[0] += out
        prod.sum(axis=0, out=out)
    return out


def _rnn_forward(cell, inputs, work):
    bsz, steps, _ = inputs.shape
    n = cell.hidden
    w = _augmented(cell)
    v = _operand(inputs, n, steps, work, "v")
    x = _buffer(work, "x", (steps + 1, n, bsz))
    x[0] = 0.0
    for t in range(steps):
        np.tanh(x[t], out=v[t, :n])
        np.dot(w, v[t], out=x[t + 1])
    return x, {"x": x, "v": v}


def _rnn_backward(cell, cache, dh, work):
    x, v = cache["x"], cache["v"]
    s = v[:, : cell.hidden]  # tanh(x_t) for t < T
    deriv = np.multiply(s, s, out=x[:-1])  # x_0..x_{T-1} are spent: reuse them
    np.subtract(1.0, deriv, out=deriv)
    da = x[1:]  # da[t] = dloss/dx_{t+1}, written over deriv[t+1] once it is used
    da[-1:] = dh  # a slice, so that T = 0 has nothing to set
    wt = cell.w_rec["recurrent"].T
    for t in range(v.shape[0] - 1, 0, -1):
        np.multiply(np.dot(wt, da[t]), deriv[t], out=da[t - 1])
    return _column_sums(da, v, *_weight_grads(cell, work))


def _lstm_forward(cell, inputs, work):
    # fused rows: output, input, forget (sigmoid), cell candidate z (tanh)
    bsz, steps, _ = inputs.shape
    n = cell.hidden
    w = _augmented(cell)
    v = _operand(inputs, n, steps + 1, work, "v")
    h = v[:, :n]
    h[0] = 0.0
    act = _buffer(work, "act", (steps, 4 * n, bsz))
    c = _buffer(work, "c", (steps + 1, n, bsz))
    c[0] = 0.0
    for t in range(steps):
        a = act[t]
        np.dot(w, v[t], out=a)
        np.tanh(a, out=a)
        sig = a[: 3 * n]
        sig *= 0.5
        sig += 0.5
        np.multiply(a[2 * n : 3 * n], c[t], out=c[t + 1])
        c[t + 1] += a[n : 2 * n] * a[3 * n :]
        np.tanh(c[t + 1], out=h[t + 1])
        h[t + 1] *= a[:n]
    return h, {"v": v, "c": c, "act": act}


def _lstm_backward(cell, cache, dh, work):
    v, c, act = cache["v"], cache["c"], cache["act"]
    steps, _, bsz = act.shape
    n = cell.hidden
    o, i, f, z = (act[:, k * n : (k + 1) * n] for k in range(4))
    # Derivative factors, over the gate values in place: o -> tanh(c) o (1-o),
    # i -> z i (1-i), f -> c_prev f (1-f), z -> i (1-z^2). keep_f holds f and
    # into_c the factor o (1-tanh^2 c) that carries dh into dc.
    tc = np.tanh(c[1:], out=_buffer(work, "tanh_c", o.shape))
    into_c = np.multiply(tc, tc, out=_buffer(work, "into_c", o.shape))
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
            dh = np.dot(wt, da)
            dc *= keep_f[t]
    return _column_sums(act, v[:-1], *_weight_grads(cell, work))


def _gru_forward(cell, inputs, work):
    # fused rows: reset r, update z (sigmoid), candidate n (tanh on W_n (r*h));
    # q is the candidate's operand [r*h; u; 1]
    bsz, steps, _ = inputs.shape
    n = cell.hidden
    w = _augmented(cell)
    w_rz, w_n = w[: 2 * n], w[2 * n :]
    v = _operand(inputs, n, steps + 1, work, "v")
    q = _operand(inputs, n, steps, work, "q")
    h = v[:, :n]
    h[0] = 0.0
    act = _buffer(work, "act", (steps, 3 * n, bsz))
    for t in range(steps):
        a = act[t]
        rz, cand = a[: 2 * n], a[2 * n :]
        np.dot(w_rz, v[t], out=rz)
        np.tanh(rz, out=rz)
        rz *= 0.5
        rz += 0.5
        np.multiply(a[:n], h[t], out=q[t, :n])
        np.dot(w_n, q[t], out=cand)
        np.tanh(cand, out=cand)
        # h' = (1 - z) n + z h = n + z (h - n)
        np.subtract(h[t], cand, out=h[t + 1])
        h[t + 1] *= a[n : 2 * n]
        h[t + 1] += cand
    return h, {"v": v, "q": q, "act": act}


def _gru_backward(cell, cache, dh, work):
    v, q, act = cache["v"], cache["q"], cache["act"]
    steps, _, bsz = act.shape
    n = cell.hidden
    hp = v[:-1, :n]
    r, z, cand = act[:, :n], act[:, n : 2 * n], act[:, 2 * n :]
    # Derivative factors, over the gate values in place: r -> h r (1-r),
    # z -> (h - n) z (1-z), n -> (1-z)(1-n^2); keep_r and keep_z hold r and z.
    keep_r, keep_z = _buffer(work, "keep_r", r.shape), _buffer(work, "keep_z", z.shape)
    np.copyto(keep_r, r)
    np.copyto(keep_z, z)
    np.subtract(1.0, r, out=r)
    r *= q[:, :n]  # r*h
    diff = np.subtract(hp, cand, out=_buffer(work, "diff", hp.shape))
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
        dhr = np.dot(wt_n, da[2 * n :])
        da[:n] *= dhr
        if t:
            dh_prev = np.dot(wt_rz, da[: 2 * n])
            dh_prev += dh * keep_z[t]
            dh_prev += dhr * keep_r[t]
            dh = dh_prev
    dw, sums = _weight_grads(cell, work)
    _column_sums(act[:, : 2 * n], v[:-1], dw[: 2 * n], sums)
    _column_sums(act[:, 2 * n :], q, dw[2 * n :], sums)
    return dw


_FORWARD = {"rnn": _rnn_forward, "lstm": _lstm_forward, "gru": _gru_forward}
_BACKWARD = {"rnn": _rnn_backward, "lstm": _lstm_backward, "gru": _gru_backward}


def forward_batch(cell: CellParams, inputs: np.ndarray, work: dict | None = None):
    """States (T+1, B, hidden), readout logits (B, output), cache.

    The cache is private to this module: it holds what the matching
    backward pass needs. ``work``, a dict the caller keeps between calls,
    lends this call its large arrays (see `batch_loss_and_grads`); the
    states are then views into it, valid until its next use, while the
    logits are always fresh.
    """
    if inputs.ndim != 3 or inputs.shape[2] != cell.input_dim:
        raise ValueError(
            f"inputs must be (batch, time, {cell.input_dim}), got {inputs.shape}"
        )
    hidden_major, cache = _FORWARD[cell.kind](cell, inputs, {} if work is None else work)
    states = hidden_major.transpose(0, 2, 1)
    logits = states[-1] @ cell.w_out.T + cell.b_out
    return states, logits, cache


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


def batch_loss_and_grads(
    cell: CellParams, inputs: np.ndarray, targets: np.ndarray, task: str, work: dict | None = None
):
    """Mean terminal loss over the batch and exact gradients for every parameter.

    ``work`` is an optional dict, kept by the caller between calls, that holds
    the call's large arrays under their roles: the activation cache, the
    operands, the LSTM cell states, the backward factors and the product
    chunk of the weight-gradient sums. An array is reallocated only when its
    shape changes, so a training loop that passes one dict allocates them
    once per batch shape, not once per batch. The returned gradients never
    alias it. Without a dict each call allocates its own.
    """
    work = {} if work is None else work
    states, logits, cache = forward_batch(cell, inputs, work)
    value, dlogits = _loss_and_dlogits(logits, np.asarray(targets), task)
    dw_out, db_out = dlogits.T @ states[-1], dlogits.sum(axis=0)  # backward overwrites the cache
    dw = _BACKWARD[cell.kind](cell, cache, cell.w_out.T @ dlogits.T, work)
    n, width = cell.hidden, cell.hidden + cell.input_dim
    rows = {g: dw[k * n : (k + 1) * n] for k, g in enumerate(_FUSED_ORDER[cell.kind])}
    grads = {}
    for g in cell.gates:
        grads[f"w_rec.{g}"] = rows[g][:, :n]
        grads[f"w_in.{g}"] = rows[g][:, n:width]
        grads[f"b.{g}"] = rows[g][:, width]
    grads["w_out"] = dw_out
    grads["b_out"] = db_out
    return value, grads


# Doubles in the buffers of one forward pass in `predictions` (2 MiB, 30
# default GRU sequences at T=50); a pass's float64 batch and its logits are
# the only other arrays it holds, and only one pass is alive at a time. The
# budget sets the peak RSS of a process that trains and then analyzes: a
# freed block raises glibc's dynamic mmap threshold, and the heap then keeps
# later large temporaries resident on top of the training's peak. 512
# sequences per pass (19.7 MB buffers) peaked 18 MB higher than 4 MiB
# passes, and 4 MiB ~4 MB higher than 2 MiB, which moves an evaluation of
# the 1,000 default test sequences by -9 ms (rnn) to +18 ms (lstm), against
# epochs of seconds.
_EVAL_SCALARS = 1 << 18


def predictions(cell: CellParams, data) -> np.ndarray:
    """Readout logits of every sequence of the ``Dataset`` ``data``, in memory-bounded passes.

    Each pass builds its float64 inputs with ``data.batch`` and keeps only
    the logits of its forward pass. The passes share one ``work`` dict, so
    one pass's buffers are alive at a time and are allocated once per size.
    """
    # Per sequence and step a pass holds G*hidden gate activations (the RNN:
    # its states) and an operand column of hidden+input+1, plus the GRU's
    # second operand or the LSTM's cell state, over at most T+1 slots.
    steps = data.inputs.shape[1]
    width = cell.hidden + cell.input_dim + 1
    chunk = max(1, _EVAL_SCALARS // ((steps + 1) * (len(cell.gates) * cell.hidden + 2 * width)))
    outs = [np.empty((0, cell.w_out.shape[0]))]  # the logits of an empty dataset
    work = {}
    for lo in range(0, len(data), chunk):
        outs.append(forward_batch(cell, data.batch(slice(lo, lo + chunk)), work)[1])
    return np.concatenate(outs, axis=0)


def accuracy(cell: CellParams, data) -> float:
    """Fraction correct for ``data.task``: |prediction - target| <= 0.04 (adding) or argmax (mnist)."""
    if not len(data):
        raise ValueError("accuracy of an empty dataset is undefined")
    logits = predictions(cell, data)
    if data.task == "adding":
        return float(np.mean(np.abs(logits[:, 0] - data.targets) <= _ADDING_TOL))
    return float(np.mean(np.argmax(logits, axis=1) == data.targets))
