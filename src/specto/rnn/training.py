"""Minibatch SGD training with per-epoch spectral tracking.

Plain SGD (optional global-norm gradient clipping, no adaptive optimizers)
so the relationship between the recurrent weight spectrum and gradient
behaviour stays undiluted. After every epoch the spectral radius and
Henrici number of each recurrent gate matrix are recorded; optionally each
gate matrix is replaced by its power-iteration stabilized rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import TrainingDiverged
from ..matrix import Matrix
from ..report import MatrixReport, build_matrix_report
from ..stabilizer import StabilizerConfig, stabilize
from .cells import (
    CellParams,
    KINDS,
    TASKS,
    accuracy,
    batch_loss_and_grads,
    init_cell,
    param_items,
)
from .datasets import Dataset

__all__ = ["TrainConfig", "EpochRecord", "train"]


@dataclass
class TrainConfig:
    task: str
    kind: str = "gru"
    hidden: int = 32
    batch: int = 16
    epochs: int = 30
    learning_rate: float = 0.5
    seed: int = 0
    grad_clip: float | None = 1.0
    stabilizer: StabilizerConfig | None = None  # when set, rescale every gate after each epoch
    memory_bias: float = 2.0
    target_accuracy: float | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        for name in ("hidden", "batch", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate (--lr) must be finite and nonnegative, got {self.learning_rate!r}")
        if self.target_accuracy is not None and not 0.0 <= self.target_accuracy <= 1.0:
            raise ValueError(
                f"target_accuracy (--target-accuracy) must be within [0, 1] when set, got {self.target_accuracy!r}"
            )
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError("grad_clip must be positive when set")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float
    gate_reports: dict[str, MatrixReport]  # keyed by gate, named <kind>-<gate>


def _clip_grads(grads: dict[str, np.ndarray], clip: float) -> None:
    total = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if total > clip:
        scale = clip / total
        for g in grads.values():
            g *= scale


def _stabilize_gates(cell: CellParams, base: StabilizerConfig, epoch: int) -> None:
    for gi, gate in enumerate(cell.gates):
        cfg = replace(base, seed=base.seed + 7919 * epoch + gi)
        result = stabilize(Matrix(cell.w_rec[gate]), cfg)
        cell.w_rec[gate] = np.ascontiguousarray(result.w_s.array.real)


def train(
    cfg: TrainConfig,
    train_data: Dataset,
    eval_data: Dataset | None = None,
    on_epoch=None,
) -> tuple[CellParams, list[EpochRecord]]:
    """Train a cell; returns final parameters and the per-epoch history.

    Deterministic for a fixed config: one RNG stream drives init and the
    epoch shuffles. Accuracy is measured on ``eval_data`` when given, else
    on the training set. ``on_epoch(epoch, cell, record)`` runs after each
    epoch (snapshot hook). A non-finite loss aborts with TrainingDiverged.
    """
    if cfg.task != train_data.task:
        raise ValueError(f"config task {cfg.task!r} does not match data task {train_data.task!r}")
    inputs, targets = train_data.inputs, train_data.targets
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    output_dim = 1 if cfg.task == "adding" else 10
    rng = np.random.default_rng(cfg.seed)
    cell = init_cell(
        cfg.kind,
        input_dim=inputs.shape[2],
        hidden=cfg.hidden,
        output_dim=output_dim,
        seed=rng,
        memory_bias=cfg.memory_bias,
    )
    measure_on = eval_data if eval_data is not None else train_data
    history: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, cfg.batch):
            idx = perm[lo : lo + cfg.batch]
            loss_val, grads = batch_loss_and_grads(cell, inputs[idx], targets[idx], cfg.task)
            if not np.isfinite(loss_val):
                raise TrainingDiverged(f"loss became {loss_val} in epoch {epoch}")
            loss_sum += loss_val * len(idx)
            if cfg.grad_clip is not None:
                _clip_grads(grads, cfg.grad_clip)
            for name, arr in param_items(cell):
                arr -= cfg.learning_rate * grads[name]
        if cfg.stabilizer is not None:
            _stabilize_gates(cell, cfg.stabilizer, epoch)
        acc = accuracy(cell, measure_on, cfg.task)
        reports = {
            g: build_matrix_report(f"{cfg.kind}-{g}", Matrix(cell.w_rec[g])) for g in cell.gates
        }
        record = EpochRecord(epoch=epoch, loss=loss_sum / n, accuracy=acc, gate_reports=reports)
        history.append(record)
        if on_epoch is not None:
            on_epoch(epoch, cell, record)
        if cfg.target_accuracy is not None and acc >= cfg.target_accuracy:
            break
    return cell, history
