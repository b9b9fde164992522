"""Minibatch SGD training with per-epoch spectral tracking.

Plain SGD (global-norm gradient clipping unless ``grad_clip`` is 0, no
adaptive optimizers) so the relationship between the recurrent weight
spectrum and gradient behaviour stays undiluted. After every epoch the
spectral radius and Henrici number of each recurrent gate matrix are
recorded; optionally each gate matrix is replaced by its power-iteration
stabilized rescale. The task is the training data's own; ``TrainConfig``
holds only scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDiverged
from ..matrix import Matrix
from ..report import MatrixReport, build_matrix_report
from ..stabilizer import StabilizerConfig, stabilize
from .cells import (
    CellParams,
    KINDS,
    accuracy,
    batch_loss_and_grads,
    init_cell,
    param_items,
)
from .datasets import Dataset

__all__ = ["TrainConfig", "EpochRecord", "train"]


@dataclass
class TrainConfig:
    kind: str = "gru"
    hidden: int = 32
    batch: int = 16
    epochs: int = 30
    learning_rate: float = 0.5
    seed: int = 0
    grad_clip: float = 1.0  # 0 disables clipping
    stabilize: int | None = None  # when set, rescale every gate after each epoch with this many iterations
    memory_bias: float = 2.0
    target_accuracy: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        for name in ("hidden", "batch", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count")
        if self.stabilize is not None and self.stabilize < 1:
            raise ValueError(f"stabilize (--stabilize) iteration count must be >= 1 when set, got {self.stabilize!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate (--lr) must be finite and nonnegative, got {self.learning_rate!r}")
        if self.target_accuracy is not None and not 0.0 <= self.target_accuracy <= 1.0:
            raise ValueError(
                f"target_accuracy (--target-accuracy) must be within [0, 1] when set, got {self.target_accuracy!r}"
            )
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ValueError(f"grad_clip (--clip) must be finite and >= 0 (0 disables), got {self.grad_clip!r}")
        if not math.isfinite(self.memory_bias):
            raise ValueError(f"memory_bias (--memory-bias) must be finite, got {self.memory_bias!r}")


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


def _stabilize_gates(cell: CellParams, m: int, seed: int, epoch: int) -> None:
    for gi, gate in enumerate(cell.gates):
        cfg = StabilizerConfig(m=m, seed=seed + 7919 * epoch + gi)
        result = stabilize(Matrix(cell.w_rec[gate]), cfg)
        cell.w_rec[gate] = np.ascontiguousarray(result.w_s.array.real)


def train(
    cfg: TrainConfig,
    train_data: Dataset,
    eval_data: Dataset,
    on_epoch=None,
) -> tuple[CellParams, list[EpochRecord]]:
    """Train a cell; returns final parameters and the per-epoch history.

    Deterministic for a fixed config: one RNG stream drives init and the
    epoch shuffles. The task is ``train_data.task``; accuracy is measured on
    ``eval_data``, which must have the same task. Each minibatch is built
    with ``train_data.batch`` as it is used, and each evaluation pass with
    ``eval_data.batch``, so the float64 arrays held at once are one batch's.
    ``on_epoch(cell, record)`` runs after each epoch (snapshot hook). A
    non-finite loss aborts with TrainingDiverged.
    """
    task = train_data.task
    if eval_data.task != task:
        raise ValueError(f"evaluation data task {eval_data.task!r} does not match training data task {task!r}")
    targets = train_data.targets
    n = len(train_data)
    if n == 0:
        raise ValueError("training set is empty")
    if len(eval_data) == 0:
        raise ValueError("evaluation set is empty")
    output_dim = 1 if task == "adding" else 10
    rng = np.random.default_rng(cfg.seed)
    cell = init_cell(
        cfg.kind,
        input_dim=train_data.input_dim,
        hidden=cfg.hidden,
        output_dim=output_dim,
        seed=rng,
        memory_bias=cfg.memory_bias,
    )
    history: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # the non-finite loss check reports divergence
            for lo in range(0, n, cfg.batch):
                idx = perm[lo : lo + cfg.batch]
                loss_val, grads = batch_loss_and_grads(cell, train_data.batch(idx), targets[idx], task)
                if not np.isfinite(loss_val):
                    raise TrainingDiverged(f"loss became {loss_val} in epoch {epoch}")
                loss_sum += loss_val * len(idx)
                if cfg.grad_clip:
                    _clip_grads(grads, cfg.grad_clip)
                for name, arr in param_items(cell):
                    arr -= cfg.learning_rate * grads[name]
        if cfg.stabilize is not None:
            _stabilize_gates(cell, cfg.stabilize, cfg.seed, epoch)
        acc = accuracy(cell, eval_data)
        reports = {
            g: build_matrix_report(f"{cfg.kind}-{g}", Matrix(cell.w_rec[g])) for g in cell.gates
        }
        record = EpochRecord(epoch=epoch, loss=loss_sum / n, accuracy=acc, gate_reports=reports)
        history.append(record)
        if on_epoch is not None:
            on_epoch(cell, record)
        if cfg.target_accuracy is not None and acc >= cfg.target_accuracy:
            break
    return cell, history
