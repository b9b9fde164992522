import dataclasses
import json

import numpy as np
import pytest

from specto import Matrix, StabilizerConfig, TrainingDiverged, stabilize
from specto.report import emit
from specto.rnn import Dataset, TrainConfig, generate_adding, init_cell, param_items, train


def small_adding(n=600, seq_len=12, seed=0):
    return generate_adding(n, seq_len, seed=seed)


def small_cfg(**kw):
    base = dict(
        kind="gru",
        hidden=8,
        batch=32,
        epochs=3,
        learning_rate=0.2,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_task_and_kind(self):
        with pytest.raises(ValueError, match="unknown task"):
            Dataset(np.zeros((2, 3, 2)), np.zeros(2), "sorting")
        with pytest.raises(ValueError):
            TrainConfig(kind="elman")

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for clip in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="--clip"):
                TrainConfig(grad_clip=clip)
        assert TrainConfig(grad_clip=0.0).grad_clip == 0.0  # 0 disables clipping
        with pytest.raises(ValueError, match="stabilize"):
            TrainConfig(stabilize=0)

    def test_fields_are_the_settings(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert names == [
            "kind", "hidden", "batch", "epochs", "learning_rate", "seed",
            "grad_clip", "stabilize", "memory_bias", "target_accuracy",
        ]

    @pytest.mark.parametrize("cfg", [TrainConfig(), TrainConfig(stabilize=200)])
    def test_flat_json_round_trip(self, cfg):
        flat = dataclasses.asdict(cfg)
        assert all(v is None or isinstance(v, (int, float, str)) for v in flat.values())
        assert TrainConfig(**json.loads(emit(flat))) == cfg

    def test_eval_data_task_mismatch(self):
        # accuracy scores by the data's own task, so the evaluation set must share it
        data = small_adding(n=20)
        digits = Dataset(data.inputs, np.zeros(20), "mnist")
        with pytest.raises(ValueError, match="task"):
            train(small_cfg(), data, digits)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            train(small_cfg(), small_adding().subset(0), small_adding(n=20))

    def test_evaluation_set_is_required(self):
        data = small_adding(n=20)
        with pytest.raises(TypeError):
            train(small_cfg(), data)

    def test_empty_evaluation_set(self):
        data = small_adding(n=20)
        with pytest.raises(ValueError, match="evaluation set is empty"):
            train(TrainConfig(epochs=1, hidden=4), data, data.subset(0))


class TestTrainingMechanics:
    def test_zero_learning_rate_keeps_parameters(self):
        data = small_adding()
        cfg = small_cfg(learning_rate=0.0, epochs=3)
        cell, history = train(cfg, data, data)
        # replicate the internal init stream: same seed, same draw order
        rng = np.random.default_rng(cfg.seed)
        expected = init_cell("gru", 2, cfg.hidden, 1, seed=rng, memory_bias=cfg.memory_bias)
        for (_, got), (_, want) in zip(param_items(cell), param_items(expected)):
            assert np.array_equal(got, want)
        losses = [h.loss for h in history]
        np.testing.assert_allclose(losses, losses[0], atol=1e-12)

    def test_loss_decreases_over_first_epochs(self):
        data = generate_adding(1500, 12, seed=3)
        cell, history = train(small_cfg(epochs=5, batch=16, learning_rate=0.3), data, data)
        assert history[4].loss < history[0].loss

    def test_deterministic_per_seed(self):
        data = small_adding()
        cfg = small_cfg(epochs=2)
        cell_a, hist_a = train(cfg, data, data)
        cell_b, hist_b = train(cfg, data, data)
        for (_, x), (_, y) in zip(param_items(cell_a), param_items(cell_b)):
            assert np.array_equal(x, y)
        assert [h.loss for h in hist_a] == [h.loss for h in hist_b]
        cell_c, _ = train(small_cfg(epochs=2, seed=1), data, data)
        assert not np.array_equal(cell_a.w_out, cell_c.w_out)

    def test_history_records_every_gate(self):
        data = small_adding()
        _, history = train(small_cfg(kind="lstm", epochs=2), data, data)
        for rec in history:
            assert set(rec.gate_reports) == {"input", "forget", "cell", "output"}
            for rep in rec.gate_reports.values():
                assert rep.spectral_radius >= 0.0
                assert rep.kreiss_lower_bound is None

    def test_stabilization_caps_radius_every_epoch(self):
        data = small_adding(n=300)
        cfg = small_cfg(epochs=3, stabilize=200)
        _, history = train(cfg, data, data)
        for rec in history:
            for rep in rec.gate_reports.values():
                assert rep.spectral_radius <= 1.0 + 1e-6

    def test_stabilizer_seed_per_epoch_and_gate(self):
        # gate gi after epoch e is stabilized with seed cfg.seed + 7919*e + gi
        cfg = small_cfg(epochs=1, learning_rate=0.0, stabilize=3, seed=5)
        data = small_adding(n=64)
        cell, _ = train(cfg, data, data)
        init = init_cell("gru", 2, cfg.hidden, 1, seed=np.random.default_rng(cfg.seed), memory_bias=cfg.memory_bias)
        for gi, gate in enumerate(init.gates):
            want = stabilize(Matrix(init.w_rec[gate]), StabilizerConfig(m=3, seed=5 + 7919 + gi))
            assert np.array_equal(cell.w_rec[gate], want.w_s.array.real)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported(self):
        data = small_adding(n=200)
        cfg = small_cfg(learning_rate=1e12, grad_clip=0.0, epochs=4)
        with pytest.raises(TrainingDiverged):
            train(cfg, data, data)

    def test_early_stop_on_target_accuracy(self):
        data = small_adding(n=200)
        cfg = small_cfg(epochs=10, target_accuracy=0.0)
        _, history = train(cfg, data, data)
        assert len(history) == 1

    def test_eval_data_used_for_accuracy(self):
        train_ds = small_adding(n=300, seed=0)
        eval_ds = small_adding(n=100, seed=9)
        _, hist_eval = train(small_cfg(epochs=1), train_ds, eval_ds)
        _, hist_train = train(small_cfg(epochs=1), train_ds, train_ds)
        # same weights, different measurement sets: values generally differ
        assert hist_eval[0].loss == hist_train[0].loss

    def test_on_epoch_hook_sees_running_state(self):
        seen = []
        data = small_adding(n=120)
        train(small_cfg(epochs=2), data, data, on_epoch=lambda c, r: seen.append((c.kind, r.epoch)))
        assert seen == [("gru", 1), ("gru", 2)]

    def test_clip_zero_never_clips(self):
        # 0 disables clipping: the same cell as a clip no gradient norm reaches
        data = small_adding(n=200)
        off, _ = train(small_cfg(grad_clip=0.0), data, data)
        never, _ = train(small_cfg(grad_clip=1e300), data, data)
        for (_, x), (_, y) in zip(param_items(off), param_items(never)):
            assert np.array_equal(x, y)
