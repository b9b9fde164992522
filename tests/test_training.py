import numpy as np
import pytest

from specto import StabilizerConfig, TrainingDiverged
from specto.rnn import TrainConfig, generate_adding, init_cell, param_items, train


def small_adding(n=600, seq_len=12, seed=0):
    return generate_adding(n, seq_len, seed=seed)


def small_cfg(**kw):
    base = dict(
        task="adding",
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
        with pytest.raises(ValueError):
            TrainConfig(task="sorting")
        with pytest.raises(ValueError):
            TrainConfig(task="adding", kind="elman")

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            TrainConfig(task="adding", epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(task="adding", grad_clip=0.0)

    def test_task_data_mismatch(self):
        with pytest.raises(ValueError, match="task"):
            train(TrainConfig(task="mnist"), small_adding())

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            train(small_cfg(), small_adding().subset(0))


class TestTrainingMechanics:
    def test_zero_learning_rate_keeps_parameters(self):
        data = small_adding()
        cfg = small_cfg(learning_rate=0.0, epochs=3)
        cell, history = train(cfg, data)
        # replicate the internal init stream: same seed, same draw order
        rng = np.random.default_rng(cfg.seed)
        expected = init_cell("gru", 2, cfg.hidden, 1, seed=rng, memory_bias=cfg.memory_bias)
        for (_, got), (_, want) in zip(param_items(cell), param_items(expected)):
            assert np.array_equal(got, want)
        losses = [h.loss for h in history]
        np.testing.assert_allclose(losses, losses[0], atol=1e-12)

    def test_loss_decreases_over_first_epochs(self):
        data = generate_adding(1500, 12, seed=3)
        cell, history = train(small_cfg(epochs=5, batch=16, learning_rate=0.3), data)
        assert history[4].loss < history[0].loss

    def test_deterministic_per_seed(self):
        data = small_adding()
        cfg = small_cfg(epochs=2)
        cell_a, hist_a = train(cfg, data)
        cell_b, hist_b = train(cfg, data)
        for (_, x), (_, y) in zip(param_items(cell_a), param_items(cell_b)):
            assert np.array_equal(x, y)
        assert [h.loss for h in hist_a] == [h.loss for h in hist_b]
        cell_c, _ = train(small_cfg(epochs=2, seed=1), data)
        assert not np.array_equal(cell_a.w_out, cell_c.w_out)

    def test_history_records_every_gate(self):
        data = small_adding()
        _, history = train(small_cfg(kind="lstm", epochs=2), data)
        for rec in history:
            assert set(rec.gate_reports) == {"input", "forget", "cell", "output"}
            for rep in rec.gate_reports.values():
                assert rep.spectral_radius >= 0.0
                assert rep.kreiss_lower_bound is None

    def test_stabilization_caps_radius_every_epoch(self):
        data = small_adding(n=300)
        cfg = small_cfg(
            epochs=3,
            stabilizer=StabilizerConfig(m=200, seed=0),
        )
        _, history = train(cfg, data)
        for rec in history:
            for rep in rec.gate_reports.values():
                assert rep.spectral_radius <= 1.0 + 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported(self):
        data = small_adding(n=200)
        cfg = small_cfg(learning_rate=1e12, grad_clip=None, epochs=4)
        with pytest.raises(TrainingDiverged):
            train(cfg, data)

    def test_early_stop_on_target_accuracy(self):
        data = small_adding(n=200)
        cfg = small_cfg(epochs=10, target_accuracy=0.0)
        _, history = train(cfg, data)
        assert len(history) == 1

    def test_eval_data_used_for_accuracy(self):
        train_ds = small_adding(n=300, seed=0)
        eval_ds = small_adding(n=100, seed=9)
        _, hist_eval = train(small_cfg(epochs=1), train_ds, eval_ds)
        _, hist_train = train(small_cfg(epochs=1), train_ds)
        # same weights, different measurement sets: values generally differ
        assert hist_eval[0].loss == hist_train[0].loss

    def test_on_epoch_hook_sees_running_state(self):
        seen = []
        train(small_cfg(epochs=2), small_adding(n=120), on_epoch=lambda e, c, r: seen.append((e, r.epoch)))
        assert seen == [(1, 1), (2, 2)]
