import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specto import FormatError
from specto.rnn import (
    Dataset,
    adding_splits,
    generate_adding,
    load_mnist_idx,
    synthetic_digits,
    write_idx_images,
    write_idx_labels,
)


class TestAdding:
    def test_target_is_sum_of_marked(self):
        ds = generate_adding(500, 20, seed=1)
        values, markers = ds.inputs[..., 0], ds.inputs[..., 1]
        for k in range(500):
            marked = values[k][markers[k] == 1.0]
            assert marked.size == 2
            assert ds.targets[k] == pytest.approx(marked.sum(), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_marker_invariants(self, n, seq_len, seed):
        ds = generate_adding(n, seq_len, seed)
        markers = ds.inputs[..., 1]
        assert ((markers == 0.0) | (markers == 1.0)).all()
        np.testing.assert_array_equal(markers.sum(axis=1), 2.0)
        assert (ds.targets >= 0.0).all() and (ds.targets <= 2.0).all()
        assert (ds.inputs[..., 0] >= 0.0).all() and (ds.inputs[..., 0] <= 1.0).all()

    def test_deterministic(self):
        a = generate_adding(50, 12, seed=42)
        b = generate_adding(50, 12, seed=42)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        c = generate_adding(50, 12, seed=43)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_split_sizes(self):
        train, test = adding_splits(450, 50, 10, seed=0)
        assert len(train) == 450 and len(test) == 50
        assert train.inputs.shape == (450, 10, 2)

    def test_too_short_sequence(self):
        with pytest.raises(ValueError):
            generate_adding(5, 1, seed=0)


class TestIdx:
    def _write_pair(self, tmp_path, images, labels):
        ipath, lpath = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        write_idx_images(ipath, images)
        write_idx_labels(lpath, labels)
        return ipath, lpath

    def test_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, (7, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, 7).astype(np.uint8)
        ds = load_mnist_idx(*self._write_pair(tmp_path, images, labels))
        assert ds.inputs.shape == (7, 28, 28)
        assert ds.task == "mnist"
        np.testing.assert_allclose(ds.inputs, images / 255.0, atol=1e-15)
        np.testing.assert_array_equal(ds.targets, labels)

    def test_full_byte_is_exactly_one(self, tmp_path):
        images = np.full((1, 28, 28), 255, dtype=np.uint8)
        ds = load_mnist_idx(*self._write_pair(tmp_path, images, np.zeros(1, dtype=np.uint8)))
        assert (ds.inputs == 1.0).all()

    def test_zero_image_rows(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        ds = load_mnist_idx(*self._write_pair(tmp_path, images, np.zeros(1, dtype=np.uint8)))
        np.testing.assert_array_equal(ds.inputs[0], np.zeros((28, 28)))

    def test_bad_magic(self, tmp_path, rng):
        ipath, lpath = self._write_pair(
            tmp_path,
            rng.integers(0, 256, (2, 4, 4)).astype(np.uint8),
            np.zeros(2, dtype=np.uint8),
        )
        data = bytearray(ipath.read_bytes())
        data[3] = 0x99
        ipath.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_mnist_idx(ipath, lpath)

    def test_truncated_payload(self, tmp_path, rng):
        ipath, lpath = self._write_pair(
            tmp_path,
            rng.integers(0, 256, (2, 4, 4)).astype(np.uint8),
            np.zeros(2, dtype=np.uint8),
        )
        ipath.write_bytes(ipath.read_bytes()[:-5])
        with pytest.raises(FormatError, match="length mismatch"):
            load_mnist_idx(ipath, lpath)

    def test_count_mismatch(self, tmp_path, rng):
        ipath, _ = self._write_pair(
            tmp_path,
            rng.integers(0, 256, (3, 4, 4)).astype(np.uint8),
            np.zeros(3, dtype=np.uint8),
        )
        lpath = tmp_path / "short.idx"
        write_idx_labels(lpath, np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="count mismatch"):
            load_mnist_idx(ipath, lpath)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "tiny.idx"
        p.write_bytes(b"\x00\x00\x08")
        with pytest.raises(FormatError, match="header"):
            load_mnist_idx(p, p)


class TestSyntheticDigits:
    def test_shapes_and_ranges(self):
        images, labels = synthetic_digits(40, seed=3)
        assert images.shape == (40, 28, 28) and images.dtype == np.uint8
        assert labels.shape == (40,)
        assert labels.min() >= 0 and labels.max() <= 9
        assert images.max() > 100  # strokes are visible

    def test_deterministic(self):
        a = synthetic_digits(20, seed=9)
        b = synthetic_digits(20, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_classes_distinguishable(self):
        # mean images of distinct classes differ substantially
        images, labels = synthetic_digits(300, seed=1)
        means = [images[labels == k].mean(axis=0) for k in range(10)]
        d01 = np.abs(means[0] - means[1]).mean()
        assert d01 > 5.0


class TestDatasetContainer:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 4)), np.zeros(3), "adding")
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 4, 2)), np.zeros(4), "adding")

    def test_subset(self):
        ds = generate_adding(10, 5, seed=0)
        sub = ds.subset(4)
        assert len(sub) == 4
        assert np.array_equal(sub.inputs, ds.inputs[:4])
