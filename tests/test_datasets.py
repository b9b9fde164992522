import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specto.rnn.datasets as datasets
from specto import FormatError
from specto.rnn import (
    Dataset,
    adding_splits,
    generate_adding,
    load_mnist_idx,
    mnist_splits,
    synthetic_digits,
    write_idx_images,
    write_idx_labels,
)


class TestAdding:
    def test_target_is_sum_of_marked(self):
        ds = generate_adding(500, 20, seed=1)
        x = ds.batch(np.arange(500))
        values, markers = x[..., 0], x[..., 1]
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
        x = ds.batch(np.arange(n))
        markers = x[..., 1]
        assert ((markers == 0.0) | (markers == 1.0)).all()
        np.testing.assert_array_equal(markers.sum(axis=1), 2.0)
        assert (ds.targets >= 0.0).all() and (ds.targets <= 2.0).all()
        assert (x[..., 0] >= 0.0).all() and (x[..., 0] <= 1.0).all()

    def test_deterministic(self):
        a = generate_adding(50, 12, seed=42)
        b = generate_adding(50, 12, seed=42)
        assert np.array_equal(a.batch(np.arange(50)), b.batch(np.arange(50)))
        assert np.array_equal(a.targets, b.targets)
        c = generate_adding(50, 12, seed=43)
        assert not np.array_equal(a.batch(np.arange(50)), c.batch(np.arange(50)))

    def test_split_sizes(self):
        train, test = adding_splits(450, 50, 10, seed=0)
        assert len(train) == 450 and len(test) == 50
        assert train.batch(np.arange(450)).shape == (450, 10, 2)

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
        assert ds.batch(np.arange(7)).shape == (7, 28, 28)
        assert ds.task == "mnist"
        np.testing.assert_allclose(ds.batch(np.arange(7)), images / 255.0, atol=1e-15)
        np.testing.assert_array_equal(ds.targets, labels)

    def test_full_byte_is_exactly_one(self, tmp_path):
        images = np.full((1, 28, 28), 255, dtype=np.uint8)
        ds = load_mnist_idx(*self._write_pair(tmp_path, images, np.zeros(1, dtype=np.uint8)))
        assert (ds.batch(np.arange(1)) == 1.0).all()

    def test_zero_image_rows(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        ds = load_mnist_idx(*self._write_pair(tmp_path, images, np.zeros(1, dtype=np.uint8)))
        np.testing.assert_array_equal(ds.batch(np.arange(1))[0], np.zeros((28, 28)))

    @pytest.mark.parametrize("shape", [(3, 28, 0), (3, 0, 28), (0, 0, 0)])
    def test_images_without_pixels(self, tmp_path, shape):
        ipath, lpath = self._write_pair(tmp_path, np.zeros(shape, dtype=np.uint8), np.zeros(shape[0], dtype=np.uint8))
        with pytest.raises(FormatError, match=rf"imgs\.idx: images of {shape[1]}x{shape[2]} pixels: need at least one"):
            load_mnist_idx(ipath, lpath)

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

    def test_count_mismatch_names_both_files(self, tmp_path):
        ipath, lpath = self._write_pair(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        with pytest.raises(FormatError) as info:
            load_mnist_idx(ipath, lpath)
        assert str(info.value) == f"image/label count mismatch: 2 images in {ipath}, 4 labels in {lpath}"

    def test_header_count_past_the_int64_range(self, tmp_path):
        # 2**31 * 2**31 * 4 image bytes wrap to 0 in an int64 product, which a bare header matches
        ipath, lpath = self._write_pair(tmp_path, np.zeros((0, 1, 1), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        ipath.write_bytes(ipath.read_bytes()[:4] + struct.pack(">3I", 2**31, 2**31, 4))
        with pytest.raises(FormatError, match=rf"imgs\.idx: payload length mismatch .* header promises {2**64}$"):
            load_mnist_idx(ipath, lpath)

    def test_labels_must_be_one_dimensional(self, tmp_path):
        lpath = tmp_path / "lbls.idx"
        with pytest.raises(ValueError, match="labels must be"):
            write_idx_labels(lpath, np.zeros((3, 2), dtype=np.uint8))
        assert not lpath.exists()

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "tiny.idx"
        p.write_bytes(b"\x00\x00\x08")
        with pytest.raises(FormatError, match="header"):
            load_mnist_idx(p, p)

    @pytest.mark.parametrize("bad", [0, 3, 38])
    def test_label_outside_the_ten_classes(self, tmp_path, bad):
        images, labels = synthetic_digits(40, seed=0)
        labels[bad] = 12
        labels[-1] = 200  # only the first bad label is named
        ipath, lpath = self._write_pair(tmp_path, images, labels)
        offset = 8 + bad  # the label bytes follow magic and count
        with pytest.raises(FormatError, match=rf"lbls\.idx: label 12 at offset {offset} "):
            load_mnist_idx(ipath, lpath)

    def test_keeps_the_file_pixels(self, tmp_path):
        images, labels = synthetic_digits(600, seed=0)
        ipath, lpath = self._write_pair(tmp_path, images, labels)
        tracemalloc.start()
        try:
            ds = load_mnist_idx(ipath, lpath)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.inputs.dtype == np.uint8 and ds.inputs.nbytes == 600 * 28 * 28
        assert ds.inputs.tobytes() == images.tobytes()
        assert peak <= 1.25 * ipath.stat().st_size


class TestMnistSplits:
    @pytest.fixture
    def pair(self, tmp_path):
        images, labels = synthetic_digits(30, seed=0, size=8)
        write_idx_images(tmp_path / "i.idx", images)
        write_idx_labels(tmp_path / "l.idx", labels)
        return tmp_path / "i.idx", tmp_path / "l.idx", images, labels

    def test_evaluates_on_the_images_after_the_training_split(self, pair):
        ipath, lpath, images, labels = pair
        train, evaluation = mnist_splits(ipath, lpath, 20, 6)
        assert train.inputs.tobytes() == images[:20].tobytes()
        assert evaluation.inputs.tobytes() == images[20:26].tobytes()
        np.testing.assert_array_equal(evaluation.targets, labels[20:26])
        for ds in (train, evaluation):
            assert ds.task == "mnist" and ds.inputs.flags.owndata and ds.targets.flags.owndata

    def test_evaluates_on_the_test_pair(self, pair):
        ipath, lpath, images, labels = pair
        train, evaluation = mnist_splits(ipath, lpath, 30, 4, ipath, lpath)
        assert len(train) == 30
        assert evaluation.inputs.tobytes() == images[:4].tobytes()
        assert evaluation.inputs.flags.owndata

    @pytest.mark.parametrize("n_train, n_test", [(0, 5), (5, 0), (-1, 5)])
    def test_sizes_must_be_positive(self, pair, n_train, n_test):
        with pytest.raises(ValueError, match="sizes must be positive") as raised:
            mnist_splits(*pair[:2], n_train, n_test)
        with pytest.raises(ValueError, match="sizes must be positive") as same:
            adding_splits(n_train, n_test, 4)
        assert str(raised.value) == str(same.value)

    @pytest.mark.parametrize("half", [{"test_images": "i.idx"}, {"test_labels": "l.idx"}])
    def test_test_pair_goes_together(self, pair, half):
        with pytest.raises(ValueError, match="give both or neither"):
            mnist_splits(*pair[:2], 20, 5, **half)

    def test_empty_evaluation_split(self, pair):
        with pytest.raises(ValueError, match="leave 30 training and 0 evaluation images"):
            mnist_splits(*pair[:2], 30, 5)

    def test_empty_split_message_names_the_arguments_not_flags(self, pair):
        with pytest.raises(ValueError) as raised:
            mnist_splits(*pair[:2], 30, 5)
        assert str(raised.value) == "training size 30 and test size 5 leave 30 training and 0 evaluation images"


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


def _reference_digits(n, seed, size):
    """synthetic_digits painted one sample point at a time, as the glyphs were first drawn."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    images = []
    for digit in labels:
        img = np.zeros((size, size))
        dx, dy = rng.integers(-3, 4, 2)
        bright = rng.uniform(0.7, 1.0)
        for seg in datasets._DIGIT_SEGMENTS[int(digit)]:
            (x0, y0), (x1, y1) = datasets._SEGMENT_ENDPOINTS[seg]
            for t in np.linspace(0.0, 1.0, 3 * size):
                col = int(round((x0 + t * (x1 - x0)) * (size - 1))) + dx
                row = int(round((y0 + t * (y1 - y0)) * (size - 1))) + dy
                if 0 <= row < size - 1 and 0 <= col < size - 1:
                    img[row : row + 2, col : col + 2] = bright
        noise = rng.uniform(0.0, 0.12, (size, size)) * (rng.random((size, size)) < 0.05)
        images.append(np.clip((img + noise) * 255.0, 0, 255).astype(np.uint8))
    return np.stack(images), labels


class TestSyntheticDigitsReference:
    @pytest.mark.parametrize("size", [8, 28])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_matches_the_pointwise_painter_bitwise(self, seed, size):
        images, labels = synthetic_digits(60, seed=seed, size=size)
        want_images, want_labels = _reference_digits(60, seed, size)
        assert np.array_equal(labels, want_labels)
        assert images.tobytes() == want_images.tobytes()


def _reference_adding(n, seq_len, seed):
    """generate_adding with every stream drawn whole, as it was first written."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, (n, seq_len))
    positions = np.argsort(rng.random((n, seq_len)), axis=1)[:, :2]
    markers = np.zeros((n, seq_len))
    rows = np.arange(n)
    markers[rows, positions[:, 0]] = 1.0
    markers[rows, positions[:, 1]] = 1.0
    targets = values[rows, positions[:, 0]] + values[rows, positions[:, 1]]
    return np.stack([values, markers], axis=2), targets


class TestAddingReference:
    @pytest.mark.parametrize(
        "n, seq_len, seed",
        [(1, 2, 0), (7, 3, 5), (500, 20, 1), (1400, 50, 901), (3000, 784, 3), (20000, 50, 0)],
    )
    def test_matches_the_whole_stream_generator_bitwise(self, n, seq_len, seed):
        ds = generate_adding(n, seq_len, seed)
        inputs, targets = _reference_adding(n, seq_len, seed)
        batch = ds.batch(np.arange(n))
        assert batch.shape == inputs.shape and batch.dtype == inputs.dtype
        assert batch.tobytes() == inputs.tobytes()
        assert ds.targets.tobytes() == targets.tobytes()

    def test_peak_memory_is_near_the_dataset(self):
        tracemalloc.start()
        try:
            ds = generate_adding(20000, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (ds.inputs.nbytes + ds.markers.nbytes + ds.targets.nbytes)

    def test_stores_values_and_marked_steps(self):
        # float64 values, two integer steps and one target per sequence: no marker channel
        n, steps = 20000, 50
        tracemalloc.start()
        try:
            ds = generate_adding(n, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.inputs.shape == (n, steps, 1) and ds.markers.shape == (n, 2)
        assert peak <= 1.25 * n * (steps + 2 + 1) * 8


class TestMnistReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_place_scaling_matches_the_division_bitwise(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, (40, 28, 28)).astype(np.uint8)
        images[0] = np.arange(256).repeat(4)[: 28 * 28].reshape(28, 28)  # every byte value
        labels = rng.integers(0, 10, 40).astype(np.uint8)
        write_idx_images(tmp_path / "i.idx", images)
        write_idx_labels(tmp_path / "l.idx", labels)
        ds = load_mnist_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert ds.batch(np.arange(40)).tobytes() == (images.astype(np.float64) / 255.0).tobytes()


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

    def test_subset_and_split_keep_the_markers(self):
        ds = generate_adding(10, 5, seed=0)
        whole = ds.batch(np.arange(10))
        head, rest = ds.split(4)
        assert (len(head), len(rest)) == (4, 6)
        assert np.array_equal(head.batch(np.arange(4)), whole[:4])
        assert np.array_equal(rest.batch(np.arange(6)), whole[4:])
        assert np.array_equal(ds.subset(4).batch(np.arange(4)), whole[:4])

    def test_batch_rows_in_any_order(self):
        ds = generate_adding(30, 7, seed=2)
        whole = ds.batch(np.arange(30))
        rows = np.array([29, 3, 3, 0, 17])
        assert ds.batch(rows).tobytes() == whole[rows].tobytes()
        assert ds.batch(slice(5, 12)).tobytes() == whole[5:12].tobytes()

    def test_batch_of_float_inputs_is_a_fresh_copy(self, rng):
        inputs = rng.normal(0, 1, (6, 4, 3))
        ds = Dataset(inputs, np.zeros(6), "mnist")
        batch = ds.batch(slice(None))
        assert batch.tobytes() == inputs.tobytes() and not np.shares_memory(batch, inputs)
        assert ds.input_dim == 3 and generate_adding(3, 4).input_dim == 2

    @pytest.mark.parametrize(
        "markers",
        [np.zeros((3, 3), dtype=np.intp), np.zeros((3, 2)), np.full((3, 2), 4), np.full((3, 2), -1)],
    )
    def test_marker_validation(self, markers):
        with pytest.raises(ValueError, match="markers"):
            Dataset(np.zeros((3, 4, 1)), np.zeros(3), "adding", markers)
