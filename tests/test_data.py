"""Synthetic data generation, client partitioning, and the ASCII format."""

import numpy as np
import numpy.testing as npt
import pytest

from fedceo.data import (
    Dataset,
    load_dataset,
    partition,
    partition_indices,
    save_dataset,
    split_train_test,
    synth_blobs,
)
from fedceo.errors import EmptyDataset, ParseError, TooManyClients


def assert_exact_cover(parts, n):
    joined = np.sort(np.concatenate(parts))
    npt.assert_array_equal(joined, np.arange(n))


class TestSynthBlobs:
    def test_shapes_and_uniform_histogram(self):
        data = synth_blobs(num_classes=10, dim=20, samples=2000, spread=1.0, seed=0)
        assert data.features.shape == (2000, 20)
        counts = np.bincount(data.labels, minlength=10)
        npt.assert_array_equal(counts, np.full(10, 200))

    def test_deterministic(self):
        a = synth_blobs(4, 6, 80, 0.5, seed=3)
        b = synth_blobs(4, 6, 80, 0.5, seed=3)
        npt.assert_array_equal(a.features, b.features)
        c = synth_blobs(4, 6, 80, 0.5, seed=4)
        assert not np.array_equal(a.features, c.features)

    def test_small_spread_separable_by_nearest_center(self):
        data = synth_blobs(5, 8, 250, spread=0.01, seed=5)
        # class means recover the wiring: nearest mean classifies every point
        means = np.stack([data.features[data.labels == c].mean(axis=0) for c in range(5)])
        d2 = ((data.features[:, None, :] - means[None]) ** 2).sum(axis=2)
        assert (np.argmin(d2, axis=1) == data.labels).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(3, 4, 100, 1.0, seed=0)  # not divisible
        with pytest.raises(ValueError):
            synth_blobs(3, 4, 99, -1.0, seed=0)


class TestSplitTrainTest:
    def test_stratified_and_disjoint(self):
        data = synth_blobs(4, 5, 400, 1.0, seed=6)
        train, test = split_train_test(data, 0.25, seed=6)
        assert train.n + test.n == 400
        npt.assert_array_equal(np.bincount(test.labels, minlength=4), np.full(4, 25))
        # disjoint: every feature row is unique w.p. 1, so row multisets split
        all_rows = {tuple(r) for r in data.features}
        train_rows = {tuple(r) for r in train.features}
        test_rows = {tuple(r) for r in test.features}
        assert train_rows | test_rows == all_rows
        assert not train_rows & test_rows


class TestPartition:
    def test_iid_cover_and_balance(self):
        labels = np.repeat(np.arange(10), 30)
        parts = partition_indices(labels, 7, "iid", seed=0)
        assert_exact_cover(parts, 300)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_single_client_gets_everything(self):
        labels = np.repeat(np.arange(3), 5)
        parts = partition_indices(labels, 1, "iid", seed=0)
        assert_exact_cover(parts, 15)
        assert parts[0].size == 15

    def test_label_shard_concentrates_labels(self):
        labels = np.repeat(np.arange(10), 100)
        parts = partition_indices(labels, 5, "label_shard", shards_per_client=2, seed=1)
        assert_exact_cover(parts, 1000)
        distinct = [len(np.unique(labels[p])) for p in parts]
        # two contiguous shards can straddle at most two label boundaries
        assert max(distinct) <= 4
        assert np.mean(distinct) < 10

    def test_dirichlet_alpha_controls_concentration(self):
        labels = np.repeat(np.arange(10), 100)

        def mean_top_share(alpha, seed):
            parts = partition_indices(labels, 5, "dirichlet", alpha=alpha, seed=seed)
            assert_exact_cover(parts, 1000)
            shares = []
            for c in range(10):
                per_client = [np.sum(labels[p] == c) for p in parts]
                shares.append(max(per_client) / 100)
            return float(np.mean(shares))

        assert mean_top_share(0.05, seed=2) > 0.6
        assert mean_top_share(100.0, seed=2) < 0.4

    def test_every_client_nonempty(self):
        labels = np.repeat(np.arange(4), 3)
        for mode in ("iid", "label_shard", "dirichlet"):
            for seed in range(5):
                parts = partition_indices(labels, 6, mode, alpha=0.05, seed=seed)
                assert_exact_cover(parts, 12)
                assert min(p.size for p in parts) >= 1

    def test_too_many_clients(self):
        with pytest.raises(TooManyClients):
            partition_indices(np.zeros(5, dtype=int), 6, "iid", seed=0)

    def test_dataset_wrapper(self):
        data = synth_blobs(4, 5, 200, 1.0, seed=7)
        parts = partition(data, 5, "iid", seed=7)
        assert sum(p.n for p in parts) == 200
        assert all(p.num_classes == 4 for p in parts)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            partition_indices(np.zeros(5, dtype=int), 2, "sorted", seed=0)


class TestAsciiFormat:
    def test_round_trip_exact(self, tmp_path):
        data = synth_blobs(3, 4, 60, 1.0, seed=8)
        path = tmp_path / "blobs.txt"
        save_dataset(path, data)
        loaded = load_dataset(path)
        npt.assert_array_equal(loaded.features, data.features)
        npt.assert_array_equal(loaded.labels, data.labels)
        assert loaded.num_classes == 3

    def test_header_and_layout(self, tmp_path):
        data = Dataset(np.array([[1.5, -2.0], [0.25, 3.0]]), np.array([0, 1]), 2)
        path = tmp_path / "tiny.txt"
        save_dataset(path, data)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2 2"
        assert lines[1].split() == ["0", "1.5", "-2.0"]

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0 1.0 2.0\n1 oops 4.0\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 3

        path.write_text("2 2 3\n0 1.0 2.0\n1 3.0 4.0\n")
        with pytest.raises(ParseError):
            load_dataset(path)

        path.write_text("2 2 1\n5 1.0 2.0\n")
        with pytest.raises(ParseError):
            load_dataset(path)

        path.write_text("2 2 1\n0 inf 2.0\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    @pytest.mark.parametrize("header,needle,line", [
        ("2 99999999999 6", "num_classes", 1),   # split_train_test never ended
        ("99999999999 2 6", "fields", 2),        # allocated before reading a row
        ("2 1 6", "num_classes", 1),             # one class loaded and ran
        ("0 2 6", "dim", 1),
    ])
    def test_header_out_of_range_rejected(self, tmp_path, header, needle, line):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n" + "".join(f"{i % 2} 1.0 2.0\n" for i in range(6)))
        with pytest.raises(ParseError, match=needle) as err:
            load_dataset(path)
        assert err.value.line == line

    @pytest.mark.parametrize("row,needle", [
        ("1 inf 2.0", "non-finite"),
        ("5 1.0 2.0", "label 5"),
    ])
    def test_bad_row_under_a_valid_header_rejected(self, tmp_path, row, needle):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2 2\n0 1.0 2.0\n{row}\n")
        with pytest.raises(ParseError, match=needle) as err:
            load_dataset(path)
        assert err.value.line == 3

    def test_zero_samples_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("2 2 0\n")
        with pytest.raises(EmptyDataset) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: dataset file declares zero samples"
