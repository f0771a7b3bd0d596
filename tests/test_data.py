"""Synthetic data generation, client partitioning, and the ASCII format."""

import os
import tempfile
import tracemalloc

import data_oracle
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedceo.config import DataSpec
from fedceo.data import (
    Client,
    Dataset,
    load_dataset,
    partition,
    save_dataset,
    split_train_test,
    synth_blobs,
)
from fedceo.errors import ParseError, ShapeMismatch, ValidationError


def assert_exact_cover(parts, n):
    joined = np.sort(np.concatenate(parts))
    npt.assert_array_equal(joined, np.arange(n))


def partition_rows(labels, n_clients, mode, **kwargs):
    """The rows of each client :func:`partition` deals."""
    return [client.rows for client in partition(labels, n_clients, mode, **kwargs)]


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
        # The blob rules live in DataSpec; synth_blobs takes its values.
        with pytest.raises(ValidationError) as err:
            DataSpec(classes=3, dim=4, samples=100)  # not divisible
        assert err.value.field == "data.samples"
        with pytest.raises(ValidationError) as err:
            DataSpec(classes=3, dim=4, samples=99, spread=-1.0)
        assert err.value.field == "data.spread"
        DataSpec(source="file", path="x.ds", classes=3, samples=100)  # blobs only

    def test_overflowing_spread_names_its_field(self):
        with pytest.raises(ValidationError) as err:
            synth_blobs(2, 3, 40, 1e308, seed=0)
        assert err.value.field == "data.spread"


class TestDataset:
    @pytest.mark.parametrize("features,labels,num_classes", [
        (np.zeros(4), np.zeros(4), 2),             # features not 2-d
        (np.zeros((4, 2)), np.zeros((4, 1)), 2),   # labels not 1-d
        (np.zeros((4, 2)), np.zeros(3), 2),        # not one label per row
        (np.zeros((0, 2)), np.zeros(0), 2),        # no samples
        (np.zeros((4, 2)), np.array([0, 1, 2, 0]), 2),  # label past the classes
        (np.zeros((4, 2)), np.array([0, -1, 1, 0]), 2),  # negative label
        (np.zeros((4, 2)), np.zeros(4), 0),        # no class for any label
    ], ids=["features-1d", "labels-2d", "labels-short", "empty", "label-high",
            "label-negative", "no-classes"])
    def test_bad_arrays_raise_shape_mismatch(self, features, labels, num_classes):
        with pytest.raises(ShapeMismatch):
            Dataset(features, labels, num_classes)


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

    def test_no_class_with_two_samples_names_data_samples(self):
        with pytest.raises(ValidationError) as err:
            split_train_test(Dataset(np.zeros((3, 2)), np.arange(3), 3), 0.5, seed=0)
        assert str(err.value) == ("data.samples: no class has two samples, so the test "
                                  "split would be empty")


class TestPartition:
    def test_iid_cover_and_balance(self):
        labels = np.repeat(np.arange(10), 30)
        parts = partition_rows(labels, 7, "iid", seed=0)
        assert_exact_cover(parts, 300)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_single_client_gets_everything(self):
        labels = np.repeat(np.arange(3), 5)
        parts = partition_rows(labels, 1, "iid", seed=0)
        assert_exact_cover(parts, 15)
        assert parts[0].size == 15

    def test_dirichlet_alpha_controls_concentration(self):
        labels = np.repeat(np.arange(10), 100)

        def mean_top_share(alpha, seed):
            parts = partition_rows(labels, 5, "dirichlet", alpha=alpha, seed=seed)
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
        for mode in ("iid", "dirichlet"):
            for seed in range(5):
                parts = partition_rows(labels, 6, mode, alpha=0.05, seed=seed)
                assert_exact_cover(parts, 12)
                assert min(p.size for p in parts) >= 1

    def test_too_many_clients(self):
        with pytest.raises(ValidationError) as err:
            partition(np.zeros(5, dtype=int), 6, "iid", seed=0)
        assert str(err.value) == "n_total: 6 clients but only 5 samples to split"

    def test_clients_are_rows(self):
        data = synth_blobs(4, 5, 200, 1.0, seed=7)
        parts = partition(data.labels, 5, "iid", seed=7)
        assert sum(p.n for p in parts) == 200
        # each client is its rows of the dataset, not a copy of its samples
        assert all(isinstance(p, Client) and p.rows.dtype == np.int64 for p in parts)
        assert_exact_cover([p.rows for p in parts], 200)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            partition(np.zeros(5, dtype=int), 2, "sorted", seed=0)


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

        path.write_text("")
        with pytest.raises(ParseError, match="empty dataset file") as err:
            load_dataset(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("header,needle,line", [
        ("2 99999999999 6", "num_classes", 1),   # split_train_test never ended
        ("99999999999 2 6", "fields", 2),        # allocated before reading a row
        ("2 1 6", "num_classes", 1),             # one class loaded and ran
        ("0 2 6", "dim", 1),
        ("2 6", "header must be", 1),
        ("2 2 6 1", "header must be", 1),
        ("2 two 6", "integers", 1),
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
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: line 1: dataset file declares zero samples"
        assert exc.value.line == 1

    def test_vertical_tab_ends_a_line_and_form_feed_splits_one(self, tmp_path):
        # Lines end where str.splitlines() ends them, not only at newlines.
        path = tmp_path / "vt.txt"
        path.write_text("2 2 2\n0 1.0 2.0\v1 3.0 4.0\n")
        data = load_dataset(path)
        npt.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(data.labels, [0, 1])
        path.write_text("2 2 2\n0 1.0\f2.0\n")
        with pytest.raises(ParseError, match="expected 3 fields, got 2") as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_more_samples_than_declared_fail_at_the_first_extra(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("2 2 2\n0 1.0 2.0\n\n1 3.0 4.0\n0 5.0 6.0\nnot even a sample\n")
        with pytest.raises(ParseError, match="declares 2 samples; file has more") as err:
            load_dataset(path)
        assert err.value.line == 5

    def test_load_holds_less_than_the_file_size(self, tmp_path):
        # A reader that holds the whole text and its list of lines peaks at
        # about 2.1 times the file's size; holding only the parsed samples
        # peaks at about 0.45 times it.
        path = tmp_path / "blobs.txt"
        save_dataset(path, synth_blobs(10, 32, 10_000, 1.0, seed=0))
        tracemalloc.start()
        try:
            load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path), peak


# ---------------------------------------------------------------------------
# The one-pass reader against the whole-file reader it replaced


@pytest.fixture(scope="module")
def saved_blobs(tmp_path_factory):
    path = tmp_path_factory.mktemp("blobs") / "blobs.txt"
    save_dataset(path, synth_blobs(3, 4, 12, 1.0, seed=0))
    return path.read_bytes()


# Line ends that str.splitlines() honours besides "\n", whitespace-only
# lines, and the blank lines the format skips.
BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\r", "\r\n", "\n", "\n\n", " \t")
where = st.integers(0, 2**20)
damage = st.lists(st.one_of(
    st.tuples(st.sampled_from(("truncate", "flip", "duplicate", "delete")), where),
    st.tuples(st.sampled_from(("insert", "end")), where, st.sampled_from(BREAKS)),
), min_size=1, max_size=3)


def damaged(blob: bytes, ops) -> bytes:
    blob = bytearray(blob)
    for op, at, *text in ops:
        if op == "truncate":  # cut ``at`` bytes off the end, mod the length
            del blob[len(blob) - at % (len(blob) + 1):]
        elif op == "flip" and blob:
            bit = at % (8 * len(blob))
            blob[bit // 8] ^= 1 << (bit % 8)
        elif op == "insert":
            at %= len(blob) + 1
            blob[at:at] = text[0].encode()
        elif op == "end" and b"\n" in blob:  # end a line with ``text`` instead
            ends = [i for i, byte in enumerate(blob) if byte == ord("\n")]
            at = ends[at % len(ends)]
            blob[at:at + 1] = text[0].encode()
        elif op in ("duplicate", "delete") and blob:
            lines = blob.splitlines(keepends=True)
            at %= len(lines)
            lines[at:at + 1] = [lines[at]] * (2 if op == "duplicate" else 0)
            blob = bytearray(b"".join(lines))
    return bytes(blob)


def verdict(reader, path):
    """The loaded arrays as bytes, or ``ParseError`` for a rejected file."""
    try:
        data = reader(path)
    except ParseError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        return ParseError
    return (data.features.dtype, data.features.shape, data.features.tobytes(),
            data.labels.dtype, data.labels.tobytes(), data.num_classes)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(damage)
def test_damaged_file_gets_the_whole_file_readers_verdict(saved_blobs, ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blobs.txt")
        with open(path, "wb") as fh:
            fh.write(damaged(saved_blobs, ops))
        assert verdict(load_dataset, path) == verdict(data_oracle.load_dataset, path)

