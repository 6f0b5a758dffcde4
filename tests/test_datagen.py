"""Data generation, CSV handling and splitting."""

import numpy as np
import pytest

import triqsvm.datagen as datagen
from triqsvm.datagen import (
    RESAMPLE_CAP_PER_SAMPLE,
    Dataset,
    SplitSpec,
    adhoc_generate,
    column_ranges,
    haar_unitary,
    load_csv,
    read_dataset_csv,
    rescale,
    split,
    split_rest,
    write_dataset_csv,
)

from oracles import oracle_expectation_zz, oracle_feature_state, random_unitary


def sequential_generate(m, delta, seed, n=2):
    """The rejection loop one candidate at a time, on the dense oracles."""
    rng = np.random.default_rng(seed)
    v = random_unitary(2**n, rng)
    quota = {1: (m + 1) // 2, -1: m // 2}
    points, labels = [], []
    while len(points) < m:
        x = 2.0 * np.pi * (1.0 - rng.random(n))
        e = oracle_expectation_zz(oracle_feature_state(x, np.ones(n)), v)
        label = 1 if e > 0 else -1
        if abs(e) <= delta or quota[label] == 0:
            continue
        quota[label] -= 1
        points.append(x)
        labels.append(label)
    return np.array(points), np.array(labels)


class TestDataset:
    def test_row_count_must_match(self):
        with pytest.raises(ValueError, match="label count"):
            Dataset(np.zeros((3, 2)), np.array([1, -1]))

    def test_labels_must_be_signs(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 2)), np.array([1, 0]))


class TestHaarUnitary:
    def test_unitarity(self):
        for seed in (0, 1, 99):
            v = haar_unitary(4, seed)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)

    def test_deterministic_per_seed(self):
        a = haar_unitary(4, 42)
        b = haar_unitary(4, 42)
        assert np.array_equal(a, b)

    def test_column_norms(self):
        v = haar_unitary(8, 7)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-10)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            haar_unitary(1, 0)


class TestAdhocGenerate:
    def test_gap_holds_for_every_sample(self):
        # Recompute the expectation through the independent oracle path:
        # same Ginibre+QR construction seeded identically, dense sandwich.
        ds = adhoc_generate(50, 0.6, seed=300)
        rng = np.random.default_rng(300)
        z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        v = q * (np.diag(r) / np.abs(np.diag(r)))
        for x, label in zip(ds.points, ds.labels):
            e = oracle_expectation_zz(oracle_feature_state(x, [1.0, 1.0]), v)
            assert abs(e) > 0.6
            assert label == (1 if e > 0 else -1)

    @pytest.mark.parametrize("delta, n", [(0.6, 2), (0.0, 2), (0.3, 3)])
    @pytest.mark.parametrize("seed", [300, 1, 2])
    def test_matches_sequential_rejection_loop(self, delta, n, seed):
        ds = adhoc_generate(41, delta, n=n, seed=seed)
        points, labels = sequential_generate(41, delta, seed, n=n)
        assert np.array_equal(ds.points, points)
        assert np.array_equal(ds.labels, labels)

    def test_points_in_half_open_domain(self):
        ds = adhoc_generate(200, 0.3, seed=5)
        assert np.all(ds.points > 0.0)
        assert np.all(ds.points <= 2.0 * np.pi)

    def test_deterministic_per_seed(self):
        a = adhoc_generate(30, 0.6, seed=11)
        b = adhoc_generate(30, 0.6, seed=11)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_classes_fill_balanced_quotas(self):
        even = adhoc_generate(50, 0.6, seed=2)
        assert (even.labels == 1).sum() == 25
        odd = adhoc_generate(51, 0.6, seed=2)
        assert (odd.labels == 1).sum() == 26
        assert (odd.labels == -1).sum() == 25

    def test_balance_sanity_at_500(self):
        ds = adhoc_generate(500, 0.6, seed=600)
        assert (ds.labels == 1).mean() >= 0.10
        assert (ds.labels == -1).mean() >= 0.10

    def test_delta_bounds_validated(self):
        with pytest.raises(ValueError, match="gap"):
            adhoc_generate(10, 1.0, seed=0)
        with pytest.raises(ValueError, match="gap"):
            adhoc_generate(10, -0.1, seed=0)

    def test_infeasible_gap_exhausts_cap(self):
        with pytest.raises(RuntimeError, match="gap infeasible"):
            adhoc_generate(1, 0.99, seed=0)

    def test_infeasible_gap_scores_exactly_the_cap(self, monkeypatch):
        scored = []

        def counting(points, spec):
            scored.append(len(points))
            return feature_states(points, spec)

        feature_states = datagen.feature_states
        monkeypatch.setattr(datagen, "feature_states", counting)
        with pytest.raises(RuntimeError, match="gap infeasible"):
            adhoc_generate(3, 0.999, seed=1)
        assert sum(scored) == 3 * RESAMPLE_CAP_PER_SAMPLE


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "raw.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_well_formed(self, tmp_path):
        path = self._write(tmp_path, "a,b,c,tag\n1,2.5,9,yes\n3,4.5,9,no\n5,6.5,9,yes\n")
        ds = load_csv(path, ["a", "b"], "tag", positive_label="yes")
        assert ds.m == 3
        np.testing.assert_allclose(ds.points, [[1, 2.5], [3, 4.5], [5, 6.5]])
        assert ds.labels.tolist() == [1, -1, 1]

    def test_missing_label_column_named(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="'tag'"):
            load_csv(path, ["a", "b"], "tag", positive_label="yes")

    def test_mapping_honored(self, tmp_path):
        path = self._write(tmp_path, "a,b,diag\n1,2,malignant\n3,4,benign\n")
        ds = load_csv(path, ["a", "b"], "diag", positive_label="malignant",
                      negative_label="benign")
        assert ds.labels.tolist() == [1, -1]

    def test_unparsable_cell_reports_line(self, tmp_path):
        path = self._write(tmp_path, "a,b,tag\n1,2,yes\n1,oops,no\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, ["a", "b"], "tag", positive_label="yes")

    def test_error_line_is_the_physical_line_after_a_blank_line(self, tmp_path):
        # The blank line 3 is skipped, but still counts as a line of the file.
        path = self._write(tmp_path, "a,b,tag\n1,2,yes\n\n1,oops,no\n")
        with pytest.raises(ValueError, match="line 4: cannot parse 'b' value 'oops'"):
            load_csv(path, ["a", "b"], "tag", positive_label="yes")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,b,tag\n1,2,yes\n3,4,no\n1,{cell},no\n")
        with pytest.raises(ValueError, match=r"raw\.csv, line 4: 'b' value .* is not finite"):
            load_csv(path, ["a", "b"], "tag", positive_label="yes")

    def test_third_label_value_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,tag\n1,2,yes\n3,4,no\n5,6,maybe\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path, ["a", "b"], "tag", positive_label="yes")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            load_csv(tmp_path / "nope.csv", ["a", "b"], "tag", positive_label="yes")

    @pytest.mark.parametrize("tags, positive, negative, message", [
        (["no", "no"], "Yes", None, "positive label 'Yes' never occurs in column 'tag'"),
        (["no", "yes"], "Yes", "no", "positive label 'Yes' never occurs in column 'tag'"),
        (["yes", "yes"], "yes", "no", "negative label 'no' never occurs in column 'tag'"),
        (["yes", "yes"], "yes", None, "two raw label values in column 'tag'"),
        (["yes", "no"], "yes", "yes", "both 'yes'"),
    ], ids=["mistyped-positive", "mistyped-positive-given-negative", "absent-negative",
            "one-raw-value", "same-label-twice"])
    def test_one_class_result_rejected(self, tmp_path, tags, positive, negative, message):
        # A label that never occurs would map every row to one class.
        rows = "".join(f"{i},{i + 1},{tag}\n" for i, tag in enumerate(tags))
        path = self._write(tmp_path, "a,b,tag\n" + rows)
        with pytest.raises(ValueError, match=message):
            load_csv(path, ["a", "b"], "tag", positive_label=positive, negative_label=negative)


class TestRescale:
    def test_min_max_onto_angle_range(self):
        ds = Dataset(np.array([[0.0, 1.0], [5.0, 2.0], [10.0, 3.0]]), np.array([1, -1, 1]))
        out = rescale(ds)
        np.testing.assert_allclose(out.points[:, 0], [0.0, np.pi, 2 * np.pi], atol=1e-12)
        np.testing.assert_allclose(out.points[:, 1], [0.0, np.pi, 2 * np.pi], atol=1e-12)

    def test_idempotent_on_scaled_data(self):
        ds = Dataset(np.array([[0.0, 0.0], [np.pi, 2.0], [2 * np.pi, 4.0]]),
                     np.array([1, -1, 1]))
        once = rescale(ds)
        twice = rescale(once)
        np.testing.assert_allclose(twice.points, once.points, atol=1e-12)

    def test_constant_column_rejected(self):
        ds = Dataset(np.array([[1.0, 1.0], [1.0, 2.0]]), np.array([1, -1]))
        with pytest.raises(ValueError, match="constant"):
            rescale(ds)

    def test_column_ranges_reported(self):
        ds = Dataset(np.array([[0.0, 1.0], [4.0, 5.0]]), np.array([1, -1]))
        assert column_ranges(ds) == [(0.0, 4.0), (1.0, 5.0)]


class TestSplit:
    def _dataset(self, m=60):
        rng = np.random.default_rng(0)
        return Dataset(rng.uniform(0, 1, (m, 2)), np.where(rng.random(m) < 0.5, 1, -1))

    def test_default_test_size_and_disjointness(self):
        ds = self._dataset(60)
        train, test = split(ds, SplitSpec(n_train=50, seed=3))
        assert train.m == 50 and test.m == 10
        rows = {tuple(r) for r in np.vstack([train.points, test.points])}
        assert len(rows) == 60

    def test_deterministic(self):
        ds = self._dataset(40)
        a = split(ds, SplitSpec(10, 5, seed=9))
        b = split(ds, SplitSpec(10, 5, seed=9))
        assert np.array_equal(a[0].points, b[0].points)
        assert np.array_equal(a[1].points, b[1].points)

    def test_insufficient_rows(self):
        ds = self._dataset(10)
        with pytest.raises(ValueError, match="cannot draw"):
            split(ds, SplitSpec(10, 5, seed=0))

    def test_rest_is_the_complement(self):
        ds = self._dataset(30)
        spec = SplitSpec(10, 5, seed=4)
        train, test = split(ds, spec)
        rest = split_rest(ds, spec)
        assert rest.m == 15
        combined = np.vstack([train.points, test.points, rest.points])
        assert {tuple(r) for r in combined} == {tuple(r) for r in ds.points}


def per_row_dataset_csv(ds):
    """The canonical CSV formatted one row at a time."""
    rows = [f"{x1!r},{x2!r},{label}\n"
            for (x1, x2), label in zip(ds.points.tolist(), ds.labels.tolist())]
    return ("f1,f2,label\n" + "".join(rows)).encode()


class TestCanonicalCsv:
    @pytest.mark.parametrize("m", [1, 2, 1000, 2500])
    def test_write_matches_per_row_formatting(self, tmp_path, m):
        rng = np.random.default_rng(m)
        points = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (m, 2))
        # Negative zero, and coordinates whose shortest round-trip text runs
        # to 17 significant digits.
        points[0] = [-0.0, 0.1 + 0.2]
        if m > 1:
            points[1] = [2.0 * np.pi / 3.0, -1e-17]
        ds = Dataset(points, np.where(rng.random(m) < 0.5, 1, -1))
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        text = path.read_bytes()
        assert text == per_row_dataset_csv(ds)
        assert b"-0.0,0.30000000000000004," in text

    def test_round_trip_is_exact(self, tmp_path):
        ds = adhoc_generate(20, 0.6, seed=8)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1,2,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("row", ["nan,2,1", "1,inf,-1", "-inf,-inf,1", "1e999,0,1"])
    def test_non_finite_feature_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,f2,label\n1,2,1\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.csv, line 3: non-finite feature"):
            read_dataset_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,label\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="label"):
            read_dataset_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n1.5,2,1\n\n3,-4.25,-1\n\n", encoding="utf-8")
        ds = read_dataset_csv(path)
        assert ds.points.tolist() == [[1.5, 2.0], [3.0, -4.25]]
        assert ds.labels.tolist() == [1, -1]

    def test_extra_trailing_fields_are_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n1,2,1,note\n3,4,-1,,\n", encoding="utf-8")
        ds = read_dataset_csv(path)
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [1, -1]

    def test_quoted_cells_crlf_and_padded_cells_parse(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b'f1,f2,label\r\n"1.5", 2 ," -1"\r\n 3,"4e-1",1 \r\n')
        ds = read_dataset_csv(path)
        assert ds.points.tolist() == [[1.5, 2.0], [3.0, 0.4]]
        assert ds.labels.tolist() == [-1, 1]

    @pytest.mark.parametrize("row, shown", [
        ("1,2", "{'f1': '1', 'f2': '2', 'label': None}"),
        ("1,2,1.0", "{'f1': '1', 'f2': '2', 'label': '1.0'}"),
        ("x,2,1,note", "{'f1': 'x', 'f2': '2', 'label': '1', None: ['note']}"),
    ], ids=["short-row", "float-label", "extra-field"])
    def test_unparsable_row_message(self, tmp_path, row, shown):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,f2,label\n1,2,1\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_dataset_csv(path)
        assert str(info.value) == f"{path}, line 3: unparsable row {shown}"

    def test_non_finite_row_message_shows_extra_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,label\nnan,2,1,note\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_dataset_csv(path)
        shown = "{'f1': 'nan', 'f2': '2', 'label': '1', None: ['note']}"
        assert str(info.value) == f"{path}, line 2: non-finite feature in row {shown}"

    @pytest.mark.parametrize("text, line", [
        ("f1,f2,label\n1,2,1\n\nx,4,-1\n", 4),
        ('f1,f2,label\n"1\n",2,1\nx,4,-1\n', 4),
    ], ids=["after-blank-line", "after-multi-line-cell"])
    def test_error_line_is_the_physical_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"bad\.csv, line {line}: unparsable row"):
            read_dataset_csv(path)
