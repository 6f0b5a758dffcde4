"""End-to-end command-line tests via subprocess (real exit codes)."""

import csv
import itertools
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import triqsvm
from triqsvm import anneal, datagen
from triqsvm.anneal import AnnealSchedule
from triqsvm.cli import cli
from triqsvm.datagen import SplitSpec, adhoc_generate, read_dataset_csv, split
from triqsvm.optimize import TrainConfig, train
from triqsvm.qubo import accuracy, decision_values, load_model, save_model, TrainedModel
from triqsvm.qkernel import FeatureMapSpec


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "triqsvm", *map(str, args)],
        capture_output=True,
        text=True,
    )


SWEEP_HEADER = "train_pts,test_pts,method,seed,accuracy_pct,iterations"

QUICK_TRAIN = [
    "--n-train", 12, "--backend", "exact", "--max-iters", 3,
    "--reads", 5, "--sweeps", 50,
]


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "adhoc.csv"
    result = run_cli("gen-data", "--m", 16, "--delta", 0.6, "--seed", 300, "--out", path)
    assert result.returncode == 0, result.stderr
    return path


@pytest.fixture(scope="module")
def quickstart_dataset(tmp_path_factory):
    """The README quickstart's 60 rows."""
    path = tmp_path_factory.mktemp("data") / "quickstart.csv"
    result = run_cli("gen-data", "--m", 60, "--delta", 0.6, "--seed", 300, "--out", path)
    assert result.returncode == 0, result.stderr
    return path


class TestGenData:
    def test_row_count_and_gap(self, tmp_path):
        out = tmp_path / "d.csv"
        result = run_cli("gen-data", "--m", 60, "--delta", 0.6, "--seed", 300, "--out", out)
        assert result.returncode == 0, result.stderr
        ds = read_dataset_csv(out)
        assert ds.m == 60
        # Gap re-check through the library path.
        from triqsvm.datagen import labelling_map
        from triqsvm.qkernel import expectation_zz, feature_states

        rng = np.random.default_rng(300)
        z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        v = q * (np.diag(r) / np.abs(np.diag(r)))
        spec = labelling_map(2)
        assert np.all(np.abs(expectation_zz(feature_states(ds.points, spec), v)) > 0.6)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("gen-data", "--m", 20, "--seed", 9, "--out", a).returncode == 0
        assert run_cli("gen-data", "--m", 20, "--seed", 9, "--out", b).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_echoes_the_generation_flags(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("gen-data", "--m", 20, "--seed", 9, "--out", out).returncode == 0
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["flags"] == {"m": 20, "delta": 0.6, "seed": 9}
        assert meta["rows"] == 20

    def test_feature_dimension_is_not_a_flag(self, tmp_path):
        # The canonical CSV holds exactly two features.
        result = run_cli("gen-data", "--n", 2, "--out", tmp_path / "d.csv")
        assert result.returncode == 1
        assert "--n" in result.stderr
        assert not (tmp_path / "d.csv").exists()

    def test_bad_delta_is_validation_error(self, tmp_path):
        result = run_cli("gen-data", "--m", 5, "--delta", 1.5, "--out", tmp_path / "x.csv")
        assert result.returncode == 1
        assert "delta" in result.stderr or "gap" in result.stderr

    def test_infeasible_gap_is_runtime_error(self, tmp_path):
        result = run_cli("gen-data", "--m", 1, "--delta", 0.99, "--seed", 0,
                         "--out", tmp_path / "x.csv")
        assert result.returncode == 2
        assert "gap infeasible" in result.stderr

    def test_from_csv_conversion(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "radius,texture,extra,diagnosis\n"
            "10,20,0,M\n14,15,0,B\n12,22,0,M\n9,11,0,B\n",
            encoding="utf-8",
        )
        out = tmp_path / "canonical.csv"
        result = run_cli(
            "gen-data", "--from-csv", raw, "--feature-columns", "radius,texture",
            "--label-column", "diagnosis", "--positive-label", "M", "--out", out,
        )
        assert result.returncode == 0, result.stderr
        ds = read_dataset_csv(out)
        assert ds.m == 4
        assert ds.labels.tolist() == [1, -1, 1, -1]
        assert np.all(ds.points >= 0.0) and np.all(ds.points <= 2 * np.pi + 1e-12)
        meta = json.loads((tmp_path / "canonical.csv.meta.json").read_text())
        assert meta["schema_version"] == "1"
        assert meta["rescaled"] is True
        assert meta["column_ranges"] == [[9.0, 14.0], [11.0, 22.0]]

    def test_from_csv_with_a_mistyped_positive_label_fails(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("radius,texture,diagnosis\n10,20,no\n14,15,no\n", encoding="utf-8")
        out = tmp_path / "canonical.csv"
        result = run_cli(
            "gen-data", "--from-csv", raw, "--feature-columns", "radius,texture",
            "--label-column", "diagnosis", "--positive-label", "Yes", "--out", out,
        )
        assert result.returncode == 1
        assert "'Yes' never occurs in column 'diagnosis'" in result.stderr
        assert not out.exists()


class TestTrain:
    def test_quick_run_writes_artifacts(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        result = run_cli("train", "--data", small_dataset, *QUICK_TRAIN,
                         "--seed", 300, "--out", out)
        assert result.returncode == 0, result.stderr
        model = load_model(out / "model.json")
        assert model.alpha.shape == (12,)
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == "1"
        assert report["train_report"]["config"]["triqsvm_version"] == triqsvm.__version__
        assert report["train_report"]["config"]["numpy_version"] == np.__version__
        assert report["flags"]["seed"] == 300
        assert report["flags"]["backend"] == "exact"
        assert report["dataset"]["n_train"] == 12 and report["dataset"]["n_test"] == 2
        assert 0.0 <= report["per_split_accuracy"]["validation"] <= 1.0
        assert report["train_report"]["iterations_used"] <= 3
        # The validation score is the best iteration's, not a second scoring.
        train_report = report["train_report"]
        _, val_set = split(read_dataset_csv(small_dataset), SplitSpec(12, 2, seed=300))
        assert (report["per_split_accuracy"]["validation"] == train_report["best_accuracy"]
                == accuracy(model, val_set))
        # m + v feature states per iteration: 12 training, 2 validation.
        assert train_report["states_built"] == 14 * train_report["iterations_used"]

    def test_non_finite_rows_are_validation_errors(self, small_dataset, tmp_path):
        lines = small_dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        lines[5] = lines[5].split(",")[0] + ",inf," + lines[5].rsplit(",", 1)[1]
        data = tmp_path / "nonfinite.csv"
        data.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "run"
        result = run_cli("train", "--data", data, *QUICK_TRAIN, "--seed", 300, "--out", out)
        assert result.returncode == 1
        assert "nonfinite.csv, line 4: non-finite feature" in result.stderr
        assert not (out / "model.json").exists()

    def test_missing_dataset_names_path(self, tmp_path):
        result = run_cli("train", "--data", tmp_path / "missing.csv", *QUICK_TRAIN,
                         "--out", tmp_path / "run")
        assert result.returncode == 1
        assert "missing.csv" in result.stderr

    def test_determinism_byte_identical_models(self, small_dataset, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            result = run_cli("train", "--data", small_dataset, "--n-train", 12,
                             "--backend", "anneal", "--max-iters", 3,
                             "--reads", 5, "--sweeps", 50, "--seed", 17, "--out", out)
            assert result.returncode == 0, result.stderr
        assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()
        reports = [json.loads((out / "report.json").read_text()) for out in outs]
        assert (reports[0]["train_report"]["accuracy_per_iteration"]
                == reports[1]["train_report"]["accuracy_per_iteration"])

    def test_infinite_beta_end_is_validation_error(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        result = run_cli("train", "--data", small_dataset, "--n-train", 12, "--qubo", "dual",
                         "--max-iters", 1, "--reads", 2, "--sweeps", 10,
                         "--beta-end", "inf", "--out", out)
        assert result.returncode == 1
        assert "finite" in result.stderr
        assert not (out / "report.json").exists()

    def test_holdout_third_split(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run_cli("gen-data", "--m", 24, "--seed", 4, "--out", data).returncode == 0
        out = tmp_path / "run"
        result = run_cli("train", "--data", data, "--n-train", 10, "--n-test", 5,
                         "--backend", "exact", "--max-iters", 2, "--holdout",
                         "--seed", 4, "--out", out)
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["dataset"]["holdout_rows"] == 5
        assert "holdout" in report["per_split_accuracy"]

    @pytest.mark.parametrize("split_args, need", [
        (("--n-train", 50), "n_train 50, n_test 10"),
        (("--n-train", 25, "--n-test", 20), "n_train 25, n_test 20"),
        (("--n-train", 10, "--n-test", 0), "n_train 10, n_test 0"),
    ])
    def test_holdout_without_spare_rows_names_the_flag(self, quickstart_dataset, tmp_path,
                                                       split_args, need):
        out = tmp_path / "run"
        result = run_cli("train", "--data", quickstart_dataset, *split_args, "--holdout",
                         "--out", out)
        assert result.returncode == 1
        assert "--holdout needs n_test >= 1 and n_train + 2 * n_test rows" in result.stderr
        assert f"got {need} and 60 rows" in result.stderr
        assert not out.exists()

    def test_exact_backend_trains_the_quickstart_split(self, quickstart_dataset, tmp_path):
        # Presolve settles every paper instance here, so brute force gets
        # no residual and the 50 variables pass its cap.
        models = []
        for backend in ("exact", "greedy"):
            out = tmp_path / backend
            result = run_cli("train", "--data", quickstart_dataset, "--n-train", 50,
                             "--seed", 300, "--backend", backend, "--max-iters", 2, "--out", out)
            assert result.returncode == 0, result.stderr
            models.append((out / "model.json").read_bytes())
        assert models[0] == models[1]


def constant_positive_model(tmp_path):
    model = TrainedModel(
        alpha=np.array([0]),
        beta=0.5,
        train_points=np.array([[1.0, 1.0]]),
        train_labels=np.array([1]),
        kernel=FeatureMapSpec(n=2, theta=np.array([1.0, 1.0])),
    )
    path = tmp_path / "const_model.json"
    save_model(model, path)
    return path


def mixed_model(tmp_path):
    """A stored quantum model whose decision values take both signs."""
    rng = np.random.default_rng(37)
    model = TrainedModel(
        alpha=np.array([1, 0, 1, 1, 0, 1]),
        beta=-0.25,
        train_points=rng.uniform(0.0, 2.0 * np.pi, (6, 2)),
        train_labels=np.array([1, -1, -1, 1, 1, -1]),
        kernel=FeatureMapSpec(n=2, theta=np.array([0.3, -1.2])),
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


def map_grid(resolution, domain=(0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi)):
    """The map's grid, row-major with x2 fastest."""
    g1 = np.linspace(domain[0], domain[1], resolution)
    g2 = np.linspace(domain[2], domain[3], resolution)
    return np.column_stack([np.repeat(g1, resolution), np.tile(g2, resolution)])


def per_row_map_csv(grid, values):
    """The map CSV formatted one cell at a time from numpy scalars."""
    lines = ["x1,x2,decision_value,label\n"]
    for (x1, x2), value in zip(grid, values):
        label = 1 if value >= 0.0 else -1
        lines.append(f"{float(x1)!r},{float(x2)!r},{float(value)!r},{label}\n")
    return "".join(lines).encode()


def per_cell_svg(xs, ys, labels, resolution, domain, overlays):
    """The map SVG with every cell's position computed and formatted on
    its own."""
    lo1, hi1, lo2, hi2 = domain
    size = 480
    margin = 40
    cell = size / resolution

    def px(x1, x2):
        u = (x1 - lo1) / (hi1 - lo1) if hi1 > lo1 else 0.5
        v = (x2 - lo2) / (hi2 - lo2) if hi2 > lo2 else 0.5
        return margin + u * size, margin + (1.0 - v) * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{size + 2 * margin}" height="{size + 2 * margin}">',
        f'<rect width="{size + 2 * margin}" height="{size + 2 * margin}" fill="white"/>',
    ]
    for x1, x2, label in zip(xs, ys, labels):
        cx, cy = px(x1, x2)
        color = "#d62728" if label > 0 else "#1f77b4"
        parts.append(
            f'<rect x="{cx - cell / 2:.2f}" y="{cy - cell / 2:.2f}" '
            f'width="{cell:.2f}" height="{cell:.2f}" fill="{color}" fill-opacity="0.55"/>'
        )
    for ds, shape in overlays:
        for row, label in zip(ds.points, ds.labels):
            cx, cy = px(row[0], row[1])
            color = "#d62728" if label > 0 else "#1f77b4"
            if shape == "circle":
                parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{color}" '
                             f'stroke="black" stroke-width="0.7"/>')
            else:
                parts.append(
                    f'<polygon points="{cx:.2f},{cy - 5:.2f} {cx - 4.5:.2f},{cy + 4:.2f} '
                    f'{cx + 4.5:.2f},{cy + 4:.2f}" fill="{color}" '
                    f'stroke="black" stroke-width="0.7"/>'
                )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


class TestEvaluate:
    def test_perfect_fit_prints_one(self, tmp_path):
        model_path = constant_positive_model(tmp_path)
        data = tmp_path / "allpos.csv"
        data.write_text("f1,f2,label\n1.0,2.0,1\n3.0,1.0,1\n0.5,0.5,1\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        result = run_cli("evaluate", model_path, data, "--out", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1.0000"
        payload = json.loads(out.read_text())
        assert payload["accuracy"] == 1.0
        assert payload["schema_version"] == "1"

    def test_four_decimal_output(self, tmp_path):
        model_path = constant_positive_model(tmp_path)
        data = tmp_path / "mixed.csv"
        data.write_text("f1,f2,label\n1,2,1\n3,1,1\n2,2,-1\n", encoding="utf-8")
        result = run_cli("evaluate", model_path, data, "--out", tmp_path / "e.json")
        assert result.returncode == 0
        assert result.stdout.strip() == "0.6667"

    @pytest.mark.parametrize("row", ["nan,2.0,-1", "1.0,inf,-1", "-inf,0.5,-1"])
    def test_non_finite_rows_are_validation_errors(self, tmp_path, row):
        # NaN decision values would label as -1 and score silently.
        model_path = constant_positive_model(tmp_path)
        data = tmp_path / "nonfinite.csv"
        data.write_text(f"f1,f2,label\n1.0,2.0,1\n{row}\n", encoding="utf-8")
        out = tmp_path / "e.json"
        result = run_cli("evaluate", model_path, data, "--out", out)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "nonfinite.csv, line 3: non-finite feature" in result.stderr
        assert not out.exists()

    def test_invalid_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        data = tmp_path / "d.csv"
        data.write_text("f1,f2,label\n1,2,1\n", encoding="utf-8")
        result = run_cli("evaluate", bad, data)
        assert result.returncode == 1

    def test_model_of_the_wrong_dimension_is_validation_error(self, tmp_path):
        # A 3-qubit kernel over 2-D training points fails when the file is
        # loaded, before any scoring.
        path = constant_positive_model(tmp_path)
        data = json.loads(path.read_text())
        data["kernel"]["n"] = 3
        data["kernel"]["theta"] = [1.0, 1.0, 1.0]
        path.write_text(json.dumps(data), encoding="utf-8")
        rows = tmp_path / "d.csv"
        rows.write_text("f1,f2,label\n1,2,1\n", encoding="utf-8")
        result = run_cli("evaluate", path, rows, "--out", tmp_path / "e.json")
        assert result.returncode == 1
        assert "invalid model data" in result.stderr
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("kernel", ["rbf", None])
    def test_kernel_that_is_not_an_object_is_validation_error(self, tmp_path, kernel):
        path = constant_positive_model(tmp_path)
        data = json.loads(path.read_text())
        data["kernel"] = kernel
        path.write_text(json.dumps(data), encoding="utf-8")
        rows = tmp_path / "d.csv"
        rows.write_text("f1,f2,label\n1,2,1\n", encoding="utf-8")
        result = run_cli("evaluate", path, rows, "--out", tmp_path / "e.json")
        assert result.returncode == 1, result.stderr
        assert "invalid model data: kernel must be a JSON object" in result.stderr
        assert not (tmp_path / "e.json").exists()


class TestMap:
    def test_resolution_two_hits_corners(self, tmp_path):
        model_path = constant_positive_model(tmp_path)
        out = tmp_path / "map.csv"
        result = run_cli("map", model_path, "--resolution", 2, "--out", out)
        assert result.returncode == 0, result.stderr
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        coords = {(float(r["x1"]), float(r["x2"])) for r in rows}
        two_pi = 2 * np.pi
        assert coords == {(0.0, 0.0), (0.0, two_pi), (two_pi, 0.0), (two_pi, two_pi)}
        # x2 varies fastest
        assert [float(r["x1"]) for r in rows] == [0.0, 0.0, two_pi, two_pi]

    def test_labels_match_decision_sign_and_model(self, tmp_path, small_dataset):
        out_dir = tmp_path / "run"
        result = run_cli("train", "--data", small_dataset, *QUICK_TRAIN,
                         "--seed", 300, "--out", out_dir)
        assert result.returncode == 0, result.stderr
        model_path = out_dir / "model.json"
        map_path = tmp_path / "map.csv"
        assert run_cli("map", model_path, "--resolution", 5, "--out", map_path).returncode == 0
        model = load_model(model_path)
        with map_path.open() as fh:
            rows = list(csv.DictReader(fh))
        grid = np.array([[float(r["x1"]), float(r["x2"])] for r in rows])
        values = decision_values(grid, model)
        for row, value in zip(rows, values):
            assert float(row["decision_value"]) == pytest.approx(value, abs=1e-12)
            assert int(row["label"]) == (1 if value >= 0 else -1)

    def test_constant_model_all_positive(self, tmp_path):
        model_path = constant_positive_model(tmp_path)
        out = tmp_path / "map.csv"
        assert run_cli("map", model_path, "--resolution", 3, "--out", out).returncode == 0
        with out.open() as fh:
            labels = {int(r["label"]) for r in csv.DictReader(fh)}
        assert labels == {1}

    def test_svg_written(self, tmp_path, small_dataset):
        model_path = constant_positive_model(tmp_path)
        svg = tmp_path / "map.svg"
        result = run_cli("map", model_path, "--resolution", 4, "--out", tmp_path / "m.csv",
                         "--svg", svg, "--train-data", small_dataset)
        assert result.returncode == 0, result.stderr
        text = svg.read_text()
        assert text.startswith("<svg") and "circle" in text

    def test_repeat_run_is_byte_identical(self, tmp_path, small_dataset):
        out_dir = tmp_path / "run"
        result = run_cli("train", "--data", small_dataset, *QUICK_TRAIN,
                         "--seed", 300, "--out", out_dir)
        assert result.returncode == 0, result.stderr
        outputs = []
        for run in ("a", "b"):
            out, svg = tmp_path / f"map-{run}.csv", tmp_path / f"map-{run}.svg"
            result = run_cli("map", out_dir / "model.json", "--resolution", 9, "--out", out,
                             "--svg", svg, "--train-data", small_dataset)
            assert result.returncode == 0, result.stderr
            outputs.append((out.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_csv_matches_per_row_formatting(self, tmp_path):
        # 37 x 37 = 1369 rows.
        model_path = mixed_model(tmp_path)
        out = tmp_path / "map.csv"
        result = run_cli("map", model_path, "--resolution", 37, "--out", out)
        assert result.returncode == 0, result.stderr
        grid = map_grid(37)
        values = decision_values(grid, load_model(model_path))
        assert len(set(np.sign(values))) == 2
        assert out.read_bytes() == per_row_map_csv(grid, values)

    @pytest.mark.parametrize("resolution, domain", [
        # Negative coordinates, and coordinates whose shortest round-trip
        # text runs to 17 significant digits.
        (37, (-1.5, 0.25, -3.0, 3.0)),
        (2, (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi)),
    ], ids=["negative-domain", "resolution-2"])
    def test_csv_matches_per_row_formatting_on_other_grids(self, tmp_path, resolution, domain):
        model_path = mixed_model(tmp_path)
        out = tmp_path / "map.csv"
        result = run_cli("map", model_path, "--resolution", resolution,
                         "--domain", ",".join(map(repr, domain)), "--out", out)
        assert result.returncode == 0, result.stderr
        grid = map_grid(resolution, domain)
        values = decision_values(grid, load_model(model_path))
        assert out.read_bytes() == per_row_map_csv(grid, values)

    @pytest.mark.parametrize("resolution, block_rows", [
        (37, None),  # 27 whole x1 rows per block, then a partial block of 10
        (7, 5),      # fewer block rows than a grid row: one x1 row per block
        (2, None),
    ], ids=["partial-last-block", "one-row-blocks", "resolution-2"])
    def test_csv_blocks_match_per_row_formatting(self, tmp_path, monkeypatch,
                                                 resolution, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(datagen, "_CSV_BLOCK_ROWS", block_rows)
        model_path = mixed_model(tmp_path)
        out = tmp_path / "map.csv"
        cli.main(args=["map", str(model_path), "--resolution", str(resolution),
                       "--out", str(out)], standalone_mode=False)
        grid = map_grid(resolution)
        values = decision_values(grid, load_model(model_path))
        assert out.read_bytes() == per_row_map_csv(grid, values)

    def test_svg_matches_per_cell_rendering(self, tmp_path, small_dataset):
        model_path = mixed_model(tmp_path)
        test_data = tmp_path / "test.csv"
        assert run_cli("gen-data", "--m", 10, "--seed", 600, "--out", test_data).returncode == 0
        svg = tmp_path / "map.svg"
        result = run_cli("map", model_path, "--resolution", 37, "--out", tmp_path / "map.csv",
                         "--svg", svg, "--train-data", small_dataset, "--test-data", test_data)
        assert result.returncode == 0, result.stderr
        grid = map_grid(37)
        labels = np.where(decision_values(grid, load_model(model_path)) >= 0.0, 1, -1)
        assert len(set(labels.tolist())) == 2
        overlays = [(read_dataset_csv(small_dataset), "circle"),
                    (read_dataset_csv(test_data), "triangle")]
        domain = (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi)
        want = per_cell_svg(grid[:, 0], grid[:, 1], labels, 37, domain, overlays)
        assert svg.read_bytes() == want

    def test_domain_must_be_finite(self, tmp_path):
        model_path = constant_positive_model(tmp_path)
        for domain in ("0,inf,0,1", "0,1,-inf,1", "nan,1,0,1"):
            result = run_cli("map", model_path, "--resolution", 2, "--domain", domain,
                             "--out", tmp_path / "m.csv")
            assert result.returncode == 1, domain
            assert "domain" in result.stderr

    def test_resolution_validated(self, tmp_path):
        model_path = constant_positive_model(tmp_path)
        result = run_cli("map", model_path, "--resolution", 1, "--out", tmp_path / "m.csv")
        assert result.returncode == 1


class TestQuietStdout:
    """Whatever drives the library in process may keep its own result on
    stdout, so training, scoring and the map's single line leave nothing
    else there.  capfd captures file descriptor 1, which also catches
    writes from C code and child processes."""

    @pytest.mark.parametrize("backend, qubo", [
        ("anneal", "paper"), ("anneal", "dual"), ("greedy", "paper"),
    ])
    def test_train_and_scoring_write_nothing(self, capfd, monkeypatch, tmp_path,
                                             backend, qubo):
        # An empty kernel cache, so a dual anneal compiles the kernel here.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        anneal._kernel.cache_clear()
        ds = adhoc_generate(30, 0.0, seed=5)
        train_set, val_set = split(ds, SplitSpec(20, 5, seed=5))
        cfg = TrainConfig(max_iterations=2, solver_backend=backend, qubo_builder=qubo,
                          seed=5, schedule=AnnealSchedule(num_reads=4, sweeps=50, seed=5))
        capfd.readouterr()
        try:
            report = train(train_set, val_set, cfg)
            decision_values(val_set.points, report.best_model)
        finally:
            anneal._kernel.cache_clear()
        assert capfd.readouterr().out == ""

    def test_map_prints_one_line(self, capfd, tmp_path):
        model_path = mixed_model(tmp_path)
        out = tmp_path / "map.csv"
        capfd.readouterr()
        cli.main(args=["map", str(model_path), "--resolution", "5", "--out", str(out)],
                 standalone_mode=False)
        assert capfd.readouterr().out == f"wrote 25 cells to {out}\n"


class TestSweep:
    def test_tiny_sweep_rows_and_means(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", "--out", out, "--sizes", "10", "--seeds", "7",
            "--max-iters", 2, "--reads", 4, "--sweeps", 40,
        )
        assert result.returncode == 0, result.stderr
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        per_seed = [r for r in rows if r["seed"] != "mean"]
        means = [r for r in rows if r["seed"] == "mean"]
        assert {r["method"] for r in per_seed} == {"classical", "qsvm", "hqsvm"}
        assert len(per_seed) == 3 and len(means) == 3
        for r in rows:
            assert r["train_pts"] == "10" and r["test_pts"] == "2"

    def test_resume_skips_completed_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        out.write_text(
            "train_pts,test_pts,method,seed,accuracy_pct,iterations\n"
            "10,2,classical,7,33.33,9\n",
            encoding="utf-8",
        )
        result = run_cli(
            "sweep", "--out", out, "--sizes", "10", "--seeds", "7",
            "--methods", "classical,hqsvm", "--max-iters", 2, "--reads", 4, "--sweeps", 40,
        )
        assert result.returncode == 0, result.stderr
        with out.open() as fh:
            rows = {(r["method"], r["seed"]): r for r in csv.DictReader(fh)}
        # The pre-existing row was not recomputed; the new one was added.
        assert rows[("classical", "7")]["accuracy_pct"] == "33.33"
        assert rows[("classical", "7")]["iterations"] == "9"
        assert ("hqsvm", "7") in rows

    def test_quantum_methods_run_at_500_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli("sweep", "--out", out, "--sizes", "500", "--seeds", "300",
                         "--methods", "qsvm", "--max-iters", 2)
        assert result.returncode == 0, result.stderr
        with out.open() as fh:
            rows = [r for r in csv.DictReader(fh) if r["seed"] == "300"]
        assert [(r["train_pts"], r["test_pts"], r["method"]) for r in rows] == [
            ("500", "100", "qsvm")]
        flags = json.loads((tmp_path / "sweep.csv.meta.json").read_text())["flags"]
        assert "include_500_quantum" not in flags

    def test_rewrite_of_fresh_rows_is_byte_stable(self, tmp_path, monkeypatch):
        # 40, 40 and 43 of 60 validation rows: the full-precision percentages
        # average to 68.3333 and the written 66.67, 66.67 and 71.67 to
        # 68.3367, so a mean of the unrounded values would move on resume.
        correct = {1: 40, 2: 40, 3: 43}

        def fake_train(train_set, val_set, cfg):
            return SimpleNamespace(best_accuracy=correct[cfg.seed] / val_set.m,
                                   iterations_used=3)

        monkeypatch.setattr("triqsvm.cli.train", fake_train)
        data = tmp_path / "d.csv"
        data.write_text("f1,f2,label\n" + "1.0,1.0,1\n1.0,2.0,-1\n" * 180, encoding="utf-8")
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--out", str(out), "--data", str(data), "--sizes", "300",
                "--seeds", "1,2,3", "--methods", "qsvm"]
        cli.main(args=args, standalone_mode=False)
        fresh = out.read_bytes()
        assert b"300,60,qsvm,mean,68.34,3.0" in fresh
        cli.main(args=args, standalone_mode=False)
        assert out.read_bytes() == fresh

    @pytest.mark.parametrize("header, bad_row", [
        (SWEEP_HEADER, "ten,2,classical,7,33.33,9"),
        (SWEEP_HEADER, "10,2,classical,x,33.33,9"),
        (SWEEP_HEADER, "10,2,classical,7,abc,9"),
        (SWEEP_HEADER, "10,2,classical,7,33.33,9.5"),
        (SWEEP_HEADER, "10,2,zen,7,33.33,9"),
        (SWEEP_HEADER, "10,2,classical,7,33.33"),
        ("train_pts,test_pts,method,seed,accuracy_pct", "10,2,classical,7,33.33"),
    ], ids=["train_pts", "seed", "accuracy_pct", "iterations", "method", "short_row",
            "missing_column"])
    def test_malformed_table_leaves_files_untouched(self, tmp_path, header, bad_row):
        out = tmp_path / "sweep.csv"
        meta = tmp_path / "sweep.csv.meta.json"
        table = f"{header}\n10,2,qsvm,7,50.00,1\n{bad_row}\n10,2,qsvm,mean,50.00,1.0\n"
        out.write_text(table, encoding="utf-8")
        meta.write_text("{}\n", encoding="utf-8")
        result = run_cli("sweep", "--out", out, "--sizes", "10", "--seeds", "7",
                         "--max-iters", 1, "--reads", 2, "--sweeps", 10)
        assert result.returncode == 1, result.stderr
        assert f"{out}, line " in result.stderr
        assert out.read_text(encoding="utf-8") == table
        assert meta.read_text(encoding="utf-8") == "{}\n"

    def test_resume_with_other_training_flags_leaves_files_untouched(self, tmp_path):
        out = tmp_path / "sweep.csv"
        meta = tmp_path / "sweep.csv.meta.json"
        first = run_cli("sweep", "--out", out, "--sizes", 10, "--seeds", 7,
                        "--methods", "classical", "--max-iters", 1, "--delta", 0.0)
        assert first.returncode == 0, first.stderr
        table, sidecar = out.read_bytes(), meta.read_bytes()
        result = run_cli("sweep", "--out", out, "--sizes", 10, "--seeds", "7,8",
                         "--methods", "classical", "--max-iters", 5, "--delta", 0.6)
        assert result.returncode == 1, result.stderr
        assert "--delta 0.0 (now 0.6)" in result.stderr
        assert "--max-iters 1 (now 5)" in result.stderr
        assert out.read_bytes() == table
        assert meta.read_bytes() == sidecar

    @pytest.mark.parametrize("flag, before, after", [
        ("--data", "a.csv", "b.csv"),
        ("--delta", 0.1, 0.2),
        ("--max-iters", 1, 2),
        ("--target-acc", 1.0, 0.5),
    ])
    def test_each_training_flag_is_checked_on_resume(self, tmp_path, monkeypatch,
                                                      flag, before, after):
        sweep = self._flag_sweep(tmp_path, monkeypatch, flag)
        out = tmp_path / "sweep.csv"
        sweep(before, "7")
        table = out.read_bytes()
        # Other seeds under the same flags resume.
        sweep(before, "7,8")
        assert out.read_bytes() != table
        table, sidecar = out.read_bytes(), out.with_name("sweep.csv.meta.json").read_bytes()
        with pytest.raises(ValueError, match=f"{flag} .* \\(now .*\\)"):
            sweep(after, "7,8")
        assert out.read_bytes() == table
        assert out.with_name("sweep.csv.meta.json").read_bytes() == sidecar

    @pytest.mark.parametrize("flag, before, after", [
        ("--reads", 4, 5),
        ("--sweeps", 40, 41),
        ("--beta-start", 0.1, 0.2),
        ("--beta-end", 10.0, 11.0),
    ])
    def test_anneal_flags_do_not_block_a_resume(self, tmp_path, monkeypatch,
                                                flag, before, after):
        # Every sweep row trains the paper builder in closed form, so no
        # sampler runs and these flags decide no row.
        sweep = self._flag_sweep(tmp_path, monkeypatch, flag)
        out = tmp_path / "sweep.csv"
        sweep(before, "7")
        first_row = out.read_text(encoding="utf-8").splitlines()[1]
        assert first_row == "10,2,qsvm,7,50.00,1"
        sweep(after, "7,8")
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[1:3] == [first_row, "10,2,qsvm,8,50.00,1"]
        meta = json.loads(out.with_name("sweep.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["flags"][flag[2:].replace("-", "_")] == after

    @staticmethod
    def _flag_sweep(tmp_path, monkeypatch, flag):
        """A sweep over a fake ``train`` that sets ``flag`` to a value."""
        monkeypatch.setattr("triqsvm.cli.train", lambda train_set, val_set, cfg:
                            SimpleNamespace(best_accuracy=0.5, iterations_used=1))
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("f1,f2,label\n" + "1.0,1.0,1\n1.0,2.0,-1\n" * 6,
                                         encoding="utf-8")

        def sweep(value, seeds):
            flags = {"--data": tmp_path / "a.csv", "--delta": 0.0,
                     flag: tmp_path / value if flag == "--data" else value}
            cli.main(args=["sweep", "--out", str(tmp_path / "sweep.csv"), "--sizes", "10",
                           "--seeds", seeds, "--methods", "qsvm",
                           *map(str, itertools.chain(*flags.items()))],
                     standalone_mode=False)

        return sweep

    def test_table_with_a_byte_order_mark_resumes(self, tmp_path, monkeypatch):
        monkeypatch.setattr("triqsvm.cli.train", lambda train_set, val_set, cfg:
                            SimpleNamespace(best_accuracy=0.5, iterations_used=1))
        out = tmp_path / "sweep.csv"
        out.write_text(f"\ufeff{SWEEP_HEADER}\n10,2,qsvm,7,33.33,9\n", encoding="utf-8")
        cli.main(args=["sweep", "--out", str(out), "--sizes", "10", "--seeds", "7,8",
                       "--methods", "qsvm", "--delta", "0.0"], standalone_mode=False)
        written = out.read_text(encoding="utf-8")
        # The marked row is kept, the new seed is added, and the rewrite
        # carries no mark.
        assert written.startswith(f"{SWEEP_HEADER}\n10,2,qsvm,7,33.33,9\n10,2,qsvm,8,50.00,1\n")

    def test_unknown_method_rejected(self, tmp_path):
        result = run_cli("sweep", "--out", tmp_path / "s.csv", "--methods", "zen")
        assert result.returncode == 1


class TestExitCodes:
    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 1

    def test_success_is_zero(self, tmp_path):
        assert run_cli("gen-data", "--m", 4, "--seed", 1,
                       "--out", tmp_path / "d.csv").returncode == 0
