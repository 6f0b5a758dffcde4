"""Command-line surface: data generation, training, evaluation, map export
and multi-size sweeps.

Exit codes: 0 on success, 1 for validation errors (bad flags, missing or
malformed files), 2 for runtime or numeric failures.  Every JSON artifact
carries ``schema_version`` and echoes the flags and seeds that produced it;
the ``.meta.json`` sidecars carry no timestamp, so reruns are byte-identical.

``train`` and ``sweep`` share their training flags, with the library's
defaults, and one config builder.  A sweep row is kept as the text it is
written as, so a resumed sweep writes the same table as an uninterrupted
one, and each mean row averages the written values.  A sweep resumes only
under the training flags that its table's sidecar records.

``train`` and ``sweep`` anneal on up to one thread per usable CPU (the
annealer's reads run in parallel blocks); every other command runs on one
thread, and ``map`` scores its whole grid with one batched
``decision_values`` call.  ``map`` formats each grid axis once and every
cell reuses its axes' text, in the CSV and the SVG alike.  The CSV is
built one column at a time through ``datagen.write_csv_columns``: per
cell it formats only the decision value, and it joins its text once per
block of whole x1 rows.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from .anneal import AnnealSchedule
from .datagen import (
    DEFAULT_GAP,
    SplitSpec,
    adhoc_generate,
    column_ranges,
    load_csv,
    read_dataset_csv,
    rescale,
    split,
    split_rest,
    write_csv_columns,
    write_dataset_csv,
)
from .optimize import BACKENDS, BUILDERS, KERNEL_KINDS, TrainConfig, report_to_dict, train
from .qubo import accuracy, decision_values, load_model, save_model

SCHEMA_VERSION = "1"

# Sweep method names to (kernel kind, solver backend).
SWEEP_METHODS = {
    "classical": ("rbf", "greedy"),
    "qsvm": ("quantum-zz", "greedy"),
    "hqsvm": ("quantum-zz", "anneal"),
}

DEFAULT_SWEEP_SIZES = (50, 100, 200, 300, 500)

SWEEP_COLUMNS = ("train_pts", "test_pts", "method", "seed", "accuracy_pct", "iterations")

# The sweep flags that decide what a row's training does; a table resumes
# only under the ones its sidecar records.
SWEEP_TRAINING_FLAGS = ("data", "delta", "max_iters", "target_acc", "reads", "sweeps",
                        "beta_start", "beta_end")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_meta(out, command: str, **fields) -> None:
    """Write the timestamp-free sidecar ``<out>.meta.json``."""
    _write_json(f"{out}.meta.json",
                {"schema_version": SCHEMA_VERSION, "command": command, **fields})


def _comma_ints(_ctx, _param, value):
    if value is None:
        return None
    try:
        return tuple(int(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None


@click.group()
def cli():
    """Hybrid support vector classification toolkit: quantum-style kernel,
    annealing-style QUBO solver, classical outer training loop."""


@cli.command("gen-data")
@click.option("--m", "m", type=int, default=60, show_default=True, help="Number of samples.")
@click.option("--delta", type=float, default=DEFAULT_GAP, show_default=True,
              help="Separation gap.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output CSV path.")
@click.option("--from-csv", "from_csv", type=click.Path(dir_okay=False), default=None,
              help="Convert a raw CSV instead of generating data.")
@click.option("--feature-columns", default=None, help="Two raw column names, comma separated.")
@click.option("--label-column", default=None, help="Raw label column name.")
@click.option("--positive-label", default=None, help="Raw value mapped to +1.")
@click.option("--negative-label", default=None, help="Raw value mapped to -1 (default: inferred).")
@click.option("--no-rescale", is_flag=True, help="Skip min-max rescaling onto [0, 2*pi].")
def cmd_gen_data(m, delta, seed, out, from_csv, feature_columns, label_column,
                 positive_label, negative_label, no_rescale):
    """Generate a gap-separated dataset, or convert a raw CSV."""
    if from_csv is not None:
        if not (feature_columns and label_column and positive_label is not None):
            raise ValueError(
                "--from-csv needs --feature-columns, --label-column and --positive-label"
            )
        columns = [c.strip() for c in feature_columns.split(",")]
        ds = load_csv(from_csv, columns, label_column, positive_label, negative_label)
        ranges = column_ranges(ds)
        if not no_rescale:
            ds = rescale(ds)
        write_dataset_csv(ds, out)
        _write_meta(out, "gen-data", source=str(from_csv), feature_columns=columns,
                    label_column=label_column, positive_label=positive_label,
                    negative_label=negative_label, rescaled=not no_rescale,
                    column_ranges=ranges, rows=ds.m)
        click.echo(f"wrote {ds.m} rows to {out}")
        return
    ds = adhoc_generate(m, delta, seed=seed)
    write_dataset_csv(ds, out)
    _write_meta(out, "gen-data", flags={"m": m, "delta": delta, "seed": seed}, rows=ds.m)
    click.echo(f"wrote {ds.m} rows to {out}")


def _training_options(command):
    """Add the outer-loop and anneal-schedule flags that ``train`` and
    ``sweep`` share.  Each default is the library's, and click takes the
    flag's type from it."""
    defaults = {
        "--max-iters": TrainConfig.max_iterations,
        "--target-acc": TrainConfig.target_accuracy,
        "--reads": AnnealSchedule.num_reads,
        "--sweeps": AnnealSchedule.sweeps,
        "--beta-start": AnnealSchedule.beta_start,
        "--beta-end": AnnealSchedule.beta_end,
    }
    for flag, default in reversed(defaults.items()):
        command = click.option(flag, default=default, show_default=True)(command)
    return command


def _train_config(backend, qubo, kernel, seed, *, max_iters, target_acc, reads, sweeps,
                  beta_start, beta_end) -> TrainConfig:
    """The config that the ``_training_options`` flags describe; the anneal
    schedule takes the master seed."""
    schedule = AnnealSchedule(num_reads=reads, sweeps=sweeps, beta_start=beta_start,
                              beta_end=beta_end, seed=seed)
    return TrainConfig(max_iterations=max_iters, target_accuracy=target_acc,
                       solver_backend=backend, qubo_builder=qubo, kernel_kind=kernel,
                       seed=seed, schedule=schedule)


@cli.command("train")
@click.option("--data", type=click.Path(dir_okay=False), required=True,
              help="Dataset CSV (canonical f1,f2,label format).")
@click.option("--n-train", type=int, required=True, help="Training rows drawn from --data.")
@click.option("--n-test", type=int, default=None,
              help="Validation rows (default: n-train // 5).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True, help="Output directory.")
@click.option("--backend", type=click.Choice(BACKENDS), default=TrainConfig.solver_backend,
              show_default=True)
@click.option("--qubo", type=click.Choice(BUILDERS), default=TrainConfig.qubo_builder,
              show_default=True)
@click.option("--kernel", type=click.Choice(KERNEL_KINDS), default=TrainConfig.kernel_kind,
              show_default=True)
@_training_options
@click.option("--holdout", is_flag=True,
              help="Carve out a third split: the optimizer sees the validation split, "
                   "and accuracy is also reported on untouched holdout rows.")
def cmd_train(data, n_train, n_test, seed, out, backend, qubo, kernel, holdout, **loop):
    """Train a model on a split of the dataset and write model + report."""
    started = time.perf_counter()
    flags = {"data": str(data), "n_train": n_train, "n_test": n_test, "seed": seed,
             "backend": backend, "qubo": qubo, "kernel": kernel, "holdout": holdout, **loop}
    ds = read_dataset_csv(data)
    spec = SplitSpec(n_train=n_train, n_test=n_test, seed=seed)
    if holdout and (spec.n_test < 1 or ds.m < spec.n_train + 2 * spec.n_test):
        raise ValueError(f"--holdout needs n_test >= 1 and n_train + 2 * n_test rows; got "
                         f"n_train {spec.n_train}, n_test {spec.n_test} and {ds.m} rows")
    train_set, val_set = split(ds, spec)
    holdout_set = None
    if holdout:
        rest = split_rest(ds, spec)
        holdout_set, _ = split(rest, SplitSpec(n_train=spec.n_test, n_test=0, seed=seed))
    report = train(train_set, val_set, _train_config(backend, qubo, kernel, seed, **loop))

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(report.best_model, out_dir / "model.json")
    per_split = {
        "train": accuracy(report.best_model, train_set),
        "validation": report.best_accuracy,
    }
    if holdout_set is not None:
        per_split["holdout"] = accuracy(report.best_model, holdout_set)
    run_report = {
        "schema_version": SCHEMA_VERSION,
        "command": "train",
        "created_utc": _utc_now(),
        "flags": flags,
        "dataset": {"path": str(data), "name": ds.name, "rows": ds.m,
                    "n_train": spec.n_train, "n_test": spec.n_test,
                    "holdout_rows": holdout_set.m if holdout_set is not None else 0},
        "train_report": report_to_dict(report),
        "per_split_accuracy": per_split,
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json(out_dir / "report.json", run_report)
    click.echo(
        f"best validation accuracy {report.best_accuracy:.4f} "
        f"after {report.iterations_used} iteration(s); artifacts in {out_dir}"
    )


@cli.command("evaluate")
@click.argument("model_file", type=click.Path(dir_okay=False))
@click.argument("dataset_file", type=click.Path(dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default="evaluation.json",
              show_default=True, help="JSON result path.")
def cmd_evaluate(model_file, dataset_file, out):
    """Score a stored model against a dataset; prints the accuracy."""
    model = load_model(model_file)
    ds = read_dataset_csv(dataset_file)
    acc = accuracy(model, ds)
    click.echo(f"{acc:.4f}")
    _write_json(out, {
        "schema_version": SCHEMA_VERSION,
        "command": "evaluate",
        "created_utc": _utc_now(),
        "model": str(model_file),
        "dataset": {"path": str(dataset_file), "name": ds.name, "rows": ds.m},
        "accuracy": acc,
    })


def _svg_map(path, g1, g2, labels, domain, overlays):
    """Render the map's labels as a heat grid, with optional point overlays.

    Cell i * len(g2) + j sits at (g1[i], g2[j]), so the position text of
    each grid axis is formatted once.
    """
    lo1, hi1, lo2, hi2 = domain
    size = 480
    margin = 40
    cell = size / len(g1)

    def sx(x1):
        u = (x1 - lo1) / (hi1 - lo1)
        return margin + u * size

    def sy(x2):
        v = (x2 - lo2) / (hi2 - lo2)
        return margin + (1.0 - v) * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{size + 2 * margin}" height="{size + 2 * margin}">',
        f'<rect width="{size + 2 * margin}" height="{size + 2 * margin}" fill="white"/>',
    ]
    x_text = [f'<rect x="{sx(x1) - cell / 2:.2f}" ' for x1 in g1.tolist()]
    y_text = [f'y="{sy(x2) - cell / 2:.2f}" ' for x2 in g2.tolist()]
    colors = {1: "#d62728", -1: "#1f77b4"}
    fill = {label: f'width="{cell:.2f}" height="{cell:.2f}" fill="{color}" fill-opacity="0.55"/>'
            for label, color in colors.items()}
    for i, head in enumerate(x_text):
        row = labels[i * len(g2) : (i + 1) * len(g2)].tolist()
        parts.extend([f"{head}{y}{fill[label]}" for y, label in zip(y_text, row)])
    for ds, shape in overlays:
        for row, label in zip(ds.points, ds.labels):
            cx, cy = sx(row[0]), sy(row[1])
            color = colors[label]
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
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


@cli.command("map")
@click.argument("model_file", type=click.Path(dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output CSV path.")
@click.option("--resolution", type=int, default=50, show_default=True, help="Grid cells per axis.")
@click.option("--domain", default=None,
              help="Grid domain as 'x1min,x1max,x2min,x2max' (default 0,2pi,0,2pi).")
@click.option("--svg", type=click.Path(dir_okay=False), default=None,
              help="Also render an SVG heat grid here.")
@click.option("--train-data", type=click.Path(dir_okay=False), default=None,
              help="Overlay these points as circles in the SVG.")
@click.option("--test-data", type=click.Path(dir_okay=False), default=None,
              help="Overlay these points as triangles in the SVG.")
def cmd_map(model_file, out, resolution, domain, svg, train_data, test_data):
    """Export the model's decision values over a grid of the feature plane."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    model = load_model(model_file)
    if domain is None:
        bounds = (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi)
    else:
        parts = domain.split(",")
        if len(parts) != 4:
            raise ValueError("domain must be 'x1min,x1max,x2min,x2max'")
        bounds = tuple(float(v) for v in parts)
        if not np.all(np.isfinite(bounds)):
            raise ValueError("domain extents must be finite")
        if not (bounds[0] < bounds[1] and bounds[2] < bounds[3]):
            raise ValueError("domain extents must be increasing")
    g1 = np.linspace(bounds[0], bounds[1], resolution)
    g2 = np.linspace(bounds[2], bounds[3], resolution)
    # Row-major with x2 fastest.
    grid = np.column_stack([np.repeat(g1, resolution), np.tile(g2, resolution)])
    values = decision_values(grid, model)
    labels = np.where(values >= 0.0, 1, -1)
    # Row i * resolution + j of the grid is (g1[i], g2[j]), so each axis is
    # formatted once, and a block of whole x1 rows repeats its x1 texts and
    # tiles the x2 texts.  repr of a Python float is the same text as of a
    # numpy float64, and faster.
    x1_text = list(map(repr, g1.tolist()))
    x2_text = list(map(repr, g2.tolist()))
    label_text = {1: "1", -1: "-1"}

    def columns(rows):
        heads = x1_text[rows.start // resolution : rows.stop // resolution]
        return [[head for head in heads for _ in x2_text], x2_text * len(heads),
                list(map(repr, values[rows].tolist())),
                list(map(label_text.__getitem__, labels[rows].tolist()))]

    with Path(out).open("w", newline="\n", encoding="utf-8") as fh:
        fh.write("x1,x2,decision_value,label\n")
        write_csv_columns(fh, grid.shape[0], columns, group=resolution)
    _write_meta(out, "map", flags={"model": str(model_file), "resolution": resolution,
                                   "domain": list(bounds), "svg": str(svg) if svg else None},
                cells=int(grid.shape[0]))
    if svg is not None:
        overlays = []
        if train_data is not None:
            overlays.append((read_dataset_csv(train_data), "circle"))
        if test_data is not None:
            overlays.append((read_dataset_csv(test_data), "triangle"))
        _svg_map(svg, g1, g2, labels, bounds, overlays)
    click.echo(f"wrote {grid.shape[0]} cells to {out}")


def _read_sweep_rows(path: Path) -> dict:
    """The per-seed rows of an existing sweep table, as written, keyed by
    (size, method, seed).  Every number in a row is parsed here, so a
    malformed table fails, naming its line, before anything is written."""
    rows = {}
    if not path.is_file():
        return rows
    # utf-8-sig: a table saved back from a spreadsheet may start with a
    # byte-order mark, which must not become part of the first column name.
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        # An empty file has no header and is an empty table.
        missing = [c for c in SWEEP_COLUMNS if c not in (reader.fieldnames or SWEEP_COLUMNS)]
        if missing:
            raise ValueError(f"{path}, line 1: no column {', '.join(missing)}")
        for written in reader:
            if written["seed"] == "mean":
                continue
            where = f"{path}, line {reader.line_num}"
            row = {column: written[column] for column in SWEEP_COLUMNS}
            if None in row.values():
                raise ValueError(f"{where}: expected {len(SWEEP_COLUMNS)} fields")
            if row["method"] not in SWEEP_METHODS:
                raise ValueError(f"{where}: unknown sweep method {row['method']!r}")
            try:
                # Parsed only to reject a malformed row.
                int(row["test_pts"]), float(row["accuracy_pct"]), int(row["iterations"])
                rows[int(row["train_pts"]), row["method"], int(row["seed"])] = row
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows


def _check_resumable(path: Path, flags: dict) -> None:
    """Refuse to resume the table at ``path`` when its sidecar records
    other training flags than ``flags``: its rows would be averaged with
    rows trained differently.  A table without a sidecar, or whose sidecar
    has no flags, resumes as before."""
    meta_path = Path(f"{path}.meta.json")
    if not meta_path.is_file():
        return
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path} is not valid JSON: {exc}") from None
    stored = meta.get("flags") if isinstance(meta, dict) else None
    if not isinstance(stored, dict):
        return
    # As the sidecar would record them.
    now = json.loads(json.dumps(flags))
    changed = [f"--{key.replace('_', '-')} {stored.get(key)!r} (now {now[key]!r})"
               for key in SWEEP_TRAINING_FLAGS if stored.get(key) != now[key]]
    if changed:
        raise ValueError(f"{path} was written with other training flags: "
                         f"{', '.join(changed)}; rerun with those or choose another --out")


def _write_sweep_rows(path: Path, rows: dict) -> None:
    """Write the rows sorted by size, method and seed, then one mean row per
    (size, method) that averages the written values."""
    method_order = {name: i for i, name in enumerate(SWEEP_METHODS)}
    keys = sorted(rows, key=lambda key: (key[0], method_order[key[1]], key[2]))
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows[key] for key in keys)
        for (size, method), group_keys in itertools.groupby(keys, key=lambda key: key[:2]):
            group = [rows[key] for key in group_keys]
            mean_acc = sum(float(row["accuracy_pct"]) for row in group) / len(group)
            mean_iters = sum(int(row["iterations"]) for row in group) / len(group)
            writer.writerow({"train_pts": size, "test_pts": group[0]["test_pts"],
                             "method": method, "seed": "mean",
                             "accuracy_pct": f"{mean_acc:.2f}", "iterations": f"{mean_iters:.1f}"})


@cli.command("sweep")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Results CSV path.")
@click.option("--data", type=click.Path(dir_okay=False), default=None,
              help="Dataset CSV to subsample; omit to generate gap-separated data per seed.")
@click.option("--sizes", callback=_comma_ints, default=None,
              help=f"Training sizes (default {','.join(map(str, DEFAULT_SWEEP_SIZES))}).")
@click.option("--seeds", callback=_comma_ints, default="300,600,1000", show_default=True)
@click.option("--methods", default="classical,qsvm,hqsvm", show_default=True)
@click.option("--delta", type=float, default=DEFAULT_GAP, show_default=True)
@_training_options
def cmd_sweep(out, data, sizes, seeds, methods, delta, **loop):
    """Accuracy/iteration table across training sizes, methods and seeds.

    Completed (size, method, seed) rows found in the output file are kept,
    so an interrupted sweep resumes where it stopped; it must resume with
    the training flags that its sidecar records.
    """
    sizes = sizes or DEFAULT_SWEEP_SIZES
    method_names = [m.strip() for m in methods.split(",")]
    for name in method_names:
        if name not in SWEEP_METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {sorted(SWEEP_METHODS)}")
    source = read_dataset_csv(data) if data is not None else None
    out_path = Path(out)
    rows = _read_sweep_rows(out_path)
    flags = {"data": str(data) if data else None, "sizes": list(sizes),
             "seeds": list(seeds), "methods": method_names, "delta": delta, **loop}
    if rows:
        _check_resumable(out_path, flags)
    _write_meta(out_path, "sweep", flags=flags,
                method_map={name: {"kernel": SWEEP_METHODS[name][0],
                                   "backend": SWEEP_METHODS[name][1]}
                            for name in method_names})
    for size in sizes:
        n_test = size // 5
        for seed in seeds:
            dataset = source
            if dataset is None:
                dataset = adhoc_generate(size + n_test, delta, n=2, seed=seed)
            for method in method_names:
                kernel_kind, backend = SWEEP_METHODS[method]
                key = (size, method, seed)
                if key in rows:
                    continue
                train_set, val_set = split(dataset, SplitSpec(size, n_test, seed))
                cfg = _train_config(backend, "paper", kernel_kind, seed, **loop)
                report = train(train_set, val_set, cfg)
                row = rows[key] = {
                    "train_pts": str(size), "test_pts": str(n_test), "method": method,
                    "seed": str(seed), "accuracy_pct": f"{100.0 * report.best_accuracy:.2f}",
                    "iterations": str(report.iterations_used),
                }
                _write_sweep_rows(out_path, rows)
                click.echo(f"{size:>4} {method:<9} seed {seed}: "
                           f"{row['accuracy_pct']}% in {row['iterations']} iteration(s)")
    _write_sweep_rows(out_path, rows)
    click.echo(f"sweep table written to {out_path}")


def main(argv=None):
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001 - runtime/numeric failures
        click.echo(f"failure: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
