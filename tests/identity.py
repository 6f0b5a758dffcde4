"""Byte-identity record of two source trees over the benchmark's splits.

    python tests/identity.py OLD_TREE NEW_TREE

Each tree is a source checkout with ``src/`` and ``perfbench/``.  One
subprocess per tree imports ``triqsvm`` from that tree's ``src/`` and the
splits from its ``perfbench/workloads.py`` (``WORKLOADS``, ``make_split``),
and trains every split of every benchmark workload at seeds 1-3 with the
workload's config: 111 trainings.  ``predict-map`` contributes the stored
model and the ``models - 1`` others that its references train.  The script
then prints, old against new:

- whether each split's inputs (points and labels by bytes) are equal;
- whether each model file's sha256 is equal;
- whether the θ paths (every point COBYLA's generator ``_cobyla_points``
  yielded, recorded by wrapping it) and the accuracy trajectories are
  equal;
- whether each training's report is equal: ``report_to_dict`` without
  ``wall_time``, as JSON with its keys in order (the solver record,
  ``states_built``, ``iterations_used``, ``failures``, the config echo);
- each holdout accuracy;
- the largest |Δβ|, overall and per workload, with each workload's count
  of differing model files and of equal reports;
- the largest |Δ decision value| on the holdouts (the trained model) and
  on the ``predict-map`` grid (the model read back from its file, as
  ``triqsvm map`` scores it);
- the sha256 of each output of the README's CLI quickstart (steps 1-4:
  ``gen-data``, ``train``, ``evaluate``, ``map``), each tree's CLI run in
  a directory of its own: the dataset CSV and its sidecar, the model
  file, the ``evaluate`` JSON without its ``created_utc`` line, and the
  map's CSV, sidecar and SVG.

It exits 0 when everything is equal and 1 otherwise.  It reads no timing
and replaces no test: the golden fixtures and the byte oracles in
``tests/`` stay the judge.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
# The README's CLI quickstart, steps 1-4, and the files whose sha256 the
# comparison prints (report.json holds timings, so it is left out).
QUICKSTART = (
    ("gen-data", "--m", "60", "--delta", "0.6", "--seed", "300", "--out", "adhoc.csv"),
    ("train", "--data", "adhoc.csv", "--n-train", "50", "--seed", "300", "--out", "run/"),
    ("evaluate", "run/model.json", "adhoc.csv", "--out", "eval.json"),
    ("map", "run/model.json", "--resolution", "50", "--out", "map.csv", "--svg", "map.svg"),
)
QUICKSTART_OUTPUTS = ("adhoc.csv", "adhoc.csv.meta.json", "run/model.json", "eval.json",
                      "map.csv", "map.csv.meta.json", "map.svg")


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def record(tree: Path, out: Path) -> None:
    """Train every benchmark split of ``tree`` at each seed and save what
    the comparison reads to ``out`` (an ``.npz`` of plain arrays)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np
    import triqsvm.optimize as optimize
    import triqsvm.qubo as qubo
    import workloads
    from tracing import Tracer

    paths = []
    points = optimize._cobyla_points

    def recorded(*args, **kwargs):
        inner = points(*args, **kwargs)
        try:
            x = next(inner)
            while True:
                paths[-1].append(np.array(x, dtype=float))
                x = inner.send((yield x))
        except StopIteration as finished:
            return finished.value

    optimize._cobyla_points = recorded
    arrays, keys = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for name, wl in workloads.WORKLOADS.items():
            predict = isinstance(wl, workloads.PredictWorkload)
            count = wl.models if predict else wl.splits
            if predict:
                axis = np.linspace(0.0, 2.0 * np.pi, wl.resolution)
                grid = np.column_stack([np.repeat(axis, wl.resolution),
                                        np.tile(axis, wl.resolution)])
            for seed in SEEDS:
                for j in range(count):
                    key = f"{name}/{seed}/{j}"
                    keys.append(key)
                    split_seed, train_set, val_set, holdout = workloads.make_split(
                        wl, seed, j, work, Tracer())
                    arrays[f"{key}/inputs"] = np.array(_sha256(
                        train_set.points, train_set.labels, val_set.points, val_set.labels,
                        holdout.points, holdout.labels))
                    paths.append([])
                    report = optimize.train(train_set, val_set, wl.config(split_seed))
                    model = report.best_model
                    path = work / "model.json"
                    qubo.save_model(model, path)
                    arrays[f"{key}/model"] = np.array(hashlib.sha256(path.read_bytes()).hexdigest())
                    arrays[f"{key}/theta"] = np.array(paths[-1]).reshape(len(paths[-1]), -1)
                    arrays[f"{key}/accuracy"] = np.array(report.accuracy_per_iteration)
                    reported = optimize.report_to_dict(report)
                    del reported["wall_time"]
                    arrays[f"{key}/report"] = np.array(json.dumps(reported, default=repr))
                    arrays[f"{key}/beta"] = np.array(model.beta)
                    arrays[f"{key}/holdout_acc"] = np.array(qubo.accuracy(model, holdout))
                    arrays[f"{key}/holdout_dv"] = qubo.decision_values(holdout.points, model)
                    if predict:
                        loaded = qubo.load_model(path)
                        arrays[f"{key}/grid_dv"] = qubo.decision_values(grid, loaded)
    arrays["keys"] = np.array(keys)
    np.savez(out, **arrays)


def quickstart(tree: Path) -> dict:
    """sha256 of each quickstart output of ``tree``'s CLI, run in a fresh
    directory; a line holding ``created_utc`` is left out of the hash."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for args in QUICKSTART:
            subprocess.run([sys.executable, "-m", "triqsvm", *args], cwd=scratch, env=env,
                           check=True, stdout=subprocess.DEVNULL)
        for name in QUICKSTART_OUTPUTS:
            lines = (Path(scratch) / name).read_bytes().splitlines(keepends=True)
            kept = b"".join(line for line in lines if b'"created_utc"' not in line)
            digests[name] = hashlib.sha256(kept).hexdigest()
    return digests


def _bytes(array):
    return array.shape, array.dtype.str, array.tobytes()


def _largest_gap(old, new, keys, field) -> float:
    gaps = [float(abs(new[f"{k}/{field}"] - old[f"{k}/{field}"]).max())
            for k in keys if f"{k}/{field}" in old]
    return max(gaps, default=0.0)


def compare(old_tree: Path, new_tree: Path) -> int:
    import numpy as np

    with tempfile.TemporaryDirectory() as scratch:
        runs = []
        for side, tree in (("old", old_tree), ("new", new_tree)):
            out = Path(scratch) / f"{side}.npz"
            subprocess.run([sys.executable, __file__, "--record", str(tree), str(out)],
                           check=True)
            with np.load(out, allow_pickle=False) as data:
                runs.append({k: data[k] for k in data.files})
    old, new = runs
    keys = old["keys"].tolist()
    if new["keys"].tolist() != keys:
        print("the two trees train different splits")
        return 1

    def equal(field):
        return [k for k in keys if _bytes(old[f"{k}/{field}"]) == _bytes(new[f"{k}/{field}"])]

    counts = {
        "inputs (split points and labels)": equal("inputs"),
        "model file sha256": equal("model"),
        "theta paths": equal("theta"),
        "accuracy trajectories": equal("accuracy"),
        "holdout accuracies": equal("holdout_acc"),
        "reports (without wall_time)": equal("report"),
    }
    print(f"identity: {old_tree} (old) against {new_tree} (new), {len(keys)} trainings, "
          f"seeds {SEEDS[0]}-{SEEDS[-1]}")
    for label, matching in counts.items():
        print(f"  {label} equal: {len(matching)}/{len(keys)}")
    beta = _largest_gap(old, new, keys, "beta")
    holdout = _largest_gap(old, new, keys, "holdout_dv")
    grid = _largest_gap(old, new, keys, "grid_dv")
    print(f"  largest |delta beta|: {beta:.3g}")
    print(f"  largest |delta decision value|: holdouts {holdout:.3g}, "
          f"predict-map grid {grid:.3g}")
    print("per workload: model files differing, reports equal, largest |delta beta|:")
    same_model = set(counts["model file sha256"])
    same_report = set(counts["reports (without wall_time)"])
    for name in dict.fromkeys(k.split("/")[0] for k in keys):
        own = [k for k in keys if k.split("/")[0] == name]
        differ = sum(k not in same_model for k in own)
        reports = sum(k in same_report for k in own)
        print(f"  {name}: {differ}/{len(own)}, {reports}/{len(own)}, "
              f"{_largest_gap(old, new, own, 'beta'):.3g}")
    print("holdout accuracy per split (old -> new where they differ):")
    rows = {}
    for k in keys:
        name, seed, _ = k.split("/")
        a, b = float(old[f"{k}/holdout_acc"]), float(new[f"{k}/holdout_acc"])
        rows.setdefault((name, seed), []).append(f"{a:.4g}" if a == b else f"{a:.4g}->{b:.4g}")
    for (name, seed), cells in rows.items():
        print(f"  {name} seed {seed}: {' '.join(cells)}")
    old_files, new_files = quickstart(old_tree), quickstart(new_tree)
    print("README quickstart outputs, sha256 (old / new):")
    for name in QUICKSTART_OUTPUTS:
        a, b = old_files[name], new_files[name]
        print(f"  {name}: {a}" + (" equal" if a == b else f" / {b} DIFFER"))
    identical = (all(len(m) == len(keys) for m in counts.values())
                 and beta == holdout == grid == 0.0 and old_files == new_files)
    print(json.dumps({"identical": identical}))
    return 0 if identical else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args()
    if args.record:
        record(args.first.resolve(), args.second)
        return 0
    return compare(args.first.resolve(), args.second.resolve())


if __name__ == "__main__":
    sys.exit(main())
