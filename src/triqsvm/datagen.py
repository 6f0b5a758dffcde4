"""Dataset generation, loading and splitting.

The generated dataset draws points uniformly from (0, 2*pi]^n and labels
them by the sign of <Phi(x)| V^dag (Z x ... x Z) V |Phi(x)> for a fixed
random unitary V, keeping only points whose expectation magnitude exceeds
the separation gap.  Class quotas are filled to half the requested size
each (the +1 class gets the extra point when the size is odd), so every
emitted dataset is balanced up to rounding.

All randomness flows from explicit integer seeds; equal seeds give
bit-identical datasets.

The module also owns canonical CSV I/O.  ``write_csv_columns`` is the one
writer of numeric CSV text, for the canonical dataset CSV and the CLI's
decision map alike: each column arrives as a list of formatted cells, the
columns are interleaved with their separators by slice assignment, and
the pieces are joined once per block of about 1,000 rows.
``read_dataset_csv`` parses cells by position from ``csv.reader`` rows,
so it builds no dict per row.  Both readers report an error at the
physical line of the file, counting blank lines.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qkernel import FeatureMapSpec, expectation_zz, feature_states, integer_field

DEFAULT_GAP = 0.6

# Attempt budget of the rejection loop, per requested sample.
RESAMPLE_CAP_PER_SAMPLE = 10_000

CANONICAL_HEADER = ("f1", "f2", "label")

# Rows joined per write by write_csv_columns, which bounds its memory: a
# block's cells, pieces and text all live at once.  At 1,000 map rows that
# peaks at about 300 KiB (tracemalloc); one join over a whole 10,000-row
# map peaks at 2.7 MiB and raised the map's peak RSS by about 1 MB, while a
# join per 100-row grid row loses most of the speed to per-join overhead.
_CSV_BLOCK_ROWS = 1000


@dataclass
class Dataset:
    """Feature matrix (M x d) with labels in {-1, +1} and a display name."""

    points: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int)
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"point count {self.points.shape[0]} does not match "
                f"label count {self.labels.shape[0]}"
            )
        if self.labels.size and not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Sizes and seed of a random train/test split.

    When ``n_test`` is omitted it defaults to ``n_train // 5``.
    """

    n_train: int
    n_test: int | None = None
    seed: int = 0

    def __post_init__(self):
        integer_field(self, "n_train", 1)
        if self.n_test is None:
            object.__setattr__(self, "n_test", self.n_train // 5)
        integer_field(self, "n_test", 0)
        integer_field(self, "seed", 0)


def _haar_from_rng(dim: int, rng: np.random.Generator) -> np.ndarray:
    # QR of a complex Ginibre matrix; normalizing the phases of R's diagonal
    # makes the distribution Haar rather than merely unitary.
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary of the given dimension, deterministic per seed.

    Only products V^dag O V of the result are ever consumed downstream, so
    the global phase (U(dim) versus SU(dim)) is irrelevant.
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return _haar_from_rng(dim, np.random.default_rng(seed))


def labelling_map(n: int) -> FeatureMapSpec:
    """Feature map used to label generated data: theta fixed to all-ones,
    which makes the one-body angles exactly the data coordinates."""
    return FeatureMapSpec(n=n, theta=np.ones(n))


def adhoc_generate(m: int, delta: float, n: int = 2, seed: int = 0) -> Dataset:
    """Generate m gap-separated samples in (0, 2*pi]^n.

    A candidate x is kept only when |<Phi(x)|V^dag ZZ V|Phi(x)>| exceeds
    ``delta`` and its class quota is not yet full; everything else is
    rejected and resampled.  Candidates are drawn and scored in chunks, but
    accepted in draw order, so the result equals a one-at-a-time rejection
    loop.  Raises when ``delta`` makes the rejection loop exceed its attempt
    budget.
    """
    if m < 1:
        raise ValueError("sample count must be >= 1")
    if not 0.0 <= delta < 1.0:
        raise ValueError("the separation gap must satisfy 0 <= delta < 1")
    rng = np.random.default_rng(seed)
    v = _haar_from_rng(2**n, rng)
    spec = labelling_map(n)
    quota = {1: (m + 1) // 2, -1: m // 2}
    points = np.empty((m, n))
    labels = np.empty(m, dtype=int)
    filled = 0
    drawn = 0
    cap = RESAMPLE_CAP_PER_SAMPLE * m
    while filled < m and drawn < cap:
        count = min(max(64, 4 * (m - filled)), cap - drawn)
        drawn += count
        # 2*pi*(1 - u) with u in [0, 1) lands in (0, 2*pi].
        x = 2.0 * np.pi * (1.0 - rng.random((count, n)))
        e = expectation_zz(feature_states(x, spec), v)
        label = np.where(e > 0, 1, -1)
        keep = np.abs(e) > delta
        for lab in (1, -1):
            # The first quota[lab] gap-clearing candidates of each class win.
            mine = keep & (label == lab)
            keep &= ~mine | (np.cumsum(mine) <= quota[lab])
            quota[lab] -= min(quota[lab], int(mine.sum()))
        taken = np.flatnonzero(keep)
        points[filled : filled + taken.size] = x[taken]
        labels[filled : filled + taken.size] = label[taken]
        filled += taken.size
    if filled < m:
        raise RuntimeError(
            f"gap infeasible: {filled}/{m} samples after {cap} attempts at delta={delta}"
        )
    return Dataset(points, labels, name=f"adhoc-n{n}-d{delta}-s{seed}")


def load_csv(
    path,
    feature_columns,
    label_column: str,
    positive_label: str,
    negative_label: str | None = None,
) -> Dataset:
    """Load a two-feature dataset from a headered CSV file.

    ``positive_label`` is the raw label value mapped to +1.  When
    ``negative_label`` is omitted it is inferred as the single other raw
    value present in the file; more than two distinct raw values is an
    error either way.  Both labels must occur in the label column, so the
    result always holds both classes.  Unparsable or non-finite (nan,
    +-inf) feature cells are reported with their physical line number.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    feature_columns = list(feature_columns)
    if len(feature_columns) != 2:
        raise ValueError("exactly two feature columns are required")
    # utf-8-sig: a byte-order mark, as spreadsheet exports write, is not
    # part of the first column's name.
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in feature_columns + [label_column]:
            if col not in header:
                raise ValueError(f"column {col!r} not found in {path}")
        rows = []
        raw_labels = []
        for row in reader:
            # The inner reader's count: DictReader takes its own before it
            # skips blank lines.
            line = reader.reader.line_num
            values = []
            for col in feature_columns:
                try:
                    values.append(float(row[col]))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}, line {line}: cannot parse {col!r} value {row[col]!r}"
                    ) from None
                if not math.isfinite(values[-1]):
                    raise ValueError(
                        f"{path}, line {line}: {col!r} value {row[col]!r} is not finite"
                    )
            rows.append(values)
            raw_labels.append(row[label_column])
    if not rows:
        raise ValueError(f"{path} contains no data rows")
    raw_set = set(raw_labels)
    if negative_label is None:
        others = raw_set - {positive_label}
        if len(others) != 1:
            raise ValueError(
                f"expected two raw label values in column {label_column!r}, "
                f"found {sorted(raw_set)}"
            )
        negative_label = others.pop()
    elif negative_label == positive_label:
        raise ValueError(f"positive and negative label are both {positive_label!r}")
    for role, value in (("positive", positive_label), ("negative", negative_label)):
        if value not in raw_set:
            raise ValueError(f"{role} label {value!r} never occurs in column {label_column!r}; "
                             f"found {sorted(raw_set)}")
    expected = {positive_label, negative_label}
    stray = raw_set - expected
    if stray:
        raise ValueError(f"unexpected label value(s) {sorted(stray)}; expected {sorted(expected)}")
    labels = np.array([1 if raw == positive_label else -1 for raw in raw_labels])
    return Dataset(np.array(rows), labels, name=path.stem)


def rescale(ds: Dataset) -> Dataset:
    """Min-max map every feature column onto [0, 2*pi]."""
    if ds.m < 2:
        raise ValueError("rescaling needs at least two rows")
    lo = ds.points.min(axis=0)
    hi = ds.points.max(axis=0)
    flat = np.flatnonzero(hi == lo)
    if flat.size:
        raise ValueError(f"constant feature column(s) {flat.tolist()} cannot be rescaled")
    scaled = (ds.points - lo) / (hi - lo) * (2.0 * np.pi)
    return Dataset(scaled, ds.labels.copy(), name=ds.name)


def column_ranges(ds: Dataset) -> list[tuple[float, float]]:
    """Per-column (min, max); the constants a rescale would use."""
    return [(float(lo), float(hi)) for lo, hi in zip(ds.points.min(axis=0), ds.points.max(axis=0))]


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint uniform-random train/test subsets, deterministic per seed."""
    total = spec.n_train + spec.n_test
    if total > ds.m:
        raise ValueError(f"cannot draw {total} rows from a {ds.m}-row dataset")
    perm = np.random.default_rng(spec.seed).permutation(ds.m)
    tr = perm[: spec.n_train]
    te = perm[spec.n_train : total]
    train = Dataset(ds.points[tr], ds.labels[tr], name=f"{ds.name}-train")
    test = Dataset(ds.points[te], ds.labels[te], name=f"{ds.name}-test")
    return train, test


def split_rest(ds: Dataset, spec: SplitSpec) -> Dataset:
    """The rows a :func:`split` with the same spec leaves unused."""
    perm = np.random.default_rng(spec.seed).permutation(ds.m)
    rest = perm[spec.n_train + spec.n_test :]
    return Dataset(ds.points[rest], ds.labels[rest], name=f"{ds.name}-rest")


def write_csv_columns(fh, n_rows: int, columns, group: int = 1) -> None:
    """Write ``n_rows`` CSV rows to ``fh``, built one column at a time.

    ``columns(rows)`` returns the cells of the rows in the slice ``rows`` as
    one list of already-formatted strings per column.  The columns are
    interleaved with their ``,`` and newline separators by slice assignment
    into one list of pieces, which is joined and written once per block.  A
    block holds as many whole groups of ``group`` rows as fit in
    ``_CSV_BLOCK_ROWS``, and at least one group.
    """
    step = max(1, _CSV_BLOCK_ROWS // group) * group
    for start in range(0, n_rows, step):
        cells = columns(slice(start, min(start + step, n_rows)))
        width = len(cells)
        pieces = ([None, ","] * (width - 1) + [None, "\n"]) * len(cells[0])
        for k, column in enumerate(cells):
            pieces[2 * k :: 2 * width] = column
        fh.write("".join(pieces))


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write the canonical ``f1,f2,label`` CSV (UTF-8, LF newlines)."""
    if ds.d != 2:
        raise ValueError("the canonical CSV format holds exactly two features")
    path = Path(path)

    def columns(rows):
        # repr of a Python float is the shortest exact round trip.
        x1, x2 = ds.points[rows].T.tolist()
        labels = ds.labels[rows].tolist()
        return [list(map(repr, x1)), list(map(repr, x2)), list(map(str, labels))]

    with path.open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(CANONICAL_HEADER) + "\n")
        write_csv_columns(fh, ds.m, columns)


def _shown_row(row: list[str]) -> dict:
    """``row`` as ``csv.DictReader`` shows it under the canonical header:
    missing cells read None, and extra cells sit under the key None."""
    width = len(CANONICAL_HEADER)
    shown = dict(zip(CANONICAL_HEADER, row + [None] * (width - len(row))))
    if len(row) > width:
        shown[None] = row[width:]
    return shown


def read_dataset_csv(path) -> Dataset:
    """Read a canonical ``f1,f2,label`` CSV.  Blank lines are skipped and
    cells after the third are ignored.  A row that does not parse, or whose
    features are not finite (nan, +-inf), is reported with its physical
    line."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CANONICAL_HEADER):
            raise ValueError(f"{path}: expected header 'f1,f2,label', got {header}")
        points = []
        labels = []
        for row in reader:
            if not row:
                continue
            try:
                x1, x2, label = float(row[0]), float(row[1]), int(row[2])
            except (IndexError, ValueError):
                raise ValueError(f"{path}, line {reader.line_num}: "
                                 f"unparsable row {_shown_row(row)!r}") from None
            if not (math.isfinite(x1) and math.isfinite(x2)):
                raise ValueError(f"{path}, line {reader.line_num}: "
                                 f"non-finite feature in row {_shown_row(row)!r}")
            if label not in (-1, 1):
                raise ValueError(f"{path}, line {reader.line_num}: "
                                 f"label must be -1 or 1, got {label}")
            points.append([x1, x2])
            labels.append(label)
    if not points:
        raise ValueError(f"{path} contains no data rows")
    return Dataset(np.array(points), np.array(labels), name=path.stem)
