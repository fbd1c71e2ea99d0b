"""Dataset ingestion and the versioned, line-oriented model file format.

Model files are human-readable ``key = value`` text.  Numbers are written in
shortest round-trip decimal form, so loading reproduces predictions
bit-identically.  The first line is the version tag; unknown tags are
refused, never reinterpreted.
The response scale key is always ``none``; a number s there, from an
earlier version, is loaded as s times the stored beta.
"""
from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import DataError, ModelFormatError
from .gam import GamModel
from .penalty import PenaltySpec
from .splines import SplineBasis

FORMAT_TAG = "penpls-model-v1"


@dataclass(frozen=True)
class Dataset:
    """A parsed delimited file: predictor matrix, response, and names."""

    predictor_names: tuple[str, ...]
    response_name: str
    X: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.X.shape[1]


def _read_table(path):
    """Parse a comma-delimited file into (header, float table).

    The first nonblank row is the header; every other nonblank row is data.
    When every data row has the header's length, the whole body is
    converted by one ``np.array(..., dtype=float)``, whose string parsing
    accepts and rejects the same cells as ``float()`` and gives the same
    bits.  If that conversion fails or yields a NaN or an infinity, the
    cells are parsed again one by one, in row-major order, so the
    ``DataError`` names the first bad row or cell.  A file with a header and
    no data rows gives a ``(0, len(header))`` table.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [r for r in rows if r]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    if len(set(header)) != len(header):
        dupes = sorted({n for n in header if header.count(n) > 1})
        raise DataError(f"{path}: duplicate column names {dupes}")
    body = rows[1:]
    if all(len(row) == len(header) for row in body):
        try:
            table = np.array(body, dtype=float).reshape(len(body), len(header))
        except ValueError:
            pass
        else:
            if np.isfinite(table).all():
                return header, table
    parsed = []
    for ridx, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {ridx} has {len(row)} cells, expected "
                f"{len(header)}")
        values = []
        for name, cell in zip(header, row):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {ridx}, column {name!r}: cannot parse "
                    f"{cell.strip()!r}") from None
            if not np.isfinite(v):
                raise DataError(
                    f"{path}: row {ridx}, column {name!r}: non-finite value")
            values.append(v)
        parsed.append(values)
    return header, np.array(parsed, dtype=float)


def ingest(path, response_column: str) -> Dataset:
    """Read a comma-delimited file and split off the response column."""
    header, table = _read_table(path)
    if response_column not in header:
        raise DataError(
            f"{path}: no column named {response_column!r} "
            f"(columns: {', '.join(header)})")
    if table.shape[0] < 3:
        raise DataError(f"{path}: need at least 3 data rows, "
                        f"got {table.shape[0]}")
    yi = header.index(response_column)
    predictors = tuple(n for n in header if n != response_column)
    keep = [i for i in range(len(header)) if i != yi]
    return Dataset(predictor_names=predictors, response_name=response_column,
                   X=table[:, keep], y=table[:, yi])


def ingest_for_model(path, predictor_names, response_name):
    """Read new data for prediction against a fitted model.

    The file must contain exactly the model's predictor columns, optionally
    plus the response column; anything else is an error naming the columns.
    Returns (X aligned to the model's column order, y or None).
    """
    header, table = _read_table(path)
    allowed = set(predictor_names) | {response_name}
    extra = [n for n in header if n not in allowed]
    if extra:
        raise DataError(f"{path}: unexpected columns {extra}")
    missing = [n for n in predictor_names if n not in header]
    if missing:
        raise DataError(f"{path}: missing predictor columns {missing}")
    if not len(table):
        raise DataError(f"{path}: no data rows")
    X = table[:, [header.index(n) for n in predictor_names]]
    y = table[:, header.index(response_name)] if response_name in header else None
    return X, y


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt_array(a) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(a, dtype=float).ravel())


def _storable(name: str) -> bool:
    # load_model splits lines and strips values and their ends
    return "".join(name.splitlines()) == name and name.strip() == name


def save_model(path, model: GamModel, predictor_names, response_name,
               dataset_checksum: str = ""):
    """Write the model in the versioned key/value format.

    Raises ModelFormatError, before writing anything, for names the file
    cannot hold: a line break or leading or trailing whitespace in any
    name, or a comma in a predictor name.
    """
    if len(predictor_names) != model.n_variables:
        raise ModelFormatError("predictor name count does not match model")
    bad = [n for n in predictor_names if "," in n or not _storable(n)]
    if not _storable(response_name):
        bad.append(response_name)
    if bad:
        raise ModelFormatError(
            f"names {bad} cannot be stored in a model file (no name may "
            f"contain a line break or begin or end with whitespace, no "
            f"predictor name may contain a ',')")
    lines = [FORMAT_TAG]
    lines.append(f"created = {datetime.now(timezone.utc).isoformat()}")
    lines.append(f"dataset_sha256 = {dataset_checksum}")
    lines.append(f"response = {response_name}")
    lines.append(f"predictors = {','.join(predictor_names)}")
    lines.append(f"degree = {model.bases[0].degree}")
    lines.append(f"n_basis = {model.penalty.n_basis}")
    lines.append(f"diff_order = {model.penalty.order}")
    lines.append(f"lambdas = {_fmt_array(model.penalty.lambdas)}")
    lines.append(f"requested_components = {model.requested_components}")
    lines.append(f"n_components = {model.n_components}")
    lines.append(f"intercept = {float(model.intercept)!r}")
    lines.append("response_scale = none")
    for j, basis in enumerate(model.bases):
        lines.append(f"knots.{j} = {_fmt_array(basis.knots)}")
    lines.append(f"z_means = {_fmt_array(model.z_means)}")
    lines.append(f"beta = {_fmt_array(model.beta)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_kv(lines):
    out = {}
    for line in lines:
        if not line.strip():
            continue
        if " = " not in line and not line.rstrip().endswith(" ="):
            raise ModelFormatError(f"malformed model line: {line.strip()!r}")
        key, _, value = line.partition(" =")
        out[key.strip()] = value.strip()
    return out


def _check_arrays(path, model: GamModel):
    p, K = model.n_variables, model.penalty.n_basis
    expected = [("lambdas", model.penalty.lambdas, p),
                ("intercept", [model.intercept], 1),
                ("z_means", model.z_means, p * K),
                ("beta", model.beta, p * K)]
    expected += [(f"knots.{j}", basis.knots, K + basis.degree + 1)
                 for j, basis in enumerate(model.bases)]
    for key, values, n in expected:
        if len(values) != n:
            raise ModelFormatError(
                f"{path}: {key} has {len(values)} values, expected {n}")
        if not np.isfinite(values).all():
            raise ModelFormatError(f"{path}: {key} has non-finite values")


def load_model(path):
    """Load a model file; returns (GamModel, predictor_names, response_name).

    Raises ModelFormatError for unknown version tags, missing keys, numbers
    that are NaN or infinite, and arrays whose lengths do not fit p
    predictors with n_basis functions each.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != FORMAT_TAG:
        tag = lines[0].strip() if lines else "<empty>"
        raise ModelFormatError(
            f"{path}: unknown model format tag {tag!r} "
            f"(expected {FORMAT_TAG!r})")
    kv = _parse_kv(lines[1:])
    try:
        predictors = tuple(kv["predictors"].split(","))
        degree = int(kv["degree"])
        penalty = PenaltySpec(
            np.array([float(v) for v in kv["lambdas"].split(",")]),
            int(kv["diff_order"]), int(kv["n_basis"]))
        bases = tuple(
            SplineBasis(degree,
                        np.array([float(v) for v in kv[f"knots.{j}"].split(",")]))
            for j in range(len(predictors)))
        beta = np.array([float(v) for v in kv["beta"].split(",")])
        scale = kv["response_scale"]
        if scale != "none":  # written by an earlier version: beta on y / s
            beta *= float(scale)
        model = GamModel(
            bases=bases,
            penalty=penalty,
            beta=beta,
            intercept=float(kv["intercept"]),
            z_means=np.array([float(v) for v in kv["z_means"].split(",")]),
            n_components=int(kv["n_components"]),
            requested_components=int(kv["requested_components"]),
        )
        response = kv["response"]
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    _check_arrays(path, model)
    return model, predictors, response
