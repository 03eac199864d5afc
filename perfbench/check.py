"""Output check for one job's artifacts.

Two checks apply.  The invariants hold for any seed and run on every job:
exit code 0, every artifact named in the manifest present, finite numbers,
realized gain at most the aperture directivity bound, spillover in (0, 1]
and CSV row counts equal to those implied by the generated inputs.

The reference check runs on the default seed: every artifact's
fingerprint must match the one stored in ``reference.json`` within
``REL_TOL``.  A JSON artifact's fingerprint is every leaf value; a CSV
column's is its row count and a few sums, extremes and an index-weighted
sum (text columns are hashed), so the stored reference stays small while
a change to any value beyond about ``REL_TOL * n_rows`` of its size shows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from jobs import SWEEP_POINTS_PER_ROUND
from risant.pattern import directivity_upper_bound

REL_TOL = 1e-9
ABS_TOL = 1e-12
PERIOD_MM = 5.0
FREQUENCY_GHZ = 26.0

# realized-gain fields bounded by the aperture directivity limit
_GAIN_JSON_KEYS = {"peak_gain_dbi", "refined_realized_gain_dbi"}
_GAIN_CSV_COLUMNS = {"gain_dbi", "realized_gain_dbi"}


class CheckError(Exception):
    """An artifact broke an invariant or missed the stored reference."""


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column_values(cells):
    """Floats for a numeric column, None for a text column."""
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _fingerprint_column(cells) -> dict:
    values = _column_values(cells)
    if values is None:
        return {"n": len(cells),
                "sha256": hashlib.sha256("\n".join(cells).encode()).hexdigest()}
    return {"n": len(values), "sum": math.fsum(values),
            "abs": math.fsum(abs(v) for v in values),
            "sq": math.fsum(v * v for v in values),
            "idx": math.fsum((i + 1) * abs(v) for i, v in enumerate(values)),
            "min": min(values, default=0.0), "max": max(values, default=0.0)}


def fingerprint(path: str):
    """Reference fingerprint of one artifact file."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return dict(_leaves(json.load(fh)))
    header, rows = _read_csv(path)
    return {name: _fingerprint_column([r[i] for r in rows])
            for i, name in enumerate(header)}


def _close(value, ref, scale=None) -> bool:
    if _is_number(value) and _is_number(ref):
        scale = abs(ref) if scale is None else scale
        return abs(value - ref) <= REL_TOL * scale + ABS_TOL
    return value == ref


def compare(name: str, fp, ref) -> None:
    """Raise CheckError where ``fp`` differs from the reference ``ref``."""
    if set(fp) != set(ref):
        raise CheckError(f"{name}: fields {sorted(fp)} differ from reference {sorted(ref)}")
    for key, value in fp.items():
        expected = ref[key]
        if isinstance(expected, dict):       # CSV column
            for stat, v in value.items():
                scale = expected["abs"] if stat == "sum" else None
                if stat not in expected or not _close(v, expected[stat], scale):
                    raise CheckError(f"{name}: column {key} {stat} {v!r} != "
                                     f"reference {expected.get(stat)!r}")
        elif not _close(value, expected):
            raise CheckError(f"{name}: {key} {value!r} != reference {expected!r}")


def check_reference(job_id: str, names, out_dir: str, reference: dict) -> None:
    """Compare every artifact of one job with its stored fingerprints."""
    if set(names) != set(reference):
        raise CheckError(f"{job_id}: artifacts {sorted(names)} differ from reference "
                         f"{sorted(reference)}")
    for name in names:
        compare(f"{job_id}/{name}", fingerprint(os.path.join(out_dir, name)),
                reference[name])


def _check_json(name: str, data: dict, bound: float) -> None:
    for key, value in _leaves(data):
        if _is_number(value) and not math.isfinite(value):
            raise CheckError(f"{name}: {key} is not finite ({value})")
        leaf = key.rsplit(".", 1)[-1]
        if leaf in _GAIN_JSON_KEYS and value > bound:
            raise CheckError(f"{name}: {key} {value:.4f} dBi exceeds the aperture "
                             f"bound {bound:.4f} dBi")
        if leaf == "eta_spillover" and not 0.0 < value <= 1.0:
            raise CheckError(f"{name}: {key} {value} outside (0, 1]")


def _check_csv(name: str, header, rows, bound: float, expected_rows) -> None:
    if expected_rows is not None and len(rows) != expected_rows:
        raise CheckError(f"{name}: {len(rows)} rows, inputs imply {expected_rows}")
    for i, column in enumerate(header):
        values = _column_values([r[i] for r in rows])
        if values is None:
            continue
        if not all(math.isfinite(v) for v in values):
            raise CheckError(f"{name}: column {column} has a non-finite value")
        if column in _GAIN_CSV_COLUMNS and values and max(values) > bound:
            raise CheckError(f"{name}: column {column} peaks at {max(values):.4f} dBi, "
                             f"above the aperture bound {bound:.4f} dBi")
        if column == "eta_spillover" and not all(0.0 < v <= 1.0 for v in values):
            raise CheckError(f"{name}: column {column} leaves (0, 1]")


def check_job(job: dict, rc: int, out_dir: str) -> list[str]:
    """Check one finished job; return its artifact file names.

    Raises CheckError on the first broken invariant.
    """
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    manifest_path = os.path.join(out_dir, job["cmd"].replace("-", "_") + "_manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        names = json.load(fh)["outputs"]
    n_x, n_y = job["n_xy"]
    bound = directivity_upper_bound(n_x * n_y * (PERIOD_MM * 1e-3) ** 2, FREQUENCY_GHZ)
    expected = dict(job["rows"])
    documents = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                documents[name] = json.load(fh)
            _check_json(name, documents[name], bound)
    if "element_opt.json" in documents:
        rounds = documents["element_opt.json"]["rounds_used"]
        expected["element_trace.csv"] = rounds * SWEEP_POINTS_PER_ROUND
    for name in names:
        if name.endswith(".csv"):
            header, rows = _read_csv(os.path.join(out_dir, name))
            _check_csv(name, header, rows, bound, expected.pop(name, None))
    missing = [name for name, n in expected.items() if n]
    if missing:
        raise CheckError(f"expected artifacts not written: {missing}")
    return names
