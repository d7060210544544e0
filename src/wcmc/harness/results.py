"""Result files: the row schema ``COLUMNS`` (new columns go at its end), the
result CSV a run appends to, the run manifest beside it, and the report, which
reads any file with the group columns and err2, so that a file written before
a column was appended stays readable."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess

import numpy as np
import scipy

from .. import __version__
from .config import ConfigError, ExperimentConfig, read_json

COLUMNS = (
    "scheme",
    "snr_db",
    "t",
    "k",
    "zeta",
    "trial",
    "err2",
    "kl",
    "computed_gradients",
    "wall_ms",
    "seed",
    "ref_err",
)
GROUP_COLUMNS = COLUMNS[:5]  # a scheme at a sweep point
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def check_target(out_path: str) -> None:
    """A ``ConfigError`` unless a run can append to the result CSV ``out_path`` and
    its manifest: the CSV's directory exists, and the CSV is absent or has a header
    of exactly ``COLUMNS`` (an empty file has none).  Creates nothing."""
    if not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ConfigError(f"cannot write results {out_path}: no such directory")
    if os.path.exists(out_path):
        try:
            with open(out_path, newline="", encoding="utf-8") as fh:
                header = next(csv.reader(fh), [])
        except (OSError, ValueError, csv.Error) as exc:  # a directory, or not UTF-8
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read results {out_path}: {reason}") from None
        if tuple(header) != COLUMNS:
            raise ConfigError(f"cannot append to {out_path}: its header is not {','.join(COLUMNS)}")
    read_manifest(out_path)


def write_rows(path: str, rows: list[dict]) -> None:
    """Append result rows to a CSV file, creating it with a header if absent."""
    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        if new_file:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)


def manifest_path(out_path: str) -> str:
    base, _ = os.path.splitext(out_path)
    return base + ".manifest.json"


def _git_revision() -> str | None:
    """HEAD of the checkout holding this package; None without git or a checkout."""
    cmd = ["git", "-C", os.path.dirname(os.path.abspath(__file__)), "rev-parse", "HEAD"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def read_manifest(out_path: str) -> list:
    """The run records next to the result CSV ([] without a manifest); a manifest that
    is not a JSON list is a ``ConfigError``."""
    path = manifest_path(out_path)
    runs = read_json(path, "manifest") if os.path.exists(path) else []
    if not isinstance(runs, list):
        raise ConfigError(f"manifest {path} is not a JSON list of runs (got {type(runs).__name__})")
    return runs


def write_manifest(out_path: str, config: ExperimentConfig, extra: dict | None = None) -> None:
    """Append one run's record (library, numpy, scipy and BLAS versions, the BLAS
    thread variables, git revision, master seed, resolved config and ``extra``) to
    the JSON list next to the result CSV: one record per run, in the runs' row order."""
    path = manifest_path(out_path)
    runs = read_manifest(out_path)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        "git_revision": _git_revision(),
        "master_seed": config.seed,
        "config": dataclasses.asdict(config),
        **(extra or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs + [record], fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_rows(path: str) -> list[dict]:
    """The rows of result CSV ``path``.  A file without the group and err2
    columns, or a cell of them or of kl that is not a number, is a
    ``ValueError`` naming the missing columns or the cell's line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in (*GROUP_COLUMNS, "err2") if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"not a result file, no columns {missing}")
        rows = []
        for row in reader:
            for column in (*GROUP_COLUMNS[1:], "err2", "kl"):
                cell = row.get(column)
                if column == "kl" and not cell:  # kl is empty without test rows
                    continue
                try:
                    float(cell)
                except (TypeError, ValueError):
                    raise ValueError(f"line {reader.line_num}: {column} {cell!r} is not a number") from None
            rows.append(row)
    return rows


def summarize(rows: list[dict]) -> list[dict]:
    """Group rows by scheme and sweep point; report mean and the 5th/95th
    percentiles of err2 (and of kl when present)."""
    groups: dict[tuple, dict[str, list[float]]] = {}
    for row in rows:
        key = tuple(row[c] for c in GROUP_COLUMNS)
        bucket = groups.setdefault(key, {"err2": [], "kl": []})
        bucket["err2"].append(float(row["err2"]))
        if row.get("kl") not in ("", None):
            bucket["kl"].append(float(row["kl"]))

    out = []
    # CSV cells are strings: sweep points sort by value, not by text
    for key in sorted(groups, key=lambda key: (key[0], *map(float, key[1:]))):
        entry = dict(zip(GROUP_COLUMNS, key), n=len(groups[key]["err2"]))
        for metric, values in groups[key].items():
            if values:  # kl is empty without test rows
                entry[f"{metric}_mean"] = float(np.mean(values))
                entry[f"{metric}_p5"] = float(np.percentile(values, 5))
                entry[f"{metric}_p95"] = float(np.percentile(values, 95))
        out.append(entry)
    return out


def format_summary(summary: list[dict]) -> str:
    if not summary:
        return "no rows"
    has_kl = any("kl_mean" in entry for entry in summary)
    headers = [*GROUP_COLUMNS, "n", "err2_mean", "err2_p5", "err2_p95"]
    if has_kl:
        headers += ["kl_mean", "kl_p5", "kl_p95"]
    lines = []
    table = []
    for entry in summary:
        row = []
        for h in headers:
            value = entry.get(h, "")
            if isinstance(value, float):
                row.append(f"{value:.6g}")
            else:
                row.append(str(value))
        table.append(row)
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
