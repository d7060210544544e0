"""Summaries of result CSVs: per (scheme, sweep point) mean and 5/95 percentiles."""

from __future__ import annotations

import csv

import numpy as np

GROUP_COLUMNS = ("scheme", "snr_db", "t", "k", "zeta")


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
