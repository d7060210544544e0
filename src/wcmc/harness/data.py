"""Data generation, partitioning, and CSV ingestion for the experiment harness."""

from __future__ import annotations

import csv

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import ndtr

from ..aggregators import gaussian_product
from ..posteriors import GaussianSubposterior, LabeledDataset

# Ground-truth probit coefficients used by the synthetic scenario.
DEFAULT_THETA_STAR = (0.1103, -0.5832, 0.6417, 1.8279, 0.4968)

# Covariance families of the Gaussian toy's workers.
GAUSSIAN_FAMILIES = ("heterogeneous", "homogeneous")


def toeplitz_covariance(rho: float, dim: int) -> np.ndarray:
    """Symmetric Toeplitz covariance with entries rho^{|i-j|}."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return toeplitz(float(rho) ** np.arange(dim))


def gen_gaussian_scenario(
    n_workers: int, dim: int = 5, mode: str = "heterogeneous"
) -> list[GaussianSubposterior]:
    """Toeplitz covariance family for the Gaussian toy scenario.

    Heterogeneous mode gives worker k the correlation rho_k = (k - 1) / K;
    homogeneous mode assigns every worker the common covariance
    C_0 = K (sum_k C_k^{-1})^{-1}, so the implied product posterior C_0 / K
    is identical in the two modes.
    """
    if mode not in GAUSSIAN_FAMILIES:
        raise ValueError(f"unknown subposterior mode {mode!r}")
    covs = [toeplitz_covariance((k - 1) / n_workers, dim) for k in range(1, n_workers + 1)]
    if mode == "homogeneous":
        common = n_workers * gaussian_product(covs)[1]
        return [GaussianSubposterior(common) for _ in range(n_workers)]
    return [GaussianSubposterior(c) for c in covs]


def gen_probit_data(
    n: int,
    dim: int,
    theta_star,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Synthetic probit data: standard normal covariates, labels 1 w.p. Phi(theta*^T u)."""
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (dim,):
        raise ValueError(f"theta_star must have length {dim}, got {theta_star.shape}")
    u = rng.standard_normal((n, dim))
    labels = (rng.uniform(size=n) < ndtr(u @ theta_star)).astype(int)
    return LabeledDataset(u, labels)


def _largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` that round the target fractions."""
    target = fractions * total
    counts = np.floor(target).astype(int)
    short = total - counts.sum()
    order = np.argsort(-(target - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def partition(
    dataset: LabeledDataset,
    n_workers: int,
    rng: np.random.Generator,
    rule: str = "equal",
    zeta: float = 0.0,
) -> list[np.ndarray]:
    """Split a data set into K disjoint shards, returned as index arrays.

    The equal rule shuffles and splits into near-equal parts.  The
    heterogeneous rule gives worker k the fraction (1/k^zeta) / sum_j 1/j^zeta
    of class-1 points and (1/(K-k+1)^zeta) / sum_j 1/j^zeta of class-0
    points, using largest-remainder rounding; zeta = 0 recovers the equal
    split in distribution.
    """
    n = dataset.size
    if n < n_workers:
        raise ValueError(f"cannot split {n} points across {n_workers} workers")
    if rule == "equal":
        return [np.sort(part) for part in np.array_split(rng.permutation(n), n_workers)]
    if rule != "heterogeneous":
        raise ValueError(f"unknown partition rule {rule!r}")

    ks = np.arange(1, n_workers + 1, dtype=float)
    denom = np.sum(1.0 / ks**zeta)
    frac1 = (1.0 / ks**zeta) / denom
    frac0 = (1.0 / (n_workers - ks + 1.0) ** zeta) / denom

    shards: list[list[np.ndarray]] = [[] for _ in range(n_workers)]
    for cls, fracs in ((1, frac1), (0, frac0)):
        members = np.flatnonzero(dataset.labels == cls)
        members = members[rng.permutation(members.size)]
        counts = _largest_remainder(fracs, members.size)
        start = 0
        for k, c in enumerate(counts):
            shards[k].append(members[start : start + c])
            start += c
    out = [np.sort(np.concatenate(parts)) for parts in shards]
    empties = [k + 1 for k, idx in enumerate(out) if idx.size == 0]
    if empties:
        raise ValueError(
            f"workers {empties} received no data; lower zeta or the worker count"
        )
    return out


def pca_project(x: np.ndarray, dim: int) -> np.ndarray:
    """Project centered data onto the top ``dim`` principal directions of its
    covariance eigendecomposition."""
    x = np.asarray(x, dtype=float)
    if not 1 <= dim <= x.shape[1]:
        raise ValueError(f"PCA dimension must lie in [1, {x.shape[1]}], got {dim}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / max(x.shape[0] - 1, 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:dim]
    return centered @ v[:, order]


def ingest_csv(
    path: str,
    label_column: str,
    pca_dim: int | None = None,
) -> LabeledDataset:
    """Load a numeric CSV with a binary label column.

    Covariates are standardized per column (zero-variance columns are only
    centered); an optional PCA projection reduces them to ``pca_dim``, the
    config's ``csv.pca_dim``, which may not exceed the covariate count.
    Malformed rows and non-finite cells raise with their file line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r} in {header}")
        label_idx = header.index(label_column)
        rows = []
        labels = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path} line {line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
            bad = [name for name, x in zip(header, values) if not np.isfinite(x)]
            if bad:
                raise ValueError(f"{path} line {line_no}: non-finite value in columns {bad}")
            label = values.pop(label_idx)
            if label not in (0.0, 1.0):
                raise ValueError(f"{path} line {line_no}: label must be 0 or 1, got {label}")
            rows.append(values)
            labels.append(int(label))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=float)
    std = x.std(axis=0, ddof=0)
    x = (x - x.mean(axis=0)) / np.where(std > 0, std, 1.0)
    if pca_dim is not None and pca_dim > x.shape[1]:
        raise ValueError(f"csv.pca_dim={pca_dim} exceeds the {x.shape[1]} covariate columns of {path}")
    if pca_dim is not None and pca_dim != x.shape[1]:
        x = pca_project(x, pca_dim)
    return LabeledDataset(x, np.asarray(labels))


def export_csv(dataset: LabeledDataset, path: str, label_column: str = "label") -> None:
    """Write a dataset in the format ``ingest_csv`` reads back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + [label_column])
        for row, label in zip(dataset.covariates, dataset.labels):
            writer.writerow([f"{value:.17g}" for value in row] + [int(label)])
