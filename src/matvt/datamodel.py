"""Core data containers, structure constraints and the matrix-stack format.

The on-disk matrix-stack format is a UTF-8 CSV-like text file: the first
line is exactly ``#matstack p=<p> q=<q> labeled=<0|1>`` and every following
non-empty line holds ``p*q`` comma-separated decimal values in row-major
order, followed by one integer class label when ``labeled=1``.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DataFormatError


class MeanStructure(str, Enum):
    """Constraint on the mean matrix M."""

    FREE = "free"
    CONSTANT = "const"          # M = mu * ones(p, q)
    COLUMN_CONSTANT = "col-const"  # M = ones(p, 1) @ mu(1, q): columns constant
    ROW_CONSTANT = "row-const"     # M = mu(p, 1) @ ones(1, q): rows constant


class ScatterStructure(str, Enum):
    """Constraint on a scatter matrix (row or column)."""

    FREE = "free"
    AR1 = "ar1"
    CS = "cs"


@dataclass(frozen=True)
class StructureSpec:
    mean: MeanStructure = MeanStructure.FREE
    row_scatter: ScatterStructure = ScatterStructure.FREE
    col_scatter: ScatterStructure = ScatterStructure.FREE

    def is_unconstrained(self):
        return (
            self.mean == MeanStructure.FREE
            and self.row_scatter == ScatterStructure.FREE
            and self.col_scatter == ScatterStructure.FREE
        )

    def mean_param_count(self, p, q):
        return {
            MeanStructure.FREE: p * q,
            MeanStructure.CONSTANT: 1,
            MeanStructure.COLUMN_CONSTANT: q,
            MeanStructure.ROW_CONSTANT: p,
        }[self.mean]

    def scatter_param_count(self, p, q):
        """Free parameters in (Sigma, Omega) after the Sigma[0,0]=1 constraint."""

        def one(kind, d):
            return d * (d + 1) // 2 if kind == ScatterStructure.FREE else 2

        return one(self.row_scatter, p) + one(self.col_scatter, q) - 1


class MatrixStack:
    """An ordered collection of n real p-by-q matrices with optional labels."""

    def __init__(self, data, labels=None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3:
            raise ValueError(f"data must have shape (n, p, q), got {data.shape}")
        n, p, q = data.shape
        if n < 1 or p < 1 or q < 1:
            raise ValueError(f"all of n, p, q must be >= 1, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("data contains NaN or Inf")
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (n,):
                raise ValueError(f"labels must have length n={n}, got {labels.shape}")
            labels.setflags(write=False)
        data.setflags(write=False)
        self.data = data
        self.labels = labels

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def p(self):
        return self.data.shape[1]

    @property
    def q(self):
        return self.data.shape[2]

    def subset(self, index):
        labels = None if self.labels is None else self.labels[index]
        return MatrixStack(self.data[index], labels)

    def groups(self):
        """Iterate (label, sub-stack) pairs in ascending label order."""
        if self.labels is None:
            raise ValueError("stack has no labels")
        for g in np.unique(self.labels):
            yield int(g), self.subset(self.labels == g)

    def __len__(self):
        return self.n

    def __repr__(self):
        lab = "labeled" if self.labels is not None else "unlabeled"
        return f"MatrixStack(n={self.n}, p={self.p}, q={self.q}, {lab})"


def _check_spd_shapes(M, Sigma, Omega):
    M = np.asarray(M, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    p, q = M.shape
    if Sigma.shape != (p, p):
        raise ValueError(f"Sigma must be {p}x{p}, got {Sigma.shape}")
    if Omega.shape != (q, q):
        raise ValueError(f"Omega must be {q}x{q}, got {Omega.shape}")
    return M, Sigma, Omega


@dataclass(frozen=True)
class MxvnParams:
    """Mean and row/column scatter of a matrix-variate normal."""

    M: np.ndarray
    Sigma: np.ndarray
    Omega: np.ndarray

    def __post_init__(self):
        M, Sigma, Omega = _check_spd_shapes(self.M, self.Sigma, self.Omega)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Sigma", Sigma)
        object.__setattr__(self, "Omega", Omega)

    @property
    def p(self):
        return self.M.shape[0]

    @property
    def q(self):
        return self.M.shape[1]


@dataclass(frozen=True)
class MxvtParams:
    """Degrees of freedom, mean and scatter of a matrix-variate t."""

    nu: float
    M: np.ndarray
    Sigma: np.ndarray
    Omega: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu >= 1):
            raise ValueError(f"nu must be a finite real >= 1, got {self.nu!r}")
        M, Sigma, Omega = _check_spd_shapes(self.M, self.Sigma, self.Omega)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Sigma", Sigma)
        object.__setattr__(self, "Omega", Omega)

    @property
    def p(self):
        return self.M.shape[0]

    @property
    def q(self):
        return self.M.shape[1]


def normalize_identifiability(params):
    """Rescale so Sigma[0,0] == 1, transferring the scale onto Omega.

    The density is invariant because only the product (Omega kron Sigma)
    enters it.  Idempotent.
    """
    s = params.Sigma[0, 0]
    if not s > 0:
        raise ValueError(f"Sigma[0,0] must be positive, got {s}")
    return replace(params, Sigma=params.Sigma / s, Omega=params.Omega * s)


@dataclass(frozen=True)
class Ar1Matrix:
    """scale * R where R[i,j] = rho**|i-j| (first-order autoregressive)."""

    dim: int
    rho: float
    scale: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not abs(self.rho) < 1:
            raise ValueError(f"AR(1) requires |rho| < 1, got {self.rho}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def full(self):
        idx = np.arange(self.dim)
        return self.scale * self.rho ** np.abs(idx[:, None] - idx[None, :])

    def logdet(self):
        # |scale * R| = scale^d * (1 - rho^2)^(d-1)
        return self.dim * np.log(self.scale) + (self.dim - 1) * np.log1p(-self.rho**2)

    def inverse(self):
        """Closed-form tridiagonal inverse of the AR(1) matrix."""
        d, r = self.dim, self.rho
        inv = np.zeros((d, d))
        if d == 1:
            inv[0, 0] = 1.0
        else:
            c = 1.0 / (1.0 - r**2)
            np.fill_diagonal(inv, (1.0 + r**2) * c)
            inv[0, 0] = inv[-1, -1] = c
            off = -r * c
            idx = np.arange(d - 1)
            inv[idx, idx + 1] = off
            inv[idx + 1, idx] = off
        return inv / self.scale


@dataclass(frozen=True)
class CsMatrix:
    """scale * R where R has unit diagonal and constant off-diagonal rho."""

    dim: int
    rho: float
    scale: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        lo = -1.0 / (self.dim - 1) if self.dim > 1 else -1.0
        if not (lo < self.rho < 1):
            raise ValueError(
                f"compound symmetry requires rho in ({lo}, 1), got {self.rho}"
            )
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def full(self):
        d = self.dim
        return self.scale * ((1.0 - self.rho) * np.eye(d) + self.rho * np.ones((d, d)))

    def logdet(self):
        # eigenvalues: 1 + (d-1) rho (once) and 1 - rho (d-1 times)
        d, r = self.dim, self.rho
        return d * np.log(self.scale) + np.log1p((d - 1) * r) + (d - 1) * np.log1p(-r)

    def inverse(self):
        """Sherman-Morrison inverse of the compound-symmetry matrix."""
        d, r = self.dim, self.rho
        a = 1.0 / (1.0 - r)
        b = -r / ((1.0 - r) * (1.0 + (d - 1) * r))
        return (a * np.eye(d) + b * np.ones((d, d))) / self.scale


# ---------------------------------------------------------------------------
# matrix-stack text format


def write_matstack(stack, path):
    """Write a MatrixStack in the matrix-stack text format.

    Values are written with 17 significant digits so that a read round-trips
    bit-for-bit.
    """
    labeled = stack.labels is not None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#matstack p={stack.p} q={stack.q} labeled={int(labeled)}\n")
        for i in range(stack.n):
            cells = [format(v, ".17g") for v in stack.data[i].ravel(order="C")]
            if labeled:
                cells.append(str(int(stack.labels[i])))
            fh.write(",".join(cells) + "\n")


def read_matstack(path):
    """Read a MatrixStack written by :func:`write_matstack`.

    Accepts scientific notation; rejects NaN/Inf, ragged rows and
    non-numeric cells with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split()
        if (
            len(parts) != 4
            or parts[0] != "#matstack"
            or not parts[1].startswith("p=")
            or not parts[2].startswith("q=")
            or not parts[3].startswith("labeled=")
        ):
            raise DataFormatError(f"bad matstack header: {header!r}", line=1)
        try:
            p = int(parts[1][2:])
            q = int(parts[2][2:])
            labeled = int(parts[3][8:])
        except ValueError:
            raise DataFormatError(f"bad matstack header: {header!r}", line=1) from None
        if p < 1 or q < 1 or labeled not in (0, 1):
            raise DataFormatError(f"bad matstack header: {header!r}", line=1)

        want = p * q + labeled
        rows, labels = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != want:
                raise DataFormatError(
                    f"expected {want} fields, found {len(cells)}", line=lineno
                )
            try:
                values = [float(c) for c in cells[: p * q]]
            except ValueError as exc:
                raise DataFormatError(f"non-numeric cell: {exc}", line=lineno) from None
            if not all(np.isfinite(values)):
                raise DataFormatError("NaN or Inf value", line=lineno)
            if labeled:
                try:
                    labels.append(int(cells[-1]))
                except ValueError:
                    raise DataFormatError(
                        f"non-integer label {cells[-1]!r}", line=lineno
                    ) from None
            rows.append(np.array(values).reshape(p, q))
        if not rows:
            raise DataFormatError("no observations in file")
    return MatrixStack(np.stack(rows), labels=labels if labeled else None)
