"""Least-squares estimators of conditional expectations E[V | X].

The backward schemes replace conditional expectations with
cross-sectional regressions: fit basis functions of the current states
to next-step values, then read the fitted value at each state.  Two
bases are offered - polynomials up to a total degree (graded
lexicographic order, constant first) and piecewise-constant indicators
on a per-dimension binning of the empirical bounding box.

States are standardized (per-dimension shift/scale) before the
polynomial design matrix is built, which keeps it well conditioned far
from the origin; coefficients live in standardized coordinates.

:func:`design` builds the basis matrix of one set of states and factors
it once.  It forms the Gram matrix ``phi'phi`` and its eigenvalues; a
design whose condition ``sqrt(lambda_max / lambda_min)`` is at most 1e3
is solved by the normal equations, which then lose at most about
``cond^2 * eps``, 2e-10 relative.  Every other design, the
rank-deficient ones included, takes a thin QR whose triangle's singular
values give the rank and condition.  :func:`fit` accepts either states
or such a :class:`Design`, so several target blocks on the same states
share one factorization while each is still solved on its own, and
:func:`predict` at the design's states reuses its basis matrix.

The ridge penalty never touches the constant term, so the fitted
surface reproduces the sample mean of the targets exactly for every
penalty strength, not just at lambda = 0.  Backward schemes lean on
this: the root step regresses on identical states, and any shrinkage
of the intercept there would bias the final estimate.  Rank-deficient
designs at lambda = 0 are flagged and deterministically re-solved with
lambda = 1e-8 instead of failing mid-sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, RegressionFailure

__all__ = [
    "BasisSpec",
    "RegressionFit",
    "Design",
    "design",
    "fit",
    "predict",
    "basis_size",
]

_RANK_RETRY_RIDGE = 1e-8
# Largest lambda_max / lambda_min of phi'phi solved by the normal equations:
# cond(phi) <= 1e3, so they lose at most about 1e6 * eps.
_GRAM_MAX_RATIO = 1e6


@dataclass(frozen=True)
class BasisSpec:
    """Basis family and penalty for one conditional-expectation fit."""

    kind: str = "polynomial"
    degree: int = 2      # polynomial: total degree
    bins: int = 4        # piecewise_constant: bins per dimension
    ridge: float = 0.0

    def __post_init__(self):
        if self.kind not in ("polynomial", "piecewise_constant"):
            raise RegressionFailure(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 0:
            raise RegressionFailure("polynomial degree must be >= 0")
        if self.kind == "piecewise_constant" and self.bins < 1:
            raise RegressionFailure("need at least one bin per dimension")
        if self.ridge < 0:
            raise RegressionFailure("ridge penalty must be >= 0")


@dataclass(frozen=True, eq=False)
class RegressionFit:
    basis: BasisSpec
    dim: int
    coefficients: np.ndarray        # (p,) or (p, k), standardized coordinates
    condition_estimate: float
    rank_deficient: bool
    ridge_used: float
    x_mean: Optional[np.ndarray] = None   # polynomial standardization
    x_scale: Optional[np.ndarray] = None
    box_min: Optional[np.ndarray] = None  # piecewise-constant binning box
    box_max: Optional[np.ndarray] = None


def multi_indices(d: int, q: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= q, graded lexicographic."""
    out = []
    for total in range(q + 1):
        level = [idx for idx in itertools.product(range(total + 1), repeat=d)
                 if sum(idx) == total]
        out.extend(sorted(level))
    return out


def basis_size(basis: BasisSpec, d: int) -> int:
    if basis.kind == "polynomial":
        return math.comb(d + basis.degree, basis.degree)
    return basis.bins**d


def _validate_states(states, d: Optional[int] = None) -> np.ndarray:
    x = np.asarray(states, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DimensionMismatch("states must be a (J, d) matrix")
    if d is not None and x.shape[1] != d:
        raise DimensionMismatch(f"states have width {x.shape[1]}, expected {d}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("states contain non-finite entries")
    return x


def _poly_design(zt: np.ndarray, q: int) -> np.ndarray:
    """Basis matrix (J, p) from standardized states given per dimension, (d, J).

    Each column multiplies the powers of its nonzero exponents in dimension
    order; a power is the previous power times z.
    """
    d, J = zt.shape
    powers = np.empty((d, q + 1, J))
    powers[:, 0] = 1.0
    for k in range(1, q + 1):
        np.multiply(powers[:, k - 1], zt, out=powers[:, k])
    idx_list = multi_indices(d, q)
    phi = np.empty((len(idx_list), J))
    for col, idx in zip(phi, idx_list):
        factors = [powers[i, e] for i, e in enumerate(idx) if e]
        if not factors:
            col[:] = 1.0
            continue
        col[:] = factors[0]
        for factor in factors[1:]:
            col *= factor
    return phi.T


def _bin_indices(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    width = np.where(hi > lo, hi - lo, 1.0)
    raw = np.floor((x - lo) / width * bins).astype(np.int64)
    per_dim = np.clip(raw, 0, bins - 1)
    flat = np.zeros(len(x), dtype=np.int64)
    for i in range(x.shape[1]):
        flat = flat * bins + per_dim[:, i]
    return flat


def _design(basis, x, *, x_mean, x_scale, box_min, box_max) -> np.ndarray:
    if basis.kind == "polynomial":
        zt = (x.T - x_mean[:, None]) / x_scale[:, None]
        return _poly_design(zt, basis.degree)
    flat = _bin_indices(x, box_min, box_max, basis.bins)
    phi = np.zeros((len(x), basis.bins ** x.shape[1]))
    phi[np.arange(len(x)), flat] = 1.0
    return phi


@dataclass(frozen=True, eq=False)
class Design:
    """Basis matrix of one set of states and its one factorization.

    Built by :func:`design`.  A well-conditioned design keeps its Gram
    matrix ``phi'phi`` and no ``q`` or ``r``; any other keeps the thin QR
    factors and no ``gram``.  Every :func:`fit` handed the same design
    solves against this one factorization, and :func:`predict` at the
    design's own states reuses ``phi`` instead of rebuilding it.
    """

    basis: BasisSpec
    dim: int
    phi: np.ndarray                 # (J, p) basis functions at the states
    gram: Optional[np.ndarray]      # (p, p) phi'phi on the Gram route
    q: Optional[np.ndarray]         # (J, p) orthonormal columns, phi = q @ r
    r: Optional[np.ndarray]         # (p, p) upper triangular
    condition_estimate: float
    rank_deficient: bool
    x_mean: Optional[np.ndarray] = None
    x_scale: Optional[np.ndarray] = None
    box_min: Optional[np.ndarray] = None
    box_max: Optional[np.ndarray] = None


def design(states, basis: BasisSpec) -> Design:
    """Standardize the states, build the basis matrix and factor it.

    The eigenvalues of ``gram = phi'phi`` are the squared singular values
    of ``phi``.  When the smallest is positive and the ratio of the
    largest to it is at most 1e6, the design keeps ``gram``, whose
    condition is ``sqrt(lambda_max / lambda_min)``.  Otherwise ``phi`` is
    factored by a thin QR, and the rank and condition come from the
    singular values of ``r``: those below ``s_max * max(J, p) * eps``
    count as rank loss.  Raises RegressionFailure when there are fewer
    samples than basis functions, NonFinite on non-finite states.
    """
    x = _validate_states(states)
    J, d = x.shape
    p = basis_size(basis, d)
    if J < p:
        raise RegressionFailure(f"{J} samples cannot support {p} basis functions")

    if basis.kind == "polynomial":
        xt = np.ascontiguousarray(x.T)  # one contiguous row per dimension
        x = xt.T
        x_mean = xt.mean(axis=1)
        std = xt.std(axis=1)
        x_scale = np.where(std > 0, std, 1.0)
        box_min = box_max = None
    else:
        x_mean = x_scale = None
        box_min, box_max = x.min(axis=0), x.max(axis=0)

    phi = _design(basis, x, x_mean=x_mean, x_scale=x_scale,
                  box_min=box_min, box_max=box_max)
    frame = dict(basis=basis, dim=d, phi=phi, x_mean=x_mean, x_scale=x_scale,
                 box_min=box_min, box_max=box_max)
    gram = phi.T @ phi
    ev = np.linalg.eigvalsh(gram)
    if ev[0] > 0 and ev[-1] <= _GRAM_MAX_RATIO * ev[0]:
        return Design(gram=gram, q=None, r=None,
                      condition_estimate=math.sqrt(ev[-1] / ev[0]),
                      rank_deficient=False, **frame)

    q, r = np.linalg.qr(phi)
    sv = np.linalg.svd(r, compute_uv=False)
    tol = sv[0] * max(J, p) * np.finfo(np.float64).eps if sv[0] > 0 else 0.0
    rank = int(np.sum(sv > tol))
    with np.errstate(divide="ignore"):
        condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return Design(gram=None, q=q, r=r, condition_estimate=condition,
                  rank_deficient=rank < p, **frame)


def fit(states, targets, basis: BasisSpec) -> RegressionFit:
    """Least-squares fit of targets on basis functions of states.

    ``states`` is a (J, d) array or a :class:`Design` already built from
    one with this basis.  Vector targets (J, k) are fitted column-wise
    against the design's one factorization.  Raises RegressionFailure
    when there are fewer samples than basis functions, NonFinite on bad
    inputs.
    """
    if isinstance(states, Design):
        dsg = states
        if dsg.basis != basis:
            raise RegressionFailure("design was built for another basis")
    else:
        dsg = design(states, basis)
    # Contiguous, so phi'y or q'y takes one matmul kernel whatever the
    # target's layout: a strided column fits to the bits of its copy.
    y = np.ascontiguousarray(targets, dtype=np.float64)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    if y.shape[0] != dsg.phi.shape[0]:
        raise DimensionMismatch("states and targets disagree on sample count")
    if not np.all(np.isfinite(y)):
        raise NonFinite("targets contain non-finite entries")
    p = dsg.phi.shape[1]

    ridge = basis.ridge
    if ridge == 0.0 and dsg.rank_deficient:
        ridge = _RANK_RETRY_RIDGE
    # The constant column of the polynomial basis is never penalized,
    # which pins the fitted mean to the sample mean for any ridge strength.
    penalized = np.arange(1 if basis.kind == "polynomial" else 0, p)
    # Finite targets near the top of the double range can overflow the
    # products; the coefficients' finiteness check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        if dsg.gram is not None:
            # The normal equations (phi'phi + ridge I_pen) c = phi'y, where
            # I_pen is the identity on the penalized columns.
            A = dsg.gram
            if ridge > 0.0:
                A = A.copy()
                A[penalized, penalized] += ridge
            coef = np.linalg.solve(A, dsg.phi.T @ y)
        else:
            # With phi = q r, ||phi c - y||^2 = ||r c - q'y||^2 + (a term free
            # of c), so the p x p triangle stands in for the J x p design; the
            # ridge appends sqrt(ridge) I_pen rows.
            A, B = dsg.r, dsg.q.T @ y
            if ridge > 0.0:
                aug = np.zeros((len(penalized), p))
                aug[np.arange(len(penalized)), penalized] = np.sqrt(ridge)
                A = np.vstack([A, aug])
                B = np.vstack([B, np.zeros((len(penalized), y.shape[1]))])
            coef, *_ = np.linalg.lstsq(A, B, rcond=None)
        if basis.kind == "piecewise_constant":
            # Bins that saw no data predict the global mean instead of 0.
            counts = dsg.phi.sum(axis=0)
            coef[counts == 0] = y.mean(axis=0)

    if not np.all(np.isfinite(coef)):
        raise NonFinite("regression produced non-finite coefficients")

    return RegressionFit(
        basis=basis,
        dim=dsg.dim,
        coefficients=coef[:, 0] if squeeze else coef,
        condition_estimate=dsg.condition_estimate,
        rank_deficient=dsg.rank_deficient,
        ridge_used=ridge,
        x_mean=dsg.x_mean,
        x_scale=dsg.x_scale,
        box_min=dsg.box_min,
        box_max=dsg.box_max,
    )


def predict(reg: RegressionFit, states) -> np.ndarray:
    """Evaluate the fitted conditional-expectation surface.

    ``states`` is a (J, d) array, or the :class:`Design` the fit was made
    on, whose basis matrix is then used as it stands.
    """
    if isinstance(states, Design):
        if states.x_mean is not reg.x_mean or states.box_min is not reg.box_min:
            raise RegressionFailure("the fit was not made on this design")
        return states.phi @ reg.coefficients
    x = _validate_states(states, reg.dim)
    phi = _design(reg.basis, x, x_mean=reg.x_mean, x_scale=reg.x_scale,
                  box_min=reg.box_min, box_max=reg.box_max)
    return phi @ reg.coefficients
