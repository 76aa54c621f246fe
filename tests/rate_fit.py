"""Log-log convergence-rate fits for the tests, with scipy's Student-t quantile.

No subcommand fits a rate, so this lives beside the tests' other scipy
oracles and keeps scipy off the package's install.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtrit


@dataclass(frozen=True)
class RateEstimate:
    slope: float
    half_width: float
    intercept: float


def estimate_rate(errors: Sequence) -> RateEstimate:
    """Least-squares slope of log e against log h with a 95% half-width.

    Raises ValueError for fewer than 3 (h, e) pairs, a step or error that
    is not positive and finite, or a single distinct step size.
    """
    arr = np.asarray(list(errors), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("rate estimation needs at least 3 (h, e) pairs")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("step sizes and errors must be positive and finite")
    log_h, log_e = np.log(arr[:, 0]), np.log(arr[:, 1])
    if np.all(log_h == log_h[0]):
        raise ValueError("rate estimation needs at least two distinct step sizes")
    # The centered-moment formulas of an ordinary least-squares line fit.
    ssxm, ssxym, _, ssym = np.cov(log_h, log_e, bias=True).flat
    slope = ssxym / ssxm
    intercept = np.mean(log_e) - slope * np.mean(log_h)
    if ssym == 0.0:
        r = np.nan if ssxym == 0.0 else 0.0
    else:
        r = min(1.0, max(-1.0, ssxym / np.sqrt(ssxm * ssym)))
    dof = arr.shape[0] - 2
    stderr = np.sqrt((1.0 - r**2) * ssym / ssxm / dof)
    quantile = float(stdtrit(dof, 0.975))
    half = float(stderr) * quantile if np.isfinite(stderr) else 0.0
    return RateEstimate(slope=float(slope), half_width=half, intercept=float(intercept))
