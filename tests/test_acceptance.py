"""Acceptance suite: the eight headline criteria at full scale.

Each test runs one criterion at its stated size and tolerance and
records a pass/fail line (printed in the terminal summary).  These runs
are larger than the per-module tests on purpose; the whole file takes a
few minutes.
"""

import dataclasses
import math
import time

import numpy as np

from parabolica import hjb, model, paths
from parabolica.backward import backward_solve_2bsde, backward_solve_semilinear, screen_driver
from parabolica.errors import ConfigError
from parabolica.linear_fk import LinearCoefficients, feynman_kac_estimate
from parabolica.regress import BasisSpec, design, fit, multi_indices, predict
from parabolica.verify import FdGrid, fd_solve_1d, twobsde_residuals
from rate_fit import estimate_rate

BASIS2 = BasisSpec(kind="polynomial", degree=2)


def _simulate(spec, N, J, seed, threads=1):
    grid = paths.TimeGrid(0.0, spec.horizon, N)
    return paths.euler_simulate(spec, grid, spec.x0_default, J=J, seed=seed, threads=threads)


def test_criterion_1_linear_value(acceptance):
    """Heat value at the origin by the linear estimator, J=1e5, N=64."""
    started = time.perf_counter()
    heat = model.catalog_get("heat")
    batch = _simulate(heat, N=64, J=100_000, seed=11, threads=1)
    est = feynman_kac_estimate(LinearCoefficients.from_spec(heat), batch)
    elapsed = time.perf_counter() - started

    err = abs(est.value - 1.0)
    bound = 3.0 * est.stderr + 0.01
    ok = err <= bound and elapsed <= 10.0
    acceptance(
        1,
        ok,
        f"heat linear value {est.value:.5f}, |err| {err:.2e} <= {bound:.2e}, "
        f"{elapsed:.1f}s (limit 10s)",
    )
    assert err <= bound
    assert elapsed <= 10.0


def test_criterion_2_euler_strong_order(acceptance):
    """Strong order ~1/2 for the Euler scheme on geometric Brownian motion."""
    started = time.perf_counter()
    gbm = model.catalog_get("gbm_linear")
    r, vol, T = 0.05, 0.2, 1.0
    sizes = (16, 32, 64, 128)
    errors = []
    for N in sizes:
        batch = _simulate(gbm, N=N, J=100_000, seed=7)
        w_T = batch.dW[:, :, 0].sum(axis=1)
        exact = np.exp((r - 0.5 * vol * vol) * T + vol * w_T)
        errors.append(float(np.mean(np.abs(batch.X[:, -1, 0] - exact))))
    rate = estimate_rate(list(zip((T / N for N in sizes), errors)))
    elapsed = time.perf_counter() - started

    ok = 0.35 <= rate.slope <= 0.65 and elapsed <= 30.0
    acceptance(
        2,
        ok,
        f"gbm strong-error slope {rate.slope:.3f} in [0.35, 0.65], "
        f"{elapsed:.1f}s (limit 30s)",
    )
    assert 0.35 <= rate.slope <= 0.65
    assert elapsed <= 30.0


def test_criterion_3_semilinear_scheme(acceptance):
    """|Y0 - e| within 0.5/sqrt(N) + 3se, and sqrt(N)-scaled error stays flat."""
    started = time.perf_counter()
    spec = model.catalog_get("semilinear_exp")
    target = math.e

    bounds_ok = True
    per_seed = {}  # seed -> {N: |Y0 - e|}
    detail_errs = []
    for N in (32, 64, 128):
        sol = backward_solve_semilinear(
            spec, _simulate(spec, N=N, J=100_000, seed=100), BASIS2, picard_iters=2
        )
        err = abs(sol.root_value.value - target)
        bound = 0.5 / math.sqrt(N) + 3.0 * sol.root_value.stderr
        bounds_ok = bounds_ok and err <= bound
        detail_errs.append(f"N={N}: {err:.4f}<={bound:.4f}")
        if N in (32, 128):
            per_seed.setdefault(100, {})[N] = err

    for seed in (101, 102, 103, 104):
        for N in (32, 128):
            sol = backward_solve_semilinear(
                spec, _simulate(spec, N=N, J=100_000, seed=seed), BASIS2, picard_iters=2
            )
            per_seed.setdefault(seed, {})[N] = abs(sol.root_value.value - target)
    scaled_32 = np.mean([math.sqrt(32) * e[32] for e in per_seed.values()])
    scaled_128 = np.mean([math.sqrt(128) * e[128] for e in per_seed.values()])
    elapsed = time.perf_counter() - started

    trend_ok = scaled_128 <= 2.0 * scaled_32
    ok = bounds_ok and trend_ok and elapsed <= 120.0
    acceptance(
        3,
        ok,
        f"semilinear {'; '.join(detail_errs)}; sqrt(N)-scaled error "
        f"{scaled_128:.3f} <= 2 x {scaled_32:.3f} (5 seeds), {elapsed:.0f}s (limit 120s)",
    )
    assert bounds_ok
    assert trend_ok, (scaled_32, scaled_128)
    assert elapsed <= 120.0


def test_criterion_4_fully_nonlinear_scheme(acceptance):
    """Uncertain-volatility value against its closed form, twice over."""
    started = time.perf_counter()
    spec = model.catalog_get("bsb_uncertain_vol")
    target = math.exp(0.04)

    sol = backward_solve_2bsde(
        spec, _simulate(spec, N=64, J=200_000, seed=7), BASIS2, picard_iters=2
    )
    mc_rel = abs(sol.root_value.value - target) / target

    grid = FdGrid.for_problem(spec, 0.2, 5.0, M=601)
    surface = fd_solve_1d(spec, grid)
    fd_rel = abs(surface.value_at(0.0, 1.0) - target) / target
    elapsed = time.perf_counter() - started

    ok = mc_rel <= 0.02 and fd_rel <= 0.01 and elapsed <= 300.0
    acceptance(
        4,
        ok,
        f"bsb value rel err {mc_rel:.4f} <= 0.02 (MC), {fd_rel:.2e} <= 0.01 (FD), "
        f"{elapsed:.0f}s (limit 300s)",
    )
    assert mc_rel <= 0.02
    assert fd_rel <= 0.01
    assert elapsed <= 300.0


def test_criterion_5_representation_identity(acceptance):
    """Midpoint Y matches the closed-form value and tightens with refinement.

    The RMS ratio between two (N, J) scales has very few effective
    degrees of freedom (the error concentrates in the span of a handful
    of regression coefficients), so a single seed is a coin flip around
    the mean trend.  Pooling a small fixed set of seeds measures the
    trend itself while keeping the test fully deterministic.
    """
    heat = model.catalog_get("heat")
    seeds = (1, 3, 13)

    def pooled_rms(N, J):
        mses = []
        for seed in seeds:
            batch = _simulate(heat, N=N, J=J, seed=seed)
            sol = backward_solve_2bsde(heat, batch, BASIS2, picard_iters=2)
            mid = N // 2
            gap = sol.Y[:, mid] - heat.analytic_v.value(batch.grid.times[mid], batch.X[:, mid])
            mses.append(float(np.mean(gap * gap)))
        return math.sqrt(float(np.mean(mses)))

    rms_coarse = pooled_rms(64, 100_000)
    rms_fine = pooled_rms(128, 200_000)
    factor = rms_coarse / rms_fine

    ok = rms_coarse <= 0.05 and factor >= 1.3
    acceptance(
        5,
        ok,
        f"heat midpoint RMS {rms_coarse:.4f} <= 0.05 at (N,J)=(64,1e5), "
        f"improvement factor {factor:.2f} >= 1.3 on doubling both",
    )
    assert rms_coarse <= 0.05
    assert factor >= 1.3, (rms_coarse, rms_fine)


def test_criterion_6_residual_convergence(acceptance):
    """First-identity residual shrinks at first order; second is exact here."""
    heat = model.catalog_get("heat")
    aggregates = {}
    r2_exact = True
    for N in (32, 64, 128, 256):
        res = twobsde_residuals(heat, _simulate(heat, N=N, J=10_000, seed=5))
        aggregates[N] = res["r1_aggregate"]
        r2_exact = r2_exact and res["r2_aggregate"] == 0.0 and np.all(res["r2_rms"] == 0.0)
    ratios = [aggregates[N] / aggregates[2 * N] for N in (32, 64, 128)]

    ok = min(ratios) >= 1.8 and r2_exact
    acceptance(
        6,
        ok,
        f"heat r1 halving ratios {', '.join(f'{r:.2f}' for r in ratios)} all >= 1.8; "
        f"r2 exactly zero: {r2_exact}",
    )
    assert min(ratios) >= 1.8
    assert r2_exact


def test_criterion_7_control_extraction(acceptance):
    """The argmax control sits at the right volatility wherever Gamma is clear."""
    convex = model.catalog_get("hjb_uncertain_vol")
    cp = hjb.uncertain_volatility_control()
    concave = dataclasses.replace(
        convex,
        g=lambda x: -(x[:, 0] ** 2),
        dg=lambda x: -2.0 * x,
        analytic_v=None,
        name="hjb_uncertain_vol_concave",
    )

    fracs = {}
    for label, spec, sign, pick in (
        ("convex", convex, 1.0, 0.2),
        ("concave", concave, -1.0, 0.1),
    ):
        batch = _simulate(spec, N=64, J=100_000, seed=7)
        sol = backward_solve_2bsde(spec, batch, BASIS2, picard_iters=2)
        control = hjb.extract_control(cp, sol, batch)[:, :, 0]
        confident = sign * sol.Gamma[:, :, 0, 0] > 0.01
        assert confident.sum() > 1000
        fracs[label] = float(np.mean(control[confident] == pick))

    ok = fracs["convex"] >= 0.95 and fracs["concave"] >= 0.95
    acceptance(
        7,
        ok,
        f"u-hat at the high vol on {fracs['convex']:.1%} of confident convex samples, "
        f"at the low vol on {fracs['concave']:.1%} of concave ones (need 95%)",
    )
    assert fracs["convex"] >= 0.95
    assert fracs["concave"] >= 0.95


def test_criterion_8_property_suites(acceptance):
    """Compact re-run of the cross-cutting invariants."""
    results = []

    # Regression coefficients against a direct normal-equation solve.
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 2))
    y = rng.normal(size=200)
    reg = fit(design(x, BASIS2), y)
    mean, std = x.mean(axis=0), x.std(axis=0)
    z = (x - mean) / np.where(std > 0, std, 1.0)
    cols = []
    for idx in multi_indices(2, 2):
        col = np.ones(len(x))
        for i, e in enumerate(idx):
            col = col * z[:, i] ** e
        cols.append(col)
    phi = np.stack(cols, axis=1)
    want = np.linalg.solve(phi.T @ phi, phi.T @ y)
    results.append(("normal_equations", np.allclose(reg.coefficients, want, atol=1e-8)))

    # Mean preservation (trivial driver) and terminal pinning, one solve.
    heat = model.catalog_get("heat")
    batch = _simulate(heat, N=8, J=2000, seed=4)
    sol = backward_solve_semilinear(heat, batch, BASIS2, picard_iters=2)
    sample_mean = float(np.mean(heat.g(batch.X[:, -1])))
    results.append(
        (
            "mean_preservation",
            abs(sol.root_value.value - sample_mean) <= 1e-13 * abs(sample_mean),
        )
    )
    pinned = np.array_equal(sol.Y[:, -1], heat.g(batch.X[:, -1])) and np.array_equal(
        sol.Z[:, -1], heat.dg(batch.X[:, -1])
    )
    results.append(("terminal_pinning", pinned))

    # Bit-reproducibility across thread counts.
    reference = None
    stable = True
    for threads in (1, 2, 8):
        b = _simulate(heat, N=8, J=2000, seed=3, threads=threads)
        s = backward_solve_2bsde(heat, b, BASIS2, picard_iters=2)
        key = (b.X.tobytes(), s.Y.tobytes(), s.Gamma.tobytes())
        reference = key if reference is None else reference
        stable = stable and key == reference
    results.append(("thread_bit_stability", stable))

    # Comparison principle on ten random ordered payoff pairs.
    fd_grid = FdGrid(x_lo=-2.0, x_hi=2.0, M=41, N_fd=50, horizon=0.5, a_max=0.5)
    rng = np.random.default_rng(12)
    monotone = True
    for _ in range(10):
        a, b, c = rng.uniform(-1, 1, size=3)
        d, m = rng.uniform(0.2, 1.5), rng.uniform(-1, 1)

        def g_lo(x, a=a, b=b, c=c):
            return a * np.sin(2 * x[:, 0]) + b * x[:, 0] ** 2 + c

        def g_hi(x, d=d, m=m, g_lo=g_lo):
            return g_lo(x) + d * np.exp(-((x[:, 0] - m) ** 2))

        lo_spec = dataclasses.replace(heat, g=g_lo, dg=None, analytic_v=None, name="pair_lo")
        hi_spec = dataclasses.replace(heat, g=g_hi, dg=None, analytic_v=None, name="pair_hi")
        gap = fd_solve_1d(hi_spec, fd_grid).V - fd_solve_1d(lo_spec, fd_grid).V
        monotone = monotone and gap.min() >= -1e-10
    results.append(("fd_comparison_principle", monotone))

    # Driver screen: passes on the catalog, refuses a flipped sign.
    def refusal(spec):
        try:
            screen_driver(spec, gamma_free=False)
        except ConfigError as exc:
            return str(exc)
        return None

    catalog_ok = all(refusal(model.catalog_get(name)) is None for name in model.catalog_names())
    flipped = dataclasses.replace(
        heat,
        f=lambda t, x, y, z, gamma: +0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        linear_parts=None,
        analytic_v=None,
        name="heat_flipped",
    )
    results.append(("driver_screen", catalog_ok and "heat_flipped" in (refusal(flipped) or "")))

    failed = [name for name, passed in results if not passed]
    acceptance(
        8,
        not failed,
        f"{len(results) - len(failed)}/{len(results)} property suites pass"
        + (f" (failing: {', '.join(failed)})" if failed else ""),
    )
    assert not failed, failed
