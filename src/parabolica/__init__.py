"""Monte Carlo solvers for parabolic PDEs via backward stochastic schemes.

The package estimates solutions of terminal-value problems

    -dv/dt + f(t, x, v, Dv, D^2v) = 0,   v(T, x) = g(x),

by simulating a forward diffusion and rolling a discrete backward scheme
through regression-based conditional expectations.  Three solver families
are provided (linear / semi-linear / fully non-linear), together with a
Hamilton-Jacobi-Bellman front end, an expression language for problem
input, and independent finite-difference and closed-form verification
tools.

Submodules are imported lazily so that the command-line entry point can
configure the process (BLAS thread pinning) before any numerical code
loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "errors",
    "expr",
    "model",
    "paths",
    "regress",
    "linear_fk",
    "backward",
    "hjb",
    "verify",
    "cli",
})


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBMODULES)
