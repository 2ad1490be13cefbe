"""Helpers shared by several test modules."""

import importlib.util
from pathlib import Path

import numpy as np

from stepopt.schedules import LambdaGrid

ROOT = Path(__file__).parents[1]


def load_tool(name):
    """Import ``tools/<name>.py``, which is a script and not a package module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grid_from_lambda(lam):
    """Wrap a raw increasing log-SNR array (times via the VE relation)."""
    lam = np.asarray(lam, dtype=float)
    t = np.exp(-lam)
    return LambdaGrid(lam=lam, t=t, T=t[0], eps=t[-1])


def basis_order(w, orders, n):
    """Step n of by-age weights ``w`` by basis index j, the node ``lam[n - k_n + j]``."""
    return w[n - 1, orders.k[n - 1] - 1 :: -1]


def gauss_legendre_oracle(coeffs, a, b, shift, n=64):
    """Independent quadrature route for the weight integrals."""
    x, w = np.polynomial.legendre.leggauss(n)
    lam = 0.5 * (b - a) * x + 0.5 * (a + b)
    p = np.polynomial.polynomial.polyval(lam, np.asarray(coeffs, dtype=float))
    return float(np.sum(w * np.exp(lam - shift) * p) * 0.5 * (b - a))


def local_weights_by_order(nodes, used, integrals):
    """``weights._local_weights`` as a loop over the orders m, one age-major block at a time.

    The reference for the one-pass form: the same float operations, with
    the running product and the sum over m taken one m after another.
    """
    for m in range(len(nodes)):
        diff = nodes - nodes[m]
        # the diagonal difference is exactly 0; a factor 1 skips it
        diff[m] = 1.0
        prod = diff if m == 0 else np.multiply(prod, diff, out=prod)
        term = 1.0 / prod
        term *= integrals[m]
        term = np.where(used[m], term, 0.0)
        w = term if m == 0 else np.add(w, term, out=w)
    return w
