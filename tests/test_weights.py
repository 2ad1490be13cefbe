import math

import numpy as np
import pytest
from helpers import basis_order, gauss_legendre_oracle, grid_from_lambda

from stepopt.schedules import SCHEMES, NoiseSchedule, lambda_range, scheme_grid
from stepopt.weights import (
    _ANTIDERIVATIVE,
    _SERIES,
    _SERIES_WIDTH,
    OrderSchedule,
    aggregate,
    _point_totals,
    step_weight_array,
    weights_lagrange,
    weights_taylor,
)

E = math.e


def taylor_value_polys(local_nodes):
    """Per-value coefficient polynomials of the Taylor solver, built from
    divided differences at nodes given relative to the newest (last) one."""
    k = len(local_nodes)
    polys = []
    for j in range(k):
        f = np.eye(k)[j]
        coeffs = [f[-1]]
        if k >= 2:
            coeffs.append((f[-1] - f[-2]) / (local_nodes[-1] - local_nodes[-2]))
        if k >= 3:
            older = (f[-2] - f[-3]) / (local_nodes[-2] - local_nodes[-3])
            coeffs.append((coeffs[1] - older) / (local_nodes[-1] - local_nodes[-3]))
        polys.append(coeffs)
    return polys


def random_lam(rng, N, lo=-6.0, hi=7.0, min_gap=1e-3):
    while True:
        lam = np.sort(rng.uniform(lo, hi, N + 1))
        if np.all(np.diff(lam) >= min_gap):
            return lam


def random_grid(rng, n_max=20, min_gap=1e-3):
    N = int(rng.integers(1, n_max + 1))
    return grid_from_lambda(random_lam(rng, N, min_gap=min_gap))


def random_orders(rng, N, cap):
    return OrderSchedule(tuple(int(rng.integers(1, min(n, cap) + 1)) for n in range(1, N + 1)))


def bincount_point_totals(w, orders):
    """Point totals by scatter: the oracle for the diagonal sums of ``_point_totals``.

    Reorders the by-age rows of ``w`` to basis index j, the evaluation
    point ``n - k_n + j``, and sums each grid's points in its own range of
    ``np.bincount`` bins, so every point adds its entries by increasing step.
    """
    k = np.array(orders.k)[:, None]
    N, K = w.shape[-2:]
    j = np.arange(K)
    real = j < k
    by_index = np.where(real, w[..., np.arange(N)[:, None], np.where(real, k - 1 - j, 0)], 0.0)
    points = np.arange(N)[:, None] + 1 - k + j
    bins = int(points.max()) + 1
    lead = w.shape[:-2]
    grids = math.prod(lead)
    points = points + bins * np.arange(grids)[:, None, None]
    # padded entries are zero, so the bins they land in do not matter
    totals = np.bincount(points.ravel(), weights=by_index.ravel(), minlength=grids * bins)
    return totals.reshape(*lead, bins)[..., :N]


def by_step_weight_array(lam, orders, kind, shift):
    """The weight kernel on by-step ``(..., N, K)`` arrays: the oracle for the age-major one.

    The same float operations in the same order as ``step_weight_array``,
    with the age axis last in every temporary, so the two agree bitwise.
    """
    lam = np.asarray(lam, dtype=float)
    k = np.array(orders.k)
    K = int(k.max())
    d = np.arange(K)
    nodes = lam[..., np.maximum(np.arange(k.size)[:, None] - d, 0)]
    # used[m, n-1, d]: d <= m < k_n
    used = (d <= d[:, None, None]) & (d[:, None, None] < k[:, None])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = np.diff(lam)[..., None]
        M = np.exp(h) * (h**d @ _ANTIDERIVATIVE[:K, :K].T) - _ANTIDERIVATIVE[:K, 0]
        narrow = h[..., 0] < _SERIES_WIDTH
        if narrow.any():
            hn = h[narrow]
            total = _SERIES[-1, :K]
            for coeff in _SERIES[-2::-1, :K]:
                total = total * hn + coeff
            M[narrow] = total * hn ** (d + 1)
        integrals = M
        if kind == "lagrange":
            u = nodes - nodes[..., :1]
            J, out = M, [M[..., 0]]
            for m in range(K - 1):
                J = J[..., 1:] - u[..., m, None] * J[..., :-1]
                out.append(J[..., 0])
            integrals = np.stack(out, axis=-1)
        for m in range(K):
            diff = nodes - nodes[..., m, None] + np.eye(K)[m]
            prod = diff if m == 0 else prod * diff
            term = np.where(used[m], 1.0 / prod * integrals[..., m, None], 0.0)
            w = term if m == 0 else w + term
        return w * np.exp(lam[..., :-1] - shift)[..., None]


def family_stack(rng, family, eps, N, lead, narrow):
    """Random increasing grids on a family's log-SNR span, ``lead + (N + 1,)``.

    ``narrow`` draws every gap below ``_SERIES_WIDTH``, so every step takes
    the moment series; otherwise the span is split at random, and the
    first grid is one of the baseline schemes.
    """
    schedule = NoiseSchedule.from_name(family)
    lo, hi = lambda_range(schedule, N, schedule.t_domain[1], eps)
    size = math.prod(lead)
    if narrow:
        gaps = rng.uniform(1e-3, _SERIES_WIDTH, (size, N))
        # lam[j] = hi - sum(gaps[j:]), so the grid ends at the family's top value
        lam = hi - np.concatenate([gaps[:, ::-1].cumsum(axis=1)[:, ::-1], np.zeros((size, 1))], axis=1)
    else:
        inner = np.sort(rng.uniform(lo, hi, (size, N - 1)), axis=1)
        lam = np.concatenate([np.full((size, 1), lo), inner, np.full((size, 1), hi)], axis=1)
        lam[0] = scheme_grid(SCHEMES[int(rng.integers(3))], schedule, N,
                             schedule.t_domain[1], eps, 7).lam
    return lam.reshape(*lead, N + 1)


def kernel_integral(coeffs, a, width, shift):
    """``int exp(lam - shift) p(lam)`` over ``[a, a + width]`` through the kernel.

    The last step of a grid with ``deg`` earlier nodes spaced by the width
    interpolates a degree-``deg`` polynomial exactly, so its Lagrange
    weights dotted with ``p`` at the nodes give the integral.  The row is
    by age, newest node first; reversed, it lines up with ``lam[:-1]``.
    """
    deg = len(coeffs) - 1
    lam = a + width * np.arange(-deg, 2.0)
    w = step_weight_array(lam, OrderSchedule.warmup(deg + 1, deg + 1), "lagrange", shift)[-1, ::-1]
    return float(w @ np.polynomial.polynomial.polyval(lam[:-1], coeffs))


def lagrange_basis(nodes, j):
    """Ascending coefficients of the j-th Lagrange basis polynomial (test oracle)."""
    nodes = np.asarray(nodes, dtype=float)
    if not 0 <= j < nodes.size:
        raise ValueError(f"basis index {j} out of range for {nodes.size} nodes")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("interpolation nodes must be distinct")
    others = np.delete(nodes, j)
    return np.atleast_1d(np.poly(others))[::-1] / np.prod(nodes[j] - others)


def mpmath_lagrange_weights(lam, orders, shift):
    """Lagrange step weights at 50 digits: exact moments, monomial-form basis.

    Rows are by age, as the kernel returns them: basis index j of step n
    goes to column ``k_n - 1 - j``.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        lam = [mp.mpf(float(v)) for v in lam]
        out = np.zeros((len(orders), max(orders)))
        for n, k in enumerate(orders, start=1):
            h = lam[n] - lam[n - 1]
            # int_0^h exp(u) u^m du = exp(h) S_m(h) - S_m(0), S_m = u^m - m S_(m-1)
            s_h, s_0, moments = mp.mpf(1), mp.mpf(1), []
            for m in range(k):
                if m:
                    s_h, s_0 = h**m - m * s_h, -m * s_0
                moments.append(mp.exp(h) * s_h - s_0)
            nodes = [v - lam[n - 1] for v in lam[n - k : n]]
            for j in range(k):
                coeffs = [mp.mpf(1)]  # ascending, times (u - node) for every other node
                for i, node in enumerate(nodes):
                    if i != j:
                        coeffs = [a - node * b for a, b in zip([0] + coeffs, coeffs + [0])]
                        coeffs = [c / (nodes[j] - node) for c in coeffs]
                value = sum(c * M for c, M in zip(coeffs, moments))
                out[n - 1, k - 1 - j] = float(value * mp.exp(lam[n - 1] - shift))
    return out


class TestExpPolyIntegral:
    """Exact integrals of ``exp`` times a polynomial, read off the kernel."""

    def test_constant(self):
        assert kernel_integral([1.0], 0.0, 1.0, 0.0) == pytest.approx(E - 1.0, rel=1e-14)

    def test_linear(self):
        # integration by parts: exp(x)(x - 1) evaluated on [0, 1]
        assert kernel_integral([0.0, 1.0], 0.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_quadratic(self):
        assert kernel_integral([0.0, 0.0, 1.0], 0.0, 1.0, 0.0) == pytest.approx(E - 2.0, rel=1e-14)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(500):
            deg = int(rng.integers(0, 4))
            coeffs = rng.uniform(-2.0, 2.0, deg + 1)
            a = rng.uniform(-8.0, 8.0)
            width = math.exp(rng.uniform(math.log(1e-4), math.log(5.0)))
            mine = kernel_integral(coeffs, a, width, shift=a)
            oracle = gauss_legendre_oracle(coeffs, a, a + width, shift=a)
            assert mine == pytest.approx(oracle, rel=1e-10)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            kernel_integral([1.0], 800.0, 1.0, shift=0.0)


class TestLagrangeBasis:
    def test_two_nodes(self):
        assert np.allclose(lagrange_basis([0.0, 1.0], 1), [0.0, 1.0])
        assert np.allclose(lagrange_basis([0.0, 1.0], 0), [1.0, -1.0])

    def test_three_nodes(self):
        # (lam - 0)(lam - 2) / ((1 - 0)(1 - 2)) = lam (2 - lam)
        assert np.allclose(lagrange_basis([0.0, 1.0, 2.0], 1), [0.0, 2.0, -1.0])

    def test_cardinal_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            nodes = np.sort(rng.uniform(-5, 5, k))
            if np.any(np.diff(nodes) < 1e-3):
                continue
            for j in range(k):
                coeffs = lagrange_basis(nodes, j)
                values = np.polynomial.polynomial.polyval(nodes, coeffs)
                expect = np.zeros(k)
                expect[j] = 1.0
                assert np.allclose(values, expect, atol=1e-12)

    def test_duplicate_nodes(self):
        with pytest.raises(ValueError):
            lagrange_basis([0.0, 0.0, 1.0], 0)


class TestLagrangeWeights:
    def test_worked_second_order_step(self):
        # closed-form integration by parts on [1, 2] with nodes {0, 1},
        # cross-checked against the quadrature oracle
        grid = grid_from_lambda([0.0, 1.0, 2.0])
        orders = OrderSchedule((1, 2))
        w = basis_order(step_weight_array(grid.lam, orders, "lagrange", 0.0), orders, 2)
        assert w[0] == pytest.approx(-E, rel=1e-12)
        assert w[1] == pytest.approx(E * E, rel=1e-12)
        for j in range(2):
            oracle = gauss_legendre_oracle(lagrange_basis([0.0, 1.0], j), 1.0, 2.0, 0.0)
            assert w[j] == pytest.approx(oracle, rel=1e-12)

    def test_first_order_weight(self):
        grid = grid_from_lambda([-1.0, 0.5, 2.0])
        orders = OrderSchedule((1, 1))
        w = step_weight_array(grid.lam, orders, "lagrange", 0.0)
        w1, w2 = basis_order(w, orders, 1), basis_order(w, orders, 2)
        assert w1[0] == pytest.approx(math.exp(0.5) - math.exp(-1.0), rel=1e-12)
        assert w2[0] == pytest.approx(math.exp(2.0) - math.exp(0.5), rel=1e-12)

    @pytest.mark.parametrize("build,cap", [(weights_lagrange, 4), (weights_taylor, 3)])
    def test_weight_sum_identity(self, build, cap):
        rng = np.random.default_rng(42)
        for _ in range(200):
            grid = random_grid(rng)
            N = grid.n_steps
            orders = random_orders(rng, N, cap)
            w = build(grid, orders)
            anchor = grid.lam[-1]
            for n in range(1, N + 1):
                total = math.fsum(basis_order(w, orders, n))
                expect = math.exp(grid.lam[n] - anchor) - math.exp(grid.lam[n - 1] - anchor)
                assert total == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("build,cap", [(weights_lagrange, 4), (weights_taylor, 3)])
    def test_mixed_orders_match_quadrature_oracle(self, build, cap):
        rng = np.random.default_rng(77)
        for _ in range(40):
            grid = random_grid(rng, min_gap=0.05)
            orders = random_orders(rng, grid.n_steps, cap)
            weights = build(grid, orders)
            lam, anchor = grid.lam, grid.lam[-1]
            for n, k in enumerate(orders.k, start=1):
                local = lam[n - k : n] - lam[n - 1]
                polys = (
                    [lagrange_basis(local, j) for j in range(k)]
                    if build is weights_lagrange
                    else taylor_value_polys(local)
                )
                oracle = [
                    gauss_legendre_oracle(p, 0.0, lam[n] - lam[n - 1], anchor - lam[n - 1])
                    for p in polys
                ]
                w = basis_order(weights, orders, n)
                np.testing.assert_allclose(w, oracle, rtol=0, atol=1e-10 * np.max(np.abs(oracle)))
                assert np.all(weights[n - 1, k:] == 0.0)

    def test_all_weights_finite(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng)
        w = weights_lagrange(grid, OrderSchedule.warmup(grid.n_steps, 3))
        assert np.all(np.isfinite(w))

    def test_matches_50_digit_oracle(self):
        # close old nodes make the Lagrange weights large and cancelling;
        # the divided-difference form keeps them to a few ulps of the largest
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(60):
            N = int(rng.integers(2, 9))
            gaps = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), N))
            lam = rng.uniform(-6.0, 6.0) + np.concatenate([[0.0], gaps.cumsum()])
            orders = random_orders(rng, N, 4)
            w = step_weight_array(lam, orders, "lagrange", lam[-1])
            exact = mpmath_lagrange_weights(lam, orders.k, lam[-1])
            worst = max(worst, np.max(np.abs(w - exact)) / np.max(np.abs(exact)))
        assert worst < 2e-14

    def test_scale_anchor_proportionality(self):
        grid = grid_from_lambda([-2.0, -0.5, 1.0, 2.5, 4.0])
        orders = OrderSchedule.warmup(4, 3)
        t_a = step_weight_array(grid.lam, orders, "lagrange", 4.0)
        t_b = step_weight_array(grid.lam, orders, "lagrange", 2.0)
        factor = math.exp(4.0 - 2.0)
        for n in range(1, 5):
            np.testing.assert_allclose(
                basis_order(t_a, orders, n) * factor, basis_order(t_b, orders, n), rtol=1e-12
            )
        c_a = aggregate(t_a, orders)
        c_b = aggregate(t_b, orders)
        np.testing.assert_allclose(c_a * factor, c_b, rtol=1e-12)

    def test_shift_covariance(self):
        # adding a constant to all nodes multiplies raw weights by exp(const);
        # with co-shifted anchors the stored weights coincide
        rng = np.random.default_rng(13)
        lam = np.sort(rng.uniform(-2, 2, 7))
        lam += np.maximum(0, 1e-3 - np.diff(lam, prepend=lam[0] - 1)).cumsum()
        const = 1.75
        orders = random_orders(rng, 6, 4)
        base = step_weight_array(grid_from_lambda(lam).lam, orders, "lagrange", lam[-1])
        moved = step_weight_array(
            grid_from_lambda(lam + const).lam, orders, "lagrange", lam[-1] + const
        )
        for n in range(1, 7):
            np.testing.assert_allclose(
                basis_order(moved, orders, n), basis_order(base, orders, n), rtol=1e-10
            )


class TestTaylorWeights:
    def test_first_order_matches_lagrange(self):
        grid = grid_from_lambda([0.0, 1.0, 2.2])
        orders = OrderSchedule((1, 1))
        tl = weights_lagrange(grid, orders)
        tt = weights_taylor(grid, orders)
        for n in (1, 2):
            assert basis_order(tl, orders, n) == pytest.approx(basis_order(tt, orders, n))

    def test_second_order_matches_lagrange_on_uniform_grid(self):
        grid = grid_from_lambda(np.linspace(-1.0, 3.0, 5))
        orders = OrderSchedule((1, 2, 2, 2))
        tl = weights_lagrange(grid, orders)
        tt = weights_taylor(grid, orders)
        for n in range(1, grid.n_steps + 1):
            np.testing.assert_allclose(
                basis_order(tt, orders, n), basis_order(tl, orders, n), rtol=1e-12
            )

    def test_second_order_matches_lagrange_on_any_grid(self):
        # the two-value secant slope reproduces the linear interpolant
        grid = grid_from_lambda([-1.0, 0.2, 0.9, 2.6])
        orders = OrderSchedule((1, 2, 2))
        tl = weights_lagrange(grid, orders)
        tt = weights_taylor(grid, orders)
        for n in range(1, grid.n_steps + 1):
            np.testing.assert_allclose(
                basis_order(tt, orders, n), basis_order(tl, orders, n), rtol=1e-12
            )

    def test_third_order_differs_on_nonuniform_grid(self):
        grid = grid_from_lambda([-1.0, 0.2, 0.9, 2.6])
        orders = OrderSchedule((1, 2, 3))
        tl = weights_lagrange(grid, orders)
        tt = weights_taylor(grid, orders)
        assert abs(basis_order(tl, orders, 3)[0] - basis_order(tt, orders, 3)[0]) > 1e-6

    def test_second_derivative_stencil_annihilates_constants(self):
        # derivative stencils are zero-sum, so on a constant prediction
        # only the newest value's constant term is left: the weights of a
        # step sum to the exact integral of exp over it
        grid = grid_from_lambda([-1.7, -0.6, 0.0, 1.1])
        orders = OrderSchedule((1, 2, 3))
        w = step_weight_array(grid.lam, orders, "taylor", 0.0)
        for n in (2, 3):
            expect = math.exp(grid.lam[n]) - math.exp(grid.lam[n - 1])
            assert math.fsum(basis_order(w, orders, n)) == pytest.approx(expect, rel=1e-12)

    def test_order_cap(self):
        grid = grid_from_lambda([0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            weights_taylor(grid, OrderSchedule((1, 2, 3, 4)))


class TestStackedGrids:
    """Grids stacked along leading axes get exactly their single-grid weights."""

    @pytest.mark.parametrize("kind,cap", [("lagrange", 4), ("taylor", 3)])
    @pytest.mark.parametrize("shift_kind", ["scalar", "per grid", "per step"])
    def test_stack_matches_single_calls_bitwise(self, kind, cap, shift_kind):
        rng = np.random.default_rng(61)
        for _ in range(15):
            N = int(rng.integers(1, 16))
            orders = random_orders(rng, N, cap)
            lam = np.stack([random_lam(rng, N) for _ in range(6)]).reshape(2, 3, N + 1)
            shift = {
                "scalar": 1.5,
                "per grid": lam[..., -1:],
                "per step": lam[..., 1:],
            }[shift_kind]
            stacked = step_weight_array(lam, orders, kind, shift)
            totals = _point_totals(stacked)
            assert stacked.shape == (2, 3, N, max(orders.k))
            assert totals.shape == (2, 3, N)
            assert np.array_equal(totals, bincount_point_totals(stacked, orders))
            for idx in np.ndindex(2, 3):
                single_shift = shift if shift_kind == "scalar" else shift[idx]
                single = step_weight_array(lam[idx], orders, kind, single_shift)
                assert np.array_equal(stacked[idx], single)
                assert np.array_equal(totals[idx], _point_totals(single))
                assert np.array_equal(totals[idx], bincount_point_totals(single, orders))

    @pytest.mark.parametrize("family,eps", [
        ("vp-linear", 1e-3), ("vp-cosine", 1e-3), ("ve-edm", 0.002), ("vp-linear", 1e-300),
    ])
    @pytest.mark.parametrize("kind,orders", [
        ("lagrange", 3), ("lagrange", 4), ("taylor", 3),
        ("lagrange", (1, 2, 1, 3, 2)), ("taylor", (1, 2, 1, 3, 2)),
    ], ids=["lagrange-3", "lagrange-4", "taylor-3", "lagrange-mixed", "taylor-mixed"])
    def test_matches_by_step_kernel_bitwise(self, family, eps, kind, orders):
        rng = np.random.default_rng([ord(c) for c in f"{family} {eps} {kind} {orders}"])
        for lead in ((), (7,), (2, 5)):
            for narrow in (False, True):
                N = len(orders) if isinstance(orders, tuple) else int(rng.integers(1, 41))
                schedule = (OrderSchedule(orders) if isinstance(orders, tuple)
                            else OrderSchedule.warmup(N, orders))
                lam = family_stack(rng, family, eps, N, lead, narrow)
                for shift in (lam[..., -1:], lam[..., 1:]):
                    w = step_weight_array(lam, schedule, kind, shift)
                    assert w.shape == (*lead, N, max(schedule.k))
                    assert np.array_equal(w, by_step_weight_array(lam, schedule, kind, shift))

    def test_overflow_in_a_stack_names_the_step(self):
        orders = OrderSchedule.warmup(3, 2)
        lam = np.array([[-1.0, 0.0, 1.0, 2.0], [-1.0, 0.0, 1.0, 800.0]])
        with pytest.raises(OverflowError, match=r"step 3 are not finite at scale anchor -5\.0"):
            step_weight_array(lam, orders, "lagrange", np.array([[0.0], [-5.0]]))


class TestOrderSchedule:
    def test_warmup(self):
        assert OrderSchedule.warmup(5, 3).k == (1, 2, 3, 3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            OrderSchedule((2, 2))  # k_1 > 1
        with pytest.raises(ValueError):
            OrderSchedule((1, 2, 3, 4, 5))  # above cap
        with pytest.raises(ValueError):
            OrderSchedule(())

    def test_orders_must_be_integers(self):
        # int() used to turn 2.7 into 2, True into 1 and "2" into 2
        for bad in ((1, 2.7), (True, 2), (1, "2"), (1.0,), (1, np.float64(2.0))):
            with pytest.raises(ValueError, match="orders must be integers"):
                OrderSchedule(bad)
        orders = OrderSchedule(np.array([1, 2, 2]))
        assert orders.k == (1, 2, 2) and {*map(type, orders.k)} == {int}


class TestAggregate:
    def test_bookkeeping_n3(self):
        grid = grid_from_lambda([0.0, 0.8, 1.7, 2.9])
        orders = OrderSchedule((1, 2, 3))
        w = weights_lagrange(grid, orders)
        agg = aggregate(w, orders)
        w1, w2, w3 = (basis_order(w, orders, n) for n in (1, 2, 3))
        expect = [
            abs(w1[0] + w2[0] + w3[0]),
            abs(w2[1] + w3[1]),
            abs(w3[2]),
        ]
        np.testing.assert_allclose(agg, expect, rtol=1e-14)
        assert agg.shape == (3,)

    def test_single_step(self):
        grid = grid_from_lambda([0.0, 1.3])
        orders = OrderSchedule((1,))
        agg = aggregate(step_weight_array(grid.lam, orders, "lagrange", 0.0), orders)
        assert agg[0] == pytest.approx(math.exp(1.3) - 1.0, rel=1e-12)

    def test_all_first_order(self):
        lam = np.array([-1.0, 0.1, 1.4, 2.0])
        grid = grid_from_lambda(lam)
        orders = OrderSchedule((1, 1, 1))
        agg = aggregate(step_weight_array(grid.lam, orders, "lagrange", 0.0), orders)
        expect = np.exp(lam[1:]) - np.exp(lam[:-1])
        np.testing.assert_allclose(agg, expect, rtol=1e-12)

    def test_orders_other_than_the_tables_are_rejected(self):
        grid = grid_from_lambda([0.0, 0.8, 1.7, 2.9, 3.4, 4.0])
        w = weights_lagrange(grid, OrderSchedule.warmup(5, 3))
        # same shape, but step 3 has a weight past the order 2 it is read with
        with pytest.raises(ValueError, match="were not built for orders"):
            aggregate(w, OrderSchedule((1, 2, 2, 3, 3)))
        # a shape that does not fit: too few steps, or too few ages
        with pytest.raises(ValueError, match=r"shape \(5, 3\) were not built"):
            aggregate(w, OrderSchedule.warmup(4, 3))
        with pytest.raises(ValueError, match=r"shape \(5, 3\) were not built"):
            aggregate(w, OrderSchedule.warmup(5, 2))

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            grid = random_grid(rng, n_max=12)
            orders = random_orders(rng, grid.n_steps, 4)
            agg = aggregate(weights_lagrange(grid, orders), orders)
            assert np.all(agg >= 0)
            assert isinstance(agg, np.ndarray)
