"""Difference operator, companion residuals, parity split, grid verification."""

import itertools
import json

import numpy as np
import pytest

from stabeq import (
    Direction,
    EquationKind,
    EquationParams,
    FunctionHandle,
    GridSpec,
    InvalidInputError,
    IterationSpec,
    IterKind,
    LimitFunction,
    PNormSpace,
    parity_split,
    residual,
    to_json,
    verify_solution,
)
from stabeq import equations
from stabeq.equations import _BLOCK, horner_cubic, operator_residual, pair_blocks

SPACE1 = PNormSpace(1, 1.0)

RNG_SEED = 20260821


def poly_handle(a3, a2, a1, space=SPACE1):
    return FunctionHandle.componentwise(space, horner_cubic, a3, a2, a1)


def rand_points(n, lo=-5.0, hi=5.0, seed=RNG_SEED):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n)


# --- parameter and handle plumbing ---------------------------------------


@pytest.mark.parametrize("k", [0, 1, -1, 2.5, "2"])
def test_params_reject_degenerate_k(k):
    with pytest.raises(InvalidInputError):
        EquationParams(k)


@pytest.mark.parametrize("k", [2, -2, 3, -5, np.int64(4)])
def test_params_accept_valid_k(k):
    assert EquationParams(k).k == k


def test_handle_normalizes_value_at_zero():
    f = FunctionHandle(lambda xs: (xs + 7.0)[:, None], SPACE1)
    assert f(0.0) == pytest.approx(0.0, abs=0.0)
    assert f.offset[0] == 7.0
    assert f(2.0)[0] == 2.0


def test_handle_shape_validation():
    with pytest.raises(InvalidInputError):
        FunctionHandle(lambda xs: np.zeros((xs.size, 3)), SPACE1)


def test_handle_scalar_and_array_calls():
    f = poly_handle(0.0, 1.0, 0.0)
    assert f(3.0).shape == (1,)
    assert f(np.array([1.0, 2.0, 3.0])).shape == (3, 1)
    grid = np.ones((2, 5))
    assert f(grid).shape == (2, 5, 1)
    assert np.all(f(grid) == 1.0)


def test_polynomial_vector_coefficients():
    space = PNormSpace(2, 1.0)
    f = FunctionHandle.componentwise(space, horner_cubic, (1.0, 0.0), (0.0, 1.0), 0.0)
    out = f(2.0)
    assert out[0] == 8.0 and out[1] == 4.0


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_scalar_coefficients_give_the_bits_of_their_dim_vectors(dim):
    """A coefficient shared by every component applies once per point, and
    gives the values, magnitudes and residuals of the same coefficient
    repeated once per component; so does a shared cubic plus a per-component
    term."""
    space = PNormSpace(dim, 0.5)
    coefs = (1.5, -0.75, 1.0 / 3.0)
    omega = np.linspace(0.5, 2.5, dim)

    def wavy(x, a3, a2, a1, w):
        return horner_cubic(x, a3, a2, a1) + 0.01 * np.sin(w * x)

    pts = rand_points(500, -60.0, 60.0)
    kind = EquationKind.general_mixed(EquationParams(3))
    for fn, extra in ((horner_cubic, ()), (wavy, (omega,))):
        shared = FunctionHandle.componentwise(space, fn, *coefs, *extra)
        repeated = FunctionHandle.componentwise(space, fn, *((c,) * dim for c in coefs), *extra)
        for a, b in zip(shared.evaluate(pts), repeated.evaluate(pts)):
            assert a.shape == (pts.size, dim)
            assert np.array_equal(a, b)
        assert np.array_equal(
            residual(shared, kind, pts, pts[::-1]), residual(repeated, kind, pts, pts[::-1])
        )


@pytest.mark.parametrize(
    "fn",
    [
        lambda x, a: np.repeat(a * x, 2, axis=0),  # two rows at dim 3
        lambda x, a: np.repeat(a * x, 4, axis=0),  # four rows at dim 3
        lambda x, a: (a * x)[:0],  # no rows
    ],
)
def test_componentwise_result_with_the_wrong_rows_is_rejected(fn):
    with pytest.raises(InvalidInputError, match=r"expected \(1, 3\)"):
        FunctionHandle.componentwise(PNormSpace(3, 1.0), fn, 1.0)


def test_componentwise_result_that_ignores_the_points_is_rejected():
    # one value per component, right at one point, wrong at five
    f = FunctionHandle.componentwise(PNormSpace(3, 1.0), lambda x, a: np.ones((3, 1)) * a, 2.0)
    with pytest.raises(InvalidInputError, match=r"expected \(5, 3\)"):
        f(np.arange(5.0))


def test_evaluate_magnitude_includes_offset():
    f = FunctionHandle(lambda xs: (xs + 7.0)[:, None], SPACE1)
    vals, mag = f.evaluate(np.array([3.0]))
    # |f(3)| + |offset| = 3 + 7
    assert vals[0, 0] == 3.0
    assert mag[0, 0] == pytest.approx(10.0)
    scalar_vals, scalar_mag = f.evaluate(3.0)
    assert scalar_vals.shape == scalar_mag.shape == (1,)


def test_evaluate_parity_sees_cancellation_scale():
    f = poly_handle(1.0, 1.0, 0.0)  # x^3 + x^2
    even, odd = parity_split(f)
    x = np.array([10.0])
    # even(10) = 100 but both halves evaluate f at +-10, sizes 1100 and 900
    even_vals, even_mag = even.evaluate(x)
    assert even_vals[0, 0] == pytest.approx(100.0)
    assert even_mag[0, 0] == pytest.approx(0.5 * (1100.0 + 900.0))
    odd_vals, odd_mag = odd.evaluate(x)
    assert odd_vals[0, 0] == pytest.approx(1000.0)
    assert odd_mag[0, 0] == pytest.approx(1000.0)


def test_parity_evaluate_makes_two_base_evaluations_per_point():
    seen = []

    def counted(xs):
        seen.append(xs.size)
        return (xs**3 + xs**2)[:, None]

    f = FunctionHandle(counted, SPACE1)
    xs = rand_points(17)
    for part in parity_split(f):
        seen.clear()
        vals, _ = part.evaluate(xs)
        assert seen == [2 * xs.size]  # f(x) and f(-x) from one call
        assert np.array_equal(vals, part(xs))


# --- the difference operator ----------------------------------------------


def test_operator_vanishes_on_exact_solutions():
    f = poly_handle(2.0, -1.0, 5.0)
    pts = rand_points(200)
    for k in (2, -2, 3):
        vals = residual(f, EquationKind.general_mixed(EquationParams(k)), pts, pts[::-1])
        scale = 1.0 + np.max(np.abs(f(pts + k * pts[::-1])))
        assert np.max(np.abs(vals)) <= 1e-10 * scale


def test_operator_on_quartic_matches_symbolic_expansion():
    """D_f for f(x) = x^4 collapses to 2 k^2 (k^2 - 1) y^4.

    The reference is an independent symbolic expansion, not the module.
    """
    sympy = pytest.importorskip("sympy")
    x, y, k = sympy.symbols("x y k")
    f = lambda t: t**4
    expr = (
        f(x + k * y)
        + f(x - k * y)
        - k**2 * f(x + y)
        - k**2 * f(x - y)
        - 2 * (1 - k**2) * f(x)
    )
    assert sympy.expand(expr - 2 * k**2 * (k**2 - 1) * y**4) == 0

    quartic = FunctionHandle(lambda xs: (xs**4)[:, None], SPACE1)
    rng = np.random.default_rng(RNG_SEED)
    X = rng.uniform(-5, 5, 500)
    Y = rng.uniform(0.5, 5, 500) * rng.choice([-1.0, 1.0], 500)
    for kv in (2, 3):
        got = residual(quartic, EquationKind.general_mixed(EquationParams(kv)), X, Y)[:, 0]
        want = 2.0 * kv**2 * (kv**2 - 1) * Y**4
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9


def test_operator_scalar_call_and_broadcasting():
    f = poly_handle(0.0, 0.0, 1.0)
    out = residual(f, EquationKind.general_mixed(EquationParams(2)), 1.0, 2.0)
    assert out.shape == (1,)
    X = np.linspace(-1, 1, 7)
    out2 = residual(f, EquationKind.general_mixed(EquationParams(2)), X, 0.5)
    assert out2.shape == (7, 1)


def test_operator_vector_codomain():
    space = PNormSpace(2, 0.5)
    f = FunctionHandle.componentwise(space, horner_cubic, (1.0, 0.0), (0.0, 2.0), (3.0, -1.0))
    pts = rand_points(50)
    vals = residual(f, EquationKind.general_mixed(EquationParams(2)), pts, -pts)
    assert vals.shape == (50, 2)
    assert np.max(np.abs(vals)) < 1e-9 * (1.0 + np.max(np.abs(f(3 * pts))))


# --- companion residuals --------------------------------------------------


def test_quadratic_residual_separates_parities():
    q = poly_handle(0.0, 3.0, 0.0)
    pts = rand_points(100)
    vals = residual(q, EquationKind.quadratic(), pts, pts[::-1])
    assert np.max(np.abs(vals)) < 1e-10 * (1 + np.max(np.abs(q(2 * pts))))
    c = poly_handle(1.0, 0.0, 0.0)
    vals_c = residual(c, EquationKind.quadratic(), 2.0, 1.0)
    assert abs(vals_c[0]) > 1.0  # cubic maps are not quadratic solutions


def test_pure_cubic_residual():
    c = poly_handle(4.0, 0.0, 0.0)
    pts = rand_points(100)
    vals = residual(c, EquationKind.cubic(), pts, pts[::-1])
    assert np.max(np.abs(vals)) < 1e-9 * (1 + np.max(np.abs(c(3 * pts))))
    a = poly_handle(0.0, 0.0, 1.0)  # additive maps fail this equation: -12x survives
    assert residual(a, EquationKind.cubic(), 1.0, 1.0)[0] == -12.0


def test_term_tables_reproduce_the_written_out_sums():
    f = FunctionHandle(lambda xs: (np.sin(3 * xs) + xs**4)[:, None], SPACE1)
    X, Y = rand_points(300), rand_points(300, seed=RNG_SEED + 1)
    k = 3.0
    written = {
        EquationKind.general_mixed(EquationParams(3)): f(X + k * Y)
        + f(X - k * Y)
        - k * k * f(X + Y)
        - k * k * f(X - Y)
        - 2.0 * (1.0 - k * k) * f(X),
        EquationKind.quadratic(): f(X + Y) + f(X - Y) - 2.0 * f(X) - 2.0 * f(Y),
        EquationKind.cubic(): f(2 * X + Y)
        + f(2 * X - Y)
        - 2.0 * f(X + Y)
        - 2.0 * f(X - Y)
        - 12.0 * f(X),
    }
    for kind, want in written.items():
        assert np.array_equal(residual(f, kind, X, Y), want), kind.terms


def test_operator_residual_blocks_match_block_by_block():
    f = FunctionHandle(lambda xs: (np.sin(xs) + xs**3)[:, None], PNormSpace(1, 0.5))
    kind = EquationKind.general_mixed(EquationParams(2))
    n = 2 * _BLOCK + 123
    X, Y = rand_points(n), rand_points(n, seed=RNG_SEED + 1)
    resid, scale = operator_residual(f, kind, X, Y)
    assert resid.shape == (n, 1) and scale.shape == (n,)
    for lo in range(0, n, 1000):
        part_r, part_s = operator_residual(f, kind, X[lo : lo + 1000], Y[lo : lo + 1000])
        assert np.array_equal(resid[lo : lo + 1000], part_r)
        assert np.array_equal(scale[lo : lo + 1000], part_s)


def odd_part_of_quartic_plus_cubic(space=SPACE1):
    return parity_split(FunctionHandle(lambda xs: (xs**4 - 3.0 * xs**3 + xs)[:, None], space))[1]


@pytest.mark.parametrize(
    "f",
    [
        poly_handle(1.0, -2.0, 0.5, PNormSpace(3, 0.5)),
        odd_part_of_quartic_plus_cubic(),
        LimitFunction(
            IterationSpec(IterKind.ADDITIVE, Direction.CONTRACT), odd_part_of_quartic_plus_cubic()
        ),
    ],
    ids=["plain-dim3", "parity-part", "limit"],
)
def test_operator_residual_builds_the_scale_only_where_asked(f):
    kind = EquationKind.general_mixed(EquationParams(3))
    X, Y = rand_points(40), rand_points(40, seed=RNG_SEED + 1)
    resid, scale = operator_residual(f, kind, X, Y)
    for at in (X > 1.0, np.zeros(40, dtype=bool), np.ones(40, dtype=bool)):
        part_r, part_s = operator_residual(f, kind, X, Y, at)
        assert np.array_equal(part_r, resid)
        assert part_s.shape == (at.sum(),)
        assert part_s.tobytes() == scale[at].tobytes()


def tile_sizes(grid, dim, n=None):
    return [X.size for X, _ in itertools.islice(pair_blocks(grid, dim), n)]


@pytest.mark.parametrize("budget", [7, 64])
@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("count", [2, 5, 13, 20])
def test_pair_blocks_tiles_keep_to_the_float_budget(monkeypatch, budget, dim, count):
    monkeypatch.setattr(equations, "_BLOCK", budget)
    size = max(1, budget // dim)
    grid = GridSpec(-1.0, 1.0, count)
    pairs = grid.pairs()
    for g in (grid, pairs):
        tiles = list(pair_blocks(g, dim))
        assert all(0 < X.size == Y.size <= size for X, Y in tiles)
        got = np.column_stack([np.concatenate(t) for t in zip(*tiles)])
        assert got.tobytes() == pairs.tobytes()
    tiles = list(pair_blocks(grid, dim))
    if count > size:  # a row longer than the tile comes in pieces of one x each
        assert len(tiles) == count * -(-count // size)
        assert all(np.all(X == X[0]) for X, _ in tiles)
    else:  # whole rows, as many as fit
        assert tile_sizes(grid, dim)[:-1] == [(size // count) * count] * (len(tiles) - 1)


def test_pair_blocks_tile_at_the_default_budget():
    # 101 points are one tile at dim 1 and tiles of 40 rows at dim 4;
    # 1001 points at dim 4 are tiles of 4 rows.
    assert tile_sizes(GridSpec(-5.0, 5.0, 101), 1) == [101 * 101]
    assert tile_sizes(GridSpec(-5.0, 5.0, 101), 4) == [40 * 101] * 2 + [21 * 101]
    assert set(tile_sizes(GridSpec(-5.0, 5.0, 1001), 4)[:-1]) == {4 * 1001}
    # Past 16,384 // dim points a row comes in pieces of 16,384 // dim pairs.
    assert tile_sizes(GridSpec(-5.0, 5.0, 20000), 4, 6) == [4096] * 4 + [3616, 4096]
    assert tile_sizes(GridSpec(-5.0, 5.0, 20000), 1, 3) == [16384, 3616, 16384]


# --- parity split ---------------------------------------------------------


def test_parity_split_known_values():
    f = FunctionHandle(lambda xs: (xs**4 + xs**5)[:, None], SPACE1)
    even, odd = parity_split(f)
    assert even(2.0)[0] == 16.0
    assert odd(2.0)[0] == 32.0


def test_parity_split_exact_symmetry_and_reassembly():
    f = FunctionHandle(
        lambda xs: (np.exp(0.3 * xs) + 0.1 * np.sin(2 * xs))[:, None], SPACE1
    )
    even, odd = parity_split(f)
    xs = rand_points(1000)
    e, o = even(xs), odd(xs)
    # symmetry is exact in floating point, not just approximate
    assert np.array_equal(e, even(-xs))
    assert np.array_equal(o, -odd(-xs))
    # reassembly agrees to 1 ulp of the dominant half evaluation
    fv = f(xs)
    dominant = np.maximum(np.abs(fv), np.abs(f(-xs)))
    assert np.all(np.abs(e + o - fv) <= np.spacing(dominant))


def test_parity_split_reproducible():
    f = poly_handle(1.0, 1.0, 1.0)
    xs = rand_points(64)
    e1, o1 = (part(xs) for part in parity_split(f))
    e2, o2 = (part(xs) for part in parity_split(f))
    assert np.array_equal(e1, e2) and np.array_equal(o1, o2)


# --- grid verification ----------------------------------------------------


def grid_pairs(n=21):
    pts = np.linspace(-5, 5, n)
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def test_verify_solution_passes_exact_polynomial():
    f = poly_handle(2.0, -1.0, 5.0)
    report = verify_solution(f, EquationParams(2), grid_pairs(), 1e-9)
    assert report.passed
    assert report.equation == "general_mixed"
    assert report.k == 2
    assert report.max_residual <= 1e-9 * report.scale
    data = to_json(report)
    assert data["pass"] is True
    assert set(data) == {"equation", "k", "max_residual", "argmax_point", "scale", "pass"}


def test_verify_solution_rejects_quartic():
    f = FunctionHandle(lambda xs: (xs**4)[:, None], SPACE1)
    report = verify_solution(f, EquationParams(2), grid_pairs(), 1e-9)
    assert not report.passed
    x_star, y_star = report.argmax_point
    # residual is 24 y^4, largest at the grid corner
    assert abs(y_star) == 5.0
    assert report.max_residual == pytest.approx(24 * 5.0**4, rel=1e-9)


def test_verify_solution_scale_is_largest_pair_scale():
    f = poly_handle(2.0, -1.0, 5.0)
    pairs = grid_pairs()
    report = verify_solution(f, EquationParams(2), pairs, 1e-9)
    _, scale = operator_residual(
        f, EquationKind.general_mixed(EquationParams(2)), pairs[:, 0], pairs[:, 1]
    )
    assert report.scale == np.max(scale)


def full_array_report(f, params, pairs, tol):
    """verify_solution written over whole arrays, as the reference."""
    X, Y = pairs[:, 0], pairs[:, 1]
    resid, scales = operator_residual(f, EquationKind.general_mixed(params), X, Y)
    norms = f.space.pnorm(resid)
    idx = int(np.argmax(norms))
    scale = float(np.max(scales))
    return {
        "equation": "general_mixed",
        "k": params.k,
        "max_residual": float(norms[idx]),
        "argmax_point": [float(X[idx]), float(Y[idx])],
        "scale": scale,
        "pass": bool(norms[idx] <= tol * scale),
    }


@pytest.mark.parametrize(
    "f",
    [
        # integer grid, exact arithmetic: 24 y^4 ties along the y = +-100
        # columns of every row, in every block; the first pair must win
        FunctionHandle(lambda xs: (xs**4)[:, None], SPACE1),
        # NaN once x + 2|y| > 250, first in row x = 51, past the first block
        FunctionHandle(lambda xs: np.where(xs > 250.0, np.nan, xs**4)[:, None], SPACE1),
        poly_handle(1.0, -2.0, 0.5, PNormSpace(4, 0.5)),
    ],
    ids=["ties", "nan", "cubic-dim4"],
)
def test_verify_solution_blocks_match_the_full_array_reference(f):
    grid = GridSpec(-100.0, 100.0, 201)
    assert grid.count**2 > 2 * _BLOCK
    want = full_array_report(f, EquationParams(2), grid.pairs(), 1e-9)
    for g in (grid, grid.pairs()):
        report = verify_solution(f, EquationParams(2), g, 1e-9)
        assert json.dumps(to_json(report), indent=2) == json.dumps(want, indent=2)


def test_verify_solution_validation():
    f = poly_handle(1.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        verify_solution(f, EquationParams(2), np.zeros((0, 2)), 1e-9)
    with pytest.raises(InvalidInputError):
        verify_solution(f, EquationParams(2), np.zeros((4, 3)), 1e-9)
    for tol in (-1.0, np.inf, np.nan):
        with pytest.raises(InvalidInputError):
            verify_solution(f, EquationParams(2), grid_pairs(5), tol)
