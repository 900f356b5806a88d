"""Laws of the l_p quasi-norm for 0 < p <= 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabeq import InvalidInputError, PNormSpace, modulus_of_concavity, power_sum_residual

P_VALUES = (1.0, 0.75, 0.5, 1.0 / 3.0)


def vec_strategy(dim, bound=100.0):
    elem = st.floats(min_value=-bound, max_value=bound, allow_nan=False)
    return st.lists(elem, min_size=dim, max_size=dim).map(np.array)


def test_pnorm_known_values():
    assert PNormSpace(2, 1.0).pnorm(np.array([3.0, -4.0])) == 7.0
    # (|1|^0.5 + |4|^0.5)^2 = 3^2
    assert PNormSpace(2, 0.5).pnorm(np.array([1.0, 4.0])) == pytest.approx(9.0, rel=1e-14)
    assert PNormSpace(1, 0.5).pnorm(np.array([5.0])) == pytest.approx(5.0, rel=1e-14)


def test_pnorm_shapes_and_types():
    space = PNormSpace(3, 0.5)
    batch = np.ones((5, 7, 3))
    out = space.pnorm(batch)
    assert out.shape == (5, 7)
    scalar = space.pnorm(np.array([1.0, 0.0, 0.0]))
    assert isinstance(scalar, float)
    assert scalar == 1.0


@pytest.mark.parametrize("dim", [1, 4, 9])
def test_pnorm_at_p1_is_the_index_order_l1_sum_bitwise(dim):
    rng = np.random.default_rng(dim)
    v = rng.choice([-1.0, 1.0], (40, dim)) * 10.0 ** rng.uniform(-300, 300, (40, dim))
    v.flat[:5] = [np.inf, -np.inf, np.nan, -0.0, 0.0]
    total = np.abs(v[:, 0])
    for i in range(1, dim):
        total = total + np.abs(v[:, i])
    space = PNormSpace(dim, 1.0)
    assert space.pnorm(v).tobytes() == total.tobytes()
    assert all(np.float64(space.pnorm(row)).tobytes() == t.tobytes() for row, t in zip(v, total))


def test_pnorm_dim_mismatch_rejected():
    space = PNormSpace(3, 1.0)
    with pytest.raises(InvalidInputError):
        space.pnorm(np.zeros(4))


@pytest.mark.parametrize(
    "dim,p",
    [(0, 1.0), (-2, 1.0), (1.5, 1.0), (True, 1.0), (2, 0.0), (2, -0.5), (2, 1.5), (2, float("nan")), (2, True)],
)
def test_space_validation(dim, p):
    with pytest.raises(InvalidInputError):
        PNormSpace(dim, p)


def test_modulus_values():
    assert PNormSpace(1, 1.0).modulus == 1.0
    assert PNormSpace(1, 0.5).modulus == 2.0
    assert PNormSpace(1, 0.25).modulus == 8.0
    for p in P_VALUES:
        assert PNormSpace(4, p).modulus == modulus_of_concavity(p)


def test_modulus_of_concavity_validation():
    for p in (0.0, -1.0, 1.0001):
        with pytest.raises(InvalidInputError):
            modulus_of_concavity(p)


@pytest.mark.parametrize("p", [1e-4, 1e-300, pytest.param(np.float64(1e-4), id="np.float64-0.0001")])
def test_a_modulus_past_float64_raises_naming_p(p):
    """2^(1/p - 1) passes float64's range below p = 1/1025."""
    assert modulus_of_concavity(1.0 / 1024.5) == 2.0**1023.5
    message = f"the modulus M = 2^(1/p - 1) overflows float64 at p = {float(p)!r}"
    with pytest.raises(InvalidInputError) as info:
        modulus_of_concavity(p)
    assert str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(u=vec_strategy(4), c=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_absolute_homogeneity(u, c):
    for p in P_VALUES:
        space = PNormSpace(4, p)
        lhs = space.pnorm(c * u)
        rhs = abs(c) * space.pnorm(u)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(u=vec_strategy(4), v=vec_strategy(4))
def test_p_subadditivity(u, v):
    """||u+v||^p <= ||u||^p + ||v||^p, the p-norm inequality."""
    for p in P_VALUES:
        space = PNormSpace(4, p)
        lhs = space.pnorm(u + v) ** p
        rhs = space.pnorm(u) ** p + space.pnorm(v) ** p
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)


@settings(max_examples=200, deadline=None)
@given(u=vec_strategy(4), v=vec_strategy(4))
def test_quasi_triangle_inequality(u, v):
    """||u+v|| <= M (||u|| + ||v||) with M the modulus of concavity."""
    for p in P_VALUES:
        space = PNormSpace(4, p)
        lhs = space.pnorm(u + v)
        rhs = space.modulus * (space.pnorm(u) + space.pnorm(v))
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_power_sum_residual_known_values():
    assert power_sum_residual(np.array([7.0]), 0.5) == 0.0
    # 1^p + 1^p - 2^p at p = 1/2
    expected = 2.0 - np.sqrt(2.0)
    assert power_sum_residual(np.array([1.0, 1.0]), 0.5) == pytest.approx(expected, rel=1e-15)
    assert power_sum_residual(np.array([2.0, 3.0]), 1.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=8),
    p=st.sampled_from(P_VALUES),
)
def test_power_sum_residual_nonnegative(xs, p):
    assert power_sum_residual(np.array(xs), p) >= -1e-12


def test_power_sum_residual_validation():
    with pytest.raises(InvalidInputError):
        power_sum_residual(np.array([1.0]), 1.5)
    with pytest.raises(InvalidInputError):
        power_sum_residual(np.array([]), 0.5)
    with pytest.raises(InvalidInputError):
        power_sum_residual(np.array([-1.0, 2.0]), 0.5)
    with pytest.raises(InvalidInputError):
        power_sum_residual(np.array([np.inf]), 0.5)


@pytest.mark.parametrize("dim", [8, 9, 12])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_pnorm_does_not_depend_on_memory_layout(dim, p):
    rows = np.random.default_rng(dim).standard_normal((1000, dim)) * 10.0 ** np.arange(dim)
    space = PNormSpace(dim, p)
    c_order = space.pnorm(np.ascontiguousarray(rows))
    f_order = space.pnorm(np.asfortranarray(rows))
    assert c_order.tobytes() == f_order.tobytes()
    in_order = 0.0
    for i in range(dim):
        in_order = in_order + np.abs(rows[:, i]) ** p
    assert c_order.tobytes() == (in_order ** (1.0 / p)).tobytes()


@pytest.mark.parametrize("dim", [1, 3, 7, 12])
def test_pnorm_of_one_vector_matches_its_batch_norm(dim):
    rows = np.random.default_rng(dim).standard_normal((1000, dim)) * 10.0 ** np.arange(dim)
    space = PNormSpace(dim, 0.5)
    batch = space.pnorm(rows)
    assert [space.pnorm(row) for row in rows] == batch.tolist()
