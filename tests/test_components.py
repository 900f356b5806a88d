"""The IterKind table against the limits and the comparison series that read it.

Each component of degree d is one IterKind row; the iteration that recovers
it and the series that bounds it must both take their numbers from that row.
"""

import numpy as np
import pytest

from stabeq import (
    BoundContext,
    CriticalExponentError,
    Direction,
    EquationParams,
    FunctionHandle,
    IterKind,
    PNormSpace,
    PowerBound,
    decompose_full,
    psi_tilde_bound,
    select_directions,
)
from stabeq.bounds import _series_geometry

SPACE1 = PNormSpace(1, 1.0)
XS = np.array([-2.5, -1.0, -0.3, 0.0, 0.7, 1.0, 3.0])


def test_the_table_lists_each_component_once_in_slot_order():
    assert [(kind.label, kind.letter, kind.degree) for kind in IterKind] == [
        ("quadratic", "e", 2.0),
        ("additive", "a", 1.0),
        ("cubic", "c", 3.0),
    ]
    assert [kind.odd for kind in IterKind] == [False, True, True]
    assert [kind.base(EquationParams(-3)) for kind in IterKind] == [-3, 2, 2]


@pytest.mark.parametrize("kind", list(IterKind))
@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("k", [2, -3])
def test_the_limit_of_a_degree_d_monomial_is_stationary_and_returns_it(kind, direction, k):
    """x^d lies in the kind's part of f only; its iterate does not move, and the
    scaled limit gives x^d back while the other two components vanish."""
    d = kind.degree
    f = FunctionHandle(lambda xs: (xs**d)[:, None], SPACE1)
    dec = decompose_full(f, EquationParams(k), (direction,) * 3)
    components = dict(zip(("additive", "quadratic", "cubic"), dec.components_at(XS)))
    for label, vals in components.items():
        want = XS**d if label == kind.label else np.zeros_like(XS)
        np.testing.assert_allclose(vals[:, 0], want, rtol=1e-13, atol=1e-13)
    assert dec.diagnostics[kind.label].n_used == 1
    assert dec.diagnostics[kind.label].converged


@pytest.mark.parametrize("kind", list(IterKind))
def test_the_degree_is_the_critical_exponent_of_the_series(kind):
    """A y-power control reads every series; d picks its direction and ratio 1."""
    slot = list(IterKind).index(kind)
    d = kind.degree
    assert select_directions(PowerBound("sum", 1.0, 0.0, d + 0.5))[slot] is Direction.CONTRACT
    assert select_directions(PowerBound("sum", 1.0, 0.0, d - 0.5))[slot] is Direction.EXPAND
    with pytest.raises(CriticalExponentError):
        select_directions(PowerBound("sum", 1.0, 0.0, d))
    # The series is named by the kind or by its letter.
    ctx = BoundContext(EquationParams(2), SPACE1, PowerBound("sum", 1.0, 0.0, d + 0.5))
    assert psi_tilde_bound(kind, ctx, XS).tolist() == psi_tilde_bound(kind.letter, ctx, XS).tolist()
    # 2^-20 from d, each side in its own direction, the step ratio is just below 1.
    for k in (2, -3, 5):
        for p in (1.0, 0.5):
            for direction in Direction:
                e = d + int(direction) * 2.0**-20
                ctx = BoundContext(EquationParams(k), PNormSpace(1, p), PowerBound("sum", 1.0, 0.0, e))
                _, _, j, rho = _series_geometry(kind, ctx)
                assert j == int(direction)
                assert 1.0 - 1e-5 < rho < 1.0


def test_diagnostics_are_keyed_by_the_labels_in_member_order():
    f = FunctionHandle(lambda xs: (xs**3 + xs**2 + xs)[:, None], SPACE1)
    dec = decompose_full(f, EquationParams(2))
    dec.components_at(XS)
    assert list(dec.diagnostics) == [kind.label for kind in IterKind]
