"""The stability theorem checked end to end where its inputs are known.

Two halves of "a report passes because the theorem holds":

- a known theta: for the built-in noise families the residual D_f of
  polynomial plus noise is bounded in closed form (the polynomial's D is 0),
  so theta* satisfies the theorem's hypothesis at every pair, not only at
  the grid's.  Every report run with it must pass; a failure is a defect in
  the limits or the bound, never in calibration.
- a known residual: for a perturbation g shaped like the control, A, Q and
  C are the polynomial's, so f - A - Q - C is g and the bound must cover
  |g(x)|.  bound / |g| is how loose the bound is on that witness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabeq import (
    ConvergenceDiagnostics,
    EquationKind,
    EquationParams,
    ExperimentConfig,
    FunctionHandle,
    GridSpec,
    NoiseSpec,
    PhiForm,
    PNormSpace,
    run_experiment,
)
from stabeq import harness
from stabeq.equations import horner_cubic

# --- a theta that holds everywhere ----------------------------------------


def theta_star(cfg):
    """A theta with ||D_f(x, y)|| <= phi(x, y) at every pair, in closed form.

    D_f = sum_m c_m noise(a_m x + b_m y) over the equation's terms, and each
    of the dim components is bounded alike, so ||.||_p adds dim^(1/p):
    - bounded_smooth, |eps sin| <= eps, under the constant control:
      eps sum_m |c_m| = eps (2 + 2k^2 + 2|k^2 - 1|);
    - power_scaled, |eps |u|^lam cos| <= eps |u|^lam, under sum:lam:lam:
      |a x + b y|^lam <= max(1, 2^(lam-1)) max(|a|, |b|)^lam (|x|^lam + |y|^lam).
    """
    terms = EquationKind.general_mixed(EquationParams(cfg.k)).terms
    eps = cfg.noise.amplitude
    if cfg.noise.kind == "bounded_smooth":
        theta = eps * sum(abs(c) for c, _, _ in terms)
    else:
        lam = cfg.phi_form.r
        spread = sum(abs(c) * max(abs(a), abs(b)) ** lam for c, a, b in terms)
        theta = eps * max(1.0, 2.0 ** (lam - 1.0)) * spread
    return theta * cfg.codomain_dim ** (1.0 / cfg.p)


# The perturbation space of the calibrated-theta property (ROADMAP item 4),
# restricted to the two families theta_star covers.  sum:lam:lam keeps lam
# off the critical exponents 1, 2 and 3.
COMMON = dict(
    k=st.sampled_from([2, 3, -2, 5]),
    p=st.sampled_from([1.0, 0.75, 0.5]),
    codomain_dim=st.sampled_from([1, 2]),
    half=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    count=st.sampled_from([11, 21, 41]),
    eps=st.sampled_from([1e-3, 1e-2, 1e-1]),
    seed=st.integers(0, 2**16),
)
FAMILIES = st.one_of(
    st.fixed_dictionaries({**COMMON, "kind": st.just("bounded_smooth"), "lam": st.just(None)}),
    st.fixed_dictionaries(
        {
            **COMMON,
            "kind": st.just("power_scaled"),
            "lam": st.sampled_from([0.25, 0.3, 0.4, 0.5, 2.5, 4.0]),
        }
    ),
)


@settings(max_examples=150, deadline=None)
@given(FAMILIES)
def test_every_report_passes_under_a_theta_that_holds_everywhere(draw):
    cfg = ExperimentConfig(
        k=draw["k"],
        p=draw["p"],
        codomain_dim=draw["codomain_dim"],
        noise=NoiseSpec(draw["kind"], draw["eps"], draw["seed"]),
        phi_form=PhiForm() if draw["lam"] is None else PhiForm("sum", draw["lam"], draw["lam"]),
        grid=GridSpec(-draw["half"], draw["half"], draw["count"]),
    )
    theta = theta_star(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "calibrate_theta", lambda f, params, phi_form, grid: theta)
        report = run_experiment(cfg)
    assert report.theta_used == theta
    assert report.passed
    assert min(row.margin for row in report.rows) >= 0.0


# --- witnesses with a known residual --------------------------------------

EPS = 0.01

SUM_4_4 = PhiForm("sum", 4.0, 4.0)

# (name, control, k, witness g, min over x != 0 of bound / |g(x)| by p).
# Under sum:4:4 at k = 3 every slot contracts and g has degree 4; under the
# constant control at k = 2 every slot expands and g is bounded: either way
# the limits of g vanish.  The ratios are the bound's looseness on the
# witness; a change to the bound moves them.
WITNESSES = [
    ("eps |x|^4", SUM_4_4, 3, lambda x: EPS * np.abs(x) ** 4, {1.0: 302, 0.75: 6.31e3, 0.5: 4.34e6}),
    ("eps x |x|^3", SUM_4_4, 3, lambda x: EPS * x * np.abs(x) ** 3, {1.0: 149, 0.75: 3.12e3, 0.5: 2.14e6}),
    ("eps sign(x)", PhiForm(), 2, lambda x: EPS * np.sign(x), {1.0: 4.28, 0.75: 83.5, 0.5: 6.74e4}),
    ("eps [x != 0]", PhiForm(), 2, lambda x: EPS * (x != 0.0), {1.0: 4.28, 0.75: 83.5, 0.5: 6.74e4}),
]


@pytest.mark.parametrize("p", [1.0, 0.75, 0.5])
@pytest.mark.parametrize("name, phi, k, g, ratios", WITNESSES, ids=[w[0] for w in WITNESSES])
def test_the_bound_covers_a_witness_residual(monkeypatch, name, phi, k, g, ratios, p):
    def polynomial_plus_g(cfg):
        return FunctionHandle.componentwise(
            PNormSpace(cfg.codomain_dim, cfg.p),
            lambda x, a3, a2, a1: horner_cubic(x, a3, a2, a1) + g(x),
            *cfg.poly,
        )

    monkeypatch.setattr(harness, "make_test_function", polynomial_plus_g)
    report = run_experiment(ExperimentConfig(k=k, p=p, phi_form=phi))
    assert report.passed
    xs = np.array([row.x for row in report.rows])
    exact = np.abs(g(xs))
    bound = np.array([row.bound for row in report.rows])
    residual = np.array([row.residual for row in report.rows])
    assert np.all(bound >= exact)
    # Each limit is within its last Cauchy step of the exact one here (the
    # steps shrink at least twofold per level), so the residual is |g| to
    # within the components' worst last steps.
    steps = sum(
        d.last_step for d in report.diagnostics.values() if isinstance(d, ConvergenceDiagnostics)
    )
    assert residual == pytest.approx(exact, rel=0.0, abs=steps)
    live = exact > 0.0
    assert np.min(bound[live] / exact[live]) == pytest.approx(ratios[p], rel=5e-3)
