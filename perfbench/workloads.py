"""The benchmark's workloads and the inputs each run generates from its seed.

A workload fixes everything about an experiment except the perturbation's
noise seed.  Noise seeds come from a pool of NOISE_POOL values (the
criterion-05 range 0..99); a run's certificate sequence is a permutation of
that pool drawn from the workload seed, cycled as often as the run needs.
Keeping the pool finite is what lets golden.json hold one report digest per
(workload, noise seed), and a run long enough to cycle the pool sees every
config equally often whatever its seed, so the seed changes the order of the
work but not its mix.

This module imports stabeq only inside the functions that build configs, so
the parent runner can read the workload names without importing numpy.
"""

from __future__ import annotations

NOISE_POOL = 100

# Why each workload exists is recorded in README.md.  Keep each shape fixed:
# results are compared across commits by workload name.
SPECS = {
    "sweep-expand": {
        "k": 2,
        "p": 1.0,
        "dim": 1,
        "phi": ("constant", 0.0, 0.0),
        "noise": ("bounded_smooth", 0.01),
        "grid": (-5.0, 5.0, 101),
        "format": "csv",
    },
    "grid1001-dim4": {
        "k": 2,
        "p": 1.0,
        "dim": 4,
        "phi": ("constant", 0.0, 0.0),
        "noise": ("bounded_smooth", 0.01),
        "grid": (-5.0, 5.0, 1001),
        "format": "csv",
    },
    "power-contract": {
        "k": 3,
        "p": 0.5,
        "dim": 1,
        "phi": ("sum", 4.0, 4.0),
        "noise": ("power_scaled", 0.01),
        "grid": (-5.0, 5.0, 101),
        "format": "json",
    },
}


def noise_seeds(workload: str, seed: int) -> list[int]:
    """One cycle of the run's noise seeds: a seeded permutation of the pool."""
    import numpy as np

    index = list(SPECS).index(workload)
    order = np.random.default_rng([seed, index]).permutation(NOISE_POOL)
    return [int(s) for s in order]


def make_config(workload: str, noise_seed: int):
    """The ExperimentConfig of one certificate of the workload."""
    from stabeq import ExperimentConfig, GridSpec, NoiseSpec, PhiForm

    spec = SPECS[workload]
    kind, eps = spec["noise"]
    return ExperimentConfig(
        k=spec["k"],
        p=spec["p"],
        codomain_dim=spec["dim"],
        noise=NoiseSpec(kind, eps, noise_seed),
        phi_form=PhiForm(*spec["phi"]),
        grid=GridSpec(*spec["grid"]),
    )


def make_configs(workload: str, seed: int) -> list:
    """The configs of one cycle, in run order; a pure function of the seed."""
    return [make_config(workload, s) for s in noise_seeds(workload, seed)]


def cli_args(cfg, fmt: str) -> list[str]:
    """`stabeq experiment` flags that reproduce cfg (tol and max_n at default)."""
    g, n, ph = cfg.grid, cfg.noise, cfg.phi_form
    return [
        "experiment",
        "--k", str(cfg.k),
        "--p", repr(cfg.p),
        "--dim", str(cfg.codomain_dim),
        "--noise", f"{n.kind}:{n.amplitude!r}:{n.seed}",
        "--phi", f"{ph.form}:{ph.r!r}:{ph.s!r}",
        "--grid", f"{g.lo!r}:{g.hi!r}:{g.count}",
        "--format", fmt,
    ]
