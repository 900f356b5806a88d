"""One workload in one fresh process; prints one JSON line on stdout.

run.py starts this file once per role:

  setup    import stabeq, build the run's configs and make one warm-up
           certificate; report how long that took.
  measure  the same set-up, then a closed loop of certificates (one client,
           the next certificate starts when the previous report is emitted)
           for --seconds; report latencies, throughput and peak RSS.
  trace    the same set-up, one `stabeq experiment` call through click's
           CliRunner, then alternate untraced and traced certificates for
           --seconds; report the per-layer metrics and write the spans.

Every certificate's report is checked independently of the program and its
SHA-256 digest compared with golden.json.  numpy and stabeq are imported
inside functions, after set-up timing starts, because users pay for their
import too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import SPECS, cli_args, make_configs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# Counters are averaged over this many traced certificates at the head of
# the run's sequence, so two traced runs with one seed count the same work.
COUNTED = 4

# A row's certificate holds when margin >= -_SLACK * (1 + bound), the slack
# run_experiment itself allows.
_SLACK = 1e-12


def import_stabeq():
    """Import stabeq from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import stabeq

    if Path(stabeq.__file__).resolve().parent != SRC / "stabeq":
        raise SystemExit(f"stabeq imported from {stabeq.__file__}, not {SRC}")
    return stabeq


def load_golden(workload: str) -> dict:
    return json.loads((HERE / "golden.json").read_text()).get(workload, {})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


COLUMNS = ("x", "f", "A", "Q", "C", "residual", "bound", "margin")
VECTOR_COLUMNS = ("f", "A", "Q", "C")


def _parse_csv(text: str) -> list[list]:
    lines = text.split("\n")
    if lines[0] != ",".join(COLUMNS) or lines[-1] != "":
        raise ValueError("CSV header or final newline missing")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != len(COLUMNS) for r in rows):
        raise ValueError(f"CSV row without {len(COLUMNS)} fields")
    return [
        [[float(v) for v in r[i].split(";")] if name in VECTOR_COLUMNS else float(r[i]) for r in rows]
        for i, name in enumerate(COLUMNS)
    ]


def _parse_json(text: str) -> list[list]:
    data = json.loads(text)
    if data["pass"] is not True:
        raise ValueError("JSON report has pass != true")
    if not all(d["converged"] for d in data["diagnostics"].values() if isinstance(d, dict)):
        raise ValueError("JSON report has an unconverged component")
    return [[r[name] for r in data["rows"]] for name in COLUMNS]


def check_report(cfg, report, text: str, fmt: str) -> str | None:
    """What is wrong with one emitted report, or None.

    Re-derives every row from the emitted cells: grid points, finite cells,
    residual = pnorm(f - A - Q - C), margin = bound - residual, and the
    certificate itself, margin >= -slack * (1 + bound).
    """
    import numpy as np

    if not report.passed:
        return "report.passed is false"
    try:
        cols = _parse_csv(text) if fmt == "csv" else _parse_json(text)
        x, f, A, Q, C, resid, bound, margin = (np.asarray(c, dtype=float) for c in cols)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    shape = (cfg.grid.count, cfg.codomain_dim)
    if any(v.shape != shape for v in (f, A, Q, C)) or any(
        v.shape != shape[:1] for v in (x, resid, bound, margin)
    ):
        return "report rows do not match the grid and dimension"
    if not all(np.isfinite(v).all() for v in (x, f, A, Q, C, resid, bound, margin)):
        return "non-finite cell"
    if not np.array_equal(x, cfg.grid.points()):
        return "x column is not the grid"

    def pn(v):
        return np.sum(np.abs(v) ** cfg.p, axis=-1) ** (1.0 / cfg.p)

    scale = 1.0 + pn(f) + pn(A) + pn(Q) + pn(C)
    if np.any(np.abs(resid - pn(f - (A + Q + C))) > 1e-9 * scale):
        return "residual column is not pnorm(f - A - Q - C)"
    if np.any(np.abs(margin - (bound - resid)) > _SLACK * (1.0 + bound)):
        return "margin column is not bound - residual"
    if np.any(margin < -_SLACK * (1.0 + bound)):
        return "bound does not cover the residual"
    return None


class Session:
    """A workload's configs, golden digests and tallies inside one process."""

    def __init__(self, workload: str, seed: int):
        self.stabeq = import_stabeq()
        self.fmt = SPECS[workload]["format"]
        self.configs = make_configs(workload, seed)
        self.golden = load_golden(workload)
        self.attempted = 0
        self.failed = 0
        self.audited = 0
        self.drifted = 0
        self.problems: list[str] = []
        self.digests: list[tuple[int, str]] = []  # (noise seed, report digest)
        self.last = None  # outcome of the latest certificate

    def certify(self, cfg):
        """One certificate, run_experiment then emit; returns (report, text)."""
        report = self.stabeq.run_experiment(cfg)
        return report, self.stabeq.emit_report(report, self.fmt)

    def audit(self, cfg, outcome) -> None:
        """Tally one certificate: outcome is (report, text) or the exception."""
        self.attempted += 1
        self.audited += 1
        self.last = outcome
        if isinstance(outcome, Exception):
            problem = f"raised {type(outcome).__name__}: {outcome}"
        else:
            report, text = outcome
            problem = check_report(cfg, report, text, self.fmt)
            self.digests.append((cfg.noise.seed, digest(text)))
            if self.golden.get(str(cfg.noise.seed)) != self.digests[-1][1]:
                self.drifted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"noise seed {cfg.noise.seed}: {problem}")

    def attempt(self, cfg, certify=None) -> float | None:
        """Run, time and audit one certificate; its seconds, or None if it raised."""
        t0 = perf_counter()
        try:
            outcome = (certify or self.certify)(cfg)
        except Exception as exc:  # a raising certificate is a counted failure
            self.audit(cfg, exc)
            return None
        elapsed = perf_counter() - t0
        self.audit(cfg, outcome)
        return elapsed

    def tallies(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "drifted": self.drifted,
            "problems": self.problems,
        }


def set_up(workload: str, seed: int) -> tuple[Session, float]:
    """Import, build configs, one warm-up certificate of the first config.

    Returns the session and the set-up time.
    """
    t0 = perf_counter()
    session = Session(workload, seed)
    built = perf_counter() - t0
    warm_up = session.attempt(session.configs[0])  # times the run, not the audit
    return session, built + (warm_up or 0.0)


def measure(session: Session, seconds: float) -> dict:
    lat = []
    t_end = perf_counter() + seconds
    i = 0
    while perf_counter() < t_end:
        elapsed = session.attempt(session.configs[i % len(session.configs)])
        i += 1
        if elapsed is not None:
            lat.append(elapsed)
    if not lat:
        raise SystemExit("no certificate completed")
    return {
        "cert_p50_ms": statistics.median(lat) * 1e3,
        "certs_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": len(lat),
    }


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans, certs: dict) -> dict:
    """Per-layer metrics of the traced certificates.

    certs maps a traced certificate's id to its (report, text).  Times are
    medians over all traced certificates of each certificate's layer time;
    counts are means over the first COUNTED of them, which every traced run
    with the same seed makes identically.
    """
    from tracing import layer_times

    lt = layer_times(spans)
    per = {c: {} for c in certs}

    def add(c, key, value):
        per[c][key] = per[c].get(key, 0) + value

    for i, (name, _s, _e, _p, c, f_evals, f_calls, points) in enumerate(spans):
        if name == "cert":
            add(c, "equations.f_evals", f_evals)
            add(c, "equations.f_calls", f_calls)
        elif name == "quasinorm.pnorm":
            add(c, "quasinorm.pnorm_calls", 1)
            add(c, "quasinorm.pnorm_s", lt[i])
        elif name == "harness.calibrate":
            add(c, "harness.calibrate_s", lt[i])
            add(c, "harness.calibrate_f_evals", f_evals)
            add(c, "harness.calibrate_pairs", points)
        elif name == "approximants.decompose":
            add(c, "approximants.decompose_s", lt[i])
        elif name == "approximants.take_limit":
            add(c, "approximants.take_limit_calls", 1)
            add(c, "approximants.take_limit_points", points)
            add(c, "approximants.f_evals", f_evals)
            if "approximants.decompose" not in _ancestors(spans, i):
                add(c, "approximants.grid_eval_s", lt[i])
        elif name == "bounds.full_bound":
            add(c, "bounds.full_bound_s", lt[i])
        elif name == "bounds.psi":
            add(c, "bounds.psi_calls", 1)
            add(c, "bounds.psi_points", points)
            add(c, "bounds.psi_s", lt[i])
        elif name == "harness.emit":
            add(c, "harness.emit_s", lt[i])
    for c, (report, text) in certs.items():
        add(c, "harness.report_bytes", len(text.encode()))
        for kind in ("additive", "quadratic", "cubic"):
            add(c, f"approximants.n_used.{kind}", report.diagnostics[kind].n_used)

    ids = sorted(certs)
    head = ids[:COUNTED]
    keys = sorted({k for c in ids for k in per[c]})
    out = {}
    for key in keys:
        if key.endswith("_s"):
            out[key] = statistics.median(per[c].get(key, 0.0) for c in ids)
        else:
            out[key] = sum(per[c].get(key, 0) for c in head) / len(head)
    points = sum(per[c].get("approximants.take_limit_points", 0) for c in head)
    evals = sum(per[c].get("approximants.f_evals", 0) for c in head)
    out["approximants.f_evals_per_point"] = evals / points if points else 0.0
    return out


def trace(session: Session, workload: str, seed: int, seconds: float) -> dict:
    from click.testing import CliRunner
    from stabeq.cli import main as cli_main
    from tracing import Tracer, instrumented

    first = session.configs[0]
    expected = session.last[1] if isinstance(session.last, tuple) else None
    t0 = perf_counter()
    result = CliRunner().invoke(cli_main, cli_args(first, session.fmt))
    cli_s = perf_counter() - t0
    session.attempted += 1
    if result.exit_code != 0 or result.stdout != expected:
        session.failed += 1
        session.problems.append("`stabeq experiment` output differs from emit_report")

    tracer = Tracer()
    traced: dict = {}

    def certify_traced(cfg):
        with instrumented(tracer), tracer.span("cert"):
            with tracer.span("harness.run_experiment"):
                report = session.stabeq.run_experiment(cfg)
            with tracer.span("harness.emit"):
                text = session.stabeq.emit_report(report, session.fmt)
        traced[tracer.cert] = (report, text)
        return report, text

    plain, timed = [], []
    t_end = perf_counter() + seconds
    i = 0
    # Alternate untraced and traced certificates of the same config, so the
    # overhead ratio compares like with like under the same machine load.
    while perf_counter() < t_end or len(traced) < COUNTED:
        cfg = session.configs[i % len(session.configs)]
        tracer.cert = i
        a = session.attempt(cfg)
        b = session.attempt(cfg, certify_traced)
        i += 1
        if a is not None and b is not None:
            plain.append(a)
            timed.append(b)
    if not timed:
        raise SystemExit("no traced certificate completed")

    metrics = layer_metrics(tracer.spans, traced)
    metrics["cli.experiment_s"] = cli_s
    metrics["harness.report_digest_changed"] = session.drifted / session.audited
    metrics["trace.overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1.0
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{workload}-seed{seed}.jsonl")
    return metrics


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--role", required=True, choices=("setup", "measure", "trace"))
    args = ap.parse_args(argv)

    session, setup_s = set_up(args.workload, args.seed)
    out = {"setup_s": setup_s}
    if args.role == "measure":
        out["metrics"] = measure(session, args.seconds)
    elif args.role == "trace":
        out["metrics"] = trace(session, args.workload, args.seed, args.seconds)
    out.update(session.tallies())
    if not all(math.isfinite(v) for v in out.get("metrics", {}).values()):
        raise SystemExit("non-finite metric")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
