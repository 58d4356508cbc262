"""Command-line interface.

Subcommands::

    lqgcost analyze MODEL [--method {auto,lyapunov,expm}] [--horizon T|inf] [--out F]
    lqgcost simulate MODEL --paths N [--dt DT] [--T T] [--seed S]
                     [--threshold J] [--scheme {euler,exact}] [--out F]
    lqgcost synthesize PLANT [--full-state] [--out-model F] [--out F]
    lqgcost tune PLANT [--objective {mean,variance}] [--init "a,b,..."]
                     [--max-iter N] [--out F]
    lqgcost reproduce-example [--paths N] [--assumption-file F] [--seed S]
                     [--dt DT] [--T T] [--threshold J] [--out F]

Every command prints a human-readable table on stdout and, with ``--out``,
writes the same results as a structured JSON report.  Exit codes: 0 on
success, 1 for input/usage errors, 2 for mathematical-condition errors
(invalid spectrum, diverging cost, failed synthesis, ...).
"""

import argparse
import json
import sys as _sys

import numpy as np

from .cost_expm import auto_cost_stats, cost_stats_expm
from .cost_lyap import cost_stats_lyapunov
from .demo import default_assumption, threshold_study
from .exceptions import (
    AccuracyError,
    ConditionError,
    LqgCostError,
    ModelFormatError,
    NumericalError,
)
from .lqg import close_loop_full_state, close_loop_output_feedback, synthesize_gains
from .models import (
    ModelDocument,
    dump_report,
    load_model,
    save_system_model,
)
from .simulate import SimConfig, simulate_costs
from .systems import CostSpec, INFINITE_HORIZON
from .tune import TuneOptions, minimize_variance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONDITION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _write_out(args, report):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_report(report))


def _fmt(x):
    return f"{x:.10g}"


def _print_conditions(conditions):
    for c in conditions:
        flag = "PASS" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        print(f"  condition {c.name:<24s} {flag}{detail}")


def _require_system(doc: ModelDocument, command):
    if doc.kind != "system":
        raise ModelFormatError(f"{command} expects a model of kind \"system\"")
    return doc.system, doc.cost


def _require_plant(doc: ModelDocument, command):
    if doc.kind != "plant":
        raise ModelFormatError(f"{command} expects a model of kind \"plant\"")
    return doc


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    doc = load_model(args.model)
    system, cost = _require_system(doc, "analyze")
    if args.horizon is not None:
        horizon = INFINITE_HORIZON if args.horizon == "inf" else float(args.horizon)
        cost = CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=horizon)
    if args.method == "lyapunov":
        stats = cost_stats_lyapunov(system, cost)
    elif args.method == "expm":
        stats = cost_stats_expm(system, cost)
    else:
        stats = auto_cost_stats(system, cost)

    print(f"analyze {args.model}")
    horizon_txt = "inf" if cost.is_infinite else _fmt(cost.horizon)
    print(f"  horizon = {horizon_txt}, alpha = {_fmt(cost.alpha)}")
    print(f"  method  = {stats.method}  [{stats.branch}]")
    _print_conditions(stats.conditions_checked)
    print(f"  mean     = {_fmt(stats.mean)}")
    print(f"  variance = {_fmt(stats.variance)}")
    print(f"  std      = {_fmt(stats.std)}")

    report = {
        "command": "analyze",
        "method": stats.method,
        "branch": stats.branch,
        "mean": stats.mean,
        "variance": stats.variance,
        "std": stats.std,
        "raw_variance": stats.raw_variance,
        "conditions": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in stats.conditions_checked
        ],
        "horizon": "inf" if cost.is_infinite else cost.horizon,
        "alpha": cost.alpha,
    }
    _write_out(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    doc = load_model(args.model)
    system, cost = _require_system(doc, "simulate")
    horizon = args.T
    if horizon is None:
        if cost.is_infinite:
            raise _UsageError("--T is required when the model's cost horizon is infinite")
        horizon = cost.horizon
    cfg = SimConfig(dt=args.dt, T=horizon, n_paths=args.paths, seed=args.seed,
                    threshold=args.threshold, scheme=args.scheme)
    empirical = simulate_costs(system, cost, cfg)

    effective_t = cfg.n_steps * cfg.dt
    analytic = None
    analytic_error = None
    agreement = None
    try:
        finite_cost = CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=effective_t)
        stats = auto_cost_stats(system, finite_cost)
        analytic = {"mean": stats.mean, "variance": stats.variance,
                    "method": stats.method, "horizon": effective_t}
        mean_z = abs(empirical.mean - stats.mean) / empirical.mean_stderr
        var_z = abs(empirical.variance - stats.variance) / empirical.variance_stderr
        agreement = {
            "mean_z": mean_z,
            "variance_z": var_z,
            "within_4_stderr": bool(mean_z <= 4.0 and var_z <= 4.0),
        }
    except LqgCostError as exc:
        analytic_error = str(exc)

    print(f"simulate {args.model}")
    print(f"  scheme = {cfg.scheme}, paths = {cfg.n_paths}, dt = {_fmt(cfg.dt)}, "
          f"T = {_fmt(effective_t)}, seed = {cfg.seed}")
    print(f"  empirical mean     = {_fmt(empirical.mean)}  (stderr {_fmt(empirical.mean_stderr)})")
    print(f"  empirical variance = {_fmt(empirical.variance)}  (stderr {_fmt(empirical.variance_stderr)})")
    if empirical.exceed_prob is not None:
        print(f"  exceedance p(J > {_fmt(cfg.threshold)}) = {_fmt(empirical.exceed_prob)}"
              f"  ({empirical.exceed_count}/{empirical.n_paths})")
    if analytic is not None:
        flag = "PASS" if agreement["within_4_stderr"] else "FAIL"
        print(f"  analytic mean/variance = {_fmt(analytic['mean'])} / {_fmt(analytic['variance'])}"
              f"  (method {analytic['method']})")
        print(f"  agreement |z| mean = {_fmt(agreement['mean_z'])}, "
              f"variance = {_fmt(agreement['variance_z'])}  -> {flag}")
    else:
        print(f"  analytic comparison unavailable: {analytic_error}")

    report = {
        "command": "simulate",
        "config": {"dt": cfg.dt, "T": effective_t, "n_paths": cfg.n_paths,
                   "seed": cfg.seed, "scheme": cfg.scheme,
                   "threshold": cfg.threshold},
        "empirical": {
            "mean": empirical.mean,
            "variance": empirical.variance,
            "mean_stderr": empirical.mean_stderr,
            "variance_stderr": empirical.variance_stderr,
            "n_paths": empirical.n_paths,
            "exceed_prob": empirical.exceed_prob,
            "exceed_count": empirical.exceed_count,
            "exceed_stderr": empirical.exceed_stderr,
        },
        "analytic": analytic,
        "analytic_error": analytic_error,
        "agreement": agreement,
    }
    _write_out(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def cmd_synthesize(args):
    doc = load_model(args.model)
    doc = _require_plant(doc, "synthesize")
    plant = doc.plant
    gains = synthesize_gains(plant, full_state=args.full_state)

    if args.full_state:
        closed_sys, closed_cost = close_loop_full_state(
            plant, gains.F, doc.mu0, doc.Sigma0, horizon=doc.horizon)
    else:
        n = plant.n_states
        mu0_aug = np.concatenate([doc.mu0, np.zeros(n)])
        sigma0_aug = np.zeros((2 * n, 2 * n))
        sigma0_aug[:n, :n] = doc.Sigma0
        closed_sys, closed_cost = close_loop_output_feedback(
            plant, gains.F, gains.K, mu0_aug, sigma0_aug, horizon=doc.horizon)

    spectrum = np.sort_complex(np.linalg.eigvals(closed_sys.A))
    print(f"synthesize {args.model}")
    print(f"  F = {np.array2string(gains.F, precision=6)}")
    if gains.K is not None:
        print(f"  K = {np.array2string(gains.K, precision=6)}")
    print("  closed-loop eigenvalues:")
    for lam in spectrum:
        print(f"    {lam.real:+.6g} {lam.imag:+.6g}j")
    if args.out_model:
        save_system_model(args.out_model, closed_sys, closed_cost)
        print(f"  closed-loop model written to {args.out_model}")

    report = {
        "command": "synthesize",
        "F": gains.F.tolist(),
        "K": None if gains.K is None else gains.K.tolist(),
        "closed_loop_eigenvalues": [[lam.real, lam.imag] for lam in spectrum],
        "full_state": bool(args.full_state),
        "out_model": args.out_model,
    }
    _write_out(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def cmd_tune(args):
    doc = load_model(args.model)
    doc = _require_plant(doc, "tune")
    plant = doc.plant
    if args.init is not None:
        entries = [float(v) for v in args.init.split(",")]
        if len(entries) != plant.n_inputs * plant.n_states:
            raise _UsageError(
                f"--init needs {plant.n_inputs * plant.n_states} comma-separated entries"
            )
        f0 = np.array(entries).reshape(plant.n_inputs, plant.n_states)
    else:
        f0 = synthesize_gains(plant, full_state=True).F
    opts = TuneOptions(f0=f0, objective=args.objective, max_iter=args.max_iter,
                       grad_tol=args.grad_tol)
    result = minimize_variance(plant, doc.mu0, doc.Sigma0, opts)

    print(f"tune {args.model} (objective = {args.objective})")
    print(f"  F0        = {np.array2string(f0, precision=6)}")
    print(f"  F         = {np.array2string(result.F, precision=6)}")
    print(f"  objective = {_fmt(result.objective_value)} after {result.iterations} iterations"
          f" (converged = {result.converged})")
    print(f"  stopped on {result.stop_reason}, gradient norm = {_fmt(result.gradient_norm)}")
    print(f"  mean = {_fmt(result.mean_at_F)}, variance = {_fmt(result.variance_at_F)}")

    report = {
        "command": "tune",
        "objective": args.objective,
        "F0": f0.tolist(),
        "F": result.F.tolist(),
        "objective_value": result.objective_value,
        "mean": result.mean_at_F,
        "variance": result.variance_at_F,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "gradient_norm": result.gradient_norm,
        "trace": [[i, v] for i, v in result.trace],
    }
    _write_out(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce-example
# ---------------------------------------------------------------------------

def _load_assumption(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})")
    allowed = {"V", "mu0", "Sigma0"}
    if not isinstance(raw, dict) or set(raw) - allowed:
        raise ModelFormatError(f"{path}: assumption file allows only fields {sorted(allowed)}")
    base = default_assumption()
    out = {}
    for key in allowed:
        out[key] = np.asarray(raw.get(key, base[key]), dtype=float)
    return out


def cmd_reproduce_example(args):
    assumption = _load_assumption(args.assumption_file) if args.assumption_file else None
    report = threshold_study(
        n_paths=args.paths, dt=args.dt, horizon=args.T, threshold=args.threshold,
        seed=args.seed, assumption=assumption, scheme=args.scheme,
        tune_max_iter=args.tune_iters,
    )

    a = report["assumption"]
    print("threshold-exceedance study on the two-state benchmark plant")
    print(f"  assumption: V = {a['V']}, mu0 = {a['mu0']}, Sigma0 = {a['Sigma0']}")
    print(f"  config: paths = {args.paths}, T = {_fmt(args.T)}, dt = {_fmt(args.dt)}, "
          f"threshold = {_fmt(args.threshold)}, seed = {args.seed}")
    header = (f"  {'gain':<28s} {'E[J]':>10s} {'sd[J]':>10s} "
              f"{'p(J>thr)':>10s} {'count':>8s} {'consistent':>10s}")
    print(header)
    for label in ("mean_optimal", "variance_minimizing"):
        row = report[label]
        gain = ", ".join(f"{g:.4f}" for g in np.ravel(row["gain"]))
        ok = "yes" if row["consistency"]["within_4_stderr"] else "NO"
        print(f"  {('[' + gain + ']'):<28s} {row['analytic']['mean']:>10.4f} "
              f"{row['analytic']['std']:>10.4f} "
              f"{row['empirical']['exceed_prob']:>10.5%} "
              f"{row['empirical']['exceed_count']:>8d} {ok:>10s}")
    tuner = report["tuner"]
    print(f"  tuner: {tuner['iterations']} iterations, stopped on {tuner['stop_reason']}, "
          f"gradient norm = {_fmt(tuner['gradient_norm'])}")
    direction = "holds" if report["direction_holds"] else "DOES NOT HOLD"
    print(f"  variance-minimizing gain exceeds the threshold less often: {direction}")

    _write_out(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="lqgcost",
                     description="mean/variance of quadratic costs of noisy linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analytic mean and variance of a model's cost")
    p.add_argument("model")
    p.add_argument("--method", choices=["auto", "lyapunov", "expm"], default="auto")
    p.add_argument("--horizon", default=None,
                   help="override the model's cost horizon (a number or 'inf')")
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the cost statistics")
    p.add_argument("model")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--scheme", choices=["euler", "exact"], default="euler")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synthesize", help="Riccati feedback and observer gains")
    p.add_argument("model")
    p.add_argument("--full-state", action="store_true",
                   help="skip the observer (state fully measured)")
    p.add_argument("--out-model", default=None,
                   help="write the closed loop as a system-kind model file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("tune", help="BFGS search of the feedback gain on exact gradients")
    p.add_argument("model")
    p.add_argument("--objective", choices=["mean", "variance"], default="variance")
    p.add_argument("--init", default=None,
                   help="comma-separated initial gain entries (default: Riccati gain)")
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--grad-tol", type=float, default=1e-2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("reproduce-example",
                       help="threshold-exceedance study on the bundled benchmark")
    p.add_argument("--paths", type=int, default=250_000)
    p.add_argument("--assumption-file", default=None,
                   help="JSON file overriding the documented V / mu0 / Sigma0")
    p.add_argument("--seed", type=int, default=20160501)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--threshold", type=float, default=1500.0)
    p.add_argument("--scheme", choices=["euler", "exact"], default="exact",
                   help="'exact' avoids the O(dt) moment bias the consistency "
                        "columns would otherwise pick up at large path counts")
    p.add_argument("--tune-iters", type=int, default=3000,
                   help="BFGS iteration budget for the variance-minimizing gain")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce_example)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except (ModelFormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except (ConditionError, NumericalError, AccuracyError) as exc:
        print(f"condition error: {exc}", file=_sys.stderr)
        conditions = getattr(exc, "conditions", None)
        if conditions:
            for c in conditions:
                print(f"  condition {c.name}: {'PASS' if c.passed else 'FAIL'}", file=_sys.stderr)
        return EXIT_CONDITION


if __name__ == "__main__":
    raise SystemExit(main())
