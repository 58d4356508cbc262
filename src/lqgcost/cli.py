"""Command-line interface.

Subcommands::

    lqgcost analyze MODEL [--method {auto,lyapunov,expm}] [--horizon T|inf] [--out F]
    lqgcost simulate MODEL --paths N [--dt DT] [--T T] [--seed S]
                     [--threshold J] [--scheme {euler,exact}] [--out F]
    lqgcost synthesize PLANT [--full-state] [--out-model F] [--out F]
    lqgcost tune PLANT [--objective {mean,variance}] [--init "a,b,..."]
                     [--max-iter N] [--grad-tol G] [--out F]
    lqgcost reproduce-example [--paths N] [--assumption-file F] [--seed S]
                     [--dt DT] [--T T] [--threshold J] [--scheme {euler,exact}]
                     [--tune-iters N] [--out F]

Every command prints a human-readable table on stdout and, with ``--out``,
writes the same results as a structured JSON report: each ``cmd_*`` returns
its report and :func:`main` writes it.  Exit codes: 0 on
success, 1 for input/usage errors, 2 for mathematical-condition errors
(invalid spectrum, diverging cost, failed synthesis, ...).
"""

import argparse
import sys as _sys

import numpy as np

from .cost_expm import auto_cost_stats, cost_stats_expm
from .cost_lyap import cost_stats_lyapunov
from .demo import default_assumption, threshold_study
from .exceptions import (
    AccuracyError,
    ConditionError,
    ModelFormatError,
    NumericalError,
)
from .linalg import _block_chain
from .lqg import close_loop_full_state, close_loop_output_feedback, synthesize_gains
from .models import _parse_array, _read_json, dump_report, load_model, save_system_model
from .simulate import SimConfig, simulation_report
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


def _fmt(x):
    return f"{x:.10g}"


def _print_conditions(conditions):
    for c in conditions:
        flag = "PASS" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        print(f"  condition {c.name:<24s} {flag}{detail}")


def _load(args, kind):
    """The model file ``args.model``, refused unless it is of ``kind``."""
    doc = load_model(args.model)
    if doc.kind != kind:
        raise ModelFormatError(f"{args.command} expects a model of kind \"{kind}\"")
    return doc


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_ROUTES = {"auto": auto_cost_stats, "lyapunov": cost_stats_lyapunov, "expm": cost_stats_expm}


def cmd_analyze(args):
    doc = _load(args, "system")
    cost = doc.cost
    if args.horizon is not None:
        horizon = INFINITE_HORIZON if args.horizon == "inf" else float(args.horizon)
        cost = CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=horizon)
    stats = _ROUTES[args.method](doc.system, cost)

    print(f"analyze {args.model}")
    horizon_txt = "inf" if cost.is_infinite else _fmt(cost.horizon)
    print(f"  horizon = {horizon_txt}, alpha = {_fmt(cost.alpha)}")
    print(f"  method  = {stats.method}  [{stats.branch}]")
    _print_conditions(stats.conditions_checked)
    print(f"  mean     = {_fmt(stats.mean)}")
    print(f"  variance = {_fmt(stats.variance)}")
    print(f"  std      = {_fmt(stats.std)}")

    return {
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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    doc = _load(args, "system")
    system, cost = doc.system, doc.cost
    horizon = args.T
    if horizon is None:
        if cost.is_infinite:
            raise _UsageError("--T is required when the model's cost horizon is infinite")
        horizon = cost.horizon
    cfg = SimConfig(dt=args.dt, T=horizon, n_paths=args.paths, seed=args.seed,
                    threshold=args.threshold, scheme=args.scheme)
    result = simulation_report(system, cost, cfg)
    empirical, analytic, agreement = result["empirical"], result["analytic"], result["agreement"]

    print(f"simulate {args.model}")
    print(f"  scheme = {cfg.scheme}, paths = {cfg.n_paths}, dt = {_fmt(cfg.dt)}, "
          f"T = {_fmt(cfg.horizon)}, seed = {cfg.seed}")
    for name in ("mean", "variance"):
        print(f"  empirical {name:<8s} = {_fmt(empirical[name])}"
              f"  (stderr {_fmt(empirical[name + '_stderr'])})")
    if empirical["exceed_prob"] is not None:
        print(f"  exceedance p(J > {_fmt(cfg.threshold)}) = {_fmt(empirical['exceed_prob'])}"
              f"  ({empirical['exceed_count']}/{empirical['n_paths']})")
    if analytic is None:
        print(f"  analytic comparison unavailable: {result['analytic_error']}")
    else:
        print(f"  analytic mean/variance = {_fmt(analytic['mean'])} / {_fmt(analytic['variance'])}"
              f"  (method {analytic['method']})")
        if agreement is None:
            print("  agreement cannot be assessed with fewer than 2 paths")
        else:
            flag = "PASS" if agreement["within_4_stderr"] else "FAIL"
            print(f"  agreement |z| mean = {_fmt(agreement['mean_z'])}, "
                  f"variance = {_fmt(agreement['variance_z'])}  -> {flag}")

    return {
        "command": "simulate",
        "config": {"dt": cfg.dt, "T": cfg.horizon, "n_paths": cfg.n_paths, "seed": cfg.seed,
                   "scheme": cfg.scheme, "threshold": cfg.threshold},
        **result,
    }


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def cmd_synthesize(args):
    doc = _load(args, "plant")
    plant = doc.plant
    gains = synthesize_gains(plant, full_state=args.full_state)

    if args.full_state:
        closed_sys, closed_cost = close_loop_full_state(
            plant, gains.F, doc.mu0, doc.Sigma0, horizon=doc.horizon)
    else:
        n = plant.n_states
        closed_sys, closed_cost = close_loop_output_feedback(
            plant, gains.F, gains.K, np.concatenate([doc.mu0, np.zeros(n)]),
            _block_chain([doc.Sigma0, np.zeros((n, n))], []), horizon=doc.horizon)

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

    return {
        "command": "synthesize",
        "F": gains.F.tolist(),
        "K": None if gains.K is None else gains.K.tolist(),
        "closed_loop_eigenvalues": [[lam.real, lam.imag] for lam in spectrum],
        "full_state": bool(args.full_state),
        "out_model": args.out_model,
    }


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def cmd_tune(args):
    doc = _load(args, "plant")
    if doc.horizon != INFINITE_HORIZON:
        raise ValueError("tune optimises the infinite-horizon cost; "
                         f"the model's horizon is {doc.horizon:g}")
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

    print(f"tune {args.model} (objective = {args.objective}, horizon = inf)")
    print(f"  F0        = {np.array2string(f0, precision=6)}")
    print(f"  F         = {np.array2string(result.F, precision=6)}")
    print(f"  objective = {_fmt(result.objective_value)} after {result.iterations} iterations"
          f" (converged = {result.converged})")
    value = abs(result.objective_value)
    relative = result.gradient_norm / value if value else np.inf
    print(f"  stopped on {result.stop_reason}, gradient norm = {_fmt(result.gradient_norm)}"
          f" (relative to |objective|: {_fmt(relative)})")
    print(f"  mean = {_fmt(result.mean_at_F)}, variance = {_fmt(result.variance_at_F)}")

    return {
        "command": "tune",
        "objective": args.objective,
        "horizon": "inf",
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


# ---------------------------------------------------------------------------
# reproduce-example
# ---------------------------------------------------------------------------

def _load_assumption(path):
    """The documented assumption with the fields of the JSON file ``path`` in its place."""
    raw, base = _read_json(path), default_assumption()
    if set(raw) - set(base):
        raise ModelFormatError(f"{path}: assumption file allows only fields {sorted(base)}")
    return {key: _parse_array(raw[key], value.shape, f"{path}: {key}") if key in raw else value
            for key, value in base.items()}


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
    t_label = f"T={_fmt(args.T)}"
    print(f"  {'gain':<28s} {'E[J] ' + t_label:>10s} {'sd[J] ' + t_label:>10s} "
          f"{'p(J>thr)':>10s} {'count':>8s} {'consistent':>10s}")
    for label in ("mean_optimal", "variance_minimizing"):
        row = report[label]
        gain = ", ".join(f"{g:.4f}" for g in np.ravel(row["gain"]))
        agreement = row["agreement"]
        ok = "n/a" if agreement is None else "yes" if agreement["within_4_stderr"] else "NO"
        print(f"  {('[' + gain + ']'):<28s} {row['analytic']['mean']:>10.4f} "
              f"{row['analytic']['std']:>10.4f} "
              f"{row['empirical']['exceed_prob']:>10.5%} "
              f"{row['empirical']['exceed_count']:>8d} {ok:>10s}")
    print(f"  tuner's objective Var[J] at T=inf: "
          f"{report['mean_optimal']['objective']['variance']:.4f} (mean-optimal), "
          f"{report['variance_minimizing']['objective']['variance']:.4f} (variance-minimizing)")
    tuner = report["tuner"]
    print(f"  tuner: {tuner['iterations']} iterations, stopped on {tuner['stop_reason']}, "
          f"gradient norm = {_fmt(tuner['gradient_norm'])}")
    direction = "holds" if report["direction_holds"] else "DOES NOT HOLD"
    print(f"  variance-minimizing gain exceeds the threshold less often: {direction}")
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="lqgcost",
                     description="mean/variance of quadratic costs of noisy linear systems")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--out", default=None, help="write a JSON report here")

    p = sub.add_parser("analyze", parents=[common],
                       help="analytic mean and variance of a model's cost")
    p.add_argument("model")
    p.add_argument("--method", choices=list(_ROUTES), default="auto")
    p.add_argument("--horizon", default=None,
                   help="override the model's cost horizon (a number or 'inf')")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo estimate of the cost statistics")
    p.add_argument("model")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--scheme", choices=["euler", "exact"], default="exact")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synthesize", parents=[common],
                       help="Riccati feedback and observer gains")
    p.add_argument("model")
    p.add_argument("--full-state", action="store_true",
                   help="skip the observer (state fully measured)")
    p.add_argument("--out-model", default=None,
                   help="write the closed loop as a system-kind model file")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("tune", parents=[common],
                       help="BFGS search of the feedback gain on exact gradients")
    p.add_argument("model")
    p.add_argument("--objective", choices=["mean", "variance"], default="variance")
    p.add_argument("--init", default=None,
                   help="comma-separated initial gain entries (default: Riccati gain)")
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--grad-tol", type=float, default=1e-2)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("reproduce-example", parents=[common],
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
    p.set_defaults(func=cmd_reproduce_example)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dump_report(report))
        return EXIT_OK
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
