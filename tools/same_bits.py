"""Print one SHA-256 per output group of ``lqgcost``, to tell whether two
checkouts compute the same bits.

    OPENBLAS_NUM_THREADS=1 python3 tools/same_bits.py > bits.txt

Run it in both checkouts, in one session, and compare the two files line by
line.  Pin BLAS to one thread on both sides: a different thread count may
round the n = 40 block products differently.  Each group hashes the raw
bytes of every float it covers, so a difference in the last bit shows.

Groups:

- ``routes``: ``perfbench``'s ``Routes(20201)`` pass, every mean, variance,
  raw variance, method and branch of both routes and ``auto_cost_stats``,
  and the message of every refused call;
- ``routes doubled``: the same systems and costs at three times their
  horizon, past ``BLOCK_GROWTH``, so the block route doubles its segment;
- ``tune-plant``: F, mean, variance, iterations, stop reason, gradient norm
  and trace of ``perfbench``'s ``TunePlant`` pass;
- ``moments``: ``second_moment``, ``noise_gramian_finite`` and
  ``mean_state`` of the same systems at t = 0.1 * 2^j, j = 0 to 9, most of
  them doubled, and ``cross_moment`` at (t1, t2) = (t/2, t), (t, t/2) and
  (t, t), the last through an exponential of the zero matrix;
- ``output feedback``: ``close_loop_output_feedback`` of the benchmark plant
  at its synthesized F and K, with mu0 = 1 and Sigma0 = I + 1 1^T on the
  stacked state, at T = inf and T = 5: the loop's A, V, mu0, Sigma0 and Q
  and ``auto_cost_stats``' mean and variance;
- ``simulate dt=...``: ``simulate_costs`` on the benchmark plant's Riccati
  loop at seed 7, exact scheme;
- ``reproduce-example``: the stdout and the ``--out`` report of
  ``lqgcost reproduce-example --paths 25000``;
- ``cli``: ``lqgcost synthesize --out-model`` on the benchmark plant saved
  with mu0 = (1, -0.5), Sigma0 = I + mu0 mu0^T and horizon 5, then
  ``lqgcost analyze`` of the closed loop it writes under each ``--method``
  (auto, lyapunov, expm) at ``--horizon 5`` and ``inf``: each command's exit
  code, stdout and stderr, and every file the commands write (models and
  ``--out`` reports), run in a temporary directory so no path differs.

``perfbench/workloads.py`` is imported, never changed.
"""

import contextlib
import copy
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import lqgcost as lq  # noqa: E402
from lqgcost.cli import main as cli_main  # noqa: E402
import workloads  # noqa: E402

ROUTES_SEED = 20201
SIM_SEED = 7
SIM_DTS = (0.01, 2.0)
SIM_PATHS = 4096
SIM_HORIZON = 20.0
MOMENT_HORIZONS = tuple(math.ldexp(0.1, k) for k in range(10))
EXAMPLE_PATHS = 25000
FEEDBACK_HORIZONS = (math.inf, 5.0)
CLI_MU0 = (1.0, -0.5)
CLI_HORIZON = 5.0
CLI_METHODS = ("auto", "lyapunov", "expm")


def _feed(digest, value):
    """Add ``value`` to ``digest``: floats and arrays by their bytes, strings
    by UTF-8, containers item by item, each item tagged with its type."""
    if isinstance(value, (list, tuple)):
        digest.update(f"[{len(value)}".encode())
        for item in value:
            _feed(digest, item)
        return
    digest.update(type(value).__name__.encode())
    if value is None:
        return
    if isinstance(value, str):
        digest.update(value.encode())
    elif isinstance(value, (bool, int, np.integer)):
        digest.update(str(int(value)).encode())
    else:
        arr = np.asarray(value, dtype=float)
        digest.update(str(arr.shape).encode() + arr.tobytes())


def _stats(stats):
    if stats is None:
        return None
    return (stats.mean, stats.variance, stats.raw_variance, stats.method, stats.branch)


def _routes(routes):
    """Every result of one pass of ``routes``, and the message of every refused call."""
    ops = workloads.Operations()
    outputs = routes.run_pass(ops)[0]
    return [[_stats(stats) for stats in out[1:]] for out in outputs], ops.errors


def _tripled(routes):
    """A copy of ``routes`` whose finite horizons are tripled, past the one-block
    growth, each through the block route only, and with no infinite horizon."""
    out = copy.copy(routes)
    out.parts = {part: [(system, [(lq.CostSpec(Q=cost.Q, alpha=cost.alpha,
                                               horizon=3.0 * cost.horizon), False)
                                  for cost, _ in finite], [])
                        for system, finite, _ in cases]
                 for part, cases in routes.parts.items()}
    return out


def _moments(cases):
    out = []
    for system, _, _ in cases:
        for t in MOMENT_HORIZONS:
            out.append(lq.second_moment(system, t))
            out.append(lq.noise_gramian_finite(system.A, system.V, t))
            out.append(lq.mean_state(system, t))
            for t1, t2 in ((t / 2, t), (t, t / 2), (t, t)):
                out.append(lq.cross_moment(system, t1, t2))
    return out


def _output_feedback():
    plant = lq.benchmark_plant()
    gains = lq.synthesize_gains(plant)
    n = 2 * plant.n_states
    out = []
    for horizon in FEEDBACK_HORIZONS:
        sys_, cost = lq.close_loop_output_feedback(plant, gains.F, gains.K, np.ones(n),
                                                   np.eye(n) + np.ones((n, n)), horizon=horizon)
        stats = lq.auto_cost_stats(sys_, cost)
        out.append((sys_.A, sys_.V, sys_.mu0, sys_.Sigma0, cost.Q, stats.mean, stats.variance))
    return out


def _simulation(dt):
    plant = lq.benchmark_plant()
    assumption = lq.default_assumption()
    sys_, cost = lq.close_loop_full_state(plant, lq.optimal_gain(plant), assumption["mu0"],
                                          assumption["Sigma0"], horizon=SIM_HORIZON)
    emp = lq.simulate_costs(sys_, cost, lq.SimConfig(dt=dt, T=SIM_HORIZON, n_paths=SIM_PATHS,
                                                     seed=SIM_SEED, threshold=1500.0,
                                                     scheme="exact"))
    return (emp.mean, emp.variance, emp.mean_stderr, emp.variance_stderr, emp.n_paths,
            emp.exceed_prob, emp.exceed_count, emp.exceed_stderr, emp.second_moment_final)


def _example():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(["reproduce-example", "--paths", str(EXAMPLE_PATHS),
                             "--out", str(out)])
        return (code, stdout.getvalue(), out.read_text(encoding="utf-8"))


def _cli_run(argv):
    """Exit code, stdout and stderr of ``lqgcost`` with the arguments ``argv``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _cli():
    plant = lq.benchmark_plant()
    mu0 = np.array(CLI_MU0)
    cwd = os.getcwd()
    # relative names, so the printed paths are the same in every checkout
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            lq.save_plant_model("plant.json", plant, mu0,
                                np.eye(plant.n_states) + np.outer(mu0, mu0), horizon=CLI_HORIZON)
            runs = [_cli_run(["synthesize", "plant.json", "--out-model", "loop.json",
                              "--out", "synthesize.json"])]
            for method in CLI_METHODS:
                for horizon in (f"{CLI_HORIZON:g}", "inf"):
                    runs.append(_cli_run(["analyze", "loop.json", "--method", method,
                                          "--horizon", horizon,
                                          "--out", f"analyze-{method}-{horizon}.json"]))
            written = [(path.name, path.read_text(encoding="utf-8"))
                       for path in sorted(Path(tmp).iterdir())]
        finally:
            os.chdir(cwd)
    return runs, written


def groups():
    """``(name, outputs)`` for each group, computed in this order."""
    routes = workloads.Routes(ROUTES_SEED)
    yield "routes", _routes(routes)
    yield "routes doubled", _routes(_tripled(routes))
    tune = workloads.TunePlant(ROUTES_SEED)
    result = tune.run_pass(workloads.Operations())[0]
    yield "tune-plant", (result.F, result.mean_at_F, result.variance_at_F, result.iterations,
                         result.stop_reason, result.gradient_norm, result.trace)
    yield "moments", _moments(case for part in routes.parts.values() for case in part)
    yield "output feedback", _output_feedback()
    for dt in SIM_DTS:
        yield f"simulate dt={dt:g}", _simulation(dt)
    yield "reproduce-example", _example()
    yield "cli", _cli()


def main():
    for name, outputs in groups():
        digest = hashlib.sha256()
        _feed(digest, outputs)
        print(f"{digest.hexdigest()}  {name}", flush=True)


if __name__ == "__main__":
    main()
