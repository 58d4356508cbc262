"""The three workloads: input generation, the timed passes and the output checks.

Importing this module imports NumPy, SciPy and ``lqgcost``; ``run.py`` times
that import as part of set-up.  Every library call goes through the package
namespace (``lq.name``) at call time, so the tracer's wrappers see it.
"""

import dataclasses
import math
import os
import time

import numpy as np

import lqgcost as lq
import reference

# -- routes -------------------------------------------------------------------

#: ``(n, systems, both-route exponents, exponential-only exponents)`` in the
#: small and the large part of a pass.  At a both-route exponent a system goes
#: through both finite-horizon routes, which must agree; at an
#: exponential-only exponent it goes through ``cost_stats_expm`` and
#: ``auto_cost_stats`` only, checked against the extended-precision reference,
#: because there the finite-horizon Lyapunov variance is off by up to 5e-8
#: relative on some seeds (n = 10 and 40 at alpha = 0 and 0.3; n = 40 at
#: alpha = -0.5 comes within 14x of the limit).  At n = 2, alpha = 0 is left
#: out: there the exponential route, which ``auto_cost_stats`` picks, is off
#: by up to 9e-8 on some seeds.  See CHANGES.md.  Every system also goes
#: through ``cost_stats_lyapunov`` and ``auto_cost_stats`` at the infinite
#: horizon for each exponent below zero.
ROUTE_SMALL = ((2, 60, (-0.5, 0.3), ()), (10, 40, (-0.5,), (0.0, 0.3)))
ROUTE_LARGE = ((40, 1, (), (-0.5, 0.0, 0.3)),)
#: Drift shifts k * alpha whose eigenvalue pair sums are kept away from zero.
ROUTE_SHIFT_MULTIPLES = range(-2, 4)
#: Smallest |lambda_i + lambda_j| allowed for every shifted drift.
ROUTE_SEPARATION = 0.05
#: The finite horizon makes T * max|Re eig| of the 5n x 5n block matrix this.
ROUTE_GROWTH = 8.0
#: Relative agreement required of the two finite-horizon routes, and of the
#: exponential route with the extended-precision reference (the tolerance of
#: the test suite's cross-method acceptance test).
ROUTE_RTOL = 1e-8
#: Relative agreement required of infinite-horizon values with the SciPy reference.
REFERENCE_RTOL = 1e-10

# -- tune-plant and sim-threshold --------------------------------------------

PUBLISHED_GAIN = np.array([[1.6, 9.9]])
PUBLISHED_GAIN_TOL = 0.05
GAIN_RTOL = 1e-8
#: The settings ``threshold_study`` tunes with.
TUNE_SETTINGS = dict(objective="variance", max_iter=3000, grad_tol=1e-2, step_tol=1e-10)
#: ``simulate_costs`` as the threshold study runs it, at two batches of paths.
SIM_SETTINGS = dict(dt=0.01, T=20.0, n_paths=32768, threshold=1500.0, scheme="exact")
#: Reduced configuration for the thread-count determinism check: three batches.
SIM_REDUCED = dict(dt=0.01, T=1.0, n_paths=40000, threshold=1500.0, scheme="exact")
SIM_STDERRS = 4.0
LOOP_RTOL = 1e-12


def worker_threads():
    """CPUs this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


# -- checks -------------------------------------------------------------------

def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def stats_err(s1, s2):
    """Largest relative difference of the means and of the variances."""
    return max(rel_err(s1.mean, s2.mean), rel_err(s1.variance, s2.variance))


def stats_vs(stats, ref):
    """Largest relative difference from a reference ``(mean, variance)``."""
    return max(rel_err(stats.mean, ref[0]), rel_err(stats.variance, ref[1]))


def stderr_z(emp, ref):
    """Distances of the empirical mean and variance from ``ref`` in standard errors."""
    return max(abs(emp.mean - ref[0]) / emp.mean_stderr,
               abs(emp.variance - ref[1]) / emp.variance_stderr)


def same_stats(a, b):
    """Field-by-field identity of two ``EmpiricalCostStats``."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def matrix_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1.0))


class Checks:
    """Named output checks, aggregated over every time each one ran."""

    def __init__(self):
        self._checks = {}

    def record(self, name, passed, err=None, tol=None):
        """``err <= tol`` decides when ``passed`` is None."""
        if passed is None:
            passed = err <= tol
        c = self._checks.setdefault(name, {"passed": 0, "total": 0, "worst": None, "tol": tol})
        c["total"] += 1
        c["passed"] += bool(passed)
        if err is not None and (c["worst"] is None or err > c["worst"]):
            c["worst"] = err
        return passed

    @property
    def ok(self):
        return all(c["passed"] == c["total"] for c in self._checks.values())

    def summary(self):
        out = {}
        for name, c in self._checks.items():
            out[name] = dict(c, outcome="PASS" if c["passed"] == c["total"] else "FAIL")
        return out

    def lines(self):
        for name, c in self.summary().items():
            extra = "" if c["worst"] is None else f"  worst {c['worst']:.3g}"
            if c["tol"] is not None:
                extra += f" (limit {c['tol']:g})"
            yield f"check {c['outcome']} {c['passed']}/{c['total']}  {name}{extra}"


class Operations:
    """Counts library calls; a call raising a library error counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, func, *args, **kwargs):
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except lq.LqgCostError as exc:
            self.failed += 1
            self.errors.append(f"{getattr(func, '__name__', func)}: {type(exc).__name__}: {exc}")
            return None


def self_test(checks):
    """The reference reproduces the scalar system of the README, and a perturbed
    route output fails the check that guards it."""
    mean, var = reference.infinite_cost_stats([[-1.0]], [[2.0]], [0.0], [[1.0]], [[1.0]], -0.5)
    checks.record("self-test: reference gives E = 1, Var = 2/3 on the scalar system",
                  None, max(rel_err(mean, 1.0), rel_err(var, 2.0 / 3.0)), 1e-14)
    sys = lq.LtiSystem(A=[[-1.0]], V=[[2.0]], mu0=[0.0], Sigma0=[[1.0]])
    stats = lq.cost_stats_lyapunov(sys, lq.CostSpec(Q=[[1.0]], alpha=-0.5))
    bad = dataclasses.replace(stats, variance=stats.variance * (1.0 + 1e-6))
    checks.record("self-test: a variance off by 1e-6 fails the reference check",
                  stats_vs(stats, (mean, var)) <= REFERENCE_RTOL
                  and not stats_vs(bad, (mean, var)) <= REFERENCE_RTOL)
    finite = lq.CostSpec(Q=[[1.0]], alpha=-0.5, horizon=1.0)
    lyap, expm = lq.cost_stats_lyapunov(sys, finite), lq.cost_stats_expm(sys, finite)
    bad = dataclasses.replace(expm, mean=expm.mean * (1.0 + 1e-6))
    checks.record("self-test: a mean off by 1e-6 fails the route agreement check",
                  stats_err(lyap, expm) <= ROUTE_RTOL and not stats_err(lyap, bad) <= ROUTE_RTOL)
    # Sigma0 = 1 is the stationary variance, so the state is a stationary
    # Ornstein-Uhlenbeck process with covariance e^{-|t - s|}.
    ext = reference.finite_cost_stats_extended([[-1.0]], [[2.0]], [0.0], [[1.0]], [[1.0]],
                                               -0.5, 1.0)
    exact = (1.0 - math.exp(-1.0),
             2.0 * (1.0 - math.exp(-2.0)) - 4.0 * (1.0 - math.exp(-3.0)) / 3.0)
    checks.record("self-test: extended-precision reference gives E = 1 - e^-1, "
                  "Var = 2 (1 - e^-2) - 4 (1 - e^-3) / 3 on the scalar system over T = 1",
                  None, max(rel_err(ext[0], exact[0]), rel_err(ext[1], exact[1])), 1e-14)
    checks.record("self-test: a mean off by 1e-6 fails the extended-precision reference check",
                  stats_vs(expm, ext) <= ROUTE_RTOL and not stats_vs(bad, ext) <= ROUTE_RTOL)


class Workload:
    """Set-up in ``__init__`` (timed), then ``prepare`` (references, untimed),
    timed passes through ``run_pass``, each checked by ``check_pass``, and
    ``finish`` for checks made once per run."""

    def prepare(self, ops, checks):
        pass

    def finish(self, ops, checks):
        pass

    def layer_counts(self, tracer, outputs):
        """Per-layer counts the spans alone do not give: ``{name: (value, unit)}``."""
        return {}


# -- routes -------------------------------------------------------------------

def _min_pair_sum(a):
    lam = np.linalg.eigvals(a)
    s = np.abs(lam[:, None] + lam[None, :])
    return s[np.triu_indices_from(s)].min()


def _random_spd(n, rng):
    m = rng.normal(size=(n, n))
    return m @ m.T + 1e-3 * np.eye(n)


def _random_drift(n, alphas, rng, margin=0.3, spread=1.0):
    """A stable drift of the test suite's class whose shifted drifts
    A + k alpha I keep every eigenvalue pair sum ROUTE_SEPARATION from zero."""
    shifts = sorted({k * a for a in alphas for k in ROUTE_SHIFT_MULTIPLES})
    eye = np.eye(n)
    while True:
        a = rng.normal(scale=spread, size=(n, n))
        top = np.linalg.eigvals(a).real.max()
        a -= (top + margin + rng.uniform(0.02, 0.5) * max(spread, 0.3)) * eye
        if all(_min_pair_sum(a + s * eye) > ROUTE_SEPARATION for s in shifts):
            return a


def _route_case(n, both, expm_only, rng):
    """A random system with its costs: ``(system, [(cost, both routes?)], infinite)``."""
    alphas = both + expm_only
    a = _random_drift(n, alphas, rng)
    v = _random_spd(n, rng)
    mu0 = rng.normal(size=n)
    sigma0 = _random_spd(n, rng) + np.outer(mu0, mu0)
    q = _random_spd(n, rng)
    system = lq.LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0)
    re = np.linalg.eigvals(a).real
    finite, infinite = [], []
    for alpha in alphas:
        rate = max(np.abs(re).max(), np.abs(re + 2 * alpha).max(), np.abs(re - 2 * alpha).max())
        cost = lq.CostSpec(Q=q, alpha=alpha, horizon=ROUTE_GROWTH / rate)
        finite.append((cost, alpha in both))
        if alpha < 0:
            infinite.append(lq.CostSpec(Q=q, alpha=alpha))
    return system, finite, infinite


class Routes(Workload):
    """Both analytic routes and the automatic choice on random stable systems."""

    name = "routes"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.parts = {
            part: [_route_case(n, both, expm_only, rng)
                   for n, count, both, expm_only in sizes for _ in range(count)]
            for part, sizes in (("small", ROUTE_SMALL), ("large", ROUTE_LARGE))
        }
        self.references = {}

    def prepare(self, ops, checks):
        for cases in self.parts.values():
            for system, finite, infinite in cases:
                args = (system.A, system.V, system.mu0, system.Sigma0)
                for cost in infinite:
                    self.references[id(cost)] = reference.infinite_cost_stats(
                        *args, cost.Q, cost.alpha)
                for cost in (c for c, both in finite if not both):
                    self.references[id(cost)] = reference.finite_cost_stats_extended(
                        *args, cost.Q, cost.alpha, cost.horizon)

    def run_pass(self, ops):
        outputs, times = [], {}
        for part, cases in self.parts.items():
            t0 = time.perf_counter()
            for system, finite, infinite in cases:
                for cost, both in finite:
                    lyap = ops.call(lq.cost_stats_lyapunov, system, cost) if both else None
                    outputs.append((cost, lyap, ops.call(lq.cost_stats_expm, system, cost),
                                    ops.call(lq.auto_cost_stats, system, cost)))
                for cost in infinite:
                    outputs.append((cost, ops.call(lq.cost_stats_lyapunov, system, cost), None,
                                    ops.call(lq.auto_cost_stats, system, cost)))
            times[part] = time.perf_counter() - t0
        return outputs, {"small_pass_s": times["small"], "pass_s": sum(times.values())}

    def check_pass(self, outputs, checks):
        for cost, lyap, expm, auto in outputs:
            routes = {"lyapunov": lyap, "expm": expm}
            for stats in (lyap, expm, auto):
                if stats is not None:
                    checks.record("routes: mean > 0 and variance >= 0",
                                  stats.mean > 0 and stats.variance >= 0)
            if auto is not None:
                named = routes.get(auto.method)
                checks.record("routes: auto_cost_stats equals the route it names",
                              named is not None and (auto.mean, auto.variance)
                              == (named.mean, named.variance))
            if cost.is_infinite:
                if lyap is not None:
                    checks.record("routes: infinite horizon matches the SciPy reference",
                                  None, stats_vs(lyap, self.references[id(cost)]),
                                  REFERENCE_RTOL)
            elif id(cost) in self.references:
                if expm is not None:
                    checks.record("routes: finite horizon, exponential route matches the "
                                  "extended-precision reference", None,
                                  stats_vs(expm, self.references[id(cost)]), ROUTE_RTOL)
            elif lyap is not None and expm is not None:
                checks.record("routes: finite horizon, Lyapunov and exponential routes agree",
                              None, stats_err(lyap, expm), ROUTE_RTOL)


# -- tune-plant ---------------------------------------------------------------

def _plant_reference_stats(plant, f, mu0, sigma0):
    drift, weight = reference.closed_loop_state_feedback(plant.A, plant.B, plant.Q, plant.R, f)
    return reference.infinite_cost_stats(drift, plant.V, mu0, sigma0, weight, plant.alpha)


def _check_riccati_gain(plant, f, checks):
    ref = reference.riccati_gain(plant.A, plant.B, plant.Q, plant.R, plant.alpha)
    checks.record("optimal_gain matches solve_continuous_are", None, matrix_err(f, ref),
                  GAIN_RTOL)
    checks.record("optimal_gain lies within 0.05 of the published [1.6, 9.9]", None,
                  float(np.abs(f - PUBLISHED_GAIN).max()), PUBLISHED_GAIN_TOL)


class TunePlant(Workload):
    """The variance tuner of the threshold study on the benchmark plant."""

    name = "tune-plant"

    def __init__(self, seed):
        self.plant = lq.benchmark_plant()
        assumption = lq.default_assumption()
        self.mu0, self.sigma0 = assumption["mu0"], assumption["Sigma0"]
        self.f_opt = lq.optimal_gain(self.plant)

    def prepare(self, ops, checks):
        _check_riccati_gain(self.plant, self.f_opt, checks)
        self.opt_ref = _plant_reference_stats(self.plant, self.f_opt, self.mu0, self.sigma0)

    def run_pass(self, ops):
        t0 = time.perf_counter()
        result = ops.call(lq.minimize_variance, self.plant, self.mu0, self.sigma0,
                          lq.TuneOptions(f0=self.f_opt, **TUNE_SETTINGS))
        elapsed = time.perf_counter() - t0
        return result, {"small_pass_s": elapsed, "pass_s": elapsed}

    def check_pass(self, result, checks):
        if result is None:
            return
        plant = self.plant
        shifted = plant.A + plant.alpha * np.eye(plant.n_states) - plant.B @ result.F
        checks.record("tuned gain stabilises A + alpha I - B F",
                      bool(np.linalg.eigvals(shifted).real.max() < 0))
        ref = _plant_reference_stats(plant, result.F, self.mu0, self.sigma0)
        checks.record("tuned gain: reported mean and variance match the SciPy reference",
                      None, max(rel_err(result.mean_at_F, ref[0]),
                                rel_err(result.variance_at_F, ref[1])), REFERENCE_RTOL)
        checks.record("tuned gain: variance below the Riccati gain's",
                      result.variance_at_F < self.opt_ref[1])

    def layer_counts(self, tracer, result):
        line_search = tracer.count_children("tune.minimize_variance", "tune.objective_value") - 1
        accepted = len(result.trace) - 1
        return {
            "tune.iterations": (result.iterations, "count"),
            "tune.line_search_calls": (line_search, "count"),
            "tune.accept_ratio": (accepted / line_search if line_search > 0 else 0.0, "ratio"),
        }


# -- sim-threshold ------------------------------------------------------------

class SimThreshold(Workload):
    """``simulate_costs`` on the state- and output-feedback loops of the benchmark plant."""

    name = "sim-threshold"

    def __init__(self, seed):
        plant = self.plant = lq.benchmark_plant()
        assumption = lq.default_assumption()
        self.f = lq.optimal_gain(plant)
        self.k = lq.kalman_gain(plant)
        n = plant.n_states
        self.loops = {
            "state feedback": lq.close_loop_full_state(
                plant, self.f, assumption["mu0"], assumption["Sigma0"]),
            "output feedback": lq.close_loop_output_feedback(
                plant, self.f, self.k, np.zeros(2 * n), np.zeros((2 * n, 2 * n))),
        }
        self.threads = worker_threads()
        self.cfg = lq.SimConfig(seed=seed, threads=self.threads, **SIM_SETTINGS)
        self.first = None

    def prepare(self, ops, checks):
        plant = self.plant
        _check_riccati_gain(plant, self.f, checks)
        k_ref = reference.kalman_gain(plant.A, plant.C, plant.V, plant.W)
        checks.record("kalman_gain matches solve_continuous_are", None,
                      matrix_err(self.k, k_ref), GAIN_RTOL)
        (sf, sf_cost), (of, of_cost) = self.loops.values()
        drift, weight = reference.closed_loop_state_feedback(plant.A, plant.B, plant.Q,
                                                             plant.R, self.f)
        checks.record("close_loop_full_state matches the reference loop", None,
                      max(matrix_err(sf.A, drift), matrix_err(sf_cost.Q, weight)), LOOP_RTOL)
        drift, noise, weight = reference.closed_loop_output_feedback(
            plant.A, plant.B, plant.C, plant.Q, plant.R, plant.V, plant.W, self.f, self.k)
        checks.record("close_loop_output_feedback matches the reference loop", None,
                      max(matrix_err(of.A, drift), matrix_err(of.V, noise),
                          matrix_err(of_cost.Q, weight)), LOOP_RTOL)
        self.references = {
            name: reference.infinite_cost_stats(s.A, s.V, s.mu0, s.Sigma0, c.Q, c.alpha)
            for name, (s, c) in self.loops.items()
        }

    def run_pass(self, ops):
        outputs, times = {}, {}
        for name, (system, cost) in self.loops.items():
            t0 = time.perf_counter()
            outputs[name] = ops.call(lq.simulate_costs, system, cost, self.cfg)
            times[name] = time.perf_counter() - t0
        return outputs, {"small_pass_s": times["state feedback"], "pass_s": sum(times.values())}

    def check_pass(self, outputs, checks):
        for name, stats in outputs.items():
            if stats is None:
                continue
            checks.record(f"{name}: empirical mean and variance within 4 standard errors "
                          "of the SciPy reference", None,
                          stderr_z(stats, self.references[name]), SIM_STDERRS)
        if self.first is None:
            self.first = outputs
        else:
            checks.record("every pass repeats the first pass exactly",
                          all(same_stats(outputs[k], self.first[k]) for k in outputs
                              if outputs[k] is not None and self.first[k] is not None))

    def finish(self, ops, checks):
        system, cost = self.loops["output feedback"]
        runs = [ops.call(lq.simulate_costs, system, cost,
                         lq.SimConfig(seed=self.cfg.seed, threads=t, **SIM_REDUCED))
                for t in (1, min(2, self.threads))]
        if None not in runs:
            checks.record("reduced configuration: identical EmpiricalCostStats at 1 and "
                          f"{min(2, self.threads)} threads", same_stats(*runs))

    def layer_counts(self, tracer, outputs):
        steps = sum(s.n_paths for s in outputs.values() if s is not None) * self.cfg.n_steps
        return {"simulate.path_steps": (steps, "count")}


WORKLOADS = {w.name: w for w in (Routes, TunePlant, SimThreshold)}
