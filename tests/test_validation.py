"""One decision per predicate: every type and kernel that checks symmetry or
positive semidefiniteness accepts and refuses the same matrices, at
``linalg.PSD_TOL``, and no function carries a tolerance of its own.  Every
public input is checked as the model loader checks a file: a count
(``COUNTS``) refuses a bool, a real number (``REALS``) refuses a bool, a
string and NaN, both refuse an int past the largest double, and an array
(``ARRAYS``) refuses bool or string entries, even one among floats, each
with a ValueError naming the input.  Every route that meets a system and a cost
refuses a Q that is not the system's n x n."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import lqgcost
from lqgcost import (
    ConditionError,
    CostSpec,
    DimensionError,
    JointGaussian,
    LqgPlant,
    LtiSystem,
    SimConfig,
    TuneOptions,
    auto_cost_stats,
    block_exponential,
    cost_stats_expm,
    cost_stats_lyapunov,
    cross_moment,
    expected_cost_finite,
    expected_cost_infinite,
    joint_quartic_expectation,
    mat_exp,
    mean_state,
    noise_gramian_finite,
    psd_factor,
    quartic_expectation,
    second_moment,
    simulate_costs,
    solve_riccati,
    van_loan_integral,
    variance_cost_finite,
    variance_cost_infinite,
)
from lqgcost.linalg import PSD_TOL

ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
SCALES = (1e-3, 1.0, 1e3)
FACTORS = (0.5, 2.0)   # of the tolerance: inside, outside


def _unit(scale):
    """The tolerance at a matrix of largest magnitude ``scale``."""
    return PSD_TOL * max(scale, 1.0)


def near_psd(scale, factor):
    """Symmetric 2x2, eigenvalues ``scale`` and -``factor`` tolerances, in a rotated basis."""
    m = ROTATION @ np.diag([scale, -factor * _unit(scale)]) @ ROTATION.T
    return 0.5 * (m + m.T)


def near_symmetric(scale, factor):
    """Positive definite 2x2 with max|m - m^T| = ``factor`` tolerances."""
    m = scale * np.array([[1.0, 0.25], [0.25, 1.0]])
    m[0, 1] += factor * _unit(scale)
    return m


def _system(v=np.eye(2), sigma0=np.eye(2)):
    return LtiSystem(A=-np.eye(2), V=v, mu0=np.zeros(2), Sigma0=sigma0)


def _plant(q=np.eye(2), r=np.eye(2), v=np.eye(2), w=np.eye(2), alpha=0.0):
    return LqgPlant(A=-np.eye(2), B=np.eye(2), C=np.eye(2), Q=q, R=r, V=v, W=w, alpha=alpha)


def _joint(k):
    return JointGaussian(mu_x=np.zeros(2), mu_y=np.zeros(2), K_xx=k,
                         K_xy=np.zeros((2, 2)), K_yy=k)


# CostSpec and the quartic expectations take indefinite weights by design, so
# only the symmetry rows reach them.
PSD_CHECKS = {
    "LtiSystem V": lambda m: _system(v=m),
    "LtiSystem Sigma0": lambda m: _system(sigma0=m),
    "LqgPlant Q": lambda m: _plant(q=m),
    "LqgPlant V": lambda m: _plant(v=m),
    "psd_factor": psd_factor,
    "JointGaussian": _joint,
    "quartic_expectation second moment": lambda m: quartic_expectation(
        np.zeros(2), m, np.eye(2), np.eye(2)),
}

SYMMETRY_CHECKS = {
    **PSD_CHECKS,
    "LqgPlant R": lambda m: _plant(r=m),
    "LqgPlant W": lambda m: _plant(w=m),
    "CostSpec Q": lambda m: CostSpec(Q=m),
    "noise_gramian_finite V": lambda m: noise_gramian_finite(-np.eye(2), m, 1.0),
    "quartic_expectation P": lambda m: quartic_expectation(np.zeros(2), np.eye(2), m, np.eye(2)),
    "quartic_expectation Q": lambda m: quartic_expectation(np.zeros(2), np.eye(2), np.eye(2), m),
    "joint_quartic_expectation P": lambda m: joint_quartic_expectation(
        _joint(np.eye(2)), m, np.eye(2)),
    "solve_riccati Q": lambda m: solve_riccati(-np.eye(2), np.eye(2), m, np.eye(2)),
    "solve_riccati R": lambda m: solve_riccati(-np.eye(2), np.eye(2), np.eye(2), m),
}


def _outcomes(checks, m):
    outcome = {}
    for name, check in checks.items():
        try:
            check(m)
            outcome[name] = "accepted"
        except ConditionError:
            outcome[name] = "refused"
    return outcome


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("factor", FACTORS)
def test_semidefiniteness_boundary_decided_alike(scale, factor):
    expected = "accepted" if factor < 1.0 else "refused"
    assert _outcomes(PSD_CHECKS, near_psd(scale, factor)) == dict.fromkeys(PSD_CHECKS, expected)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("factor", FACTORS)
def test_symmetry_boundary_decided_alike(scale, factor):
    expected = "accepted" if factor < 1.0 else "refused"
    assert (_outcomes(SYMMETRY_CHECKS, near_symmetric(scale, factor))
            == dict.fromkeys(SYMMETRY_CHECKS, expected))


def test_quartic_second_moment_is_refused_below_mu_mu_t():
    # diag(0.5, 1) is positive definite, but no second moment of a mean (1, 0)
    with pytest.raises(ConditionError, match="second moment - mu mu"):
        quartic_expectation([1.0, 0.0], np.diag([0.5, 1.0]), np.eye(2), np.eye(2))
    with pytest.raises(ConditionError):
        quartic_expectation([0.0], [[-1.0]], [[1.0]], [[1.0]])


EMPTY = {
    "A": lambda: LtiSystem(A=np.zeros((0, 0)), V=np.zeros((0, 0)), mu0=np.zeros(0),
                           Sigma0=np.zeros((0, 0))),
    "B": lambda: LqgPlant(A=-np.eye(2), B=np.zeros((2, 0)), C=np.eye(2), Q=np.eye(2),
                          R=np.zeros((0, 0)), V=np.eye(2), W=np.eye(2)),
    "Q": lambda: CostSpec(Q=np.zeros((0, 0))),
    "M": lambda: psd_factor(np.zeros((0, 0))),
}


@pytest.mark.parametrize("name", EMPTY)
def test_zero_size_matrix_named(name):
    with pytest.raises(DimensionError, match=f"^{name} must not be empty"):
        EMPTY[name]()


COUNTS = {
    "n_paths": lambda v: SimConfig(dt=0.1, T=1.0, n_paths=v),
    "seed": lambda v: SimConfig(dt=0.1, T=1.0, n_paths=1, seed=v),
    "threads": lambda v: SimConfig(dt=0.1, T=1.0, n_paths=1, threads=v),
    "max_iter": lambda v: TuneOptions(f0=np.zeros((1, 2)), max_iter=v),
}


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy bool"])
@pytest.mark.parametrize("name", COUNTS)
def test_boolean_count_refused(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        COUNTS[name](value)


def _tune_options(**settings):
    return TuneOptions(f0=np.zeros((1, 2)), **settings)


def _sim_config(**settings):
    return SimConfig(**{"dt": 0.1, "T": 1.0, "n_paths": 1, **settings})


# each real setting: the name its error gives and a call that sets it
REALS = {
    "CostSpec alpha": ("alpha", lambda v: CostSpec(Q=np.eye(2), alpha=v)),
    "CostSpec horizon": ("horizon", lambda v: CostSpec(Q=np.eye(2), horizon=v)),
    "LqgPlant alpha": ("alpha", lambda v: _plant(alpha=v)),
    "SimConfig dt": ("dt", lambda v: _sim_config(dt=v)),
    "SimConfig T": ("T", lambda v: _sim_config(T=v)),
    "SimConfig threshold": ("threshold", lambda v: _sim_config(threshold=v)),
    "TuneOptions step_tol": ("step_tol", lambda v: _tune_options(step_tol=v)),
    "TuneOptions grad_tol": ("grad_tol", lambda v: _tune_options(grad_tol=v)),
    "mat_exp t": ("t", lambda v: mat_exp(-np.eye(2), v)),
    "van_loan_integral horizon": ("horizon", lambda v: van_loan_integral(
        -np.eye(2), np.eye(2), -np.eye(2), v)),
    "mean_state t": ("t", lambda v: mean_state(_system(), v)),
    "second_moment t": ("t", lambda v: second_moment(_system(), v)),
    "cross_moment t1": ("t1", lambda v: cross_moment(_system(), v, 1.0)),
    "cross_moment t2": ("t2", lambda v: cross_moment(_system(), 1.0, v)),
    "noise_gramian_finite t": ("t", lambda v: noise_gramian_finite(-np.eye(2), np.eye(2), v)),
}


@pytest.mark.parametrize("value", [True, np.True_, "0.5", math.nan],
                         ids=["bool", "numpy bool", "string", "nan"])
@pytest.mark.parametrize("setting", REALS)
def test_non_number_refused(setting, value):
    name, build = REALS[setting]
    with pytest.raises(ValueError, match=f"^{name} must be a "):
        build(value)


@pytest.mark.parametrize("setting", [*COUNTS, *REALS])
def test_int_past_the_largest_double_refused(setting):
    # float() cannot hold it: the setting's ValueError, not an OverflowError
    name, build = (setting, COUNTS[setting]) if setting in COUNTS else REALS[setting]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(10 ** 400)


@pytest.mark.parametrize("value,shown", [
    (10 ** 400, "10000000000000000000... (401 digits)"),
    (-10 ** 5000, "-10000000000000000000... (5001 digits)"),
], ids=["401 digits", "5001 digits"])
@pytest.mark.parametrize("name,build", [
    ("alpha", lambda v: CostSpec(Q=[[1.0]], alpha=v)),
    ("A", lambda v: LtiSystem(A=[[v]], V=[[1.0]], mu0=[0.0], Sigma0=[[1.0]])),
    ("n_paths", lambda v: _sim_config(n_paths=v)),
], ids=["_real_number", "_finite_array", "_whole_number"])
def test_huge_int_shown_short(name, build, value, shown):
    # the message shows the first 20 digits and the digit count, and the
    # setting's name even past Python's 4300-digit limit of str()
    with pytest.raises(ValueError, match=f"^{name} must ") as info:
        build(value)
    assert str(info.value).endswith(f", got {shown}")


def test_long_repr_shown_short():
    # past 40 characters a refused value shows its first 20 and its length
    with pytest.raises(ValueError) as info:
        LtiSystem(A=[["x" * 1000]], V=[[1.0]], mu0=[0.0], Sigma0=[[1.0]])
    assert str(info.value) == ("A must hold real numbers, got "
                               "'xxxxxxxxxxxxxxxxxxx... (1002 characters)")


# each array input: the name its error gives and a call that passes a 2x2 in it
ARRAYS = {
    "LtiSystem A": ("A", lambda m: LtiSystem(A=m, V=np.eye(2), mu0=np.zeros(2),
                                             Sigma0=np.eye(2))),
    "LtiSystem mu0": ("mu0", lambda m: LtiSystem(A=-np.eye(2), V=np.eye(2), mu0=m[0],
                                                 Sigma0=np.eye(2))),
    "CostSpec Q": ("Q", lambda m: CostSpec(Q=m)),
    "mat_exp": ("A", mat_exp),
    "quartic_expectation mu": ("mu", lambda m: quartic_expectation(
        m[0], np.eye(2), np.eye(2), np.eye(2))),
}


@pytest.mark.parametrize("entries", [np.eye(2, dtype=bool), [["1", "0"], ["0", "1"]],
                                     [[True, 1.5], [0.0, 1.0]], [[1.0, "0"], [0.0, 1.0]]],
                         ids=["bool", "string", "bool among floats", "string among floats"])
@pytest.mark.parametrize("array", ARRAYS)
def test_non_number_entries_refused(array, entries):
    name, build = ARRAYS[array]
    with pytest.raises(ValueError, match=f"^{name} must hold real numbers"):
        build(entries)


@pytest.mark.parametrize("f0,error,message", [
    ([[10 ** 400, 0.0]], ValueError, "must hold real numbers"),
    ([["1.5", "2"]], ValueError, "must hold real numbers"),
    ([[math.nan, 0.0]], ValueError, "contains non-finite entries"),
    (np.zeros((1, 1, 2)), DimensionError, "must be 2-dimensional"),
], ids=["int past the largest double", "string", "nan", "3-d"])
def test_initial_gain_checked(f0, error, message):
    # refused when the options are built, under its own name
    with pytest.raises(error, match=f"^f0 {message}"):
        TuneOptions(f0=f0)


# each route that meets a system and a cost, and the horizons it takes
COST_ROUTES = {
    "cost_stats_lyapunov": (cost_stats_lyapunov, (2.0, math.inf)),
    "cost_stats_expm": (cost_stats_expm, (2.0,)),
    "auto_cost_stats": (auto_cost_stats, (2.0, math.inf)),
    "block_exponential": (block_exponential, (2.0,)),
    "expected_cost_finite": (expected_cost_finite, (2.0,)),
    "expected_cost_infinite": (expected_cost_infinite, (math.inf,)),
    "variance_cost_finite": (variance_cost_finite, (2.0,)),
    "variance_cost_infinite": (variance_cost_infinite, (math.inf,)),
    "simulate_costs": (lambda sys, cost: simulate_costs(sys, cost, _sim_config()), (2.0,)),
}


@pytest.mark.parametrize("route", COST_ROUTES)
def test_cost_of_wrong_size_refused(route):
    call, horizons = COST_ROUTES[route]
    for horizon in horizons:
        with pytest.raises(DimensionError, match=r"^Q must be 2x2, got \(3, 3\)"):
            call(_system(), CostSpec(Q=np.eye(3), alpha=-0.5, horizon=horizon))


def test_psd_factor_clamps_what_it_admits():
    m = near_psd(1.0, 0.5)
    f = psd_factor(m)
    w, u = np.linalg.eigh(m)
    np.testing.assert_allclose(f @ f.T, (u * np.clip(w, 0.0, None)) @ u.T, atol=1e-15)


def _package_callables():
    """Every function and method defined in one of lqgcost's modules."""
    for info in pkgutil.iter_modules(lqgcost.__path__):
        if info.name == "__main__":   # importing it runs the CLI
            continue
        module = importlib.import_module(f"lqgcost.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_tolerance_parameters():
    # each tolerance is a module constant; the spectrum classifier's private
    # kernel is the one function that takes its tolerance as data
    offenders = [
        name for name, fn in _package_callables()
        if name != "lqgcost.linalg._classify"
        and {"tol", "rtol", "atol"} & set(inspect.signature(fn).parameters)
    ]
    assert offenders == []
    assert any(name == "lqgcost.linalg.DriftFactor.solve" for name, _ in _package_callables())
