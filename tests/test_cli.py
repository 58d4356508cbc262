import json
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_continuous_are

from lqgcost.cli import build_parser, main
from lqgcost import (CostSpec, LqgPlant, LtiSystem, SimConfig, save_plant_model,
                     save_system_model)
from conftest import recipe_plant, scalar_cost, scalar_system, set_usable_cpus


@pytest.fixture
def scalar_model(tmp_path):
    path = tmp_path / "scalar.json"
    save_system_model(path, scalar_system(), scalar_cost())
    return str(path)


@pytest.fixture
def non_sylvester_model(tmp_path):
    sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                    mu0=np.zeros(2), Sigma0=np.eye(2))
    cost = CostSpec(Q=np.eye(2), alpha=0.0, horizon=1.0)
    path = tmp_path / "integrator.json"
    save_system_model(path, sys, cost)
    return str(path)


@pytest.fixture
def benchmark_model(tmp_path):
    plant = LqgPlant(A=[[1.0, 0.0], [0.05, 1.0]], B=[[1.0], [0.0]], C=np.eye(2),
                     Q=np.eye(2), R=np.eye(1), V=np.eye(2), W=0.01 * np.eye(2),
                     alpha=-0.8)
    path = tmp_path / "plant.json"
    save_plant_model(path, plant, np.zeros(2), np.zeros((2, 2)))
    return str(path)


class TestAnalyze:
    def test_scalar_reference_values(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", scalar_model, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mean"] == pytest.approx(1.0, rel=1e-10)
        assert report["variance"] == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert report["method"] == "lyapunov"
        stdout = capsys.readouterr().out
        assert "mean" in stdout and "variance" in stdout

    def test_lyapunov_method_on_singular_drift_exits_2(self, non_sylvester_model, capsys):
        assert main(["analyze", non_sylvester_model, "--method", "lyapunov"]) == 2
        assert "sylvester" in capsys.readouterr().err.lower()

    def test_auto_falls_back_to_expm(self, non_sylvester_model, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", non_sylvester_model, "--method", "auto",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "expm"

    def test_horizon_override(self, scalar_model, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", scalar_model, "--horizon", "3",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["horizon"] == 3

    @pytest.mark.parametrize("horizon", ["1e400", "Infinity", "INF", "nan", "-5"])
    def test_horizon_follows_the_model_file_rule(self, scalar_model, capsys, horizon):
        # only the literal "inf" is the infinite horizon, as in a model file
        assert main(["analyze", scalar_model, "--horizon", horizon]) == 1
        assert "--horizon must be a finite number > 0" in capsys.readouterr().err

    def test_infinite_horizon_override(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", scalar_model, "--horizon", "inf", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["horizon"] == "inf"
        assert "horizon = inf," in capsys.readouterr().out

    def test_expm_method_finite_horizon(self, scalar_model, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", scalar_model, "--method", "expm",
                     "--horizon", "4", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["method"] == "expm"
        assert report["mean"] == pytest.approx(1.0 - np.exp(-4.0) * 1.0, rel=1e-6)

    def test_expm_method_infinite_horizon_exits_1(self, scalar_model):
        assert main(["analyze", scalar_model, "--method", "expm"]) == 1

    def test_missing_file_exits_1(self):
        assert main(["analyze", "/nonexistent/model.json"]) == 1

    def test_plant_kind_rejected(self, benchmark_model):
        assert main(["analyze", benchmark_model]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a,alpha,horizon", [(-1.0, 200.0, 1.0), (1.0, 0.0, 800.0),
                                                 (0.5, 0.0, 400.0)])
    def test_overflow_exits_2(self, tmp_path, capsys, a, alpha, horizon):
        model = tmp_path / "overflow.json"
        save_system_model(model, scalar_system(a=a, v=1.0),
                          scalar_cost(alpha=alpha, horizon=horizon))
        assert main(["analyze", str(model)]) == 2
        assert "block exponential lost the variance" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_discounted_past_the_lyapunov_overflow(self, tmp_path):
        # the Lyapunov route's terms would overflow, but the discount leaves
        # the mean 0.5 / 400 + 0.5 / 402 up to e^{-4000}
        model, out = tmp_path / "discounted.json", tmp_path / "report.json"
        save_system_model(model, scalar_system(a=-1.0, v=1.0),
                          scalar_cost(alpha=-200.0, horizon=10.0))
        assert main(["analyze", str(model), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["method"] == "expm"
        assert report["mean"] == pytest.approx(0.5 / 400 + 0.5 / 402, rel=1e-12)
        assert main(["analyze", str(model), "--method", "lyapunov"]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_variance_overflow_from_data_scale_exits_2(self, tmp_path, capsys):
        model = tmp_path / "huge_sigma0.json"
        save_system_model(model, scalar_system(v=1.0, sigma0=1e160),
                          scalar_cost(alpha=0.0, horizon=1.0))
        assert main(["analyze", str(model)]) == 2
        assert "block exponential lost the variance" in capsys.readouterr().err
        assert main(["analyze", str(model), "--method", "lyapunov"]) == 2
        assert "Lyapunov route lost the variance" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sys,cost", [
        # data scale: the mean, 1e310 (1 - e^{-2}) / 2, passes the largest double
        (scalar_system(v=1.0, sigma0=1e300), scalar_cost(q=1e10, alpha=0.0, horizon=1.0)),
    ], ids=["data scale"])
    def test_lyapunov_overflow_exits_2(self, tmp_path, capsys, sys, cost):
        model = tmp_path / "model.json"
        save_system_model(model, sys, cost)
        assert main(["analyze", str(model), "--method", "lyapunov"]) == 2
        assert "Lyapunov route lost the" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lyapunov_route_on_a_stiff_discounted_model(self, tmp_path):
        # e^{-alpha T} = e^{2000} times e^{A T} = e^{-6000} would be inf * 0;
        # each shift's own exponential is finite.  Past T = 200 the weight is
        # e^{-4000}, so the values are the infinite horizon's, Y = 1/80 and
        # X_2 = 2.025/100
        model, out = tmp_path / "stiff.json", tmp_path / "report.json"
        save_system_model(model, scalar_system(a=-30.0, v=1.0, mu0=1.0, sigma0=2.0),
                          scalar_cost(alpha=-10.0, horizon=200.0))
        assert main(["analyze", str(model), "--method", "lyapunov", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["method"] == "lyapunov"
        assert_allclose([report["mean"], report["variance"]], [0.025625, 9.5015625e-4],
                        rtol=1e-12)

    def test_string_entry_exits_1(self, scalar_model, capsys):
        path = pathlib.Path(scalar_model)
        doc = json.loads(path.read_text())
        doc["A"] = [["-1.5"]]
        path.write_text(json.dumps(doc))
        assert main(["analyze", scalar_model]) == 1
        assert ": A must hold real numbers, got '-1.5'" in capsys.readouterr().err

    def test_long_string_entry_shown_short(self, scalar_model, capsys):
        path = pathlib.Path(scalar_model)
        doc = json.loads(path.read_text())
        doc["A"] = [["x" * 1000]]
        path.write_text(json.dumps(doc))
        assert main(["analyze", scalar_model]) == 1
        err = capsys.readouterr().err
        assert ": A must hold real numbers, got 'xxxxxxxxxxxxxxxxxxx... (1002 characters)" in err
        assert "x" * 40 not in err

    def test_boolean_schema_version_exits_1(self, scalar_model, capsys):
        path = pathlib.Path(scalar_model)
        path.write_text(path.read_text().replace('"schema_version": 1', '"schema_version": true'))
        assert main(["analyze", scalar_model]) == 1
        assert "schema_version true" in capsys.readouterr().err

    def test_conditions_in_report(self, scalar_model, tmp_path):
        out = tmp_path / "report.json"
        main(["analyze", scalar_model, "--out", str(out)])
        report = json.loads(out.read_text())
        names = {c["name"] for c in report["conditions"]}
        assert "alpha < 0" in names and "A+1a stable" in names
        assert all(c["passed"] for c in report["conditions"])


class TestSimulate:
    def test_zero_paths_exits_1(self, scalar_model):
        assert main(["simulate", scalar_model, "--paths", "0", "--T", "2"]) == 1

    def test_infinite_T_exits_1(self, scalar_model, capsys):
        assert main(["simulate", scalar_model, "--paths", "10", "--T", "inf"]) == 1
        assert "T must be a finite number > 0" in capsys.readouterr().err

    def test_step_count_past_the_largest_double_exits_1(self, scalar_model, capsys):
        assert main(["simulate", scalar_model, "--paths", "10", "--T", "1",
                     "--dt", "1e-320"]) == 1
        err = capsys.readouterr().err
        assert "input error: T/dt must be a finite number" in err and "Traceback" not in err

    def test_infinite_horizon_requires_T(self, scalar_model, capsys):
        assert main(["simulate", scalar_model, "--paths", "100"]) == 1
        assert "--T is required" in capsys.readouterr().err

    def test_exact_is_the_default_scheme(self):
        # one default for the library, `simulate` and `reproduce-example`
        parser = build_parser()
        assert SimConfig(dt=0.01, T=1.0, n_paths=10).scheme == "exact"
        assert parser.parse_args(["simulate", "model.json", "--paths", "10"]).scheme == "exact"
        assert parser.parse_args(["reproduce-example"]).scheme == "exact"

    def test_byte_identical_reports(self, scalar_model, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["simulate", scalar_model, "--paths", "20000", "--dt", "0.01",
                "--T", "4", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_count_invariance(self, scalar_model, tmp_path, monkeypatch):
        args = ["simulate", scalar_model, "--paths", "20000", "--dt", "0.01",
                "--T", "4", "--seed", "5"]
        reports = []
        for cpus in (1, 2, 4):
            set_usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"r{cpus}.json"
            assert main(args + ["--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_sigma0_at_the_semidefinite_tolerance(self, tmp_path):
        # Sigma0's eigenvalue -1e-9 is inside PSD_TOL: the system is admitted,
        # so the simulator must factor it as well
        model = tmp_path / "near_psd.json"
        sys = LtiSystem(A=[[-1.0, 0.5], [0.0, -2.0]], V=np.eye(2), mu0=np.zeros(2),
                        Sigma0=np.diag([1.0, -1e-9]))
        save_system_model(model, sys, CostSpec(Q=np.eye(2), alpha=0.0, horizon=2.0))
        analyzed, simulated = tmp_path / "analyze.json", tmp_path / "simulate.json"
        assert main(["analyze", str(model), "--out", str(analyzed)]) == 0
        assert main(["simulate", str(model), "--scheme", "exact", "--paths", "2000",
                     "--dt", "0.01", "--out", str(simulated)]) == 0
        expected = json.loads(analyzed.read_text())
        analytic = json.loads(simulated.read_text())["analytic"]
        assert (analytic["mean"], analytic["variance"]) == (expected["mean"],
                                                            expected["variance"])

    def test_agreement_flagged_pass(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["simulate", scalar_model, "--paths", "100000", "--dt", "0.02",
                     "--T", "4", "--seed", "1", "--scheme", "exact",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["agreement"]["within_4_stderr"] is True
        assert "PASS" in capsys.readouterr().out

    def test_deterministic_model_zero_stderr(self, tmp_path, capsys):
        # no noise, deterministic start: both standard errors are 0, so the
        # variance (0 = 0) agrees and the mean's quadrature bias is infinitely
        # many standard errors off
        model, out = tmp_path / "deterministic.json", tmp_path / "report.json"
        save_system_model(model, scalar_system(a=-1.0, v=0.0, mu0=1.0, sigma0=1.0),
                          scalar_cost(alpha=-0.5, horizon=2.0))
        assert main(["simulate", str(model), "--paths", "100", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["empirical"]["mean_stderr"] == 0.0
        assert report["agreement"] == {"mean_z": "inf", "variance_z": 0.0,
                                       "within_4_stderr": False}
        assert "FAIL" in capsys.readouterr().out

    def test_single_path_not_assessed(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["simulate", scalar_model, "--paths", "1", "--T", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["analytic"]["horizon"] == 2.0 and report["agreement"] is None
        stdout = capsys.readouterr().out
        assert "agreement cannot be assessed" in stdout and "PASS" not in stdout

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_analytic_comparison_unavailable(self, tmp_path, capsys):
        # the block route refuses the variance of Sigma0 = 1e160; the sample stands
        model = tmp_path / "huge_sigma0.json"
        save_system_model(model, scalar_system(v=1.0, sigma0=1e160),
                          scalar_cost(alpha=0.0, horizon=1.0))
        assert main(["simulate", str(model), "--paths", "1", "--dt", "0.1", "--T", "1"]) == 0
        stdout = capsys.readouterr().out
        assert ("analytic comparison unavailable: block exponential lost the variance"
                in stdout)


class TestSynthesize:
    def test_benchmark_gain_and_roundtrip(self, benchmark_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        closed = tmp_path / "closed.json"
        assert main(["synthesize", benchmark_model, "--full-state",
                     "--out-model", str(closed), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        f = np.array(report["F"])
        assert abs(f[0, 0] - 1.6) <= 0.05 and abs(f[0, 1] - 9.9) <= 0.05
        assert report["K"] is None
        # the written closed-loop model must re-ingest cleanly
        assert main(["analyze", str(closed)]) == 0

    def test_observer_synthesis(self, benchmark_model, tmp_path):
        out = tmp_path / "report.json"
        closed = tmp_path / "closed.json"
        assert main(["synthesize", benchmark_model, "--out-model", str(closed),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert np.array(report["K"]).shape == (2, 2)
        assert main(["analyze", str(closed)]) == 0

    def test_wrong_kind_exits_1(self, scalar_model):
        assert main(["synthesize", scalar_model]) == 1

    def test_ill_conditioned_40_state_plant(self, tmp_path):
        # a plant whose Riccati equations an eigenvalue-shift-started Newton
        # iteration could not solve ("(A, B) is likely not stabilizable")
        plant = recipe_plant(40, np.random.default_rng(0))
        model, out = tmp_path / "plant.json", tmp_path / "report.json"
        save_plant_model(model, plant, np.zeros(40), np.zeros((40, 40)))
        assert main(["synthesize", str(model), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        x = solve_continuous_are(plant.shifted_drift(), plant.B, plant.Q, plant.R)
        e = solve_continuous_are(plant.A.T, plant.C.T, plant.V, plant.W)
        for gain, expected in ((report["F"], plant.B.T @ x),
                               (report["K"], np.linalg.solve(plant.W, plant.C @ e).T)):
            assert_allclose(gain, expected, rtol=0, atol=1e-8 * np.abs(expected).max())


class TestTune:
    def test_variance_objective(self, benchmark_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["tune", benchmark_model, "--objective", "variance",
                     "--max-iter", "60", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        values = [v for _, v in report["trace"]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert report["converged"] is True and report["stop_reason"] == "gradient"
        assert 0.0 < report["gradient_norm"] < 1e-2          # the CLI's default --grad-tol
        relative = report["gradient_norm"] / report["objective_value"]
        assert (f"stopped on gradient, gradient norm = {report['gradient_norm']:.10g}"
                f" (relative to |objective|: {relative:.10g})" in capsys.readouterr().out)

    def test_budget_stop_reported(self, benchmark_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["tune", benchmark_model, "--max-iter", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["iterations"] == 3 and report["converged"] is False
        assert report["stop_reason"] == "max_iter" and report["gradient_norm"] > 1e-2
        assert "stopped on max_iter" in capsys.readouterr().out

    def test_mean_objective_stays_at_riccati_gain(self, benchmark_model, tmp_path):
        out = tmp_path / "report.json"
        assert main(["tune", benchmark_model, "--objective", "mean",
                     "--max-iter", "50", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        f0 = np.array(report["F0"])
        f = np.array(report["F"])
        assert np.abs(f - f0).max() < 0.05

    def test_infeasible_init_exits_2(self, benchmark_model):
        assert main(["tune", benchmark_model, "--init", "0,0",
                     "--max-iter", "5"]) == 2

    def test_malformed_init_exits_1(self, benchmark_model):
        assert main(["tune", benchmark_model, "--init", "1,2,3"]) == 1

    def test_names_its_horizon(self, benchmark_model, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["tune", benchmark_model, "--max-iter", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["horizon"] == "inf"
        assert "(objective = variance, horizon = inf)" in capsys.readouterr().out

    def test_finite_horizon_plant_exits_1(self, tmp_path, capsys):
        # tune optimises the infinite-horizon cost, so it must not report
        # those values for a plant saved with a finite horizon
        plant = LqgPlant(A=[[1.0, 0.0], [0.05, 1.0]], B=[[1.0], [0.0]], C=np.eye(2),
                         Q=np.eye(2), R=np.eye(1), V=np.eye(2), W=0.01 * np.eye(2),
                         alpha=-0.8)
        path = tmp_path / "plant.json"
        save_plant_model(path, plant, np.zeros(2), np.eye(2), horizon=5.0)
        assert main(["tune", str(path)]) == 1
        assert capsys.readouterr().err == ("input error: tune optimises the infinite-horizon "
                                           "cost; the model's horizon is 5\n")


class TestReproduceExample:
    def test_smoke_with_tiny_path_count(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["reproduce-example", "--paths", "2000", "--T", "10",
                     "--seed", "1", "--tune-iters", "80", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["assumption"]["V"] == [[1.0, 0.0], [0.0, 1.0]]
        assert report["assumption"]["mu0"] == [0.0, 0.0]
        assert report["assumption"]["Sigma0"] == [[0.0, 0.0], [0.0, 0.0]]
        gain = np.ravel(report["mean_optimal"]["gain"])
        assert abs(gain[0] - 1.6) <= 0.05 and abs(gain[1] - 9.9) <= 0.05
        tuner = report["tuner"]
        assert tuner["converged"] is True and tuner["stop_reason"] == "gradient"
        assert tuner["gradient_norm"] < 1e-2
        stdout = capsys.readouterr().out
        assert "assumption" in stdout
        assert "stopped on gradient" in stdout

    def test_assumption_file_override(self, tmp_path):
        assumption = tmp_path / "assume.json"
        assumption.write_text(json.dumps({"V": [[2.0, 0.0], [0.0, 2.0]]}))
        out = tmp_path / "report.json"
        assert main(["reproduce-example", "--paths", "1000", "--T", "8",
                     "--tune-iters", "40", "--assumption-file", str(assumption),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["assumption"]["V"] == [[2.0, 0.0], [0.0, 2.0]]

    def test_assumption_arrays_hold_numbers_only(self, tmp_path, capsys):
        assumption = tmp_path / "assume.json"
        assumption.write_text(json.dumps({"V": [["2", 0.0], [0.0, 2.0]]}))
        assert main(["reproduce-example", "--paths", "100", "--T", "2", "--tune-iters", "5",
                     "--assumption-file", str(assumption)]) == 1
        assert ": V must hold real numbers, got '2'" in capsys.readouterr().err

    def test_bad_assumption_file_exits_1(self, tmp_path):
        assumption = tmp_path / "assume.json"
        assumption.write_text(json.dumps({"X": 1}))
        assert main(["reproduce-example", "--paths", "100",
                     "--assumption-file", str(assumption)]) == 1
