import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ncusp

from ncusp.cli import _resolve, load_config, main


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def p1_config(tmp_path):
    return _write_config(tmp_path, "p1.json", {
        "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
        "mesh": {"levels": 4, "rows_per_strip": 6},
        "solver": {"tol_rel": 1e-8, "restarts": 2, "seed": 3},
    })


@pytest.fixture
def oracle_config(tmp_path):
    return _write_config(tmp_path, "oracle.json", {
        "params": {"n": 2, "p": 2.0, "gamma": 3.0, "q": 2.0, "theta": 2.0},
        "mesh": {"levels": 4, "rows_per_strip": 6},
        "solver": {"tol_rel": 1e-9, "restarts": 2},
    })


def _json_artifact(outdir, name):
    with open(outdir / name) as fh:
        return json.load(fh)


class TestCommands:
    def test_exponents(self, p1_config, tmp_path):
        out = tmp_path / "run"
        assert main(["exponents", "--config", p1_config, "--out", str(out)]) == 0
        doc = _json_artifact(out, "exponents.json")
        assert doc["schema"] == "ncusp-artifact v1"
        assert doc["exponents"]["beta"] == pytest.approx(2.0)
        assert doc["exponents"]["p_star"] == pytest.approx(3.0)
        assert doc["ranges"]["unweighted_r_range"] == "empty"
        assert "config" in doc and doc["config"]["params"]["gamma"] == 3.0

    def test_scaling(self, tmp_path):
        cfg = _write_config(tmp_path, "sc.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 3.0, "theta": 2.0},
        })
        out = tmp_path / "run"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        doc = _json_artifact(out, "scaling.json")
        assert doc["lhs_slope"] == pytest.approx(1.0, abs=0.02)
        assert doc["rhs_slope"] == pytest.approx(1.0, abs=0.02)
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0].startswith("# schema: ncusp-artifact v1")
        assert lines[3] == "eps,lhs_norm,rhs_norm,ratio"
        assert len(lines) == 4 + 9

    def test_sharpness_scan_mode(self, tmp_path):
        cfg = _write_config(tmp_path, "scan.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0, "theta": 2.0},
            "scaling": {"q": 2.0, "theta_grid": [0.5, 1.0, 1.5]},
        })
        out = tmp_path / "run"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        doc = _json_artifact(out, "sharpness.json")
        assert doc["theta_min"] == pytest.approx(1.0)
        assert (out / "sharpness.csv").exists()

    def test_sharpness_csv_rows_are_the_json_rows(self, tmp_path):
        # every data row is three plain floats, the row of sharpness.json
        cfg = _write_config(tmp_path, "scan.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
            "scaling": {"q": 2.0, "theta_grid": [1.5, 0.5, 1.0, 0.8]},
        })
        out = tmp_path / "run"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sharpness.csv").read_text().splitlines()
        assert lines[3] == "theta,slope_gap,theta_gap"
        rows = [[float(value) for value in line.split(",")] for line in lines[4:]]
        assert rows == _json_artifact(out, "sharpness.json")["rows"]
        assert len(rows) == 4

    def test_solve(self, p1_config, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--config", p1_config, "--out", str(out)]) == 0
        doc = _json_artifact(out, "solve.json")
        assert doc["converged"] is True
        assert doc["lambda"] > 0
        assert abs(doc["lambda"] - doc["energy"]) < 1e-8
        csv = (out / "solve.csv").read_text().splitlines()
        assert csv[3] == "lambda,mu,energy,boundary_norm,residual,iters,dof"
        nodal = (out / "solve_nodal.csv").read_text().splitlines()
        assert nodal[3] == "vertex_index,x1,x2,u"
        assert len(nodal) == 4 + doc["dof"]

    def test_solve_reports_start_spread(self, p1_config, tmp_path):
        out = tmp_path / "multi"
        assert main(["solve", "--config", p1_config, "--out", str(out)]) == 0
        assert 0.0 <= _json_artifact(out, "solve.json")["start_spread"] < 1e-8
        cfg = _write_config(tmp_path, "single.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
            "mesh": {"levels": 4, "rows_per_strip": 6},
        })
        out = tmp_path / "single"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        doc = _json_artifact(out, "solve.json")
        assert doc["config"]["solver"]["restarts"] == 1
        assert doc["restarts"] == 1
        assert doc["start_spread"] is None

    def test_oracle_check(self, oracle_config, tmp_path):
        out = tmp_path / "run"
        assert main(["oracle-check", "--config", oracle_config,
                     "--out", str(out)]) == 0
        doc = _json_artifact(out, "oracle_check.json")
        assert doc["agree"] is True
        assert doc["rel_difference"] < 1e-6

    def test_oracle_check_at_gamma_4(self, tmp_path):
        # gamma 4, theta 0 at levels 8, with the default solver and rtol 1e-6:
        # u @ (A @ u) is ill-conditioned there, and rel_difference (8.8e-7) is
        # only 12% below rtol
        cfg = _write_config(tmp_path, "g4.json", {
            "params": {"n": 2, "p": 2.0, "gamma": 4.0, "q": 2.0, "theta": 0.0},
            "mesh": {"levels": 8},
        })
        out = tmp_path / "run"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
        doc = _json_artifact(out, "oracle_check.json")
        assert doc["agree"] is True
        assert doc["rel_difference"] < doc["rtol"] == 1e-6

    def test_solve_linear_testbed_on_simplex(self, tmp_path):
        # p = q = 2 with theta = 0 must solve and match the linear oracle
        cfg = _write_config(tmp_path, "simplex.json", {
            "params": {"n": 2, "p": 2.0, "gamma": 2.0, "q": 2.0,
                       "theta": 0.0, "simplex": True},
            "mesh": {"levels": 4, "rows_per_strip": 6},
            "solver": {"tol_rel": 1e-9, "restarts": 2},
        })
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        doc = _json_artifact(out, "solve.json")
        from ncusp.geometry import validate_params
        from ncusp.steklov import generate_cusp_mesh, linear_oracle
        params = validate_params(2, 2.0, 2.0, 2.0, theta=0.0, simplex=True,
                                 usage="discrete")
        grid = generate_cusp_mesh(params, levels=4, rows_per_strip=6)
        lam_oracle, _ = linear_oracle(grid, theta=0.0)
        assert abs(doc["lambda"] - lam_oracle) / lam_oracle < 1e-6

    def test_mesh(self, p1_config, tmp_path):
        out = tmp_path / "run"
        assert main(["mesh", "--config", p1_config, "--out", str(out)]) == 0
        text = (out / "mesh.txt").read_text().splitlines()
        assert text[0] == "ncusp-mesh v1"
        doc = _json_artifact(out, "mesh.json")
        assert doc["area"] == pytest.approx(1 / 3, rel=5e-3)  # coarse test mesh

    def test_verify_geometry(self, p1_config, tmp_path):
        out = tmp_path / "run"
        assert main(["verify-geometry", "--config", p1_config,
                     "--out", str(out)]) == 0
        doc = _json_artifact(out, "verify_geometry.json")
        assert doc["ok"] is True
        assert doc["jacobian_suite"]["max_roundtrip"] < 1e-12


class TestValidation:
    def test_unknown_top_key(self, tmp_path):
        cfg = _write_config(tmp_path, "bad.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
            "bogus": True,
        })
        assert main(["exponents", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_nested_key(self, tmp_path):
        cfg = _write_config(tmp_path, "bad.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0, "extra": 1},
        })
        assert main(["exponents", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_invalid_params_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, "bad.json", {
            "params": {"n": 2, "p": 2.0, "gamma": 3.0, "q": 2.0},
        })
        assert main(["exponents", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("params", [5, [{"n": 2}]])
    def test_non_object_params_exits_2(self, tmp_path, capsys, params):
        cfg = _write_config(tmp_path, "bad.json", {"params": params})
        assert main(["exponents", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "'params' must be an object" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_oracle_check_requires_p2(self, tmp_path):
        cfg = _write_config(tmp_path, "bad.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0, "theta": 2.0},
        })
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_threads_flag_removed(self, p1_config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["exponents", "--config", p1_config, "--out", str(tmp_path),
                  "--threads", "2"])
        assert exc.value.code == 2
        assert main(["exponents", "--config", p1_config, "--out", str(tmp_path)]) == 0
        assert "threads" not in _json_artifact(tmp_path, "exponents.json")["config"]

    def test_missing_config(self, tmp_path):
        assert main(["exponents", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_solve_requires_steklov_range(self, tmp_path):
        cfg = _write_config(tmp_path, "bad.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 3.0},
        })
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("max_iter", "abc"), ("reg_eps", 0), ("reg_eps", 1e300), ("tol_rel", -1),
        ("restarts", 0), pytest.param("tol_rel", 10**400, id="tol_rel-10**400")])
    def test_invalid_solver_value_exits_2_naming_key(self, tmp_path, capsys, key, value):
        cfg = _write_config(tmp_path, "bad.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
            "mesh": {"levels": 4, "rows_per_strip": 6},
            "solver": {key: value},
        })
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,block,key,value", [
        ("mesh", "mesh", "levels", "abc"), ("mesh", "mesh", "levels", 4.5),
        ("mesh", "mesh", "levels", 2), ("mesh", "mesh", "grading_ratio", "x"),
        ("mesh", "mesh", "grading_ratio", 1.0), ("mesh", "mesh", "rows_per_strip", 0),
        ("mesh", "mesh", "aspect", 0), ("solve", "mesh", "levels", 4.5),
        ("verify-geometry", "verify", "samples", "abc"),
        ("verify-geometry", "verify", "samples", 0),
        ("oracle-check", "oracle", "rtol", "x"), ("oracle-check", "oracle", "rtol", 0),
        ("exponents", "params", "p", "x"), ("exponents", "params", "gamma", "x"),
        ("exponents", "params", "simplex", "no"),
        ("scaling", "scaling", "q", "x"), ("scaling", "scaling", "q", 0),
        ("scaling", "scaling", "theta", "x"),
        ("scaling", "scaling", "theta_grid", [1, "a"]),
        ("scaling", "scaling", "theta_grid", "abc"),
        ("scaling", "scaling", "theta_grid", []),
        ("verify-geometry", "map", "a", "x"),
        # at or below the integrability threshold of the boundary weight
        ("solve", "params", "theta", -5), ("oracle-check", "params", "theta", -1.5),
        # integers that no float can hold
        pytest.param("exponents", "params", "gamma", 10**400, id="gamma-10**400"),
        pytest.param("verify-geometry", "map", "a", 10**400, id="a-10**400"),
        pytest.param("mesh", "mesh", "levels", 10**400, id="levels-10**400"),
        pytest.param("verify-geometry", "verify", "samples", 10**400,
                     id="samples-10**400"),
        # over the size budget of 10**6 sample points
        ("verify-geometry", "verify", "samples", 10**6 + 1),
    ])
    def test_invalid_value_exits_2_naming_key(self, tmp_path, capsys, command, block,
                                              key, value):
        cfg = {"params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
               "mesh": {"levels": 4, "rows_per_strip": 6}}
        if command == "oracle-check":
            cfg["params"] = {"n": 2, "p": 2.0, "gamma": 3.0, "q": 2.0, "theta": 2.0}
        cfg.setdefault(block, {})[key] = value
        path = _write_config(tmp_path, "bad.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "run")]) == 2
        assert f"{key}:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,block,values,keys", [
        ("mesh", "mesh", {"levels": 10**6}, ["levels", "rows_per_strip"]),
        ("mesh", "mesh", {"rows_per_strip": 10**8}, ["levels", "rows_per_strip"]),
        ("mesh", "mesh", {"aspect": 1e-320}, ["aspect"]),
        ("mesh", "mesh", {"aspect": 1e-9}, ["aspect"]),
        ("mesh", "mesh", {"grading_ratio": 0.999}, ["grading_ratio"]),
        ("solve", "mesh", {"aspect": 1e-9}, ["aspect"]),
        # a tip height grading_ratio ** levels below the normal doubles
        ("mesh", "mesh", {"levels": 1075, "rows_per_strip": 1},
         ["levels", "grading_ratio"]),
        ("mesh", "mesh", {"levels": 4, "grading_ratio": 1e-300},
         ["levels", "grading_ratio"]),
    ])
    def test_oversized_input_exits_2_naming_keys(self, tmp_path, capsys, command,
                                                 block, values, keys):
        # the size budget of 10**6 mesh vertices, checked before anything is
        # allocated and before any overflow warning
        cfg = {"params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0}, block: values}
        path = _write_config(tmp_path, "big.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("gamma,code", [(40.0, 0), (50.0, 3), (1e200, 3)])
    def test_scaling_norm_underflow_exits_3_naming_gamma(self, tmp_path, capsys,
                                                          gamma, code):
        # from gamma 50 on, the boundary norm at eps = 2**-12 underflows to 0.0
        path = _write_config(tmp_path, "sc.json",
                             {"params": {"n": 2, "p": 1.5, "gamma": gamma}})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scaling", "--config", path, "--out", str(out)]) == code
        if code:
            assert f"gamma = {gamma:g}" in capsys.readouterr().err
            assert not out.exists()
        else:
            doc = _json_artifact(out, "scaling.json")
            assert math.isfinite(doc["lhs_slope"]) and math.isfinite(doc["rhs_slope"])

    @pytest.mark.parametrize("theta", [200.0, 1e300])
    def test_scaling_norm_underflow_exits_3_naming_theta(self, tmp_path, capsys, theta):
        # at the reference gamma it is the weight exponent that underflows
        # the boundary norm
        path = _write_config(tmp_path, "sc.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0}, "scaling": {"theta": theta}})
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scaling", "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"theta = {theta:g}" in err and "gamma" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("gamma", [1e17, 1e200])
    def test_verify_height_rounding_exits_3_naming_gamma(self, tmp_path, capsys, gamma):
        # a = (n-p)/(gamma-p) is so small that y_n**a rounds to 1.0
        path = _write_config(tmp_path, "vg.json",
                             {"params": {"n": 2, "p": 1.5, "gamma": gamma}})
        out = tmp_path / "run"
        assert main(["verify-geometry", "--config", path, "--out", str(out)]) == 3
        assert f"gamma = {gamma:g}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params", [{"n": 2, "p": 2, "gamma": 3},
                                        {"n": 2, "p": "x", "gamma": 3}])
    def test_trace_command_without_q_names_p(self, tmp_path, capsys, params):
        path = _write_config(tmp_path, "bad.json", {"params": params})
        assert main(["exponents", "--config", path, "--out", str(tmp_path / "run")]) == 2
        assert "p:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_default_theta_overflow_names_gamma(self, tmp_path, capsys):
        # the default theta is beta(gamma), which overflows to inf here
        path = _write_config(tmp_path, "bad.json",
                             {"params": {"n": 2, "p": 1.5, "gamma": 1e308}})
        assert main(["exponents", "--config", path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "gamma:" in err and "beta" in err and "theta:" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["exponents", "verify-geometry"])
    def test_simplex_string_exits_2(self, tmp_path, capsys, command):
        path = _write_config(tmp_path, "bad.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 2.0, "simplex": "no"}})
        assert main([command, "--config", path, "--out", str(tmp_path / "run")]) == 2
        assert "simplex:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_trace_command_defaults_q_to_critical_exponent(self, tmp_path):
        path = _write_config(tmp_path, "noq.json",
                             {"params": {"n": 2, "p": 1.5, "gamma": 3.0}})
        assert main(["exponents", "--config", path, "--out", str(tmp_path)]) == 0
        # theta_min at the critical exponent is the sharp weight beta = 2
        doc = _json_artifact(tmp_path, "exponents.json")
        assert doc["exponents"]["theta_min_at_q"] == pytest.approx(2.0, abs=1e-12)
        path = _write_config(tmp_path, "noq_solve.json",
                             {"params": {"n": 2, "p": 1.5, "gamma": 3.0}})
        assert main(["solve", "--config", path, "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("extra", [{"scaling": {"cutoff": "quintic"}},
                                       {"output": "somewhere"}])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, extra):
        cfg = {"params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 3.0, "theta": 2.0}, **extra}
        path = _write_config(tmp_path, "bad.json", cfg)
        assert main(["scaling", "--config", path, "--out", str(tmp_path / "run")]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_readme_config_is_accepted(self, tmp_path):
        # the README's example names only keys the CLI accepts, and the
        # resolved config keeps each of its values
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.json"
        path.write_text(example)
        cfg = _resolve(load_config(str(path)), None)
        for section, values in json.loads(example).items():
            assert cfg[section].items() >= values.items(), section

    @pytest.mark.parametrize("command", ["mesh", "solve"])
    def test_nan_edge_ratio_exits_3(self, tmp_path, capsys, command):
        # edges below about 1e-162 have norm 0, so the tip's edge ratio is NaN
        cfg = _write_config(tmp_path, "nan.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
            "mesh": {"levels": 540, "rows_per_strip": 1},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / "run")]) == 3
        assert "edge ratio nan" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_hard_input_exits_3_naming_p(self, tmp_path, capsys):
        # gamma 5, p 1.05: at the needle tip the metric of the inverse
        # iteration is not numerically positive definite
        cfg = _write_config(tmp_path, "hard.json", {
            "params": {"n": 2, "p": 1.05, "gamma": 5.0, "q": 1.07763},
            "mesh": {"levels": 6},
        })
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert "p = 1.05" in err and "positive definite" in err

    def test_unconverged_solve_exits_3_with_artifacts(self, tmp_path, capsys):
        # an unreachable tolerance flags the run but still writes everything
        cfg = _write_config(tmp_path, "hard.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0},
            "mesh": {"levels": 4, "rows_per_strip": 6},
            "solver": {"tol_rel": 1e-15, "max_iter": 2, "restarts": 1},
        })
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        doc = _json_artifact(out, "solve.json")
        assert doc["converged"] is False
        assert doc["lambda"] > 0
        assert (out / "solve_nodal.csv").exists()
        err = capsys.readouterr().err
        assert err.count("numerical failure:") == 1
        assert f"weak residual {doc['residual']:.1e} after 2 steps" in err
        assert "10 * tol_rel = 1e-14 (max_iter = 2)" in err

    def test_oracle_disagreement_exits_3_naming_rtol(self, tmp_path, capsys):
        # no two solvers agree to 1e-17; the artifact records the verdict
        cfg = _write_config(tmp_path, "strict.json", {
            "params": {"n": 2, "p": 2.0, "gamma": 3.0, "q": 2.0, "theta": 2.0},
            "mesh": {"levels": 4, "rows_per_strip": 6},
            "solver": {"tol_rel": 1e-9},
            "oracle": {"rtol": 1e-17},
        })
        out = tmp_path / "run"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 3
        doc = _json_artifact(out, "oracle_check.json")
        assert doc["agree"] is False
        err = capsys.readouterr().err
        assert err.count("numerical failure:") == 1
        assert f"differ by {doc['rel_difference']:.1e}" in err
        assert "oracle.rtol = 1e-17" in err

    def test_failed_geometry_check_exits_3_naming_it(self, tmp_path, capsys):
        # at gamma 1e5 in three dimensions the map's finite-difference
        # Jacobian determinant misses FD_TOL; the artifact is still written
        cfg = _write_config(tmp_path, "steep.json", {
            "params": {"n": 3, "p": 2.0, "gamma": 1e5, "q": 3.0},
            "verify": {"samples": 500},
        })
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["verify-geometry", "--config", cfg, "--out", str(out)]) == 3
        doc = _json_artifact(out, "verify_geometry.json")
        assert doc["ok"] is False
        err = capsys.readouterr().err
        assert err.count("numerical failure:") == 1
        fd_rel = doc["jacobian_suite"]["max_fd_rel"]
        assert f"jacobian suite: max_fd_rel = {fd_rel:.3g} is not below 1e-06" in err
        # most of the tangential Jacobians are NaN there, and fail the sandwich
        assert "max_sandwich_violation = nan is not below 1e-12" in err


class TestReproducibility:
    def test_identical_artifacts(self, p1_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["solve", "--config", p1_config, "--out", str(out),
                         "--seed", "12"]) == 0
        for name in ("solve.json", "solve.csv", "solve_nodal.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_log_level_env(self, p1_config, tmp_path, monkeypatch):
        monkeypatch.setenv("NCUSP_LOG", "quiet")
        assert main(["exponents", "--config", p1_config,
                     "--out", str(tmp_path / "q")]) == 0
        monkeypatch.setenv("NCUSP_LOG", "debug")
        assert main(["exponents", "--config", p1_config,
                     "--out", str(tmp_path / "d")]) == 0

    def test_seed_changes_nothing_for_deterministic_commands(self, tmp_path):
        cfg = _write_config(tmp_path, "sc.json", {
            "params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 3.0, "theta": 2.0},
        })
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "scaling.csv").read_bytes())
        assert outs[0] == outs[1]


SRC = Path(ncusp.__file__).resolve().parents[1]


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    return proc.stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, ncusp.cli; print('scipy.stats' in sys.modules)"
    assert _run_python(code) == "False"


def test_light_commands_leave_out_scipy(tmp_path):
    # the trace side and mesh need numpy only; scipy loads with the solver
    ref = {"n": 2, "p": 1.5, "gamma": 3.0, "q": 2.0}
    runs = [("exponents", {"params": ref}),
            ("mesh", {"params": ref, "mesh": {"levels": 4, "rows_per_strip": 6}}),
            ("scaling", {"params": {**ref, "q": 3.0, "theta": 2.0}}),
            ("scaling", {"params": ref, "scaling": {"theta_grid": [0.5, 1.0, 1.5]}}),
            ("verify-geometry", {"params": ref, "verify": {"samples": 500}})]
    argvs = [[command, "--config", _write_config(tmp_path, f"{k}.json", cfg),
              "--out", str(tmp_path / f"out{k}")]
             for k, (command, cfg) in enumerate(runs)]
    code = ("import sys, ncusp.cli\n"
            f"codes = [ncusp.cli.main(argv) for argv in {argvs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code) == f"{[0] * len(runs)} []"


def test_halton_users_leave_out_scipy_stats():
    code = (
        "import sys, ncusp\n"
        "from ncusp.operators import K_pp_estimate\n"
        "from ncusp.verify import jacobian_suite\n"
        "for args in ((2, 3.0, 1.5), (3, 4.0, 2.0)):\n"
        "    cmap = ncusp.cusp_map(ncusp.validate_params(*args))\n"
        "    assert jacobian_suite(cmap, 500).ok\n"
        "    K_pp_estimate(cmap, 500)\n"
        "print('scipy.stats' in sys.modules)")
    assert _run_python(code) == "False"


def _imports_scipy_stats(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "scipy.stats" or alias.name.startswith("scipy.stats.")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        return (node.module == "scipy.stats" or node.module.startswith("scipy.stats.")
                or (node.module == "scipy"
                    and any(alias.name == "stats" for alias in node.names)))
    return False


def test_no_module_imports_scipy_stats():
    # importing scipy.stats costs about 0.8 s per process; a lazy import
    # inside a function would bring it back unseen by the import test above
    modules = sorted((SRC / "ncusp").rglob("*.py"))
    assert modules
    offenders = [f"{path.relative_to(SRC)}:{node.lineno}"
                 for path in modules
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if _imports_scipy_stats(node)]
    assert offenders == []


# the only modules that may import scipy, relative to src/ncusp
SCIPY_MODULES = {"steklov/fem.py", "steklov/solve.py"}


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy")


def test_only_fem_and_solver_import_scipy():
    # scipy.sparse costs about 0.3 s per process: the trace side and mesh
    # must run without it, so an import anywhere else, even inside a
    # function, is a regression
    root = SRC / "ncusp"
    assert all((root / name).is_file() for name in SCIPY_MODULES)
    offenders = [f"{path.relative_to(root).as_posix()}:{node.lineno}"
                 for path in sorted(root.rglob("*.py"))
                 if path.relative_to(root).as_posix() not in SCIPY_MODULES
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if _imports_scipy(node)]
    assert offenders == []


# the trace side: each module lies directly in src/ncusp
TRACE_MODULES = ("geometry.py", "quadrature.py", "operators.py", "embedding.py",
                 "verify.py")


def _imports_steklov(node) -> bool:
    # a trace module sits in the ncusp package, so "from .steklov import x"
    # and "from . import steklov" reach ncusp.steklov too
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["ncusp", "steklov"]
                   for alias in node.names)
    if not isinstance(node, ast.ImportFrom) or node.level > 1:
        return False
    module = ["ncusp"] * node.level + (node.module.split(".") if node.module else [])
    return module[:2] == ["ncusp", "steklov"] or (
        module == ["ncusp"] and any(alias.name == "steklov" for alias in node.names))


def test_trace_side_imports_nothing_from_steklov():
    # the trace side computes exact reductions and quadratures; the mesh and
    # FEM layer is the solver's, so no trace module may reach into it
    root = SRC / "ncusp"
    offenders = [f"{name}:{node.lineno}"
                 for name in TRACE_MODULES
                 for node in ast.walk(ast.parse((root / name).read_text(), name))
                 if _imports_steklov(node)]
    assert offenders == []


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each module-level import bound name that the module
    neither reads nor lists in __all__."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno)
                      for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if _is_all(node):
            used |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in bound if name not in used]


def test_every_module_import_is_used():
    # an import left behind when its last use moves elsewhere costs import
    # time and hides where a name really comes from
    root = SRC / "ncusp"
    modules = sorted(root.rglob("*.py"))
    assert modules
    offenders = [f"{path.relative_to(root).as_posix()}:{line} {name}"
                 for path in modules
                 for name, line in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert offenders == []


def _public_definitions(tree: ast.Module) -> list[str]:
    """Names in __all__ that the module itself defines (not re-exports), each
    followed by the public methods of a class as ``Class.method``."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    public = []
    for name in (name for node in tree.body if _is_all(node)
                 for name in ast.literal_eval(node.value)):
        node = defined.get(name)
        if node is None:
            continue
        public.append(name)
        if isinstance(node, ast.ClassDef):
            public += [f"{name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return public


def _uses(tree: ast.Module) -> set[str]:
    """Names the module reads, and attributes it reads as ``.attr``. An
    import, an __all__ entry or a string naming a function is no use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add("." + node.attr)
    return used


# load_mesh reads the file that `ncusp mesh` writes; only tests call it
KEPT_WITHOUT_CALLER = ["steklov/mesh.py load_mesh"]


def test_every_public_name_is_used():
    # a public name or method that nothing in src/ calls and no benchmark
    # workload, span or acceptance criterion reaches is surface that only
    # tests keep alive
    root = SRC / "ncusp"
    trees = {path.relative_to(root).as_posix(): ast.parse(path.read_text(), str(path))
             for path in sorted(root.rglob("*.py"))}
    assert trees
    acceptance = Path(__file__).with_name("test_acceptance.py")
    used = set().union(*map(_uses, trees.values()),
                       _uses(ast.parse(acceptance.read_text(), str(acceptance))))
    bench = "\n".join(path.read_text()
                      for path in sorted((SRC.parent / "perfbench").glob("*.py")))

    def reached(name):
        # a method is reached as an attribute, a module-level name either way
        owner, _, attr = name.rpartition(".")
        if owner:
            return "." + attr in used or re.search(rf"\.{attr}\b", bench)
        return {attr, "." + attr} & used or re.search(rf"\b{attr}\b", bench)

    offenders = [f"{module} {name}" for module, tree in trees.items()
                 for name in _public_definitions(tree) if not reached(name)]
    assert offenders == KEPT_WITHOUT_CALLER
