"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Subcommands:

    exponents        derived exponents and embedding ranges
    verify-geometry  Jacobian and measure-identity suites
    scaling          test-family norms and fitted slopes (or a theta scan)
    solve            Rayleigh minimization with residual and trace constant
    oracle-check     p = q = 2 nonlinear solve vs. the ARPACK pencil oracle
    mesh             generate and export a graded triangulation

Every artifact embeds the fully resolved configuration and a schema string;
identical configs and seeds reproduce artifacts byte for byte. Exit codes:
0 success, 2 configuration or validation error, 3 numerical failure (the
artifact is still written when possible).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import logging
import math
import os
import sys
from pathlib import Path

# the FEM and solver names of `steklov` load scipy: commands reach them
# through the package, which imports their modules on first use
from . import __version__, steklov
from .embedding import scaling_slopes, sharpness_scan
from .errors import (
    ConfigError,
    NumericalError,
    RangeViolation,
    ValidationError,
    check_number,
)
from .geometry import cusp_map, derived_exponents, validate_params
from .operators import embedding_ranges
from .steklov.mesh import generate_cusp_mesh, mesh_area, save_mesh
from .steklov.options import SolverOptions
from .verify import jacobian_suite, measure_suite

SCHEMA = "ncusp-artifact v1"

log = logging.getLogger("ncusp")


def _defaults(fn) -> dict:
    return {name: arg.default for name, arg in inspect.signature(fn).parameters.items()
            if arg.default is not inspect.Parameter.empty}


# config section -> (its defaults, the keys it accepts that have no default)
_SECTIONS = {
    "params": ({}, {"n", "p", "gamma", "q", "theta", "simplex"}),
    # levels has no library default; the other keys take generate_cusp_mesh's
    "mesh": ({"levels": 10, **_defaults(generate_cusp_mesh)}, set()),
    # every SolverOptions field but the start vector
    "solver": ({f.name: f.default for f in dataclasses.fields(SolverOptions)
                if f.name != "initial"}, set()),
    "scaling": ({}, {"theta", "q", "theta_grid"}),
    "verify": (_defaults(jacobian_suite), set()),
    "oracle": ({"rtol": 1e-6}, set()),
    "map": ({}, {"a"}),
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def load_config(path: str) -> dict:
    """Parse and structurally validate a run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, set(_SECTIONS), "config")
    if "params" not in raw:
        raise ConfigError("config requires a 'params' block")
    for block, (defaults, keys) in _SECTIONS.items():
        if block in raw:
            if not isinstance(raw[block], dict):
                raise ConfigError(f"'{block}' must be an object")
            _reject_unknown(raw[block], keys | defaults.keys(), block)
    return raw


def _resolve(raw: dict, seed_override: int | None) -> dict:
    cfg = {block: {**defaults, **raw.get(block, {})}
           for block, (defaults, _) in _SECTIONS.items()}
    if seed_override is not None:
        cfg["solver"]["seed"] = seed_override
    return {**cfg, "version": __version__}


def _params_from(cfg: dict, usage: str):
    p = cfg["params"]
    for key in ("n", "p", "gamma"):
        if key not in p:
            raise ConfigError(f"params.{key} is required")
    # q defaults to the critical exponent for trace-side commands
    return validate_params(p["n"], p["gamma"], p["p"], p.get("q"),
                           theta=p.get("theta"), simplex=p.get("simplex", False),
                           usage=usage)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    log.info("wrote %s", path)
    return path


def _csv_text(cfg: dict, command: str, header: str, rows: list[str]) -> str:
    lines = [f"# schema: {SCHEMA}",
             f"# command: {command}",
             "# config: " + json.dumps(cfg, sort_keys=True),
             header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _artifact(cfg: dict, command: str, body: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "config": cfg, **body}


def _failed(constraint: str) -> int:
    # a run whose artifacts are written but whose result misses a constraint
    print(f"numerical failure: {constraint}", file=sys.stderr)
    return 3


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_exponents(cfg: dict, outdir: Path) -> int:
    params = _params_from(cfg, usage="trace")
    exps = derived_exponents(params)
    ranges = embedding_ranges(params)
    body = {
        "exponents": {
            "alpha": exps.alpha,
            "a_max": exps.a_max,
            "beta": exps.beta,
            "p_star": exps.p_star,
            "r_max": exps.r_max,
            "d_gamma": exps.d_gamma,
            "gv_q_min": exps.gv_q_min,
            "theta_min_at_q": exps.theta_min(params.q),
            "theta": params.theta,
        },
        "ranges": {
            "unweighted_r_range": (list(ranges.unweighted_r_range)
                                   if ranges.unweighted_r_range else "empty"),
            "holder_q_min_at_r1": ranges.holder_q_min(1.0),
        },
    }
    _write(outdir, "exponents.json", _json_text(_artifact(cfg, "exponents", body)))
    return 0


def cmd_verify_geometry(cfg: dict, outdir: Path) -> int:
    params = _params_from(cfg, usage="trace")
    cmap = cusp_map(params, a=cfg["map"].get("a"))
    jac = jacobian_suite(cmap, samples=cfg["verify"]["samples"])
    body = {"jacobian_suite": jac.as_dict()}
    unmet = [f"jacobian suite: {check}" for check in jac.unmet]
    if params.n == 2:
        meas = measure_suite(cmap)
        body["measure_suite"] = meas.as_dict()
        unmet += [f"measure suite: {check}" for check in meas.unmet]
    body["ok"] = not unmet
    _write(outdir, "verify_geometry.json",
           _json_text(_artifact(cfg, "verify-geometry", body)))
    return _failed("; ".join(unmet)) if unmet else 0


def cmd_scaling(cfg: dict, outdir: Path) -> int:
    params = _params_from(cfg, usage="trace")
    sc = cfg["scaling"]
    theta = check_number("theta", sc.get("theta", params.theta), -math.inf)
    q = check_number("q", sc.get("q", params.q), 1.0)  # q > 1, as for params.q
    if "theta_grid" in sc:
        grid = sc["theta_grid"]
        if not isinstance(grid, list) or not grid:
            raise RangeViolation("theta_grid", "a non-empty list of finite numbers")
        for value in grid:
            check_number("theta_grid", value, -math.inf)
        scan = sharpness_scan(params, q, grid)
        rows = [f"{float(th)!r},{float(gap)!r},{float(dist)!r}"
                for th, gap, dist in scan.rows]
        _write(outdir, "sharpness.csv",
               _csv_text(cfg, "scaling", "theta,slope_gap,theta_gap", rows))
        body = {"theta_min": scan.theta_min,
                "rows": [list(map(float, row)) for row in scan.rows]}
        _write(outdir, "sharpness.json", _json_text(_artifact(cfg, "scaling", body)))
        return 0
    res = scaling_slopes(params, theta, q)
    rows = [
        f"{float(e)!r},{float(l)!r},{float(r)!r},{float(l / r)!r}"
        for e, l, r in zip(res.eps_grid, res.lhs_norms, res.rhs_norms)
    ]
    _write(outdir, "scaling.csv",
           _csv_text(cfg, "scaling", "eps,lhs_norm,rhs_norm,ratio", rows))
    body = {
        "theta": theta,
        "q": q,
        "lhs_slope": res.lhs_slope,
        "rhs_slope": res.rhs_slope,
        "predicted_lhs": res.predicted_lhs,
        "predicted_rhs": res.predicted_rhs,
    }
    _write(outdir, "scaling.json", _json_text(_artifact(cfg, "scaling", body)))
    return 0


def cmd_solve(cfg: dict, outdir: Path) -> int:
    # p == q is the linear testbed, outside the strict exponent window
    usage = "discrete" if cfg["params"].get("p") == cfg["params"].get("q") \
        else "steklov"
    params = _params_from(cfg, usage=usage)
    # both validate each value and name the key they reject
    options = SolverOptions(**cfg["solver"])
    grid = generate_cusp_mesh(params, **cfg["mesh"])
    sol = steklov.minimize_rayleigh(grid, params, options)
    bound = steklov.trace_constant(sol.lam, params) if usage == "steklov" else None
    body = {
        "lambda": sol.lam,
        "mu": sol.mu,
        "energy": sol.energy,
        "boundary_norm": sol.boundary_norm,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "restarts": sol.restarts,
        "start_spread": sol.start_spread,
        "converged": sol.converged,
        "dof": sol.dof,
        "c_tr": bound.c_tr if bound else sol.lam ** (-1.0 / params.p),
        "bound_factor": bound.bound_factor if bound else None,
        "params": {"n": params.n, "p": params.p, "gamma": params.gamma,
                   "q": params.q, "theta": params.theta},
    }
    _write(outdir, "solve.json", _json_text(_artifact(cfg, "solve", body)))
    row = ",".join(repr(float(v)) for v in (
        sol.lam, sol.mu, sol.energy, sol.boundary_norm, sol.residual))
    row += f",{sol.iterations},{sol.dof}"
    _write(outdir, "solve.csv",
           _csv_text(cfg, "solve",
                     "lambda,mu,energy,boundary_norm,residual,iters,dof", [row]))
    nodal = [
        f"{i},{float(x1)!r},{float(x2)!r},{float(v)!r}"
        for i, ((x1, x2), v) in enumerate(zip(grid.vertices, sol.u.values))
    ]
    _write(outdir, "solve_nodal.csv",
           _csv_text(cfg, "solve", "vertex_index,x1,x2,u", nodal))
    if not sol.converged:
        return _failed(
            f"weak residual {sol.residual:.1e} after {len(sol.history)} steps is not "
            f"below 10 * tol_rel = {10.0 * options.tol_rel:g} "
            f"(max_iter = {options.max_iter})")
    return 0


def cmd_oracle_check(cfg: dict, outdir: Path) -> int:
    params = _params_from(cfg, usage="discrete")
    if params.p != 2.0 or params.q != 2.0:
        raise ConfigError("oracle-check requires params.p == params.q == 2")
    rtol = check_number("rtol", cfg["oracle"]["rtol"], 0.0)
    options = SolverOptions(**cfg["solver"])
    grid = generate_cusp_mesh(params, **cfg["mesh"])
    lam_oracle, u_oracle = steklov.linear_oracle(grid, params.theta)
    sol = steklov.minimize_rayleigh(grid, params, options)
    rel = abs(sol.lam - lam_oracle) / lam_oracle
    body = {
        "lambda_descent": sol.lam,
        "lambda_oracle": lam_oracle,
        "rel_difference": rel,
        "rtol": rtol,
        "descent_residual": sol.residual,
        "oracle_residual": steklov.weak_residual(
            grid, (u_oracle, lam_oracle), params, reg_eps=cfg["solver"]["reg_eps"]),
        "dof": sol.dof,
        "agree": bool(rel < rtol),
    }
    _write(outdir, "oracle_check.json",
           _json_text(_artifact(cfg, "oracle-check", body)))
    if not rel < rtol:
        return _failed(f"the descent and oracle eigenvalues differ by {rel:.1e} "
                       f"relative, not below oracle.rtol = {rtol:g}")
    return 0


def cmd_mesh(cfg: dict, outdir: Path) -> int:
    params = _params_from(cfg, usage="trace")
    grid = generate_cusp_mesh(params, **cfg["mesh"])
    outdir.mkdir(parents=True, exist_ok=True)
    save_mesh(grid, outdir / "mesh.txt")
    log.info("wrote %s", outdir / "mesh.txt")
    area = mesh_area(grid)
    body = {
        "vertices": grid.num_vertices,
        "triangles": grid.num_triangles,
        "boundary_edges": int(grid.boundary_edges.shape[0]),
        "min_quality": grid.min_quality,
        "area": area,
        "area_rel_err": abs(area - 1.0 / params.gamma) * params.gamma,
        "tip_height": grid.tip_height,
    }
    _write(outdir, "mesh.json", _json_text(_artifact(cfg, "mesh", body)))
    return 0


_COMMANDS = {
    "exponents": cmd_exponents,
    "verify-geometry": cmd_verify_geometry,
    "scaling": cmd_scaling,
    "solve": cmd_solve,
    "oracle-check": cmd_oracle_check,
    "mesh": cmd_mesh,
}


def _setup_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("NCUSP_LOG", "info"),
                                         logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="ncusp",
        description="Weighted trace machinery and Steklov solvers on cusp domains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the solver seed (used only when restarts > 1)")
    args = parser.parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = _resolve(raw, args.seed)
        return _COMMANDS[args.command](cfg, Path(args.out))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
