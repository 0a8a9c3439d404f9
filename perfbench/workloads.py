"""The four workloads: their inputs, their ops and the checks on their outputs.

Every check compares against a value computed here from a closed form or an
independent assembly, or against a property the method must have; no stored
copy of an earlier output is used. A workload's `pass_ops()` is one pass: a
list of (op name, callable). The worker times each call, hands the result to
`check(name, result)` outside the timed region, and calls `finish()` at the end.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# reference configuration of the default solve (n = 2)
REF = dict(gamma=3.0, p=1.5, q=2.0)
REF_LEVELS = 10


# --------------------------------------------------------------------------
# closed forms, computed apart from the package
# --------------------------------------------------------------------------

def alpha_of(n, gamma):
    return (gamma - 1.0) / (n - 1.0)


def beta_of(n, gamma, p):
    return (gamma - n) * (1.0 + p * (n - 2)) / ((n - p) * (n - 1))


def theta_min_of(n, gamma, p, q):
    alpha = alpha_of(n, gamma)
    return (q / p) * (alpha * (n - 1) + 1.0 - p) - alpha * (n - 2) - 1.0


def bound_factor_of(n, gamma, p, q):
    """Cusp-vs-simplex trace-constant factor a^(1/q-1/p) * sqrt(inner)."""
    a = (n - p) / (gamma - p)
    inner = (n - 1) + (n - p) ** 2 / (gamma - p) ** 2 \
        + (p - 1) ** 2 * (gamma - n) ** 2 / ((gamma - p) ** 2 * (n - 1))
    return a ** (1.0 / q - 1.0 / p) * math.sqrt(inner)


def kpp_bound_of(n, gamma, p):
    """Closed-form bound on sup (|D phi|^p / J)^(1/p) at a = (n-p)/(gamma-p)."""
    a = (n - p) / (gamma - p)
    alpha = alpha_of(n, gamma)
    return (1.0 / a) ** (1.0 / p) * math.sqrt((n - 1) * ((a * alpha - 1.0) ** 2 + 1.0)
                                              + a * a)


def pencil_eigenvalue(mesh, theta):
    """Smallest eigenvalue of (K + M) u = lam M_b u, assembled here.

    K and M are the P1 stiffness and consistent mass; M_b is the boundary
    mass weighted by x2**theta, integrated edge by edge with Gauss-Legendre
    (exact for the integer theta used here). Solved with scipy's eigsh.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    verts, tris = mesh.vertices, mesh.triangles
    nv = verts.shape[0]
    v = verts[tris]
    d = np.stack([v[:, 2] - v[:, 1], v[:, 0] - v[:, 2], v[:, 1] - v[:, 0]], axis=1)
    area = 0.5 * (d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0])
    k_loc = np.einsum("tid,tjd->tij", d, d) / (4.0 * area[:, None, None])
    m_loc = area[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    a_mat = sp.csr_matrix(((k_loc + m_loc).ravel(), (rows, cols)), shape=(nv, nv))

    xg, wg = np.polynomial.legendre.leggauss(int(theta) // 2 + 3)
    s, w = 0.5 * (xg + 1.0), 0.5 * wg
    ei, ej = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    length = np.linalg.norm(verts[ej] - verts[ei], axis=1)
    height = verts[ei, 1][:, None] * (1.0 - s) + verts[ej, 1][:, None] * s
    wt = w[None, :] * length[:, None] * height ** theta
    phi = (1.0 - s, s)
    b_rows, b_cols, b_vals = [], [], []
    for a_idx, pa in zip((ei, ej), phi):
        for b_idx, pb in zip((ei, ej), phi):
            b_rows.append(a_idx)
            b_cols.append(b_idx)
            b_vals.append(wt @ (pa * pb))
    b_mat = sp.csr_matrix((np.concatenate(b_vals),
                           (np.concatenate(b_rows), np.concatenate(b_cols))),
                          shape=(nv, nv))
    # A u = lam Mb u  <=>  Mb u = (1/lam) A u with A positive definite
    mu = spla.eigsh(b_mat, k=1, M=a_mat.tocsc(), which="LA",
                    return_eigenvectors=False)[0]
    return 1.0 / float(mu)


class Checks:
    """Collects failed checks; a run with any failure is not correct."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# solves in process
# --------------------------------------------------------------------------

class Workload:
    """Inputs made from the seed; `work` is a scratch directory, `tracer` is
    set only in a traced run."""

    def __init__(self, seed: int, checks: Checks, work: Path, tracer=None):
        self.seed = seed
        self.checks = checks
        self.work = work
        self.tracer = tracer

    def finish(self) -> None:
        pass


class SolveWorkload(Workload):
    """Shared checks of the two solve workloads."""

    PERTURBATIONS = 8
    PERTURB_SIZE = 1e-3
    RQ_RTOL = 1e-9          # rounding allowance on rayleigh_quotient >= lam

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        import ncusp
        import ncusp.steklov
        self.nc = ncusp
        self.st = ncusp.steklov
        self.rng = np.random.default_rng(self.seed)
        self.options = self.st.SolverOptions()
        self.lams: dict[str, float] = {}

    def _solve(self, mesh, params):
        sol = self.st.minimize_rayleigh(mesh, params, self.options)
        return {"mesh": mesh, "params": params, "sol": sol}

    def check(self, name: str, out: dict) -> None:
        sol, mesh, params = out["sol"], out["mesh"], out["params"]
        lam = sol.lam
        self.checks.expect(sol.converged and sol.residual < 10.0 * self.options.tol_rel,
                           f"{name}: converged={sol.converged} residual={sol.residual:.3e}")
        if name in self.lams:
            self.checks.expect(lam == self.lams[name],
                               f"{name}: repeat gave lambda {lam!r} != {self.lams[name]!r}")
            return
        self.lams[name] = lam
        self.checks.expect(abs(sol.energy - lam) <= 1e-8 * lam
                           and abs(sol.boundary_norm - 1.0) <= 1e-8,
                           f"{name}: lambda is not the energy at unit boundary norm")
        u = sol.u.values
        scale = self.PERTURB_SIZE * float(np.max(np.abs(u)))
        for _ in range(self.PERTURBATIONS):
            v = u + scale * self.rng.standard_normal(u.shape)
            rq = self.st.rayleigh_quotient(mesh, v, params)
            self.checks.expect(rq >= lam * (1.0 - self.RQ_RTOL),
                               f"{name}: perturbation lowers the quotient to {rq!r} < {lam!r}")


class SolveRef(SolveWorkload):
    """Repeated default solves on one reference mesh built during set-up."""

    def setup(self) -> None:
        self.params = self.nc.validate_params(2, usage="steklov", **REF)
        self.mesh = self.st.generate_cusp_mesh(self.params, levels=REF_LEVELS)
        # the workspace cached for this mesh is reused by every solve
        import ncusp.steklov.fem
        ncusp.steklov.fem.workspace_for(self.mesh, self.params)

    def warmup(self):
        return "solve", self._solve(self.mesh, self.params)

    def pass_ops(self):
        return [("solve", lambda: self._solve(self.mesh, self.params))]


class SolveMatrix(SolveWorkload):
    """A fixed pass over the bench matrix; each op builds its own mesh."""

    PQ2_THETA = 2.0
    C7 = dict(gamma=2.5, p=1.25, q=1.6)

    def setup(self) -> None:
        vp = self.nc.validate_params
        self.configs = {
            # the reference configuration, coarse to fine
            "ref-L6": (vp(2, usage="steklov", **REF), dict(levels=6)),
            "ref-L8": (vp(2, usage="steklov", **REF), dict(levels=8)),
            "ref-L10": (vp(2, usage="steklov", **REF), dict(levels=10)),
            # criterion-7 pair: cusp and its simplex at the same exponents;
            # 14 rows per strip keeps a pass near 10 s, so two fit in a run
            "c7-cusp": (vp(2, usage="steklov", **self.C7),
                        dict(levels=7, rows_per_strip=14)),
            "c7-simplex": (vp(2, 2.0, self.C7["p"], self.C7["q"], theta=0.0,
                              simplex=True, usage="steklov"),
                           dict(levels=7, rows_per_strip=14)),
            # levels 9: the mesher rejects this input at the default levels 10
            "g4-L9": (vp(2, 4.0, 1.8, 3.0, usage="steklov"), dict(levels=9)),
            # linear testbed p = q = 2 through the oracle and the descent
            "pq2-L8": (vp(2, 3.0, 2.0, 2.0, theta=self.PQ2_THETA, usage="discrete"),
                       dict(levels=8)),
        }

    def _op(self, name):
        params, mesh_kw = self.configs[name]
        mesh = self.st.generate_cusp_mesh(params, **mesh_kw)
        out = self._solve(mesh, params)
        if name == "c7-cusp":
            out["bound"] = self.st.trace_constant(out["sol"].lam, params)
        if name == "pq2-L8":
            out["oracle"] = self.st.linear_oracle(mesh, params.theta)[0]
        return out

    def warmup(self):
        return "pq2-L8", self._op("pq2-L8")

    def pass_ops(self):
        return [(name, lambda name=name: self._op(name)) for name in self.configs]

    def check(self, name: str, out: dict) -> None:
        first = name not in self.lams
        super().check(name, out)
        if not first:
            return
        if name == "c7-cusp":
            factor = bound_factor_of(2, **self.C7)
            self.checks.expect(abs(out["bound"].bound_factor - factor) <= 1e-12 * factor,
                               f"c7-cusp: bound factor {out['bound'].bound_factor!r} "
                               f"!= closed form {factor!r}")
        if name == "pq2-L8":
            ref = pencil_eigenvalue(out["mesh"], self.PQ2_THETA)
            for label, lam in (("oracle", out["oracle"]), ("descent", out["sol"].lam)):
                self.checks.expect(abs(lam - ref) <= 1e-6 * ref,
                                   f"pq2-L8: {label} lambda {lam!r} vs pencil {ref!r}")

    def finish(self) -> None:
        # checks across ops, for the ops that completed at least once
        lam = self.lams
        if {"ref-L6", "ref-L8", "ref-L10"} <= lam.keys():
            d1 = abs(lam["ref-L8"] - lam["ref-L6"])
            d2 = abs(lam["ref-L10"] - lam["ref-L8"])
            self.checks.expect(d1 > d2, f"refinement differences do not shrink: "
                                        f"{d1:.3e} <= {d2:.3e}")
        if {"c7-cusp", "c7-simplex"} <= lam.keys():
            factor = bound_factor_of(2, **self.C7)
            c_cusp = lam["c7-cusp"] ** (-1.0 / self.C7["p"])
            c_simplex = lam["c7-simplex"] ** (-1.0 / self.C7["p"])
            self.checks.expect(c_cusp <= 1.05 * factor * c_simplex,
                               f"criterion-7 bound: C_tr {c_cusp!r} > 1.05 * "
                               f"{factor!r} * {c_simplex!r}")


# --------------------------------------------------------------------------
# trace machinery in process
# --------------------------------------------------------------------------

# exponent sets: (n, gamma, p, q) with q the critical exponent p(n-1)/(n-p)
TRACE_SETS = {"n2": (2, 3.0, 1.5, 3.0), "n3": (3, 4.0, 2.0, 4.0)}
JACOBIAN_SAMPLES = 10_000
SLOPE_TOL = 0.02


class TraceSuite(Workload):
    """Short ops over geometry, quadrature, operators, embedding and verify."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        import ncusp
        import ncusp.embedding
        import ncusp.operators
        import ncusp.quadrature
        import ncusp.verify
        self.nc = ncusp
        self.emb = ncusp.embedding
        self.ops_mod = ncusp.operators
        self.quad = ncusp.quadrature
        self.ver = ncusp.verify
        rng = np.random.default_rng(self.seed)
        # seeded inputs: the scaling theta near beta, the scan offsets around
        # theta_min; the amount of work does not depend on them
        self.inputs = {}
        for key, (n, gamma, p, q) in TRACE_SETS.items():
            near = rng.uniform(0.1, 0.3)
            far = rng.uniform(0.4, 0.6)
            self.inputs[key] = {
                "theta": beta_of(n, gamma, p) + rng.uniform(-0.5, 0.5),
                "scan_offsets": (-far, -near, 0.0, near, far),
            }
        self.seen: set[str] = set()

    def setup(self) -> None:
        self.params, self.maps = {}, {}
        for key, (n, gamma, p, q) in TRACE_SETS.items():
            self.params[key] = self.nc.validate_params(n, gamma, p, q, usage="trace")
            self.maps[key] = self.nc.cusp_map(self.params[key])

    def _ops_for(self, key):
        n, gamma, p, q = TRACE_SETS[key]
        prm, cmap, inp = self.params[key], self.maps[key], self.inputs[key]
        theta_min = theta_min_of(n, gamma, p, q)

        def exponents():
            return self.nc.derived_exponents(prm), self.ops_mod.embedding_ranges(prm)

        def measure():
            vol = self.quad.volume_integral(lambda t: np.ones_like(t), prm)
            return vol, (self.ver.measure_suite(cmap) if n == 2 else None)

        return [
            (f"{key}.exponents", exponents),
            (f"{key}.jacobian", lambda: self.ver.jacobian_suite(cmap, JACOBIAN_SAMPLES)),
            (f"{key}.measure", measure),
            (f"{key}.scaling", lambda: self.emb.scaling_slopes(prm, inp["theta"], q)),
            (f"{key}.sharpness", lambda: self.emb.sharpness_scan(
                prm, q, [theta_min + d for d in inp["scan_offsets"]])),
            (f"{key}.kpp", lambda: self.ops_mod.K_pp_estimate(cmap)),
        ]

    def warmup(self):
        name, fn = self._ops_for("n2")[1]
        return name, fn()

    def pass_ops(self):
        return [op for key in TRACE_SETS for op in self._ops_for(key)]

    def check(self, name: str, out) -> None:
        # every pass repeats the same inputs, so each op is checked once
        if name in self.seen:
            return
        self.seen.add(name)
        key, what = name.split(".")
        n, gamma, p, q = TRACE_SETS[key]
        expect = self.checks.expect
        if what == "exponents":
            exps, ranges = out
            beta = beta_of(n, gamma, p)
            p_star = p * (n - 1) / (n - p)
            expect(abs(exps.beta - beta) <= 1e-12 * max(1.0, beta),
                   f"{name}: beta {exps.beta!r} != {beta!r}")
            expect(abs(exps.theta_min(p_star) - beta) <= 1e-12 * max(1.0, beta),
                   f"{name}: theta_min(p*) {exps.theta_min(p_star)!r} != beta {beta!r}")
            expect(abs(ranges.p_star - p_star) <= 1e-12 * p_star,
                   f"{name}: p* {ranges.p_star!r} != {p_star!r}")
        elif what == "jacobian":
            expect(out.ok and out.samples == JACOBIAN_SAMPLES,
                   f"{name}: Jacobian suite flags not set: {out.as_dict()}")
        elif what == "measure":
            vol, report = out
            expect(abs(vol - 1.0 / gamma) <= 1e-8 / gamma,
                   f"{name}: volume {vol!r} != 1/gamma")
            if report is not None:
                expect(report.ok, f"{name}: measure suite flags not set: {report.as_dict()}")
        elif what == "scaling":
            theta = self.inputs[key]["theta"]
            alpha = alpha_of(n, gamma)
            lhs = (theta + alpha * (n - 2) + 1.0) / q
            rhs = (alpha * (n - 1) + 1.0 - p) / p
            expect(abs(out.lhs_slope - lhs) < SLOPE_TOL and abs(out.rhs_slope - rhs) < SLOPE_TOL,
                   f"{name}: slopes {out.lhs_slope!r}, {out.rhs_slope!r} vs {lhs!r}, {rhs!r}")
        elif what == "sharpness":
            theta_min = theta_min_of(n, gamma, p, q)
            expect(abs(out.theta_min - theta_min) <= 1e-12 * max(1.0, theta_min),
                   f"{name}: theta_min {out.theta_min!r} != {theta_min!r}")
            for theta, gap, _ in out.rows:
                if abs(theta - theta_min) >= 0.05:
                    expect(np.sign(gap) == np.sign(theta - theta_min),
                           f"{name}: slope gap {gap!r} at theta {theta!r} has the wrong sign")
        elif what == "kpp":
            bound = kpp_bound_of(n, gamma, p)
            expect(out.sampled <= bound * (1.0 + 1e-12),
                   f"{name}: sampled K_pp {out.sampled!r} above bound {bound!r}")


# --------------------------------------------------------------------------
# the CLI, one fresh process per op
# --------------------------------------------------------------------------

CLI_COMMANDS = ("exponents", "mesh", "scaling", "verify-geometry")
CLI_ARTIFACTS = {
    "exponents": ("exponents.json",),
    "mesh": ("mesh.txt", "mesh.json"),
    "scaling": ("scaling.csv", "scaling.json"),
    "verify-geometry": ("verify_geometry.json",),
}


class CliCold(Workload):
    """`python -m ncusp.cli <command>` in a fresh interpreter per op."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = np.random.default_rng(self.seed)
        self.exp_gamma = float(rng.uniform(2.5, 4.0))
        self.scaling_theta = float(2.0 + rng.uniform(-0.5, 0.5))
        self.first: dict[str, dict[str, bytes]] = {}
        self.count = 0

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        ref = {"n": 2, "p": REF["p"], "gamma": REF["gamma"], "q": REF["q"]}
        configs = {
            "exponents": {"params": {"n": 2, "p": 1.5, "gamma": self.exp_gamma, "q": 2.0}},
            "mesh": {"params": ref, "mesh": {"levels": REF_LEVELS}},
            "scaling": {"params": {"n": 2, "p": 1.5, "gamma": 3.0, "q": 3.0,
                                   "theta": self.scaling_theta}},
            "verify-geometry": {"params": ref, "verify": {"samples": JACOBIAN_SAMPLES}},
        }
        self.config_paths = {}
        for command, cfg in configs.items():
            path = self.work / f"{command}.json"
            path.write_text(json.dumps(cfg))
            self.config_paths[command] = path

    def _op(self, command):
        self.count += 1
        out = self.work / f"op{self.count}"
        args = [command, "--config", str(self.config_paths[command]),
                "--out", str(out), "--seed", str(self.seed)]
        traced = self.tracer is not None and self.tracer.op is not None
        if not traced:
            argv = [sys.executable, "-m", "ncusp.cli", *args]
        else:
            spans_file = self.work / f"op{self.count}.spans.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_file),
                    str(self.tracer.op), *args]
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=dict(os.environ, NCUSP_LOG="quiet"))
        if traced:
            self.tracer.extend(json.loads(spans_file.read_text()))
        if proc.returncode != 0:
            raise OpFailed(f"{command} exited {proc.returncode}: {proc.stderr.decode()}")
        return out

    def warmup(self):
        return "exponents", self._op("exponents")

    def pass_ops(self):
        return [(command, lambda command=command: self._op(command))
                for command in CLI_COMMANDS]

    def check(self, command: str, out: Path) -> None:
        expect = self.checks.expect
        files = {name: (out / name).read_bytes() for name in CLI_ARTIFACTS[command]}
        shutil.rmtree(out)
        if command in self.first:
            expect(files == self.first[command],
                   f"{command}: artifacts differ between two runs of one command")
            return
        self.first[command] = files
        if command == "exponents":
            body = json.loads(files["exponents.json"])["exponents"]
            beta = beta_of(2, self.exp_gamma, 1.5)
            expect(abs(body["beta"] - beta) <= 1e-12 * max(1.0, beta),
                   f"exponents: beta {body['beta']!r} != {beta!r}")
            tmin = theta_min_of(2, self.exp_gamma, 1.5, 2.0)
            expect(abs(body["theta_min_at_q"] - tmin) <= 1e-12 * max(1.0, abs(tmin)),
                   f"exponents: theta_min(q) {body['theta_min_at_q']!r} != {tmin!r}")
        elif command == "mesh":
            body = json.loads(files["mesh.json"])
            lines = files["mesh.txt"].decode().splitlines()
            counts = {tag: sum(1 for ln in lines if ln.startswith(tag + " "))
                      for tag in ("v", "t", "b")}
            expect(lines[0] == "ncusp-mesh v1"
                   and (body["vertices"], body["triangles"], body["boundary_edges"])
                   == (counts["v"], counts["t"], counts["b"]),
                   f"mesh: mesh.json counts {body} do not match mesh.txt {counts}")
        elif command == "scaling":
            body = json.loads(files["scaling.json"])
            lhs = (self.scaling_theta + 1.0) / 3.0
            rhs = (2.0 + 1.0 - 1.5) / 1.5
            expect(abs(body["lhs_slope"] - lhs) < SLOPE_TOL
                   and abs(body["rhs_slope"] - rhs) < SLOPE_TOL,
                   f"scaling: slopes {body['lhs_slope']!r}, {body['rhs_slope']!r} "
                   f"vs {lhs!r}, {rhs!r}")
        elif command == "verify-geometry":
            body = json.loads(files["verify_geometry.json"])
            expect(body["ok"] is True, "verify-geometry: suite flags not set")


class OpFailed(Exception):
    """An op that ended in a documented failure of the program."""


WORKLOADS = {
    "solve-ref": SolveRef,
    "solve-matrix": SolveMatrix,
    "trace-suite": TraceSuite,
    "cli-cold": CliCold,
}
