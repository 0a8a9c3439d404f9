"""Graded triangulations and Steklov eigenvalue solvers (n = 2).

The mesh and the solver settings need numpy only. The FEM and solver names
load their modules, and scipy with them, on first access.
"""

import importlib

from .mesh import TriMesh, generate_cusp_mesh, load_mesh, save_mesh
from .options import SolverOptions

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("FemFunction", "FemWorkspace", "assemble_functionals",
                     "rayleigh_quotient", "weak_residual"), "fem"),
    **dict.fromkeys(("SteklovSolution", "TraceConstantBound", "linear_oracle",
                     "minimize_rayleigh", "trace_constant"), "solve"),
}

__all__ = [
    "TriMesh",
    "generate_cusp_mesh",
    "load_mesh",
    "save_mesh",
    "FemFunction",
    "FemWorkspace",
    "assemble_functionals",
    "rayleigh_quotient",
    "weak_residual",
    "SolverOptions",
    "SteklovSolution",
    "TraceConstantBound",
    "linear_oracle",
    "minimize_rayleigh",
    "trace_constant",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # looked up on every access, so a replaced module attribute is seen at once
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
