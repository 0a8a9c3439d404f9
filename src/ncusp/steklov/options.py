"""Solver settings, kept apart from the solver so reading them needs no scipy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RangeViolation, check_number

__all__ = ["SolverOptions"]


def _changes_sign(u: np.ndarray) -> bool:
    return bool(u.min() < 0.0 < u.max())


@dataclass(frozen=True)
class SolverOptions:
    """Settings of `minimize_rayleigh`.

    ``max_iter`` caps the steps, Newton or inverse iteration, of one start,
    which has converged once the weak residual is below ``10 * tol_rel``.
    ``restarts > 1`` adds random starts, uniform on [0, 1) and drawn from
    ``seed``, after u = 1 (or ``initial``: finite reals, one per mesh vertex,
    that do not change sign).
    """

    max_iter: int = 500
    tol_rel: float = 1e-8
    reg_eps: float = 1e-8
    restarts: int = 1
    seed: int = 0
    initial: np.ndarray | None = None

    def __post_init__(self):
        for key, low in (("max_iter", 1), ("restarts", 1), ("seed", 0)):
            check_number(key, getattr(self, key), low, integer=True)
        check_number("tol_rel", self.tol_rel, 0.0)
        # a regularization is small; reg_eps ** q overflows for large values
        check_number("reg_eps", self.reg_eps, 0.0, 1.0)
        if self.initial is not None:
            try:
                start = np.asarray(self.initial)
            except ValueError:  # a ragged list
                start = None
            if start is None or start.dtype.kind not in "iuf" or start.ndim != 1 \
                    or start.size == 0 or not np.isfinite(start).all():
                raise RangeViolation("initial", "a non-empty 1-D array of finite reals")
            if _changes_sign(start):
                raise RangeViolation("initial", "a start that does not change sign")
