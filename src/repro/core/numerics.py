"""Robust numerical primitives shared by the GP stack.

Centralises the degradation ladder for Cholesky factorisation: a bare
attempt first, then escalating diagonal jitter with bounded retries,
and only then a diagnosable :class:`NumericalInstabilityError`.  Both
the online GP (:mod:`repro.core.gp`) and the offline marginal-likelihood
fit (:mod:`repro.core.likelihood`) factor through here, so a
near-singular Gram matrix degrades the posterior slightly (jitter)
instead of killing the run — the paper's §5 "Practical Issues" stance
that the learner must survive numerical adversity.

It also holds the two triangular solves of the hot path,
:func:`solve_lower` and :func:`cho_solve_lower`: the LAPACK calls
``scipy.linalg.solve_triangular`` and ``cho_solve`` make, with the
same checks, minus the per-call wrapper and batch-dispatch overhead.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky
from scipy.linalg.lapack import dpotrs, dtrtrs

from repro.telemetry import runtime as telemetry

__all__ = [
    "NumericalInstabilityError",
    "robust_cholesky",
    "solve_lower",
    "cho_solve_lower",
    "MAX_JITTER_RETRIES",
    "BASE_JITTER_REL",
]

#: Bounded retry budget of the jitter escalation ladder.
MAX_JITTER_RETRIES = 4

#: First jitter level, relative to the mean Gram diagonal.
BASE_JITTER_REL = 1e-10


class NumericalInstabilityError(RuntimeError):
    """Cholesky factorisation failed despite bounded jitter escalation.

    Raised with the matrix size, the last jitter level attempted and the
    retry count, so a failing run log identifies *which* surrogate
    collapsed and how hard recovery was tried.  Callers (e.g.
    :class:`~repro.core.edgebol.EdgeBOL`) treat this as "surrogate
    unavailable" and degrade to a safe policy rather than crash.
    """


def robust_cholesky(
    gram: np.ndarray,
    *,
    max_retries: int = MAX_JITTER_RETRIES,
    fault_hook=None,
    site: str = "cholesky",
) -> tuple[np.ndarray, float, int]:
    """Lower Cholesky factor of ``gram`` with escalating diagonal jitter.

    Parameters
    ----------
    gram:
        Symmetric positive-(semi)definite matrix, noise already added.
    max_retries:
        Jittered attempts after the bare one (bounded ladder).
    fault_hook:
        Optional ``hook(site, attempt)`` invoked before every attempt;
        the fault-injection subsystem uses it to force
        ``numpy.linalg.LinAlgError`` deterministically
        (see :mod:`repro.faults`).
    site:
        Label for the hook and the raised error (e.g. ``"refactorize"``).

    Returns
    -------
    (chol, jitter, retries):
        The factor, the jitter level that succeeded (0.0 for the bare
        attempt) and how many retries were needed.

    Raises
    ------
    NumericalInstabilityError
        When every attempt fails; chains the final ``LinAlgError``.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    diag_scale = float(np.mean(np.diag(gram))) if gram.size else 1.0
    if not np.isfinite(diag_scale) or diag_scale <= 0.0:
        diag_scale = 1.0
    jitter = 0.0
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        try:
            if fault_hook is not None:
                fault_hook(site, attempt)
            target = gram
            if jitter > 0.0:
                target = gram.copy()
                target[np.diag_indices_from(target)] += jitter
            chol = cholesky(target, lower=True)
        except np.linalg.LinAlgError as exc:
            last_error = exc
            telemetry.inc("core.gp.jitter_retries")
            jitter = diag_scale * BASE_JITTER_REL if jitter == 0.0 else jitter * 100.0
            continue
        return chol, jitter, attempt
    raise NumericalInstabilityError(
        f"Cholesky factorisation of a {gram.shape[0]}x{gram.shape[1]} Gram "
        f"matrix failed at site '{site}' after {max_retries} jittered "
        f"retries (final jitter {jitter:.3e})"
    ) from last_error


def _check_solve(a: np.ndarray, b: np.ndarray) -> None:
    """scipy's argument checks for a solve against square ``a``."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"shapes of a {a.shape} and b {b.shape} are incompatible"
        )


def solve_lower(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for lower-triangular float64 ``a``.

    Issues the ``trtrs`` call ``scipy.linalg.solve_triangular(a, b,
    lower=True)`` issues — on ``a`` itself when it is F-contiguous, else
    the transposed upper system on ``a.T`` — so results are bit-identical
    to it.  ``b`` is 1-D or 2-D and is not overwritten.

    Raises ``ValueError`` for non-finite or mis-shaped input and
    ``numpy.linalg.LinAlgError`` for a zero pivot.
    """
    _check_solve(a, b)
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=True)
    else:
        x, info = dtrtrs(a.T, b, lower=False, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def cho_solve_lower(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(c @ c.T) @ x = b`` given the lower Cholesky factor ``c``.

    The ``potrs`` call of ``scipy.linalg.cho_solve((c, True), b)``, with
    its checks; bit-identical to it.  ``b`` is not overwritten.
    """
    _check_solve(c, b)
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    x, info = dpotrs(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x
