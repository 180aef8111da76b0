"""Small dense solvers: active-set constrained least squares and isotonic projection.

The inequality-constrained least-squares solver follows the classic
Lawson-Hanson route: LSI is reduced to a least-distance program (LDP),
which is solved through one nonnegative least-squares (NNLS) problem. NNLS
itself is the textbook active-set iteration. Problems here are tiny (tens
of variables), so everything is dense and built on numpy factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError

#: The largest constraint violation and KKT residual an ``lsi`` solution may keep.
_VIOLATION_TOL = 1e-10
_KKT_TOL = 1e-8
#: The gap ``strictly_increasing`` enforces between neighbours.
_MIN_STEP = 1e-9


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve min ||a x - b|| subject to x >= 0 (Lawson-Hanson active set),
    in at most max(10 n, 50) iterations for n columns."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    max_iter = max(10 * n, 50)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = a.T @ b  # gradient of -0.5*||ax-b||^2 at x = 0
    grad_tol = 10.0 * np.finfo(float).eps * max(m, n) * max(np.abs(a).sum(axis=0).max(), 1.0)
    iters = 0

    while not passive.all():
        w_free = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_free))
        if w_free[j] <= grad_tol:
            break
        passive[j] = True
        while True:
            iters += 1
            if iters > max_iter:
                raise ConvergenceError(
                    f"nnls did not converge within {max_iter} iterations "
                    f"(active variables: {int(passive.sum())}/{n})"
                )
            cols = np.flatnonzero(passive)
            s = np.zeros(n)
            s[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if s[cols].min(initial=np.inf) > 0.0:
                x = s
                break
            # Step toward s until the first passive variable hits zero.
            neg = cols[s[cols] <= 0.0]
            denom = x[neg] - s[neg]
            ratios = np.where(denom > 0.0, x[neg] / np.where(denom > 0.0, denom, 1.0), 0.0)
            alpha = ratios.min()
            x = x + alpha * (s - x)
            x[~passive] = 0.0
            hit = passive.copy()
            hit[neg] = x[neg] > 1e-14 * max(1.0, x.max(initial=0.0))
            freed = passive & ~hit
            x[freed] = 0.0
            passive = hit
            if not passive.any():
                break
        w = a.T @ (b - a @ x)
    return x


def ldp(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Least-distance program: min ||z|| subject to g z >= h."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    m, n = g.shape
    if h.shape != (m,):
        raise ValueError(f"shape mismatch: g is {g.shape}, h is {h.shape}")
    e = np.concatenate([g.T, h[None, :]], axis=0)  # (n+1, m)
    f = np.zeros(n + 1)
    f[n] = 1.0
    u = nnls(e, f)
    r = e @ u - f
    if np.linalg.norm(r) <= 1e-12:
        raise ConvergenceError("ldp: constraint set is infeasible")
    return -r[:n] / r[n]


@dataclass(frozen=True)
class LsiResult:
    x: np.ndarray
    max_violation: float  # max over constraints of (h - g x), clipped at 0
    kkt_residual: float  # inf-norm of the stationarity residual
    residual_norm: float  # ||a x - y||


def lsi(a: np.ndarray, y: np.ndarray, g: np.ndarray, h: np.ndarray | None = None) -> LsiResult:
    """Inequality-constrained least squares: min ||a x - y|| s.t. g x >= h.

    Requires a to have full column rank; the QR factor is checked and a
    RankDeficiencyError names the failure otherwise. The returned solution
    has been verified against ``_VIOLATION_TOL`` and ``_KKT_TOL``.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    m, n = a.shape
    if h is None:
        h = np.zeros(g.shape[0])
    h = np.asarray(h, dtype=float)

    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min(initial=np.inf) <= max(m, n) * np.finfo(float).eps * diag.max(initial=0.0):
        raise RankDeficiencyError(
            "lsi: design matrix is rank deficient; reduce the basis dimension or add data"
        )
    w = q.T @ y
    gr = np.linalg.solve(r.T, g.T).T  # g @ inv(r)
    z = ldp(gr, h - gr @ w)
    x = np.linalg.solve(r, z + w)

    slack = g @ x - h
    max_violation = float(max(0.0, -slack.min(initial=0.0)))
    grad = a.T @ (a @ x - y)
    active = slack <= 1e-8 * max(1.0, np.abs(slack).max(initial=0.0))
    if active.any():
        lam = nnls(g[active].T, grad)
        kkt = float(np.abs(grad - g[active].T @ lam).max(initial=0.0))
    else:
        kkt = float(np.abs(grad).max(initial=0.0))
    if max_violation > _VIOLATION_TOL or kkt > _KKT_TOL:
        raise ConvergenceError(
            f"lsi failed verification: max constraint violation {max_violation:.3e} "
            f"(tol {_VIOLATION_TOL:.1e}), KKT residual {kkt:.3e} (tol {_KKT_TOL:.1e})"
        )
    return LsiResult(
        x=x,
        max_violation=max_violation,
        kkt_residual=kkt,
        residual_norm=float(np.linalg.norm(a @ x - y)),
    )


def isotonic_projection(y: np.ndarray) -> np.ndarray:
    """Nearest nondecreasing sequence in least squares (pool adjacent violators)."""
    y = np.asarray(y, dtype=float)
    levels: list[float] = []
    weights: list[float] = []
    counts: list[int] = []
    for v in y:
        levels.append(float(v))
        weights.append(1.0)
        counts.append(1)
        while len(levels) > 1 and levels[-2] > levels[-1]:
            w = weights[-2] + weights[-1]
            lv = (weights[-2] * levels[-2] + weights[-1] * levels[-1]) / w
            levels[-2:] = [lv]
            weights[-2:] = [w]
            counts[-2:] = [counts[-2] + counts[-1]]
    return np.repeat(levels, counts)


def strictly_increasing(y: np.ndarray) -> np.ndarray:
    """Isotonic projection followed by a forward sweep enforcing a minimal gap.

    The sweep perturbs pooled (flat) runs by multiples of ``_MIN_STEP``,
    which is far below every tolerance the response tables are used at.
    Input that already keeps the gap is returned as a copy; NaN takes the full path.
    """
    y = np.asarray(y, dtype=float)
    if np.all(y[1:] >= y[:-1] + _MIN_STEP):
        return y.copy()
    out = isotonic_projection(y)
    for i in range(1, out.size):
        floor = out[i - 1] + _MIN_STEP
        if out[i] < floor:
            out[i] = floor
    return out
