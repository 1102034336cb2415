"""Data power control on the closed-form rate lower bounds.

Three solvers:
  * dpcc  - cellular powers q meeting every SINR target with minimum
            power, via the capped fixed-point iteration of a standard
            interference function (positive, monotone, scalable);
  * dpcd  - D2D powers p maximizing the D2D sum rate under the cellular
            QoS budget, via alternating weighted-MMSE updates with a
            bisected multiplier for the budget constraint;
  * jdpc_stack - the outer loop alternating the two until the D2D sum
            spectral efficiency stabilizes.

The WMMSE and joint solvers work on stacks of same-size instances
(dpcd_stack, jdpc_stack): the power-control recipes hand all trials of a
sweep point to one call, which pays each numpy call once per iteration
for the whole stack, and a converged instance leaves the stack.  A joint
stack keeps its powers and results in arrays and computes each quantity
of a round but the cellular step (dpcc, per instance) with one stacked
call.  Each instance does the arithmetic it would do alone, in the same
order, so its bits do not depend on the stack; dpcd is a stack of one, and
so is jdpc_stack(rc[None], ...)[0].  A WMMSE stack down to one instance
drops its trial axis and runs that instance's 1-D arrays through the same
loop.  jdpc_stack records no WMMSE objective trace, so its inner loop
computes no objective; dpcd always records one.

All solvers work purely on RateCoeffs aggregates, so they are decoupled
from scenario generation and accept degenerate sizes (e.g. no D2D pairs).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .receivers import _dot, _matvec, _vecmat, bound_sinrs, sigma_c_of, sigma_d_of
from .scenario import TrialAxis


class InfeasibleBudgetError(RuntimeError):
    """The cellular powers leave the D2D pairs no budget (zeta < 0)."""


class SolverError(RuntimeError):
    """A solver (or another per-trial step of a stacked computation) failed on
    some rows of the stack it was given, listed in ``rows``."""

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = [int(r) for r in rows]

    def __str__(self):
        return f"{self.args[0]} (stack rows {self.rows})" if self.rows else str(self.args[0])


class BracketError(SolverError):
    """The bisection bracket for the budget multiplier could not be found."""


@dataclass
class CellularFixedPoint:
    """q >= F q + theta componentwise encodes every cellular SINR target."""

    F: np.ndarray       # (N, N), nonnegative
    theta: np.ndarray   # (N,), positive
    caps: np.ndarray    # (N,)

    def interference(self, q):
        """Standard interference function Delta(q) = F q + theta."""
        return self.F @ q + self.theta


def cellular_fixed_point(rc, p_s, gamma, q_max):
    """Build the fixed-point data for given D2D powers and targets."""
    n = rc.phi_c.size
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n,))
    caps = np.broadcast_to(np.asarray(q_max, dtype=float), (n,)).copy()
    sigma_c = sigma_c_of(rc, p_s)
    f = (gamma / rc.phi_c)[:, None] * rc.varphi_c.T   # row n: gamma_n varphi_{a n} / phi_n
    theta = gamma * sigma_c / rc.phi_c
    return CellularFixedPoint(F=f, theta=theta, caps=caps)


@dataclass
class DpccResult:
    q_s: np.ndarray
    iterations: int
    feasible: bool
    residual: float                  # last sup-norm step
    trace: list = field(default_factory=list)


def dpcc_iterate(fp, tol=1e-3, record_trace=False):
    """Capped fixed-point iteration q <- min(caps, F q + theta) from q = 0.

    Converges for any spectral radius because of the caps (200,000 steps
    without convergence raise); the feasible flag reports whether every
    target holds (equivalently, no cap binds) within 10*tol relative at
    the fixed point.
    """
    q = np.zeros_like(fp.theta)
    trace = [q.copy()] if record_trace else []
    residual = np.inf
    for it in range(1, 200_001):
        q_next = np.minimum(fp.caps, fp.interference(q))
        residual = float(np.max(np.abs(q_next - q))) if q.size else 0.0
        q = q_next
        if record_trace:
            trace.append(q.copy())
        if residual < tol:
            break
    else:
        raise RuntimeError(f"dpcc did not converge in {it} iterations (residual {residual:.3e})")
    delta = fp.interference(q)
    feasible = bool(np.all(delta <= q + 10.0 * tol * np.maximum(delta, 1e-300)))
    return DpccResult(q_s=q, iterations=it, feasible=feasible, residual=residual, trace=trace)


def dpcc(rc, p_s, gamma, q_max, tol=1e-3, record_trace=False):
    """Minimum-power cellular control for fixed D2D data powers."""
    fp = cellular_fixed_point(rc, p_s, gamma, q_max)
    return dpcc_iterate(fp, tol=tol, record_trace=record_trace)


def cellular_power_budget(rc, q_s, gamma):
    """Largest D2D interference sum_k p_k varphi_d[k] every CU can absorb
    (inf without CUs); one per row for a stack, q_s (T, N)."""
    zetas = q_s * rc.phi_c / gamma - _vecmat(q_s, rc.varphi_c) - rc.noise_power
    return zetas.min(axis=-1, initial=np.inf)


@dataclass
class DpcdResult:
    p_s: np.ndarray
    objective_trace: list            # sum-rate surrogate per iteration, bits/s/Hz
    iterations: int
    multiplier: float                # final lambda


def _f_update(denom, num, cap):
    """Clipped sqrt powers and powers of a WMMSE step; a silent pair
    (num = 0) stays at 0."""
    f_new = np.minimum(cap, num / np.maximum(denom, 1e-300))
    return f_new, f_new * f_new


def _active(state, n):
    """Loop state and row operations (matvec, vecmat, dot, zero multiplier)
    of n active rows: a lone row drops the trial axis and uses plain matmuls."""
    if n == 1:
        return [a[0] for a in state], (np.matmul, np.matmul, np.matmul, 0.0)
    return state, (_matvec, _vecmat, _dot, np.zeros(n))


def dpcd_stack(phi_d, psi_d, varphi_d, sigma_d, zeta, p_max, tol_wmmse=1e-3, bisect_rtol=1e-3,
               max_iter=50_000, p_init=None, record_trace=True):
    """Weighted-MMSE D2D power control of T same-size instances in lockstep.

    Row t maximizes the D2D sum rate with coefficients phi_d[t], psi_d[t]
    and cellular-plus-noise terms sigma_d[t] (all (T, K), psi_d (T, K, K))
    subject to per-pair caps p_max (broadcast to (T, K)) and the budget
    sum_k p_k varphi_d[t, k] <= zeta[t] >= 0.  It starts from full power
    unless p_init[t] warm-starts it (the surrogate is monotone from any
    start).  The returned powers never violate the budget: the multiplier
    bisection keeps the feasible side.

    Every row does the same floating-point operations in the same order as
    it would alone, so its result does not depend on the other rows.  The
    loop computes the multiplier-independent terms once per iteration and
    reuses the objective's products as the next iteration's denominators;
    a row leaves the stack when its stop rule holds.  Once one row is left,
    or the stack starts with one, the loop drops the trial axis: the same
    statements run on that row's 1-D arrays with plain matmuls, whose bits
    the stacked helpers give every row.  With record_trace (the default)
    each row's objective_trace holds its D2D sum rate after every
    iteration; without it the loop computes no objective and the traces
    are empty.  Returns one DpcdResult per row; a row that does not
    converge or cannot bracket its multiplier raises a SolverError naming
    the rows that failed.
    """
    t, k = phi_d.shape
    zeta = np.asarray(zeta, dtype=float)
    sqrt_phi = np.sqrt(phi_d)
    f_cap = np.sqrt(np.broadcast_to(np.asarray(p_max, dtype=float), (t, k)))

    f = f_cap.copy() if p_init is None else np.sqrt(np.asarray(p_init, dtype=float))
    p = f * f
    total = p * phi_d + _vecmat(p, psi_d) + sigma_d
    rows = np.arange(t)              # stack row of each active row
    lone = t == 1
    state, (matvec, vecmat, dot, no_lam) = _active(
        (f, total, np.zeros((t, k)), sqrt_phi, f_cap, phi_d, psi_d, varphi_d, sigma_d, zeta), t)
    f, total, log_w, sqrt_phi, f_cap, phi_d, psi_d, varphi_d, sigma_d, zeta = state
    traces = [[] for _ in range(t)]
    results = [None] * t

    def finish(r, p_r, lam_r):
        results[r] = DpcdResult(p_s=p_r.copy(), objective_trace=traces[r], iterations=it,
                                multiplier=float(lam_r))

    for it in range(1, max_iter + 1):
        nu = f * sqrt_phi / total
        w = 1.0 / (1.0 - nu * f * sqrt_phi)
        w_nu2 = w * nu ** 2
        num = w * nu * sqrt_phi
        base = w_nu2 * phi_d + matvec(psi_d, w_nu2)

        lam = no_lam
        f, p = _f_update(base, num, f_cap)
        used = dot(p, varphi_d)
        if lone:
            if used > zeta:
                f, p, lam = (a[0] for a in _bisect_multiplier(
                    base[None], num[None], f_cap[None], varphi_d[None], zeta[None], bisect_rtol,
                    rows))
        else:
            bind = (used > zeta).nonzero()[0]
            if bind.size:
                lam = np.zeros(rows.size)
                f[bind], p[bind], lam[bind] = _bisect_multiplier(
                    base[bind], num[bind], f_cap[bind], varphi_d[bind], zeta[bind], bisect_rtol,
                    rows[bind])
        rx = p * phi_d
        cross = vecmat(p, psi_d)
        if record_trace:
            objective = np.log2(1.0 + rx / (cross + sigma_d)).sum(axis=-1)
            for r, value in zip(rows.tolist(), np.reshape(objective, -1).tolist()):
                traces[r].append(value)
        total = rx + cross + sigma_d
        log_w_old, log_w = log_w, np.log(w)
        done = np.abs(log_w - log_w_old).sum(axis=-1) <= tol_wmmse
        if lone:
            if done:
                finish(rows[0], p, lam)
                return results
        elif done.any():
            for i in done.nonzero()[0]:
                finish(rows[i], p[i], lam[i])
            keep = ~done
            if not keep.any():
                return results
            rows, *state = (a[keep] for a in (rows, f, total, log_w, sqrt_phi, f_cap, phi_d, psi_d,
                                               varphi_d, sigma_d, zeta))
            lone = rows.size == 1
            state, (matvec, vecmat, dot, no_lam) = _active(state, rows.size)
            f, total, log_w, sqrt_phi, f_cap, phi_d, psi_d, varphi_d, sigma_d, zeta = state
    raise SolverError(f"dpcd did not converge in {max_iter} iterations", rows)


def _bisect_multiplier(base, num, cap, vd, zeta, bisect_rtol, rows):
    """Budget multiplier of each binding row: the first of 1, 2, 4, ... (60
    doublings) at which the budget holds, then bisection towards the budget
    keeping the feasible upper end.  Returns the sqrt powers, powers and
    multiplier of that upper end.

    The doublings are evaluated eight at a time, and each bisection step
    works on the rows still searching; the powers are evaluated once more
    at each row's final upper end, which gives the bits the search saw there."""
    n = zeta.size
    lam, used = np.empty(n), np.empty(n)
    pending = np.arange(n)
    for first in range(0, 60, 8):
        hi = np.ldexp(1.0, np.arange(first, min(first + 8, 60)))[:, None]   # exact powers of two
        v = vd[pending, None, :]
        u = _dot(_f_update(base[pending, None, :] + hi * v, num[pending, None, :],
                           cap[pending, None, :])[1], v)
        fits = u <= zeta[pending, None]
        found = fits.any(axis=1)
        j = fits.argmax(axis=1)[found]
        lam[pending[found]], used[pending[found]] = hi[j, 0], u[found, j]
        pending = pending[~found]
        if not pending.size:
            break
    else:
        raise BracketError("could not bracket the budget multiplier after 60 doublings", rows[pending])

    # used always belongs to the current upper end hi
    idx, b, nm, c, v, z = np.arange(n), base, num, cap, vd, zeta
    tol, lo, hi = bisect_rtol * zeta + 1e-15, np.zeros(n), lam.copy()
    for _ in range(200):
        done = z - used <= tol
        finished = np.count_nonzero(done)
        if finished:
            lam[idx[done]] = hi[done]
            if finished == idx.size:
                break
            idx, b, nm, c, v, z, tol, lo, hi, used = (
                a[~done] for a in (idx, b, nm, c, v, z, tol, lo, hi, used))
        mid = 0.5 * (lo + hi)
        used_mid = _dot(_f_update(b + mid[:, None] * v, nm, c)[1], v)
        over = used_mid > z
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
        used = np.where(over, used, used_mid)
    else:
        lam[idx] = hi
    f, p = _f_update(base + lam[:, None] * vd, num, cap)
    return f, p, lam


def dpcd(rc, q_s, gamma, p_max, tol_wmmse=1e-3, bisect_rtol=1e-3, max_iter=50_000,
         p_init=None):
    """Weighted-MMSE D2D power control for fixed cellular powers.

    Maximizes the D2D sum rate subject to per-pair caps and the aggregate
    budget sum_k p_k varphi_d[k] <= zeta derived from the cellular QoS, as
    a stack of one in dpcd_stack that records the objective trace.  Raises
    InfeasibleBudgetError when zeta < 0.
    """
    zeta = cellular_power_budget(rc, q_s, gamma)
    if zeta < 0.0:
        raise InfeasibleBudgetError(f"cellular QoS leaves no D2D budget (zeta = {zeta:.3e})")
    p_init = None if p_init is None else np.asarray(p_init, dtype=float)[None]
    return dpcd_stack(rc.phi_d[None], rc.psi_d[None], rc.varphi_d[None],
                      sigma_d_of(rc, q_s)[None], [zeta], p_max, tol_wmmse=tol_wmmse,
                      bisect_rtol=bisect_rtol, max_iter=max_iter, p_init=p_init)[0]


@dataclass
class JdpcResult(TrialAxis):
    """Joint power control of a stack; result[t] is instance t."""

    q_s: np.ndarray                  # (T, N)
    p_s: np.ndarray                  # (T, K)
    outer_iterations: np.ndarray     # (T,) int, outer rounds run
    feasible: np.ndarray             # (T,) bool
    se: np.ndarray                   # (T, outer_cap), D2D sum SE after each round, 0 after the last

    @property
    def trace(self):
        """An instance's sum SEs as a list; one found infeasible in round r has none for r."""
        return self.se[:self.outer_iterations - (not self.feasible)].tolist()


def jdpc_stack(rc, gamma, q_max, p_max, tol_power=1e-3, tol_wmmse=1e-3,
               outer_cap=10, prefactor=1.0, p_init=None):
    """Alternate dpcc and dpcd on a stack of same-size instances, rate
    coefficients rc with a leading axis of T, until each one's D2D sum SE
    stabilizes; returns one JdpcResult stack, row t for instance t.

    The D2D powers start at their caps (the inner WMMSE initializer) unless
    p_init (T, K) warm-starts them; later rounds warm-start the WMMSE from
    the current powers, which is what makes the sum-SE trace
    non-decreasing: the refreshed cellular powers can only lower the
    interference floor at every D2D receiver, and the warm-started
    surrogate is monotone from there.  An instance ends infeasible
    (feasible=False) once dpcc at the current D2D powers misses a target
    or leaves a negative budget zeta; round 1 runs at the starting powers,
    so full D2D power can end a draw that silent D2D would keep feasible
    (ROADMAP item 7).

    Powers are arrays, q (T, N) and p (T, K).  Each round runs dpcc on each
    running instance's own coefficients, then the budgets, the D2D
    interference floors, one dpcd_stack and the sum SEs of the rest as one
    stacked call each, so every instance gets the bits it would get alone.
    A failing inner solver raises a SolverError naming the failing rows of rc.
    """
    t, n = rc.phi_c.shape
    k = rc.phi_d.shape[-1]
    p_max_vec = np.broadcast_to(np.asarray(p_max, dtype=float), (k,))
    p = np.tile(p_max_vec, (t, 1)) if p_init is None else np.array(p_init, dtype=float)
    q = np.zeros((t, n))
    res = JdpcResult(q_s=q, p_s=p, outer_iterations=np.zeros(t, dtype=int),
                     feasible=np.ones(t, dtype=bool), se=np.zeros((t, outer_cap)))

    def finish(rows, outer, feasible):
        res.outer_iterations[rows] = outer
        res.feasible[rows] = feasible

    active = np.arange(t)            # rows still running
    for outer in range(1, outer_cap + 1):
        qos = np.empty(active.size, dtype=bool)
        for i, r in enumerate(active.tolist()):
            try:
                cell = dpcc(rc[r], p[r], gamma, q_max, tol=tol_power)
            except RuntimeError as exc:
                raise SolverError(str(exc), [r]) from exc
            q[r], qos[i] = cell.q_s, cell.feasible
        finish(active[~qos], outer, False)
        active = active[qos]
        if k == 0:                   # no pairs: the sum SE is 0 and every instance stops
            break
        sub = rc[active]
        zeta = cellular_power_budget(sub, q[active], gamma)
        short = zeta < 0.0
        finish(active[short], outer, False)
        active, sub, zeta = active[~short], sub[~short], zeta[~short]
        if not active.size:
            break
        try:
            d2d = dpcd_stack(sub.phi_d, sub.psi_d, sub.varphi_d, sigma_d_of(sub, q[active]), zeta,
                             p_max_vec, tol_wmmse=tol_wmmse, bisect_rtol=tol_power,
                             p_init=p[active], record_trace=False)
        except SolverError as exc:
            raise type(exc)(exc.args[0], active[exc.rows]) from exc
        p[active] = [r.p_s for r in d2d]
        _, eta_d = bound_sinrs(sub, q[active], p[active])
        se = res.se[active, outer - 1] = prefactor * np.log2(1.0 + eta_d).sum(axis=-1)
        done = (outer >= 2) & (np.abs(se - res.se[active, outer - 2]) < tol_power)
        finish(active[done], outer, True)
        active = active[~done]
    finish(active, outer, True)
    return res
