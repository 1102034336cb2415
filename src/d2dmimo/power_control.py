"""Data power control on the closed-form rate lower bounds.

Three solvers:
  * dpcc  - cellular powers q meeting every SINR target with minimum
            power, via the capped fixed-point iteration of a standard
            interference function (positive, monotone, scalable);
  * dpcd  - D2D powers p maximizing the D2D sum rate under the cellular
            QoS budget, via alternating weighted-MMSE updates with a
            bisected multiplier for the budget constraint;
  * jdpc  - the outer loop alternating the two until the D2D sum
            spectral efficiency stabilizes.

All solvers work purely on RateCoeffs aggregates, so they are decoupled
from scenario generation and accept degenerate sizes (e.g. no D2D pairs).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .receivers import bound_sinrs, sigma_c_of, sigma_d_of


class InfeasibleBudgetError(RuntimeError):
    """Cellular QoS cannot be met even with silent D2D transmitters."""


class BracketError(RuntimeError):
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


def dpcc_iterate(fp, tol=1e-3, max_iter=200_000, record_trace=False):
    """Capped fixed-point iteration q <- min(caps, F q + theta) from q = 0.

    Converges for any spectral radius because of the caps; the feasible
    flag reports whether every target holds (equivalently, no cap binds)
    within 10*tol relative at the fixed point.
    """
    q = np.zeros_like(fp.theta)
    trace = [q.copy()] if record_trace else []
    residual = np.inf
    for it in range(1, max_iter + 1):
        q_next = np.minimum(fp.caps, fp.interference(q))
        residual = float(np.max(np.abs(q_next - q))) if q.size else 0.0
        q = q_next
        if record_trace:
            trace.append(q.copy())
        if residual < tol:
            break
    else:
        raise RuntimeError(f"dpcc did not converge in {max_iter} iterations (residual {residual:.3e})")
    delta = fp.interference(q)
    feasible = bool(np.all(delta <= q + 10.0 * tol * np.maximum(delta, 1e-300)))
    return DpccResult(q_s=q, iterations=it, feasible=feasible, residual=residual, trace=trace)


def dpcc(rc, p_s, gamma, q_max, tol=1e-3, max_iter=200_000, record_trace=False):
    """Minimum-power cellular control for fixed D2D data powers."""
    fp = cellular_fixed_point(rc, p_s, gamma, q_max)
    return dpcc_iterate(fp, tol=tol, max_iter=max_iter, record_trace=record_trace)


def cellular_power_budget(rc, q_s, gamma):
    """Largest D2D interference sum_k p_k varphi_d[k] every CU can absorb."""
    n = rc.phi_c.size
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n,))
    zetas = q_s * rc.phi_c / gamma - q_s @ rc.varphi_c - rc.noise_power
    return float(np.min(zetas)) if n else np.inf


@dataclass
class DpcdResult:
    p_s: np.ndarray
    objective_trace: list            # sum-rate surrogate per iteration, bits/s/Hz
    iterations: int
    budget: float                    # zeta
    multiplier: float                # final lambda


def dpcd(rc, q_s, gamma, p_max, tol_wmmse=1e-3, bisect_rtol=1e-3, max_iter=50_000,
         p_init=None):
    """Weighted-MMSE D2D power control for fixed cellular powers.

    Maximizes the D2D sum rate subject to per-pair caps and the aggregate
    budget sum_k p_k varphi_d[k] <= zeta derived from the cellular QoS.
    Raises InfeasibleBudgetError when zeta < 0.  The returned powers never
    violate the budget: the multiplier bisection keeps the feasible side.
    Starts from full power unless p_init warm-starts it (the surrogate is
    monotone from any start).

    The loop computes the multiplier-independent terms once per iteration
    and reuses the objective's products as the next iteration's denominators.
    """
    k = rc.phi_d.size
    p_max = np.broadcast_to(np.asarray(p_max, dtype=float), (k,))
    zeta = cellular_power_budget(rc, q_s, gamma)
    if zeta < 0.0:
        raise InfeasibleBudgetError(f"cellular QoS leaves no D2D budget (zeta = {zeta:.3e})")
    sigma_d = sigma_d_of(rc, q_s)
    sqrt_phi = np.sqrt(rc.phi_d)
    f_cap = np.sqrt(p_max)

    f = f_cap.copy() if p_init is None else np.sqrt(np.asarray(p_init, dtype=float))
    p = f * f
    total = p * rc.phi_d + p @ rc.psi_d + sigma_d
    log_w = np.zeros(k)
    trace = []

    def f_update(denom):
        # clipped sqrt powers, powers and budget use; a silent pair (num = 0) stays at 0
        f_new = np.minimum(f_cap, num / np.maximum(denom, 1e-300))
        p_new = f_new * f_new
        return f_new, p_new, float(p_new @ rc.varphi_d)

    for it in range(1, max_iter + 1):
        nu = f * sqrt_phi / total
        w = 1.0 / (1.0 - nu * f * sqrt_phi)
        w_nu2 = w * nu ** 2
        num = w * nu * sqrt_phi
        base = w_nu2 * rc.phi_d + rc.psi_d @ w_nu2

        lam = 0.0
        f, p, used = f_update(base)
        if used > zeta:
            # f, p and used always belong to the current upper end hi
            hi = 1.0
            for _ in range(60):
                f, p, used = f_update(base + hi * rc.varphi_d)
                if used <= zeta:
                    break
                hi *= 2.0
            else:
                raise BracketError("could not bracket the budget multiplier after 60 doublings")
            lo = 0.0
            for _ in range(200):
                if zeta - used <= bisect_rtol * zeta + 1e-15:
                    break
                mid = 0.5 * (lo + hi)
                f_mid, p_mid, used_mid = f_update(base + mid * rc.varphi_d)
                if used_mid > zeta:
                    lo = mid
                else:
                    hi, f, p, used = mid, f_mid, p_mid, used_mid
            lam = hi
        rx = p * rc.phi_d
        cross = p @ rc.psi_d
        trace.append(float(np.sum(np.log2(1.0 + rx / (cross + sigma_d)))))
        total = rx + cross + sigma_d
        log_w_old, log_w = log_w, np.log(w)
        if float(np.sum(np.abs(log_w - log_w_old))) <= tol_wmmse:
            break
    else:
        raise RuntimeError(f"dpcd did not converge in {max_iter} iterations")

    return DpcdResult(p_s=p, objective_trace=trace, iterations=it,
                      budget=zeta, multiplier=lam)


@dataclass
class JdpcResult:
    q_s: np.ndarray
    p_s: np.ndarray
    outer_iterations: int
    trace: list                      # D2D sum SE after each outer round
    feasible: bool


def jdpc(rc, gamma, q_max, p_max, tol_power=1e-3, tol_wmmse=1e-3,
         outer_cap=10, prefactor=1.0, p_init=None):
    """Alternate dpcc and dpcd until the D2D sum SE stabilizes.

    The D2D powers start at their caps (the inner WMMSE initializer);
    later rounds warm-start the WMMSE from the current powers, which is
    what makes the sum-SE trace non-decreasing: the refreshed cellular
    powers can only lower the interference floor at every D2D receiver,
    and the warm-started surrogate is monotone from there.  Infeasibility
    of either inner solver yields a feasible=False result.
    """
    k = rc.phi_d.size
    p_max_vec = np.broadcast_to(np.asarray(p_max, dtype=float), (k,))
    p = p_max_vec.copy() if p_init is None else np.asarray(p_init, dtype=float).copy()
    q = np.zeros(rc.phi_c.size)
    trace = []

    for outer in range(1, outer_cap + 1):
        cell = dpcc(rc, p, gamma, q_max, tol=tol_power)
        q = cell.q_s
        if not cell.feasible:
            return JdpcResult(q_s=q, p_s=p, outer_iterations=outer, trace=trace, feasible=False)
        if k == 0:
            return JdpcResult(q_s=q, p_s=p, outer_iterations=outer, trace=[0.0], feasible=True)
        try:
            d2d = dpcd(rc, q, gamma, p_max_vec, tol_wmmse=tol_wmmse,
                       bisect_rtol=tol_power, p_init=p)
        except InfeasibleBudgetError:
            return JdpcResult(q_s=q, p_s=p, outer_iterations=outer, trace=trace, feasible=False)
        p = d2d.p_s
        _, eta_d = bound_sinrs(rc, q, p)
        trace.append(prefactor * float(np.sum(np.log2(1.0 + eta_d))))
        if outer >= 2 and abs(trace[-1] - trace[-2]) < tol_power:
            break
    return JdpcResult(q_s=q, p_s=p, outer_iterations=outer, trace=trace, feasible=True)
