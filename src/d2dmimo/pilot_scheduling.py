"""Pilot scheduling for D2D pairs and pilot power optimization.

The scheduling objective is the total channel-estimation MSE of the D2D
direct links.  Besides the greedy scheduler this module provides the two
brackets used to judge it (exhaustive enumeration below, uniform random
assignment above) and the parametric solver for the pilot-power
subproblem, a sum-of-linear-ratios program whose per-iteration power
update is a bang-bang rule.

sum_mse scores a stack of assignments in one call, one value per row: a
trial axis matching the gains', or candidate assignments of one draw, as
exhaustive_search scores its enumeration block by block.  interference_metric
and psa also take large-scale gains with a leading trial axis and schedule
every draw of the stack in one greedy pass.  Each row gets the bits it gets
alone.  random_assignment, exhaustive_search and the pilot-power solver take
one draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PilotAssignment
from .scenario import substream, RANDOM_PILOTS


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the search-space guard."""


class NonConvergenceError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def interference_metric(ls):
    """Symmetric pairwise interference strength between D2D pairs.

    chi[i, k] = ln(1 + (v_ik/v_kk)^2 + (v_ki/v_ii)^2), zero diagonal;
    (T, K, K) for a stack of draws.
    """
    own = np.diagonal(ls.v_d, axis1=-2, axis2=-1)
    ratio = ls.v_d / own[..., None, :]
    chi = np.log1p(ratio ** 2 + np.swapaxes(ratio, -1, -2) ** 2)
    k = own.shape[-1]
    chi[..., np.arange(k), np.arange(k)] = 0.0
    return chi


def sum_mse(ls, pa, config):
    """Total estimation MSE of the D2D direct links at the maximum pilot
    energy tau * max_power_d2d per pair, M * sum_k (1 - own_k / (group_k + N0)):
    own_k is pair k's received pilot power at its own Rx, group_k that of its
    whole pilot group there.  One value per leading index of pa.pilot_of (a
    trial axis matching ls's, or candidate assignments for one draw), each
    with the bits of its own call.
    """
    p_p = np.full(config.n_d2d, config.pilot_len * config.max_power_d2d)
    own = p_p * np.diagonal(ls.v_d, axis1=-2, axis2=-1)
    group_rx = (pa.to_matrix() * p_p) @ ls.v_d       # pilot-group power at every Rx
    group = np.take_along_axis(group_rx, pa.pilot_of[..., None, :] - pa.n_cu - 1, axis=-2)[..., 0, :]
    return config.d2drx_antennas * np.sum(1.0 - own / (group + config.noise_power), axis=-1)


def psa(ls, config):
    """Greedy pilot scheduler.

    Pairs are served in decreasing order of total interference involvement;
    each is given the pilot whose current assignees interfere with it
    least (an empty pilot scores zero).  Ties break to the lowest index.
    A stack of draws is scheduled in one pass of K steps, one pair of every
    draw per step.
    """
    k = config.n_d2d
    chi = interference_metric(ls)
    lead = chi.shape[:-2]
    chi = chi.reshape((-1, k, k))
    draws = np.arange(chi.shape[0])
    # served pairs drop to -inf; argmax keeps the first (lowest) on ties
    involvement = chi.sum(axis=-2)
    pilot_of = np.zeros((draws.size, k), dtype=int)
    # group_chi[d, t, j]: summed interference of pilot t's current assignees with pair j
    group_chi = np.zeros((draws.size, config.pilot_len - config.n_cu, k))
    for _ in range(k):
        kk = np.argmax(involvement, axis=-1)
        t = np.argmin(group_chi[draws, :, kk], axis=-1)   # argmin keeps the lowest pilot on ties
        group_chi[draws, t] += chi[draws, kk]
        pilot_of[draws, kk] = config.n_cu + 1 + t
        involvement[draws, kk] = -np.inf
    return PilotAssignment(pilot_of=pilot_of.reshape(lead + (k,)), n_cu=config.n_cu,
                           pilot_len=config.pilot_len)


def random_assignment(config, rng=None):
    """Uniform i.i.d. pilot choice per pair."""
    if rng is None:
        rng = substream(config.rng_seed, RANDOM_PILOTS)
    pilot_of = rng.integers(config.n_cu + 1, config.pilot_len + 1, size=config.n_d2d)
    return PilotAssignment(pilot_of=pilot_of, n_cu=config.n_cu, pilot_len=config.pilot_len)


SEARCH_GUARD = 10_000_000   # largest assignment space exhaustive_search enumerates
_ES_BLOCK_BYTES = 262_144   # reuse-matrix bytes of one block of candidate assignments


def search_space(config):
    """Number of pilot assignments, (tau-N)^K, which the search guard bounds;
    exhaustive_search scores the 1/(tau-N) of them with pair 0 on pilot one."""
    return (config.pilot_len - config.n_cu) ** config.n_d2d


def exhaustive_search(ls, config):
    """Sum-MSE-optimal assignment by enumeration; first minimizer in
    lexicographic assignment order wins ties.  Assignments are scored in
    blocks, one sum_mse call per block, and only those with pair 0 on the
    first pilot: sum_mse gives every relabelling of the pilots the same
    bits, so swapping labels turns any other minimizer into an earlier one."""
    n_pilots, k, space = config.pilot_len - config.n_cu, config.n_d2d, search_space(config)
    if space > SEARCH_GUARD:
        raise InstanceTooLargeError(
            f"search space (tau-N)^K = {n_pilots}^{k} exceeds the guard {SEARCH_GUARD}")
    size = max(1, _ES_BLOCK_BYTES // (8 * n_pilots * k))
    place = n_pilots ** np.arange(k - 1, -1, -1)   # pair 0 is the most significant digit
    best, best_pa = np.inf, None
    scored = space // n_pilots   # the assignments whose first digit is 0
    for first in range(0, scored, size):
        index = np.arange(first, min(first + size, scored))
        pa = PilotAssignment(pilot_of=config.n_cu + 1 + index[:, None] // place % n_pilots,
                             n_cu=config.n_cu, pilot_len=config.pilot_len)
        vals = sum_mse(ls, pa, config)
        i = np.argmin(vals)   # argmin keeps the first minimizer of the block
        if vals[i] < best:
            best, best_pa = vals[i], pa[i]
    return best_pa


@dataclass
class ParametricPowerResult:
    p_p: np.ndarray          # (K,) pilot powers
    xi: np.ndarray           # converged ratio parameters
    kappa: np.ndarray        # converged scale parameters
    bang_bang_flags: np.ndarray   # True where the pair was driven to zero power
    iterations: int
    residual: float          # max_k |U_k - xi_k V_k| at exit


def pilot_power_parametric(pa, ls, config, max_iter=500):
    """Pilot-power optimizer for a fixed assignment.

    Alternates the parameter update xi_k = U_k/V_k, kappa_k = 1/V_k with
    the bang-bang power update p_k = tau*P_k when
    kappa_k v_kk >= sum_{i in X_k} kappa_i xi_i v_ki, else 0, starting
    from full power.  Stops when both parameter vectors move less than
    tol_power; pairs ending at zero power are flagged so the caller can
    enlarge the pilot set.
    """
    k = config.n_d2d
    v = ls.v_d
    n0 = config.noise_power
    p_max = config.pilot_len * config.max_power_d2d
    tol = config.tol_power

    o = pa.to_matrix()
    v_same = (o.T @ o) * v          # v[i, j] where pairs i and j share a pilot, else 0
    own = np.diag(v)

    def ratios(p):
        return p * own, p @ v_same + n0

    p = np.full(k, p_max)
    u, vv = ratios(p)
    xi, kappa = np.zeros(k), np.zeros(k)
    for it in range(1, max_iter + 1):
        xi_new, kappa_new = u / vv, 1.0 / vv
        # xi is unitless; kappa is a scale parameter, so measure it relatively
        change = max(float(np.max(np.abs(xi_new - xi))),
                     float(np.max(np.abs(kappa_new - kappa) / kappa_new)))
        xi, kappa = xi_new, kappa_new
        # linear-program step: positive reduced profit -> full power
        gain = kappa * own - v_same @ (kappa * xi)
        p = np.where(gain >= 0.0, p_max, 0.0)
        u, vv = ratios(p)
        if it > 1 and change < tol:
            return ParametricPowerResult(p_p=p, xi=xi, kappa=kappa, bang_bang_flags=(p == 0.0),
                                         iterations=it, residual=float(np.max(np.abs(u - xi * vv))))
    raise NonConvergenceError(f"parametric pilot-power solver did not converge in {max_iter} iterations",
                              float(np.max(np.abs(u - xi * vv))))
