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

The WMMSE and joint solvers work on stacks (dpcd_stack, jdpc_stack): the
power-control recipes hand all trials of every sweep point of a chunk to
one jdpc_stack call, which runs the points in lockstep, round by round, and
solves the D2D step of every running trial of every point with one ragged
WMMSE loop.  That loop takes a list of same-size groups (WmmseGroup), holds
the running rows' per-pair arrays flat, group after group, and pays each
elementwise numpy call once per iteration for all of them; each group runs
its matrix products, stop test and multiplier bisection on its own
contiguous (T, K) views, and a converged instance leaves the stack.  A
joint stack keeps each point's powers and results in arrays and computes
each quantity of a round but the cellular step (dpcc, per instance) with
one stacked call per point.  Each instance does the arithmetic it would do
alone, in the same order, so its bits depend neither on its stack nor on
the other points; dpcd is a stack of one.  jdpc_stack records no WMMSE
objective trace, so its inner loop computes no objective; dpcd always
records one.

All solvers work purely on RateCoeffs aggregates, so they are decoupled
from scenario generation and accept degenerate sizes (e.g. no D2D pairs).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .receivers import RateCoeffs, _dot, _vecmat, bound_sinrs, sigma_c_of, sigma_d_of
from .scenario import TrialAxis


class InfeasibleBudgetError(RuntimeError):
    """The cellular powers leave the D2D pairs no budget (zeta < 0)."""


class SolverError(RuntimeError):
    """A solver (or another per-trial step of a stacked computation) failed on
    some rows of the stack it was given, listed in ``rows``."""

    def __init__(self, message, rows=(), point=0):
        super().__init__(message)
        self.rows = [int(r) for r in rows]
        self.point = point           # index of the point the rows belong to, of a list of points

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


def _f_update(denom, num, cap, f=None, p=None):
    """Clipped sqrt powers and powers of a WMMSE step, into f and p when
    given; a silent pair (num = 0) stays at 0."""
    f = np.maximum(denom, 1e-300, out=f)
    np.divide(num, f, out=f)
    np.minimum(cap, f, out=f)
    return f, np.multiply(f, f, out=p)


@dataclass
class WmmseGroup:
    """T same-size WMMSE instances of K pairs: row t maximizes the D2D sum
    rate with coefficients phi_d[t], psi_d[t] and cellular-plus-noise terms
    sigma_d[t] subject to the caps p_max (broadcast to (T, K)) and the budget
    sum_k p_k varphi_d[t, k] <= zeta[t] >= 0, from full power unless p_init[t]
    warm-starts it, until the sum of |change of log w| over its pairs is at
    most tol_wmmse; the budget multiplier is bisected to bisect_rtol."""

    phi_d: np.ndarray                # (T, K)
    psi_d: np.ndarray                # (T, K, K)
    varphi_d: np.ndarray             # (T, K)
    sigma_d: np.ndarray              # (T, K)
    zeta: np.ndarray                 # (T,)
    p_max: object                    # broadcast to (T, K)
    p_init: np.ndarray | None = None  # (T, K)
    tol_wmmse: float = 1e-3
    bisect_rtol: float = 1e-3


class _Block:
    """The running rows of one WmmseGroup in a ragged WMMSE stack: their
    per-row arrays, and (set by _lay_out) their views of the stack's flat
    arrays."""

    def __init__(self, index, group, ids):
        self.index, self.ids, self.rows = index, ids, np.arange(ids.size)   # ids: rows in the whole stack
        self.k = np.shape(group.phi_d)[-1]
        self.psi_d = np.asarray(group.psi_d, dtype=float)
        self.varphi_d = np.asarray(group.varphi_d, dtype=float)
        self.traces = [[] for _ in range(ids.size)]

    def keep(self, keep):
        self.ids, self.rows, self.psi_d, self.varphi_d = (
            a[keep] for a in (self.ids, self.rows, self.psi_d, self.varphi_d))


# the work arrays of a ragged WMMSE stack, one value per pair or per row
_PAIR_WORK = ("nu", "w", "w_nu2", "num", "base", "mv", "p", "rx", "cross", "diff", "log_w_new")
_ROW_WORK = ("used", "lam", "sums", "over", "done")


def _lay_out(blocks, pairs, rows):
    """Fresh work arrays for the running rows of blocks, _PAIR_WORK then
    _ROW_WORK (over and done bool), returned in that order; and each block's
    (T, K) view of every per-pair array, work or pairs[name], (T,) view of
    every per-row array, work or rows[name], and the operands of its matrix
    products.  Those are _matvec's, _dot's and _vecmat's operand shapes,
    viewed once here, so that the loop's np.matmul calls are the helpers'
    calls and give every row the bits of the 1-D call."""
    n, t = next(iter(pairs.values())).size, next(iter(rows.values())).size
    work = ([np.empty(n) for _ in _PAIR_WORK] + [np.empty(t) for _ in _ROW_WORK[:3]]
            + [np.empty(t, dtype=bool) for _ in _ROW_WORK[3:]])
    pairs = dict(zip(_PAIR_WORK, work), **pairs)
    rows = dict(zip(_ROW_WORK, work[len(_PAIR_WORK):]), **rows)
    at = row = 0
    for b in blocks:
        t, n = b.ids.size, b.ids.size * b.k
        for name, a in pairs.items():
            setattr(b, name, a[at:at + n].reshape(t, b.k))
        for name, a in rows.items():
            setattr(b, name, a[row:row + t])
        b.w_nu2_col, b.mv_col, b.varphi_d_col = b.w_nu2[..., None], b.mv[..., None], b.varphi_d[..., None]
        b.p_row, b.cross_row, b.used_1x1 = b.p[:, None, :], b.cross[:, None, :], b.used[:, None, None]
        at, row = at + n, row + t
    return work


def dpcd_stack(groups, max_iter=50_000, record_trace=True):
    """Weighted-MMSE D2D power control of a ragged stack in lockstep: the
    rows of groups, a list of WmmseGroups of any sizes, run together until
    each row's own stop rule holds.  The returned powers never violate the
    budget: the multiplier bisection keeps the feasible side.

    Every row does the same floating-point operations in the same order as
    it would alone, so its result depends neither on the other rows of its
    group nor on the other groups.  The running rows' arrays are held flat,
    group after group, so each elementwise step of an iteration is one numpy
    call for the whole stack, into buffers kept until a row leaves; each
    group runs its matrix products (_matvec, _dot and _vecmat, which give
    every row the bits of the 1-D call), its rows' stop-test sums and the
    multiplier bisection of its binding rows on its contiguous views of
    those arrays.  The loop computes the multiplier-independent terms once
    per iteration and reuses the objective's products as the next
    iteration's denominators; a row leaves the stack when its stop rule
    holds.  With record_trace (the default) each row's objective_trace holds
    its D2D sum rate after every iteration; without it the loop computes no
    objective and the traces are empty.

    Returns, per group, one DpcdResult per row.  A row that does not
    converge or cannot bracket its multiplier raises a SolverError naming
    the rows that failed by their index in the stack, the groups' rows one
    group after another.
    """
    results = [[None] * len(g.zeta) for g in groups]
    blocks, at = [], 0
    for i, g in enumerate(groups):
        if len(g.zeta):
            blocks.append(_Block(i, g, np.arange(at, at + len(g.zeta))))
        at += len(g.zeta)
    if not blocks:
        return results
    live = [groups[b.index] for b in blocks]

    def flat(arrays):
        return np.concatenate([np.ravel(a) for a in arrays])

    caps = [np.sqrt(np.broadcast_to(np.asarray(g.p_max, dtype=float), np.shape(g.phi_d))) for g in live]
    f_cap, phi_d = flat(caps), flat([np.asarray(g.phi_d, dtype=float) for g in live])
    f = flat([cap if g.p_init is None else np.sqrt(np.asarray(g.p_init, dtype=float))
              for g, cap in zip(live, caps)])
    sigma_d = flat([np.asarray(g.sigma_d, dtype=float) for g in live])
    sqrt_phi, log_w, total = np.sqrt(phi_d), np.zeros(f.size), np.empty(f.size)
    zeta = flat([np.asarray(g.zeta, dtype=float) for g in live])
    tol = flat([np.full(len(g.zeta), g.tol_wmmse) for g in live])
    pair_count = flat([np.full(len(g.zeta), b.k) for g, b in zip(live, blocks)]).astype(int)

    (nu, w, w_nu2, num, base, mv, p, rx, cross, diff, log_w_new, used, lam, sums, over, done) = _lay_out(
        blocks, dict(f=f, f_cap=f_cap, total=total, sigma_d=sigma_d), dict(zeta=zeta))
    np.multiply(f, f, out=p)
    np.multiply(p, phi_d, out=rx)
    for b in blocks:
        np.matmul(b.p_row, b.psi_d, out=b.cross_row)     # _vecmat(p, psi_d)
    np.add(rx, cross, out=total)
    np.add(total, sigma_d, out=total)

    for it in range(1, max_iter + 1):
        np.multiply(f, sqrt_phi, out=nu)
        np.divide(nu, total, out=nu)
        np.multiply(nu, f, out=w)
        np.multiply(w, sqrt_phi, out=w)
        np.subtract(1.0, w, out=w)
        np.divide(1.0, w, out=w)
        np.square(nu, out=w_nu2)
        np.multiply(w, w_nu2, out=w_nu2)
        np.multiply(w, nu, out=num)
        np.multiply(num, sqrt_phi, out=num)
        for b in blocks:
            np.matmul(b.psi_d, b.w_nu2_col, out=b.mv_col)     # _matvec(psi_d, w_nu2)
        np.multiply(w_nu2, phi_d, out=base)
        np.add(base, mv, out=base)

        _f_update(base, num, f_cap, f, p)
        for b in blocks:
            np.matmul(b.p_row, b.varphi_d_col, out=b.used_1x1)     # _dot(p, varphi_d)
        if np.greater(used, zeta, out=over).nonzero()[0].size:
            for b in blocks:
                bind = b.over.nonzero()[0]
                if bind.size:
                    b.f[bind], b.p[bind], b.lam[bind] = _bisect_multiplier(
                        b.base[bind], b.num[bind], b.f_cap[bind], b.varphi_d[bind], b.zeta[bind],
                        groups[b.index].bisect_rtol, b.ids[bind])
        np.multiply(p, phi_d, out=rx)
        for b in blocks:
            np.matmul(b.p_row, b.psi_d, out=b.cross_row)
            if record_trace:
                objective = np.log2(1.0 + b.rx / (b.cross + b.sigma_d)).sum(axis=-1)
                for r, value in zip(b.rows.tolist(), objective.tolist()):
                    b.traces[r].append(value)
        np.add(rx, cross, out=total)
        np.add(total, sigma_d, out=total)
        np.log(w, out=log_w_new)
        np.subtract(log_w_new, log_w, out=diff)
        np.abs(diff, out=diff)
        log_w, log_w_new = log_w_new, log_w
        for b in blocks:
            np.add.reduce(b.diff, axis=-1, out=b.sums)
        if not np.less_equal(sums, tol, out=done).nonzero()[0].size:
            continue

        for b in blocks:
            finished = b.done.nonzero()[0]
            if finished.size:
                for i in finished.tolist():
                    r = b.rows[i]
                    results[b.index][r] = DpcdResult(
                        p_s=b.p[i].copy(), objective_trace=b.traces[r], iterations=it,
                        multiplier=float(b.lam[i]) if b.over[i] else 0.0)
                b.keep(~b.done)
        keep = ~done
        if not keep.any():
            return results
        by_pair = np.repeat(keep, pair_count)
        f, total, log_w, sqrt_phi, f_cap, phi_d, sigma_d = (
            a[by_pair] for a in (f, total, log_w, sqrt_phi, f_cap, phi_d, sigma_d))
        zeta, tol, pair_count = zeta[keep], tol[keep], pair_count[keep]
        blocks = [b for b in blocks if b.ids.size]
        (nu, w, w_nu2, num, base, mv, p, rx, cross, diff, log_w_new, used, lam, sums, over, done) = _lay_out(
            blocks, dict(f=f, f_cap=f_cap, total=total, sigma_d=sigma_d), dict(zeta=zeta))
    raise SolverError(f"dpcd did not converge in {max_iter} iterations",
                      np.concatenate([b.ids for b in blocks]))


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
    group = WmmseGroup(rc.phi_d[None], rc.psi_d[None], rc.varphi_d[None], sigma_d_of(rc, q_s)[None],
                       [zeta], p_max, p_init, tol_wmmse=tol_wmmse, bisect_rtol=bisect_rtol)
    return dpcd_stack([group], max_iter=max_iter)[0][0]


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


@dataclass
class JdpcPoint:
    """One point of a joint power-control solve: rate coefficients rc of T
    instances (a leading trial axis), their SINR target gamma and power caps,
    the pre-log factor of their sum SEs, the tolerances of the outer loop and
    the cellular step (tol_power, also the multiplier bisection's) and of
    the WMMSE loop, and p_init (T, K), warm-start D2D powers."""

    rc: RateCoeffs
    gamma: float
    q_max: float
    p_max: object
    prefactor: float = 1.0
    tol_power: float = 1e-3
    tol_wmmse: float = 1e-3
    p_init: np.ndarray | None = None


def jdpc_stack(points, outer_cap=10):
    """Alternate dpcc and dpcd on every instance of points, a list of
    JdpcPoints, until each one's D2D sum SE stabilizes; returns one
    JdpcResult stack per point, row t for its instance t.

    The D2D powers start at their caps (the inner WMMSE initializer) unless
    p_init warm-starts them; later rounds warm-start the WMMSE from the
    current powers, which is what makes the sum-SE trace non-decreasing: the
    refreshed cellular powers can only lower the interference floor at every
    D2D receiver, and the warm-started surrogate is monotone from there.  An
    instance ends infeasible (feasible=False) once dpcc at the current D2D
    powers misses a target or leaves a negative budget zeta; round 1 runs at
    the starting powers, so full D2D power can end a draw that silent D2D
    would keep feasible (ROADMAP item 7).

    The points run in lockstep, round by round.  Powers are arrays, q (T, N)
    and p (T, K) per point.  Each round runs, per point, dpcc on each running
    instance's own coefficients, then the budgets and the D2D interference
    floors as one stacked call each; then one ragged dpcd_stack over the
    running instances of every point, those of equal K and tolerances in one
    group; then, per point, the sum SEs and the stop test as one stacked call
    each.  Every instance gets the bits it would get alone.  A failing inner
    solver raises a SolverError naming the failing rows of one point's rc,
    and that point (the first in order, where several fail at once).
    """
    out, active = [], []
    for pt in points:
        t, n = pt.rc.phi_c.shape
        cap = np.broadcast_to(np.asarray(pt.p_max, dtype=float), (pt.rc.phi_d.shape[-1],))
        p = np.tile(cap, (t, 1)) if pt.p_init is None else np.array(pt.p_init, dtype=float)
        out.append(JdpcResult(q_s=np.zeros((t, n)), p_s=p, outer_iterations=np.zeros(t, dtype=int),
                              feasible=np.ones(t, dtype=bool), se=np.zeros((t, outer_cap))))
        active.append(np.arange(t))   # rows still running

    def finish(j, rows, outer, feasible):
        out[j].outer_iterations[rows] = outer
        out[j].feasible[rows] = feasible

    for outer in range(1, outer_cap + 1):
        solving = {}   # (K, tolerances) -> [(point, its running rows' coefficients, their budgets)]
        for j, (pt, res) in enumerate(zip(points, out)):
            rows = active[j]
            if not rows.size:
                continue
            qos = np.empty(rows.size, dtype=bool)
            for i, r in enumerate(rows.tolist()):
                try:
                    cell = dpcc(pt.rc[r], res.p_s[r], pt.gamma, pt.q_max, tol=pt.tol_power)
                except RuntimeError as exc:
                    raise SolverError(str(exc), [r], point=j) from exc
                res.q_s[r], qos[i] = cell.q_s, cell.feasible
            finish(j, rows[~qos], outer, False)
            rows = rows[qos]
            k = res.p_s.shape[-1]
            if k == 0:               # no pairs: the sum SE is 0 and every instance stops
                finish(j, rows, outer, True)
                active[j] = rows[:0]
                continue
            sub = pt.rc[rows]
            zeta = cellular_power_budget(sub, res.q_s[rows], pt.gamma)
            short = zeta < 0.0
            if short.any():
                finish(j, rows[short], outer, False)
                rows, sub, zeta = rows[~short], sub[~short], zeta[~short]
            active[j] = rows
            if rows.size:
                solving.setdefault((k, pt.tol_wmmse, pt.tol_power), []).append((j, sub, zeta))
        if not solving:
            break
        entries = [e for same in solving.values() for e in same]
        try:
            solved = dpcd_stack([_wmmse_group(same, points, out, active) for same in solving.values()],
                                record_trace=False)
        except SolverError as exc:
            owner = [(j, r) for j, _, _ in entries for r in active[j]]
            failed = [owner[i] for i in exc.rows]
            first = min(j for j, _ in failed)
            raise type(exc)(exc.args[0], [r for j, r in failed if j == first], point=first) from exc
        powers = [r.p_s for rows in solved for r in rows]
        at = 0
        for j, sub, _ in entries:
            rows, res = active[j], out[j]
            res.p_s[rows] = powers[at:at + rows.size]
            at += rows.size
            _, eta_d = bound_sinrs(sub, res.q_s[rows], res.p_s[rows])
            se = res.se[rows, outer - 1] = points[j].prefactor * np.log2(1.0 + eta_d).sum(axis=-1)
            done = (outer >= 2) & (np.abs(se - res.se[rows, outer - 2]) < points[j].tol_power)
            finish(j, rows[done], outer, True)
            active[j] = rows[~done]
    for j, rows in enumerate(active):
        finish(j, rows, outer, True)
    return out


def _wmmse_group(entries, points, out, active):
    """One WmmseGroup of the running rows of same-size points of equal
    tolerances, entries [(point index, coefficients of its running rows,
    their budgets)], warm-started from the points' current powers.  Where
    points merge, each one's psi_d becomes a view of the group's, so the
    stack holds one copy of it."""
    j, sub, _ = entries[0]
    pt, k = points[j], sub.phi_d.shape[-1]
    cat = (lambda arrays: arrays[0]) if len(entries) == 1 else np.concatenate
    group = WmmseGroup(
        *(cat([getattr(sub, name) for _, sub, _ in entries]) for name in ("phi_d", "psi_d", "varphi_d")),
        cat([sigma_d_of(sub, out[j].q_s[active[j]]) for j, sub, _ in entries]),
        cat([zeta for _, _, zeta in entries]),
        cat([np.broadcast_to(points[j].p_max, (zeta.size, k)) for j, _, zeta in entries]),
        cat([out[j].p_s[active[j]] for j, _, _ in entries]), tol_wmmse=pt.tol_wmmse, bisect_rtol=pt.tol_power)
    if len(entries) > 1:
        at = 0
        for _, sub, zeta in entries:
            sub.psi_d, at = group.psi_d[at:at + zeta.size], at + zeta.size
    return group
