"""Partial zero-forcing reception and achievable-rate evaluation.

The receive filter for a target link is the normalized projection of the
target's channel estimate onto the orthogonal complement of the cancelled
interferers' estimates.  Same-pilot D2D estimates at a common receiver are
collinear, so each cancelled pilot group costs exactly one degree of
freedom regardless of its size; cancellation sets therefore track pilot
groups, not individual pairs, on the D2D side.

Every function works on all links of one kind at once: pzf_filter builds
the filters of every CU from one QR of a basis the BS shares among them,
and those of every pair at its own receiver with one batched QR, and
cell_sinr_terms / d2d_sinr_terms return per-link arrays.  Two rate
evaluations are provided: instantaneous post-filter SINRs from a concrete
channel/estimate draw (Monte Carlo path) and closed-form ergodic lower
bounds from the estimation-quality coefficients (analytic path).  The
package-level tests verify that Monte Carlo mean rates dominate the
closed-form bounds.

The Monte Carlo path splits its work at the draw.  monte_carlo_plan forms,
once per sweep point and for the receiver sides some metric reads, every
term that does not depend on the fast fading: the pilot amplitudes and
MMSE scalings the channel module reads (the amplitudes over the pilot
column powers of the estimation coefficients), each cancelled group's
representative and span flag, the columns every filter cancels, the kept
masks with their diagonals cleared, the interference weights and the
error-plus-noise floors.  pzf_filter, cell_sinr_terms and d2d_sinr_terms
then take the estimates of one draw, or a stack, and the plan's rows, and
do only the work that depends on the draw.  At the BS a cancelled group is
represented by its first member with a nonzero MMSE coefficient
(p_p u_d > 0), so a silent member never represents it; this is the first
member with a nonzero estimate unless a drawn estimate column is exactly
zero, which has probability zero.  At a D2D-Rx it is the first member.

Both paths also take a stack of same-size draws with a leading trial axis
on every array, and give each draw the bits it gets alone: row-wise
products are stacked matmuls (_vecmat, _dot), the PZF filters of a stack
come from batched QRs, and reductions and stable sorts run along the axes
they use for one draw.  The order in which a reduction adds its terms is
numpy's choice for the arrays' memory layout and is not held to that of
earlier versions, so a change of layout may move last bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SIDES, group_powers
from .scenario import TrialAxis


class FeasibilityError(ValueError):
    """A cancellation budget leaves a rate bound no array gain."""


class DegenerateSpanError(RuntimeError):
    """Target estimate lies (numerically) inside the cancelled span; rows
    lists the stack rows where one does (row 0 for a single draw)."""

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = [int(r) for r in rows]


@dataclass
class CancellationSets(TrialAxis):
    """Which interferers each receiver spends degrees of freedom on.

    bs_cancel_cu[n] lists the CUs cancelled when detecting CU n (b_c of
    them); bs_cancel_groups is the global list of D2D pilot groups
    cancelled at the BS (b_d pilot indices).  rx_cancel_cu[k] and
    rx_cancel_groups[k] are the per-receiver analogues (m_c CUs, m_d
    foreign pilot groups; a receiver never cancels its own group).
    The kept-masks are indexed [target, source].
    """

    bs_cancel_cu: np.ndarray        # (N, b_c) int
    bs_cancel_groups: np.ndarray    # (b_d,) pilot indices
    rx_cancel_cu: np.ndarray        # (K, m_c) int
    rx_cancel_groups: np.ndarray    # (K, m_d) pilot indices

    def bs_kept_cu(self, n_cu):
        """(N, N) mask: row n marks the CUs left uncancelled when detecting CU n (self kept)."""
        return _kept(self.bs_cancel_cu, n_cu)

    def bs_kept_pairs(self, pa):
        """Boolean mask over pairs whose pilot group survives at the BS."""
        return ~np.any(pa.pilot_of[..., :, None] == self.bs_cancel_groups[..., None, :], axis=-1)

    def rx_kept_cu(self, n_cu):
        """(K, N) mask: row k marks the CUs left uncancelled at D2D-Rx k."""
        return _kept(self.rx_cancel_cu, n_cu)

    def rx_kept_pairs(self, pa):
        """(K, K) mask: row k marks the pairs whose pilot group survives at D2D-Rx k."""
        return ~np.any(pa.pilot_of[..., None, :, None] == self.rx_cancel_groups[..., :, None, :], axis=-1)


def _kept(cancel, size):
    """Complement of the per-row index lists in cancel, as a (..., rows, size) mask."""
    kept = np.ones(cancel.shape[:-1] + (size,), dtype=bool)
    np.put_along_axis(kept, cancel, False, axis=-1)
    return kept


@dataclass
class RateCoeffs(TrialAxis):
    """Aggregated coefficients of the closed-form SINR lower bounds.

    varphi_c[a, n] weights CU a's data power in CU n's denominator;
    psi_d[i, k] weights pair i's data power in pair k's denominator.
    The cross-service-plus-noise terms follow from varphi_d and
    cu_to_rx_weight for any data powers via sigma_c_of / sigma_d_of.
    """

    phi_c: np.ndarray            # (N,)
    varphi_c: np.ndarray         # (N, N)
    varphi_d: np.ndarray         # (K,)
    phi_d: np.ndarray            # (K,)
    psi_d: np.ndarray            # (K, K)
    cu_to_rx_weight: np.ndarray  # (N, K)
    noise_power: float


def _vecmat(x, a):
    """Row-wise x[t] @ a[t] for x (..., K), a (..., K, L); each row has the bits of the 1-D call."""
    return (x[..., None, :] @ a)[..., 0, :]


def _matvec(a, x):
    """Row-wise a[t] @ x[t] for a (..., K, L), x (..., L); each row has the bits of the 1-D call."""
    return (a @ x[..., None])[..., 0]


def _dot(x, y):
    """x[t] @ y[t] over the leading (broadcast) axes of x, y (..., K); each
    entry has the bits of the 1-D call."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def sigma_c_of(rc, p_s):
    """Cross-service-plus-noise term of the cellular bound for data powers p_s."""
    return _dot(np.asarray(p_s, dtype=float), rc.varphi_d) + rc.noise_power


def sigma_d_of(rc, q_s):
    """Cellular-plus-noise terms of the D2D bounds for data powers q_s."""
    return _vecmat(np.asarray(q_s, dtype=float), rc.cu_to_rx_weight) + rc.noise_power


def _strongest(values, count):
    """Per column, row indices of the `count` largest values in ascending
    order, ties broken by lowest index; -inf entries are never picked."""
    order = np.argsort(-values, axis=-2, kind="stable")
    return np.sort(order[..., :count, :], axis=-2)


def select_cancellation(ls, pa, config):
    """Pick cancellation targets by largest large-scale gain.

    At the BS each CU cancels the b_c strongest other CUs, plus b_d pilot
    groups ranked by the summed BS gain of their members (shared across
    CUs).  Each D2D-Rx cancels its m_c strongest CUs and the m_d strongest
    foreign pilot groups by summed gain at that receiver.
    """
    n = ls.u_c.shape[-1]
    b_c, b_d = config.pzf_bs
    m_c, m_d = config.pzf_d2d

    # column a ranks the other CUs for CU a; a CU never cancels itself
    gain_cu = np.repeat(ls.u_c[..., :, None], n, axis=-1)
    gain_cu[..., np.arange(n), np.arange(n)] = -np.inf
    bs_cancel_cu = np.swapaxes(_strongest(gain_cu, b_c), -1, -2)
    rx_cancel_cu = np.swapaxes(_strongest(ls.v_c, m_c), -1, -2)

    # summed member gains of every pilot group, at the BS and (column r) at
    # Rx r, where a receiver's own group is excluded
    gain_bs, gain_rx = group_powers(ls, pa, np.ones(ls.u_d.shape))
    np.put_along_axis(gain_rx, pa.pilot_of[..., None, :] - n - 1, -np.inf, axis=-2)
    bs_cancel_groups = n + 1 + _strongest(gain_bs[..., None], b_d)[..., 0]
    rx_cancel_groups = n + 1 + np.swapaxes(_strongest(gain_rx, m_d), -1, -2)

    return CancellationSets(
        bs_cancel_cu=bs_cancel_cu,
        bs_cancel_groups=bs_cancel_groups,
        rx_cancel_cu=rx_cancel_cu,
        rx_cancel_groups=rx_cancel_groups,
    )


def _project_out(targets, cancelled):
    """Unit-norm projections of targets (..., L, D) onto the complements of
    span(cancelled[..., l, :, :]), cancelled (..., L, D, C).  Zero columns
    span nothing: they go behind the others for the batched QR and their Q
    columns, arbitrary directions orthogonal to the rest, are zeroed."""
    nonzero = cancelled.any(axis=-2)
    if not nonzero.all():
        order = np.argsort(~nonzero, axis=-1, kind="stable")
        cancelled = np.take_along_axis(cancelled, order[..., None, :], axis=-1)
        nonzero = np.take_along_axis(nonzero, order, axis=-1)
    q = np.linalg.qr(cancelled)[0]
    q *= nonzero[..., None, :]
    coords = targets[..., None, :] @ q.conj()                         # (..., L, 1, C)
    resid = targets - (q @ np.swapaxes(coords, -1, -2))[..., 0]
    norm = np.linalg.norm(resid, axis=-1)
    bad = norm < 1e-12 * np.maximum(1.0, np.linalg.norm(targets, axis=-1))
    if bad.any():
        raise DegenerateSpanError("target estimate is inside the cancelled span",
                                  np.flatnonzero(bad.any(axis=-1)))
    return resid / norm[..., None]


@dataclass
class MonteCarloPlan(TrialAxis):
    """The terms of the Monte Carlo layers that do not depend on the fast
    fading draw, for the receiver sides in sides ("cu": the BS, "d2d": the
    D2D-Rxs); the fields of a side not in sides are None.  Built once per
    sweep point by monte_carlo_plan; a (T, ...) plan serves a stack of
    draws, and plan[rows] serves those rows.  Matrices over Rx and Tx are
    indexed [source, rx] like LargeScale.v_c and v_d."""

    sides: tuple
    o: np.ndarray            # (tau - N, K) reuse matrix
    col: np.ndarray          # (K,) 0-based pilot column of every pair
    # BS side: pilot amplitudes, MMSE scalings, PZF choice, SINR weights
    pilot_c: np.ndarray      # (N,) sqrt(q_p u_c)
    pilot_d: np.ndarray      # (K,) sqrt(p_p u_d)
    mmse_c: np.ndarray       # (N,) scaling of CU n's pilot column into h_c
    mmse_d: np.ndarray       # (K,) scaling of pair k's pilot column into h_d
    bs_first: np.ndarray     # (1, b_d) representative of every cancelled group
    bs_spans: np.ndarray     # (1, b_d) whether it has one
    bs_picked: np.ndarray    # (N, b_c+b_d) cancelled columns of [CUs | representatives]
    bs_kept_cu: np.ndarray   # (N, N) kept CUs of every target, self cleared
    bs_kept_d: np.ndarray    # (N, K) kept pairs of every target
    w_c: np.ndarray          # (N,) q_s u_c
    w_dc: np.ndarray         # (K,) p_s u_d
    alpha_c: np.ndarray      # (N,) error-plus-noise floor of every CU
    # D2D-Rx side
    pilot_rc: np.ndarray     # (N, K) sqrt(q_p v_c)
    pilot_rd: np.ndarray     # (K, K) sqrt(p_p v_d)
    mmse_rc: np.ndarray      # (N, K)
    mmse_rd: np.ndarray      # (K, K)
    rx_picked: np.ndarray    # (K, m_c+m_d) cancelled columns of [g_c | g_d] at Rx k
    rx_spans: np.ndarray     # (K, m_d) whether each cancelled group has a member
    rx_kept_d: np.ndarray    # (K, K) [rx, tx] kept pairs, self cleared
    rx_kept_cu: np.ndarray   # (K, N) [rx, cu] kept CUs
    w_rd: np.ndarray         # (K, K) p_s v_d
    w_rc: np.ndarray         # (N, K) q_s v_c
    alpha_d: np.ndarray      # (K,) error-plus-noise floor of every pair


def _unset_diagonal(mask):
    """mask with its (last two axes') diagonal cleared in place."""
    k = mask.shape[-1]
    mask[..., np.arange(k), np.arange(k)] = False
    return mask


def _first_members(o, groups):
    """Per pilot group in groups, the lowest-index member marked in the
    boolean reuse matrix o, and whether the group has one."""
    first = np.take_along_axis(o.argmax(axis=-1)[..., None, :], groups, axis=-1)
    spans = np.take_along_axis(o.any(axis=-1)[..., None, :], groups, axis=-1)
    return first, spans


def monte_carlo_plan(ls, pa, pp, coeffs, sets, n0, sides=SIDES):
    """The draw-independent Monte Carlo terms of the receiver sides sides
    (see MonteCarloPlan), its MMSE scalings over the column powers of coeffs.
    Row t of the plan has the bits of the plan built on row t's inputs alone.

    At the BS a cancelled pilot group is represented by its first member
    with a nonzero MMSE coefficient (p_p u_d > 0), and a group without one
    spans nothing; at a D2D-Rx by its first member.
    """
    n, o, col = pa.n_cu, pa.to_matrix(), pa.pilot_of - 1
    terms = dict.fromkeys(MonteCarloPlan.__dataclass_fields__)
    terms.update(sides=tuple(sides), o=o, col=col)
    if "cu" in sides:
        pilot_c, pilot_d = np.sqrt(pp.q_p * ls.u_c), np.sqrt(pp.p_p * ls.u_d)
        mmse_d = pilot_d / np.take_along_axis(coeffs.y_var_bs, col, axis=-1)
        first, spans = _first_members(o.astype(bool) & (mmse_d != 0)[..., None, :],
                                      sets.bs_cancel_groups[..., None, :] - n - 1)
        cancel_cu = sets.bs_cancel_cu
        alpha = (np.sum(pp.q_s * ls.u_c * coeffs.eps_c, axis=-1)
                 + np.sum(pp.p_s * ls.u_d * coeffs.eps_d, axis=-1)
                 + n0)
        terms.update(
            pilot_c=pilot_c, pilot_d=pilot_d, mmse_c=pilot_c / coeffs.y_var_bs[..., :n], mmse_d=mmse_d,
            bs_first=first, bs_spans=spans,
            bs_picked=np.concatenate([cancel_cu, np.broadcast_to(
                n + np.arange(first.shape[-1]), cancel_cu.shape[:-1] + first.shape[-1:])], axis=-1),
            bs_kept_cu=_unset_diagonal(sets.bs_kept_cu(n)),
            bs_kept_d=np.repeat(sets.bs_kept_pairs(pa)[..., None, :], n, axis=-2),
            w_c=pp.q_s * ls.u_c, w_dc=pp.p_s * ls.u_d,
            alpha_c=np.repeat(alpha[..., None], n, axis=-1))
    if "d2d" in sides:
        pilot_rc, pilot_rd = np.sqrt(pp.q_p[..., :, None] * ls.v_c), np.sqrt(pp.p_p[..., :, None] * ls.v_d)
        first, spans = _first_members(o.astype(bool), sets.rx_cancel_groups - n - 1)
        terms.update(
            pilot_rc=pilot_rc, pilot_rd=pilot_rd, mmse_rc=pilot_rc / coeffs.y_var_rx[..., :n, :],
            mmse_rd=pilot_rd / np.take_along_axis(coeffs.y_var_rx, col[..., :, None], axis=-2),
            rx_picked=np.concatenate([sets.rx_cancel_cu, n + first], axis=-1), rx_spans=spans,
            rx_kept_d=_unset_diagonal(sets.rx_kept_pairs(pa)), rx_kept_cu=sets.rx_kept_cu(n),
            w_rd=pp.p_s[..., :, None] * ls.v_d, w_rc=pp.q_s[..., :, None] * ls.v_c,
            alpha_d=(np.sum(pp.p_s[..., :, None] * ls.v_d * coeffs.eps_dd, axis=-2)
                     + np.sum(pp.q_s[..., :, None] * ls.v_c * coeffs.eps_cd, axis=-2)
                     + n0))
    return MonteCarloPlan(**terms)


def pzf_filter(est, plan, kind):
    """Unit-norm PZF receive filters of every link of one kind, one row per link.

    kind "cu" gives the (N, B) BS-side filters, row n detecting CU n;
    kind "d2d" gives the (K, M) filters, row k detecting pair k at its own
    receiver; a stack gives (T, N, B) or (T, K, M).  Each filter has exact
    zeros (up to rounding) on every cancelled estimate.  A cancelled pilot
    group is represented by the estimate of the member plan picked, which
    zeroes the whole (collinear) group; a group without one spans nothing.
    Raises DegenerateSpanError, naming the stack rows, if any target lies
    in its cancelled span.

    At the BS every target and every cancelled column lies in the span of
    the N CU estimates and the b_d group representatives.  One QR of that
    basis per draw gives all of them as coordinates (the columns of R, at
    most N+b_d of them); the projections run in those coordinates, and Q,
    whose columns are orthonormal, takes the unit-norm results back to the
    B antennas.
    """
    if kind == "cu":
        n = est.h_c.shape[-1]
        reps = np.take_along_axis(est.h_d, plan.bs_first, axis=-1) * plan.bs_spans
        q, r = np.linalg.qr(np.concatenate([est.h_c, reps], axis=-1))   # (..., B, D), (..., D, N+b_d)
        cancelled = np.take_along_axis(r[..., None, :, :], plan.bs_picked[..., None, :], axis=-1)
        return _project_out(np.swapaxes(r[..., :n], -1, -2), cancelled) @ np.swapaxes(q, -1, -2)
    if kind != "d2d":
        raise ValueError(f"unknown target kind {kind!r}")
    columns = np.concatenate([est.g_c, est.g_d], axis=-1)
    targets = np.swapaxes(np.diagonal(est.g_d, axis1=-3, axis2=-1), -1, -2)   # a silent pair's is zero: raises
    cancelled = np.take_along_axis(columns, plan.rx_picked[..., None, :], axis=-1)   # (..., K, M, C)
    del columns   # the QR batch below is the peak of the D2D filters
    cancelled[..., plan.rx_picked.shape[-1] - plan.rx_spans.shape[-1]:] *= plan.rx_spans[..., None, :]
    return _project_out(targets, cancelled)


def pzf_bytes(config, sides=SIDES):
    """Peak bytes one draw's pzf_filter holds for the receiver sides sides
    beyond its estimates, at 16 bytes a complex entry.  At the BS: 3.5
    copies of the B x (N+b_d) basis in its batched QR, or its Q and the b_d
    group representatives with five copies of the N targets' coordinates,
    N (N+b_d)(b_c+b_d), in _project_out's.  At the D2D-Rxs: the
    cancellation columns K M (N+K) with the K M (m_c+m_d) picked from them,
    or five copies of the picked ones in _project_out's per-receiver QRs.
    Change it with those two functions."""
    b, n = config.bs_antennas, config.n_cu
    k, m = config.n_d2d, config.d2drx_antennas
    b_c, b_d = config.pzf_bs
    m_c, m_d = config.pzf_d2d
    peaks = []
    if "cu" in sides:
        peaks += [3.5 * b * (n + b_d), b * (n + 2 * b_d) + 5 * n * (n + b_d) * (b_c + b_d)]
    if "d2d" in sides:
        peaks += [k * m * (n + k + m_c + m_d), k * m * (1 + 5 * (m_c + m_d))]
    return int(16 * max(peaks))


@dataclass
class SinrTerms(TrialAxis):
    """Per-link post-filter breakdown; every field is an array over links."""

    signal: np.ndarray
    interf_cell: np.ndarray
    interf_d2d: np.ndarray
    error_noise: np.ndarray

    @property
    def sinr(self):
        return self.signal / (self.interf_cell + self.interf_d2d + self.error_noise)


def cell_sinr_terms(est, plan):
    """Post-filter signal/interference breakdown of every cellular link."""
    beta = pzf_filter(est, plan, "cu").conj()
    proj_c = np.abs(beta @ est.h_c) ** 2      # [target, source]
    proj_d = np.abs(beta @ est.h_d) ** 2

    signal = plan.w_c * np.diagonal(proj_c, axis1=-2, axis2=-1)
    i_cc = np.where(plan.bs_kept_cu, plan.w_c[..., None, :] * proj_c, 0.0).sum(axis=-1)
    i_dc = np.where(plan.bs_kept_d, plan.w_dc[..., None, :] * proj_d, 0.0).sum(axis=-1)
    return SinrTerms(signal=signal, interf_cell=i_cc, interf_d2d=i_dc, error_noise=plan.alpha_c)


def d2d_sinr_terms(est, plan):
    """Post-filter breakdown of every D2D link; same-pilot interference stays."""
    beta = pzf_filter(est, plan, "d2d").conj()
    proj_d = np.abs(np.einsum("...km,...kmi->...ki", beta, est.g_d)) ** 2   # [rx, tx]
    proj_c = np.abs(np.einsum("...km,...kma->...ka", beta, est.g_c)) ** 2

    w_d = np.swapaxes(plan.w_rd, -1, -2)   # [rx, tx]
    signal = np.diagonal(w_d, axis1=-2, axis2=-1) * np.diagonal(proj_d, axis1=-2, axis2=-1)
    i_dd = np.where(plan.rx_kept_d, w_d * proj_d, 0.0).sum(axis=-1)
    w_c = np.swapaxes(plan.w_rc, -1, -2)   # [rx, cu]
    i_cd = np.where(plan.rx_kept_cu, w_c * proj_c, 0.0).sum(axis=-1)
    return SinrTerms(signal=signal, interf_cell=i_cd, interf_d2d=i_dd, error_noise=plan.alpha_d)


def pzf_dof(config):
    """Array-gain factors B-b_c-b_d-1 and M-m_c-m_d-1 of the rate bounds;
    raises FeasibilityError unless both are positive."""
    b_c, b_d = config.pzf_bs
    m_c, m_d = config.pzf_d2d
    dof_bs = config.bs_antennas - b_c - b_d - 1
    dof_rx = config.d2drx_antennas - m_c - m_d - 1
    if dof_bs <= 0:
        raise FeasibilityError(f"need bs_antennas > b_c+b_d+1 (got B={config.bs_antennas}, b_c+b_d={b_c + b_d})")
    if dof_rx <= 0:
        raise FeasibilityError(f"need d2drx_antennas > m_c+m_d+1 (got M={config.d2drx_antennas}, m_c+m_d={m_c + m_d})")
    return dof_bs, dof_rx


def rate_coeffs(ls, pa, coeffs, sets, pp, config):
    """Closed-form lower-bound coefficients for every link.

    Requires strictly positive array-gain factors, i.e. B > b_c+b_d+1 and
    M > m_c+m_d+1.
    """
    n, k = ls.u_c.shape[-1], ls.u_d.shape[-1]
    dof_bs, dof_rx = pzf_dof(config)

    phi_c = dof_bs * ls.u_c * coeffs.delta_c

    # cancelled CUs and the self term carry only the estimation error
    attenuated = ~np.swapaxes(sets.bs_kept_cu(n), -1, -2) | np.eye(n, dtype=bool)
    varphi_c = np.where(attenuated, (ls.u_c * coeffs.eps_c)[..., :, None], ls.u_c[..., :, None])

    varphi_d = np.where(sets.bs_kept_pairs(pa), ls.u_d, ls.u_d * coeffs.eps_d)

    phi_d = (dof_rx * np.diagonal(ls.v_d, axis1=-2, axis2=-1)
             * np.diagonal(coeffs.mu_d, axis1=-2, axis2=-1))

    # [i, k]: kept foreign groups in full; cancelled groups and the self
    # term by their error; same-pilot mates also through the estimate
    v = ls.v_d
    own = np.eye(k, dtype=bool)
    same = (pa.pilot_of[..., :, None] == pa.pilot_of[..., None, :]) & ~own
    error = ~np.swapaxes(sets.rx_kept_pairs(pa), -1, -2) | own
    psi_d = np.where(same, dof_rx * v * coeffs.mu_d + v * coeffs.eps_dd,
                     np.where(error, v * coeffs.eps_dd, v))

    cu_to_rx = np.where(np.swapaxes(sets.rx_kept_cu(n), -1, -2), ls.v_c, ls.v_c * coeffs.eps_cd)

    return RateCoeffs(
        phi_c=phi_c, varphi_c=varphi_c, varphi_d=varphi_d,
        phi_d=phi_d, psi_d=psi_d,
        cu_to_rx_weight=cu_to_rx, noise_power=config.noise_power,
    )


def bound_sinrs(rc, q_s, p_s):
    """Lower-bound SINRs of all links at the given data powers."""
    q_s = np.asarray(q_s, dtype=float)
    p_s = np.asarray(p_s, dtype=float)
    sigma_c = sigma_c_of(rc, p_s)
    sigma_d = sigma_d_of(rc, q_s)
    eta_c = q_s * rc.phi_c / (_vecmat(q_s, rc.varphi_c) + sigma_c[..., None])
    eta_d = p_s * rc.phi_d / (_vecmat(p_s, rc.psi_d) + sigma_d)
    return eta_c, eta_d


def rate_lower_bounds(rc, pp, config):
    """Per-link ergodic rate lower bounds, bits/s/Hz."""
    eta_c, eta_d = bound_sinrs(rc, pp.q_s, pp.p_s)
    prefactor = 1.0 - config.pilot_len / config.coherence_len
    return prefactor * np.log2(1.0 + eta_c), prefactor * np.log2(1.0 + eta_d)
