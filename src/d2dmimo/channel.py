"""Fast fading, pilot-phase simulation, and MMSE channel estimation.

Two estimation paths are provided and cross-validated by the test suite:
a Monte Carlo path (simulate pilots, apply the linear MMSE estimator) and
an analytic path (closed-form estimation-quality coefficients).  The
analytic coefficients are the source of truth for the optimizers; the
Monte Carlo path exists to validate the rate bounds.

Pilot indexing is 1-based to match the system description: CU n uses
pilot n (n = 1..N), D2D pairs reuse pilots N+1..tau.  The pilot basis is
the tau x tau identity, which is unitary; nothing downstream depends on
the particular choice.

Pilot groups have one representation, the binary reuse matrix
O = PilotAssignment.to_matrix() of shape (tau - N, K), and every function
works on all links at once: the pilot phase sums each group's signals into
its pilot column with one product against O, group_powers gives the
received power of every group at the BS and every D2D-Rx, estimation_coeffs
alone adds N0 to form each pilot column's received power, and the MMSE
estimate of a D2D link is its pilot's observation column over that power
times a per-link amplitude, so same-pilot estimates are exactly collinear.

The Monte Carlo path reads every term that does not depend on the draw
from a receivers.MonteCarloPlan, built once per sweep point:
simulate_pilot_phase takes the pilot amplitudes and the reuse matrix from
it, mmse_estimate the MMSE scalings and pilot columns, so a draw costs only
the draw-dependent work.  A plan holds the receiver sides SIDES names that
some metric reads ("cu": the BS, "d2d": the D2D-Rxs), and each function
forms only those; the other side's arrays are None.  A side formed alone
reads the normals it reads when both are formed, the BS side a prefix of
them, so it gets the same bits.

Every dataclass here may carry a leading trial axis (see
scenario.TrialAxis), and every function then serves a whole stack of
same-size draws in one call, each draw with the bits it gets alone.  Random
numbers stay per trial.  draw_fast_fading and simulate_pilot_phase take a
generator, which gives one draw, a list of generators, one per trial,
which gives a stack whose row t reads rng[t], or a (T, L) array of normals
whose row t gives the stack's row t; a generator is read as the array of
its first normals (see normals), so every draw runs one path.  A draw
reads a prefix of its normals: fading_normals(config, sides) for the
fading, noise_normals(config, sides) for the pilot noise.  A generator's normals do not
depend on how its calls are split, so one row drawn at the largest count a
set of configs needs holds each config's own draw as its prefix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import substream, TrialAxis, FADING, NOISE


@dataclass
class PilotAssignment(TrialAxis):
    """Map from D2D pair to pilot index.

    pilot_of[k] in {n_cu+1, ..., pilot_len}; pairs sharing a value form a
    pilot group and contaminate each other's estimates.  A stack of T
    assignments has pilot_of of shape (T, K).
    """

    pilot_of: np.ndarray
    n_cu: int
    pilot_len: int

    def __post_init__(self):
        self.pilot_of = np.asarray(self.pilot_of, dtype=int)
        if self.pilot_of.ndim < 1:
            raise ValueError("pilot_of must be a vector (or a stack of vectors)")
        lo, hi = self.n_cu + 1, self.pilot_len
        if self.pilot_of.size and (self.pilot_of.min() < lo or self.pilot_of.max() > hi):
            raise ValueError(f"pilot indices must lie in [{lo}, {hi}]")

    @property
    def n_d2d(self):
        return self.pilot_of.shape[-1]

    def d2d_pilots(self):
        """All pilot indices available to D2D pairs."""
        return np.arange(self.n_cu + 1, self.pilot_len + 1)

    def group_of(self, k):
        """X_k: indices of all pairs sharing pair k's pilot (includes k)."""
        return np.flatnonzero(self.pilot_of == self.pilot_of[k])

    def to_matrix(self):
        """Binary reuse-pattern matrix, shape (tau - n_cu, n_d2d); (T, ...) for a stack."""
        return (self.pilot_of[..., None, :] == self.d2d_pilots()[:, None]).astype(int)


@dataclass
class PowerProfile(TrialAxis):
    """Pilot and data transmit powers, milliwatts.

    Pilot powers are energy budgets over the pilot_len symbols, hence the
    tau-scaled caps.
    """

    q_p: np.ndarray   # (N,) CU pilot powers
    p_p: np.ndarray   # (K,) D2D pilot powers
    q_s: np.ndarray   # (N,) CU data powers
    p_s: np.ndarray   # (K,) D2D data powers

    def __post_init__(self):
        for name in ("q_p", "p_p", "q_s", "p_s"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.q_p < 0) or np.any(self.p_p < 0) or np.any(self.q_s < 0) or np.any(self.p_s < 0):
            raise ValueError("powers must be nonnegative")

    @classmethod
    def max_power(cls, config):
        """Max pilot energy (tau * cap) and max data power on every link."""
        tau = config.pilot_len
        return cls(
            q_p=np.full(config.n_cu, tau * config.max_power_cu),
            p_p=np.full(config.n_d2d, tau * config.max_power_d2d),
            q_s=np.full(config.n_cu, config.max_power_cu),
            p_s=np.full(config.n_d2d, config.max_power_d2d),
        )


@dataclass
class ChannelRealization(TrialAxis):
    """One block-fading draw; every entry is standard complex normal.

    g_d[k, :, i] is the fast-fading vector D2D-Tx i -> D2D-Rx k;
    g_c[k, :, n] is CU n -> D2D-Rx k.  The channels of a receiver side not
    drawn are None (h_c, h_d: the BS; g_d, g_c: the D2D-Rxs).
    """

    h_c: np.ndarray   # (B, N)
    h_d: np.ndarray   # (B, K)
    g_d: np.ndarray   # (K, M, K)
    g_c: np.ndarray   # (K, M, N)


@dataclass
class EstimatedChannels(TrialAxis):
    """MMSE estimates, same layout as ChannelRealization (None for a side
    not formed)."""

    h_c: np.ndarray
    h_d: np.ndarray
    g_d: np.ndarray
    g_c: np.ndarray


@dataclass
class PilotObservation(TrialAxis):
    """Received pilot matrices; None for a side not formed."""

    y_bs: np.ndarray   # (B, tau)
    y_rx: np.ndarray   # (K, M, tau)


@dataclass
class EstimationCoeffs(TrialAxis):
    """Estimation-quality coefficients (estimate variance delta/mu, error
    variance eps = 1 - delta) and y_var_bs[j], y_var_rx[j, k]: the per-entry
    variance of pilot j+1's observation column at the BS and at D2D-Rx k.

    mu_d[i, k] refers to the link D2D-Tx i -> D2D-Rx k; its denominator is
    pair i's column variance at Rx k, the power of its whole pilot group,
    which is what makes mu the per-entry variance of the estimate.
    """

    delta_c: np.ndarray   # (N,)
    eps_c: np.ndarray
    delta_d: np.ndarray   # (K,)
    eps_d: np.ndarray
    mu_d: np.ndarray      # (K, K)
    eps_dd: np.ndarray
    mu_c: np.ndarray      # (N, K)
    eps_cd: np.ndarray
    y_var_bs: np.ndarray  # (tau,)
    y_var_rx: np.ndarray  # (tau, K)


# The receiver sides a Monte Carlo draw can form: "cu" at the BS, "d2d" at
# every D2D-Rx.
SIDES = ("cu", "d2d")


def fading_normals(config, sides=SIDES):
    """Standard normals one fast-fading draw reads for the receiver sides
    sides: the real, then the imaginary parts of h_c, then of h_d (the BS
    side), g_d and g_c (the D2D-Rx side).  The BS side alone reads the
    prefix of h_c and h_d."""
    b, n = config.bs_antennas, config.n_cu
    k, m = config.n_d2d, config.d2drx_antennas
    return 2 * (b * (n + k) + (k * m * (k + n) if "d2d" in sides else 0))


def noise_normals(config, sides=SIDES):
    """Standard normals one pilot phase reads for the receiver sides sides:
    the BS noise, then the D2D-Rx noise.  The BS side alone reads the
    prefix of the BS noise."""
    b, m, k = config.bs_antennas, config.d2drx_antennas, config.n_d2d
    return 2 * config.pilot_len * (b + (k * m if "d2d" in sides else 0))


def pilot_phase_bytes(config, sides=SIDES):
    """Peak bytes one draw's simulate_pilot_phase and mmse_estimate hold for
    the receiver sides sides beyond its normals and channels, at 16 bytes a
    complex entry: the observations formed so far (the BS side's, 16 tau B,
    then all of them, 8 noise_normals) and the largest temporary of the side
    being formed.  That is the pilot product of h_d (B K) or g_d (K^2 M) with
    its reuse-matrix sum ((tau-N)(B+K) or (tau-N)(K M+K)), which also bounds
    the gather by pilot column in mmse_estimate, or the two noise terms
    (2 tau B or 2 tau K M).  Change it with those two layers."""
    b, n = config.bs_antennas, config.n_cu
    k, m, tau = config.n_d2d, config.d2drx_antennas, config.pilot_len
    shared = tau - n
    peaks = []
    if "cu" in sides:
        peaks.append(16 * tau * b + 16 * max(b * k + shared * (b + k), 2 * tau * b))
    if "d2d" in sides:
        peaks.append(8 * noise_normals(config, sides)
                     + 16 * max(k * k * m + shared * (k * m + k), 2 * tau * k * m))
    return max(peaks)


def normals(rng, count):
    """The first count standard normals of a generator, shape (count,), or a
    (T, count) stack of them for a list of T generators, row t from rng[t]."""
    if not isinstance(rng, list):
        return rng.standard_normal(count)
    out = np.empty((len(rng), count))
    for row, g in zip(out, rng):
        g.standard_normal(out=row)
    return out


def _cn(z, at, shape):
    """i.i.d. CN(0, 1) samples read at offset at from normals z of shape
    (..., L), all real parts, then all imaginary parts.  Returns the
    (..., *shape) samples and the offset after them."""
    size = math.prod(shape)
    if z.shape[-1] < at + 2 * size:
        raise ValueError(f"need {at + 2 * size} normals a draw, got {z.shape[-1]}")
    lead, scale = z.shape[:-1], 1.0 / np.sqrt(2.0)
    out = np.empty(lead + shape, dtype=complex)
    np.multiply(z[..., at:at + size].reshape(lead + shape), scale, out=out.real)
    np.multiply(z[..., at + size:at + 2 * size].reshape(lead + shape), scale, out=out.imag)
    return out, at + 2 * size


def draw_fast_fading(config, rng=None, sides=SIDES):
    """One fast-fading draw, or a (T, ...) stack of draws for a list of T
    generators, one per trial, or for (T, L) normals whose rows hold at
    least fading_normals(config, sides) each.  The channels of a receiver
    side not in sides are None; each side reads the normals it reads when
    both are drawn."""
    if rng is None:
        rng = substream(config.rng_seed, FADING)
    z = rng if isinstance(rng, np.ndarray) else normals(rng, fading_normals(config, sides))
    b, n = config.bs_antennas, config.n_cu
    k, m = config.n_d2d, config.d2drx_antennas
    h_c = h_d = g_d = g_c = None
    if "cu" in sides:
        h_c, at = _cn(z, 0, (b, n))
        h_d, _ = _cn(z, at, (b, k))
    if "d2d" in sides:
        g_d, at = _cn(z, 2 * b * (n + k), (k, m, k))
        g_c, _ = _cn(z, at, (k, m, n))
    return ChannelRealization(h_c=h_c, h_d=h_d, g_d=g_d, g_c=g_c)


def group_powers(ls, pa, p_p):
    """Received pilot power of every D2D pilot group, noise excluded, for
    pilot powers p_p shaped like u_d: O @ (p_p * u_d), shape (..., tau - N),
    at the BS and O @ (p_p * v_d), shape (..., tau - N, K), at every D2D-Rx;
    empty pilots give exact zeros.
    Groups of one size, over every draw of a stack, are summed in one
    stacked reduction, which adds each group's terms in the order a sum over
    that group alone does: 1 - delta and 1 - mu of strong links would
    amplify a last-bit change in the sums by up to the link's pilot SNR.
    This is the one reduction left that keeps the last bits of the
    pre-stacking layout.  Plain O @ (p_p * v) moves the bounds' last bits,
    so it waits until the benchmark reference is re-recorded."""
    o = pa.to_matrix()
    sizes = o.sum(axis=-1)
    members = np.argsort(1 - o, axis=-1, kind="stable")   # members[..., g, :sizes[..., g]]
    den_bs = np.zeros(o.shape[:-1])
    den_rx = np.zeros(o.shape)
    for size in set(sizes.ravel().tolist()) - {0}:
        where = np.nonzero(sizes == size)      # (trial, ..., group) of every such group
        mem = members[where + (slice(size),)]
        draw = tuple(i[:, None] for i in where[:-1]) + (mem,)   # the members, in their own draw
        den_bs[where] = np.sum(p_p[draw] * ls.u_d[draw], axis=1)
        den_rx[where] = (p_p[draw][:, None, :] @ ls.v_d[draw])[:, 0]
    return den_bs, den_rx


def estimation_coeffs(ls, pa, pp, n0):
    """Closed-form estimate/error variances for every estimated link, over
    the received power of every pilot column, formed here only."""
    for a in (ls.u_c, ls.u_d, ls.v_c, ls.v_d):
        if not np.all(np.isfinite(a)):
            raise ValueError("large-scale gains must be finite")

    sc, scd = pp.q_p * ls.u_c, pp.q_p[..., :, None] * ls.v_c
    den_bs, den_rx = group_powers(ls, pa, pp.p_p)
    y_var_bs = np.concatenate([sc, den_bs], axis=-1)
    y_var_bs += n0   # in place: one chunk-sized temporary fewer
    y_var_rx = np.concatenate([scd, den_rx], axis=-2)
    y_var_rx += n0
    col = pa.pilot_of - 1
    delta_c = sc / y_var_bs[..., :pa.n_cu]
    delta_d = pp.p_p * ls.u_d / np.take_along_axis(y_var_bs, col, axis=-1)
    mu_d = (pp.p_p[..., :, None] * ls.v_d) / np.take_along_axis(y_var_rx, col[..., :, None], axis=-2)
    mu_c = scd / y_var_rx[..., :pa.n_cu, :]

    return EstimationCoeffs(
        delta_c=delta_c, eps_c=1.0 - delta_c,
        delta_d=delta_d, eps_d=1.0 - delta_d,
        mu_d=mu_d, eps_dd=1.0 - mu_d,
        mu_c=mu_c, eps_cd=1.0 - mu_c,
        y_var_bs=y_var_bs, y_var_rx=y_var_rx,
    )


def simulate_pilot_phase(real, plan, config, rng=None):
    """Received pilot matrices at the BS and every D2D-Rx, for the sides of
    plan (a receivers.MonteCarloPlan); a side it does not form is None.

    Uses the identity pilot basis, so CU n lands in column n-1 and each
    D2D pilot column is the reuse-matrix sum of its group's signals; noise
    entries are i.i.d. CN(0, N0).  A stack of draws takes a list of
    generators, one per trial, or (T, L) normals whose rows hold at least
    noise_normals(config, plan.sides) each; a row holds its trial's BS
    noise, then its D2D-Rx noise.
    """
    if rng is None:
        rng = substream(config.rng_seed, NOISE)
    z = rng if isinstance(rng, np.ndarray) else normals(rng, noise_normals(config, plan.sides))
    b, m = config.bs_antennas, config.d2drx_antennas
    n, k, tau = config.n_cu, config.n_d2d, config.pilot_len
    n0 = config.noise_power
    o_t = np.swapaxes(plan.o, -1, -2)
    lead = plan.col.shape[:-1]

    y_bs = y_rx = None
    if "cu" in plan.sides:
        y_bs = np.empty(lead + (b, tau), dtype=complex)
        y_bs[..., :n] = plan.pilot_c[..., None, :] * real.h_c
        y_bs[..., n:] = (plan.pilot_d[..., None, :] * real.h_d) @ o_t
        y_bs += np.sqrt(n0) * _cn(z, 0, (b, tau))[0]
    if "d2d" in plan.sides:
        # real.g_c[r, :, a] and real.g_d[r, :, i] scaled by their Rx-r gains
        y_rx = np.empty(lead + (k, m, tau), dtype=complex)
        y_rx[..., :n] = np.swapaxes(plan.pilot_rc, -1, -2)[..., None, :] * real.g_c
        y_rx[..., n:] = (np.swapaxes(plan.pilot_rd, -1, -2)[..., None, :] * real.g_d) @ o_t[..., None, :, :]
        y_rx += np.sqrt(n0) * _cn(z, 2 * b * tau, (k, m, tau))[0]

    return PilotObservation(y_bs=y_bs, y_rx=y_rx)


def mmse_estimate(obs, plan, config):
    """Linear MMSE estimates of every channel of plan's sides from the pilot
    observations; a side it does not form is None.

    Each D2D estimate is its pilot's observation column scaled by a
    per-link coefficient, so estimates of same-pilot channels at a common
    receiver are exactly collinear.
    """
    n = config.n_cu
    h_c = h_d = g_c = g_d = None
    if "cu" in plan.sides:
        h_c = plan.mmse_c[..., None, :] * obs.y_bs[..., :n]
        h_d = plan.mmse_d[..., None, :] * np.take_along_axis(obs.y_bs, plan.col[..., None, :], axis=-1)
    if "d2d" in plan.sides:
        g_c = np.swapaxes(plan.mmse_rc, -1, -2)[..., None, :] * obs.y_rx[..., :n]
        # mmse_rd[i, r] scales Rx r's observation column of pair i's pilot
        g_d = (np.swapaxes(plan.mmse_rd, -1, -2)[..., None, :]
               * np.take_along_axis(obs.y_rx, plan.col[..., None, None, :], axis=-1))

    return EstimatedChannels(h_c=h_c, h_d=h_d, g_d=g_d, g_c=g_c)
