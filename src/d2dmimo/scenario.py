"""Scenario generation: cell geometry and large-scale link gains.

Conventions used throughout the package:
  * all powers are linear milliwatts (helpers below convert from dBm),
  * all distances are meters,
  * large-scale gains are unitless linear power gains,
  * randomness is derived from one root seed via purpose-keyed substreams
    so each stage (topology, shadowing, fading, noise) can be re-run
    independently and deterministically.

The analytic layers (large-scale gains here, then pilot scheduling,
estimation coefficients, cancellation choice and rate bounds) accept an
optional leading trial axis: a Topology or LargeScale whose arrays are
(T, ...) describes T same-size draws, and every layer computes each draw's
values in the order it would alone, so a stack of one has the bits of the
unstacked call.  stack[t] is draw t on its own; TrialAxis.stack builds a
stack from single draws.  Topologies are still drawn one at a time, each
from its own substream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# substream purposes
TOPOLOGY, SHADOWING, FADING, NOISE, TRIAL, RANDOM_PILOTS = 0, 1, 2, 3, 4, 5


def db_to_lin(db):
    """dB -> linear ratio."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def dbm_to_mw(dbm):
    """dBm -> milliwatts."""
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def substream(seed, *key):
    """Independent generator keyed by (seed, purpose, ...)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def _is_int(value):
    """Python or numpy integer, bools excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """Finite Python or numpy real number (as a float), bools excluded."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def trial_seed(root_seed, trial):
    """64-bit child seed for one Monte Carlo trial, independent of sweep value."""
    ss = np.random.SeedSequence(root_seed, spawn_key=(TRIAL, int(trial)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SystemConfig:
    """All scalar system parameters.

    Defaults give the desk-scale working point: a 1000 m square cell,
    5 cellular users, 20 D2D pairs, 128 BS antennas, 8 D2D-Rx antennas,
    17 dBm power caps, -100 dBm noise, and a 5 dB cellular SINR target.

    Construction checks every field, and a config cannot change afterwards:
    dataclasses.replace builds and checks a new one.
    """

    n_cu: int = 5                 # N, cellular users
    n_d2d: int = 20               # K, D2D pairs
    bs_antennas: int = 128        # B
    d2drx_antennas: int = 8       # M
    pilot_len: int = 10           # tau, symbols == number of pilots
    coherence_len: int = 50       # T, symbols per fading block
    noise_power: float = 1e-10    # N0 mW (-100 dBm)
    max_power_cu: float = dbm_to_mw(17.0).item()   # Q_n mW
    max_power_d2d: float = dbm_to_mw(17.0).item()  # P_k mW
    sinr_target: float = db_to_lin(5.0).item()     # gamma_n, linear
    pzf_bs: tuple = (4, 5)        # (b_c, b_d) cancelled at BS
    pzf_d2d: tuple = (1, 2)       # (m_c, m_d) cancelled at each D2D-Rx
    cell_side: float = 1000.0     # m
    d2d_max_dist: float = 100.0   # D_max m
    pathloss_exp: float = 3.7
    shadow_sigma_db: float = 8.0
    min_dist: float = 1.0         # m, clamp against the d->0 singularity
    tol_power: float = 1e-3       # rho
    tol_wmmse: float = 1e-3       # rho_1
    rng_seed: int = 12345

    def __post_init__(self):
        for name in ("pzf_bs", "pzf_d2d"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"{name} must be a list of two integers (got {pair!r})")
        for name in ("n_cu", "n_d2d", "bs_antennas", "d2drx_antennas", "pilot_len", "coherence_len"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer (got {getattr(self, name)!r})")
        for name in ("pzf_bs", "pzf_d2d"):
            if not all(_is_int(x) for x in getattr(self, name)):
                raise ValueError(f"{name} entries must be integers (got {list(getattr(self, name))!r})")
        n, k, b, m = self.n_cu, self.n_d2d, self.bs_antennas, self.d2drx_antennas
        tau, t = self.pilot_len, self.coherence_len
        if min(n, k, b, m) < 1:
            raise ValueError("n_cu, n_d2d, bs_antennas, d2drx_antennas must all be >= 1")
        if t < tau:
            raise ValueError(f"coherence_len must be >= pilot_len (got T={t} < tau={tau})")
        if not (n < tau <= n + k):
            raise ValueError(f"pilot_len must satisfy n_cu < pilot_len <= n_cu + n_d2d (got tau={tau}, N={n}, K={k})")
        bc, bd = self.pzf_bs
        if bc < 0 or bc > n - 1:
            raise ValueError(f"pzf_bs[0] must satisfy 0 <= b_c <= N-1 (got b_c={bc}, N={n})")
        if bd < 0 or bd > tau - n:
            raise ValueError(f"pzf_bs[1] must satisfy 0 <= b_d <= tau-N (got b_d={bd}, tau-N={tau - n})")
        if bc + bd > b - 1:
            raise ValueError(f"pzf_bs must satisfy b_c+b_d <= B-1 (got {bc}+{bd} > {b - 1})")
        mc, md = self.pzf_d2d
        if mc < 0 or mc > n:
            raise ValueError(f"pzf_d2d[0] must satisfy 0 <= m_c <= N (got m_c={mc}, N={n})")
        if md < 0 or md > tau - n - 1:
            raise ValueError(f"pzf_d2d[1] must satisfy 0 <= m_d <= tau-N-1 (got m_d={md}, tau-N-1={tau - n - 1})")
        if mc + md > m - 1:
            raise ValueError(f"pzf_d2d must satisfy m_c+m_d <= M-1 (got {mc}+{md} > {m - 1})")
        for name in ("noise_power", "max_power_cu", "max_power_d2d", "sinr_target", "cell_side",
                     "d2d_max_dist", "pathloss_exp", "shadow_sigma_db", "min_dist", "tol_power",
                     "tol_wmmse"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real number (got {getattr(self, name)!r})")
        for name in ("noise_power", "max_power_cu", "max_power_d2d", "sinr_target",
                     "cell_side", "d2d_max_dist", "min_dist"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.tol_power <= 0 or self.tol_wmmse <= 0:
            raise ValueError("tol_power and tol_wmmse must be strictly positive")
        if self.shadow_sigma_db < 0:
            raise ValueError(f"shadow_sigma_db must be >= 0 (got {self.shadow_sigma_db!r})")
        if self.min_dist > self.d2d_max_dist:
            raise ValueError(f"min_dist must be <= d2d_max_dist (got {self.min_dist!r} > {self.d2d_max_dist!r})")
        seed = self.rng_seed
        if not _is_int(seed) or seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer (got {seed!r})")
        object.__setattr__(self, "pzf_bs", tuple(int(x) for x in self.pzf_bs))
        object.__setattr__(self, "pzf_d2d", tuple(int(x) for x in self.pzf_d2d))

    def to_dict(self):
        # every field is a scalar or a tuple of ints, so a shallow copy is a
        # plain dict of values, without dataclasses.asdict's deep copies
        d = dict(vars(self))
        d["pzf_bs"] = list(self.pzf_bs)
        d["pzf_d2d"] = list(self.pzf_d2d)
        return d

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**d)


class TrialAxis:
    """Mixin of the dataclasses whose array fields may carry a leading trial
    axis.  stack[t] is trial t alone (stack[None] makes a stack of one) and
    cls.stack(items) stacks same-size instances; fields that are not arrays
    are shared by every trial."""

    def __getitem__(self, t):
        out = object.__new__(type(self))
        out.__dict__.update((name, value[t] if isinstance(value, np.ndarray) else value)
                            for name, value in self.__dict__.items())
        return out

    @classmethod
    def stack(cls, items):
        return cls(**{name: np.array([getattr(i, name) for i in items]) if isinstance(value, np.ndarray)
                      else value for name, value in vars(items[0]).items()})


@dataclass
class Topology(TrialAxis):
    """Positions in meters inside the cell square; (T, ...) for a stack."""

    bs_pos: np.ndarray       # (2,)
    cu_pos: np.ndarray       # (N, 2)
    d2d_tx_pos: np.ndarray   # (K, 2)
    d2d_rx_pos: np.ndarray   # (K, 2)


@dataclass
class LargeScale(TrialAxis):
    """Large-scale link gains (path loss x shadowing), linear power units.

    v_c[n, k] is the gain CU n -> D2D-Rx k; v_d[i, k] is D2D-Tx i -> D2D-Rx k,
    so the diagonal of v_d holds each pair's own link.  A stack of T draws
    has a leading trial axis on every field.
    """

    u_c: np.ndarray   # (N,)  CU -> BS
    u_d: np.ndarray   # (K,)  D2D-Tx -> BS
    v_c: np.ndarray   # (N, K)
    v_d: np.ndarray   # (K, K)

    def __post_init__(self):
        for name in ("u_c", "u_d", "v_c", "v_d"):
            a = getattr(self, name)
            if not np.all(np.isfinite(a)) or np.any(a <= 0):
                raise ValueError(f"{name} entries must be strictly positive and finite")


# The SystemConfig fields generate_topology and compute_large_scale read:
# configs that agree on them draw the same Topology and LargeScale.
DRAW_FIELDS = ("cell_side", "n_cu", "n_d2d", "min_dist", "d2d_max_dist", "shadow_sigma_db",
               "pathloss_exp", "rng_seed")

# The SystemConfig fields the schedule layers read (psa, PowerProfile.max_power,
# group_powers, estimation_coeffs, select_cancellation and monte_carlo_plan):
# configs that agree on them schedule, estimate and cancel alike on the same gains.
SCHEDULE_FIELDS = ("n_cu", "n_d2d", "pilot_len", "max_power_cu", "max_power_d2d", "noise_power",
                   "pzf_bs", "pzf_d2d")


def generate_topology(config, rng=None):
    """Drop the BS at the cell center, users uniformly in the square.

    Each D2D-Rx is placed at uniform distance in [min_dist, d2d_max_dist]
    and uniform angle from its Tx; placements falling outside the square
    are rejected and redrawn (fresh distance and angle each attempt).
    Attempts are drawn K at a time as (distance, angle) rows, and each pair
    takes the first in-cell attempt after the previous pair's, so the draws
    and positions are those of trying one attempt at a time, pair by pair.
    """
    if rng is None:
        rng = substream(config.rng_seed, TOPOLOGY)
    side, k = config.cell_side, config.n_d2d
    bs = np.array([side / 2.0, side / 2.0])
    cu = rng.uniform(0.0, side, size=(config.n_cu, 2))
    tx = rng.uniform(0.0, side, size=(k, 2))
    rx = np.empty_like(tx)
    low, high = [config.min_dist, 0.0], [config.d2d_max_dist, 2.0 * np.pi]
    pair, first, base = 0, 0, 0   # next pair to place, its first attempt, block start
    while pair < k:
        d, ang = rng.uniform(low, high, size=(k, 2)).T
        # cand[a, i]: attempt base + a applied to pair i
        cand = tx + (d[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1))[:, None, :]
        inside = np.all((cand >= 0.0) & (cand <= side), axis=2).T.tolist()
        placed, taken = [], []
        while pair < k:
            a, row = max(first - base, 0), inside[pair]
            while a < k and not row[a]:
                a += 1
            if a == k or base + a - first >= 10000:
                break
            placed.append(pair)
            taken.append(a)
            pair, first = pair + 1, base + a + 1
        rx[placed] = cand[taken, placed]
        base += k
        if pair < k and base - first >= 10000:
            raise RuntimeError(f"could not place D2D-Rx {pair} inside the cell after 10000 draws")
    return Topology(bs_pos=bs, cu_pos=cu, d2d_tx_pos=tx, d2d_rx_pos=rx)


def compute_large_scale(topology, config, rng=None):
    """Path-loss/shadowing gains for every link; shadowing i.i.d. per link.

    A draw's shadowing is one normal draw over its links in the order
    u_c, u_d, v_c, v_d (row-major).  A stacked topology takes a list of
    generators in rng, one per trial, each drawing its trial's shadowing.
    """
    if rng is None:
        rng = substream(config.rng_seed, SHADOWING)
    n, k = config.n_cu, config.n_d2d
    lead = topology.cu_pos.shape[:-2]
    bs = topology.bs_pos[..., None, :]
    cu, tx, rx = topology.cu_pos, topology.d2d_tx_pos, topology.d2d_rx_pos
    # CU n and Tx i to the BS, then (N, K) CU n to Rx k and (K, K) Tx i to Rx k
    dist = np.concatenate([
        np.linalg.norm(cu - bs, axis=-1),
        np.linalg.norm(tx - bs, axis=-1),
        np.linalg.norm(cu[..., :, None, :] - rx[..., None, :, :], axis=-1).reshape(lead + (n * k,)),
        np.linalg.norm(tx[..., :, None, :] - rx[..., None, :, :], axis=-1).reshape(lead + (k * k,)),
    ], axis=-1)
    shadow_db = np.array([g.normal(0.0, config.shadow_sigma_db, dist.shape[-1])
                          for g in (rng if lead else [rng])]).reshape(dist.shape)
    gain = np.maximum(dist, config.min_dist) ** (-config.pathloss_exp) * 10.0 ** (shadow_db / 10.0)
    return LargeScale(
        u_c=gain[..., :n],
        u_d=gain[..., n:n + k],
        v_c=gain[..., n + k:n + k + n * k].reshape(lead + (n, k)),
        v_d=gain[..., n + k + n * k:].reshape(lead + (k, k)),
    )
