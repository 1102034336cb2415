"""Builders and comparisons shared by the test modules."""
import numpy as np

from d2dmimo.channel import PilotAssignment
from d2dmimo.scenario import LargeScale, SystemConfig


def small_config(**kw):
    base = dict(n_cu=3, n_d2d=6, bs_antennas=16, d2drx_antennas=4,
                pilot_len=6, coherence_len=40, pzf_bs=(1, 2), pzf_d2d=(1, 1),
                rng_seed=7)
    base.update(kw)
    return SystemConfig(**base)


def make_ls(rng, n, k):
    return LargeScale(
        u_c=rng.uniform(0.1, 2.0, n),
        u_d=rng.uniform(0.1, 2.0, k),
        v_c=rng.uniform(0.1, 2.0, (n, k)),
        v_d=rng.uniform(0.1, 2.0, (k, k)),
    )


def assignment(pilot_of, n_cu=3, pilot_len=6):
    return PilotAssignment(pilot_of=np.array(pilot_of), n_cu=n_cu, pilot_len=pilot_len)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
