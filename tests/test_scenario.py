from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dmimo.scenario import (SystemConfig, Topology, generate_topology,
                              compute_large_scale, substream, dbm_to_mw, SHADOWING)
from helpers import small_config


def test_same_seed_identical_topology_and_gains():
    cfg = small_config()
    t1, t2 = generate_topology(cfg), generate_topology(cfg)
    for f in ("bs_pos", "cu_pos", "d2d_tx_pos", "d2d_rx_pos"):
        assert np.array_equal(getattr(t1, f), getattr(t2, f))
    l1 = compute_large_scale(t1, cfg)
    l2 = compute_large_scale(t2, cfg)
    for f in ("u_c", "u_d", "v_c", "v_d"):
        assert np.array_equal(getattr(l1, f), getattr(l2, f))


def test_pair_distance_window_and_cell_bounds():
    cfg = SystemConfig(rng_seed=3)
    topo = generate_topology(cfg)
    d = np.linalg.norm(topo.d2d_tx_pos - topo.d2d_rx_pos, axis=1)
    assert np.all(d >= cfg.min_dist) and np.all(d <= cfg.d2d_max_dist)
    for pos in (topo.cu_pos, topo.d2d_tx_pos, topo.d2d_rx_pos):
        assert pos.min() >= 0.0 and pos.max() <= cfg.cell_side
    assert cfg.cell_side == 1000.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rx_always_inside_cell(seed):
    cfg = small_config(rng_seed=seed, d2d_max_dist=400.0, cell_side=500.0)
    topo = generate_topology(cfg)
    assert topo.d2d_rx_pos.min() >= 0.0
    assert topo.d2d_rx_pos.max() <= cfg.cell_side
    d = np.linalg.norm(topo.d2d_tx_pos - topo.d2d_rx_pos, axis=1)
    assert np.all(d <= cfg.d2d_max_dist + 1e-9)


def test_pure_power_law_without_shadowing():
    cfg = small_config(shadow_sigma_db=1e-30)
    # two CUs at distances d and 2d from the BS, one at the reference distance
    topo = Topology(
        bs_pos=np.array([0.0, 0.0]),
        cu_pos=np.array([[10.0, 0.0], [20.0, 0.0], [1.0, 0.0]]),
        d2d_tx_pos=np.tile([5.0, 5.0], (cfg.n_d2d, 1)),
        d2d_rx_pos=np.tile([5.0, 6.0], (cfg.n_d2d, 1)),
    )
    ls = compute_large_scale(topo, cfg)
    assert ls.u_c[1] / ls.u_c[0] == pytest.approx(2.0 ** (-cfg.pathloss_exp), rel=1e-9)
    assert ls.u_c[2] == pytest.approx(1.0, rel=1e-9)


def test_shadowing_zero_mean_in_db():
    # frozen statistical check: 1e5 links, sample mean of the shadowing term
    n = 100_000
    cfg = small_config(n_cu=n, n_d2d=1, pilot_len=n + 1, coherence_len=n + 2,
                       pzf_bs=(0, 0), pzf_d2d=(0, 0), rng_seed=11)
    topo = Topology(
        bs_pos=np.array([0.0, 0.0]),
        cu_pos=np.column_stack([np.full(n, 37.0), np.zeros(n)]),
        d2d_tx_pos=np.tile([5.0, 5.0], (cfg.n_d2d, 1)),
        d2d_rx_pos=np.tile([5.0, 6.0], (cfg.n_d2d, 1)),
    )
    ls = compute_large_scale(topo, cfg)
    shadow_db = 10.0 * np.log10(ls.u_c * 37.0 ** cfg.pathloss_exp)
    assert abs(shadow_db.mean()) < 0.1
    assert shadow_db.std() == pytest.approx(cfg.shadow_sigma_db, rel=0.02)


def test_min_dist_clamp():
    cfg = small_config(shadow_sigma_db=1e-30, min_dist=2.0)
    topo = Topology(
        bs_pos=np.array([0.0, 0.0]),
        cu_pos=np.array([[0.5, 0.0], [2.0, 0.0], [3.0, 0.0]]),
        d2d_tx_pos=np.tile([5.0, 5.0], (cfg.n_d2d, 1)),
        d2d_rx_pos=np.tile([5.0, 6.0], (cfg.n_d2d, 1)),
    )
    ls = compute_large_scale(topo, cfg)
    assert ls.u_c[0] == pytest.approx(ls.u_c[1], rel=1e-12)
    assert ls.u_c[2] < ls.u_c[1]


def test_all_gains_positive_and_finite():
    cfg = SystemConfig(rng_seed=5)
    ls = compute_large_scale(generate_topology(cfg), cfg)
    for f in ("u_c", "u_d", "v_c", "v_d"):
        a = getattr(ls, f)
        assert np.all(a > 0) and np.all(np.isfinite(a))


@pytest.mark.parametrize("field,value,fragment", [
    ("pilot_len", 3, "pilot_len"),
    ("pilot_len", 10, "pilot_len"),           # > N + K
    ("coherence_len", 4, "coherence_len"),
    ("pzf_bs", (3, 2), "b_c"),
    ("pzf_bs", (1, 4), "b_d"),
    ("pzf_d2d", (1, 3), "m_d"),
    ("pzf_d2d", (4, 0), "m_c"),
    ("pzf_d2d", (2, 2), "m_c+m_d"),
    ("noise_power", 0.0, "noise_power"),
    ("sinr_target", -1.0, "sinr_target"),
    ("rng_seed", -3, "rng_seed"),
    ("rng_seed", 1.5, "rng_seed"),
    ("rng_seed", True, "rng_seed"),
    ("n_d2d", 20.5, "n_d2d"),
    ("n_cu", 3.0, "n_cu"),
    ("bs_antennas", 64.5, "bs_antennas"),
    ("d2drx_antennas", True, "d2drx_antennas"),
    ("pilot_len", 6.0, "pilot_len"),
    ("coherence_len", "40", "coherence_len"),
    ("pzf_bs", (2.9, 1), "pzf_bs"),
    ("pzf_d2d", (1, False), "pzf_d2d"),
    ("sinr_target", float("nan"), "sinr_target"),
    ("noise_power", float("inf"), "noise_power"),
    ("max_power_cu", float("-inf"), "max_power_cu"),
    ("pathloss_exp", float("nan"), "pathloss_exp"),
    ("cell_side", True, "cell_side"),
    ("cell_side", 10 ** 400, "cell_side"),
    ("tol_wmmse", "1e-3", "tol_wmmse"),
    ("shadow_sigma_db", -3.0, "shadow_sigma_db"),
    ("min_dist", 150.0, "min_dist"),                 # > d2d_max_dist
])
def test_config_invariants_rejected(field, value, fragment):
    with pytest.raises(ValueError, match=fragment.replace("+", r"\+")):
        small_config(**{field: value})


def test_a_config_cannot_change_once_validated():
    cfg = small_config()
    with pytest.raises(FrozenInstanceError):
        cfg.pzf_bs = (3, 2)
    assert cfg == small_config()


def test_replace_validates_the_new_config():
    cfg = small_config()
    with pytest.raises(ValueError, match="b_c"):
        replace(cfg, pzf_bs=(3, 2))
    assert replace(cfg, pzf_bs=[2, 1]).pzf_bs == (2, 1)   # and stores the pair as a tuple


def test_largest_trial_seed_is_a_valid_root_seed():
    assert small_config(rng_seed=2**64 - 1).rng_seed == 2**64 - 1


@given(n=st.integers(1, 6), k=st.integers(1, 8), extra=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_pilot_window_accepts_valid_range(n, k, extra):
    tau = n + min(extra, k)
    cfg = SystemConfig(n_cu=n, n_d2d=k, bs_antennas=8, d2drx_antennas=4,
                       pilot_len=tau, coherence_len=tau + 5,
                       pzf_bs=(0, 0), pzf_d2d=(0, 0), rng_seed=1)
    assert cfg.pilot_len == tau


def test_substreams_are_independent_of_each_other():
    a = substream(99, SHADOWING).standard_normal(4)
    b = substream(99, SHADOWING).standard_normal(4)
    c = substream(99, SHADOWING + 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dbm_conversion_roundtrip():
    assert dbm_to_mw(17.0) == pytest.approx(50.11872336, rel=1e-8)


def test_unknown_config_field_rejected():
    with pytest.raises(ValueError, match="unknown config fields"):
        SystemConfig.from_dict({"n_cu": 2, "bogus": 1})


# every SystemConfig field off its default
OFF_DEFAULT = dict(n_cu=3, n_d2d=6, bs_antennas=32, d2drx_antennas=4, pilot_len=6, coherence_len=40,
                   noise_power=2e-10, max_power_cu=20.0, max_power_d2d=30.0, sinr_target=0.5,
                   pzf_bs=(2, 1), pzf_d2d=(1, 1), cell_side=500.0, d2d_max_dist=50.0, pathloss_exp=3.0,
                   shadow_sigma_db=6.0, min_dist=2.0, tol_power=1e-4, tol_wmmse=1e-4, rng_seed=7)


@pytest.mark.parametrize("kw", [{}, OFF_DEFAULT], ids=["defaults", "off default"])
def test_to_dict_is_the_asdict_form(kw):
    cfg = SystemConfig(**kw)
    if kw:
        assert set(kw) == {f.name for f in fields(SystemConfig)}
        assert all(getattr(cfg, name) != getattr(SystemConfig(), name) for name in kw)
    want = asdict(cfg)
    want.update(pzf_bs=list(cfg.pzf_bs), pzf_d2d=list(cfg.pzf_d2d))
    d = cfg.to_dict()
    assert d == want and list(d) == list(want)
    d["n_cu"] = 99   # a copy: callers edit it to build swept configs
    assert cfg.n_cu == SystemConfig(**kw).n_cu
    assert SystemConfig.from_dict(cfg.to_dict()) == cfg
