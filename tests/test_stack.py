"""The analytic and Monte Carlo layers on a leading trial axis: every draw
of a stack gets the bits it gets alone, and the blocked D2D-Rx placement
draws what the one-attempt-at-a-time loop drew."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from d2dmimo import harness
from d2dmimo.scenario import (SystemConfig, Topology, LargeScale, generate_topology,
                              compute_large_scale, substream, trial_seed, FADING, NOISE, SHADOWING,
                              TOPOLOGY)
from d2dmimo.channel import (SIDES, PilotAssignment, PowerProfile, group_powers, estimation_coeffs,
                             draw_fast_fading, simulate_pilot_phase, mmse_estimate, fading_normals,
                             noise_normals, normals)
from d2dmimo.pilot_scheduling import exhaustive_search, interference_metric, psa, random_assignment, sum_mse
from d2dmimo.power_control import cellular_power_budget
from d2dmimo.receivers import (DegenerateSpanError, select_cancellation, rate_coeffs, bound_sinrs,
                               rate_lower_bounds, sigma_c_of, sigma_d_of, pzf_filter,
                               cell_sinr_terms, d2d_sinr_terms, monte_carlo_plan)
from d2dmimo.harness import (ExperimentSpec, _chunk_bounds_mc, _mc_rates, _scenario_pipeline,
                             _stack_size, apply_sweep, run_experiment)
from helpers import same_bits


def reference_generate_topology(config, rng=None):
    """The scalar placement loop the blocked one replaced, verbatim."""
    if rng is None:
        rng = substream(config.rng_seed, TOPOLOGY)
    side = config.cell_side
    bs = np.array([side / 2.0, side / 2.0])
    cu = rng.uniform(0.0, side, size=(config.n_cu, 2))
    tx = rng.uniform(0.0, side, size=(config.n_d2d, 2))
    rx = np.empty_like(tx)
    for k in range(config.n_d2d):
        for _ in range(10000):
            d = rng.uniform(config.min_dist, config.d2d_max_dist)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            cand = tx[k] + d * np.array([np.cos(ang), np.sin(ang)])
            if 0.0 <= cand[0] <= side and 0.0 <= cand[1] <= side:
                rx[k] = cand
                break
        else:
            raise RuntimeError(f"could not place D2D-Rx {k} inside the cell after 10000 draws")
    return Topology(bs_pos=bs, cu_pos=cu, d2d_tx_pos=tx, d2d_rx_pos=rx)


class CountingRng:
    """Generator proxy counting uniform() calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs)


def trial_rows(point):
    """A point's columns, {metric: the trials' values}, as one {metric:
    value} per trial."""
    return [dict(zip(point, values)) for values in zip(*point.values())]


def same_fields(stacked, alone):
    return all(same_bits(getattr(stacked, name), value)
               for name, value in vars(alone).items() if isinstance(value, np.ndarray))


def same_layout(stacked, alone):
    """Same bits and the same memory layout (strides) as alone, field by field."""
    if isinstance(alone, np.ndarray):
        return same_bits(stacked, alone) and stacked.strides == alone.strides
    return same_fields(stacked, alone) and all(
        getattr(stacked, name).strides == value.strides for name, value in vars(alone).items())


# (K=1), (zero PZF budgets, K below the pilot count), (placement with rejections)
CONFIGS = {
    "one pair": dict(n_cu=1, n_d2d=1, bs_antennas=8, d2drx_antennas=4, pilot_len=2,
                     pzf_bs=(0, 1), pzf_d2d=(0, 0)),
    "zero budgets": dict(n_cu=3, n_d2d=6, bs_antennas=16, d2drx_antennas=4, pilot_len=9,
                         pzf_bs=(0, 0), pzf_d2d=(0, 0)),
    "rejections": dict(n_cu=5, n_d2d=20, pilot_len=10, d2d_max_dist=600.0),
}


def trial_configs(name, trials=12, configs=CONFIGS):
    """Each trial's own config, carrying its trial seed of root seed 21."""
    return [SystemConfig(**configs[name], rng_seed=trial_seed(21, t)) for t in range(trials)]


def point_stack(cfgs):
    """The trials cfgs as the harness runs them: one point config carrying
    the root seed, the trial seeds, and the trials' large-scale gains."""
    cfg, seeds = replace(cfgs[0], rng_seed=21), [c.rng_seed for c in cfgs]
    return cfg, seeds, harness._large_scale(cfg, seeds)


def mixed_stack(cfgs):
    """A stack whose even trials take PSA pilots and odd trials random ones
    (these leave pilots empty when K is below the pilot count)."""
    cfg, _, ls = point_stack(cfgs)
    pa = psa(ls, cfg)
    pa = PilotAssignment.stack([pa[t] if t % 2 == 0 else random_assignment(cfg)
                                for t, cfg in enumerate(cfgs)])
    pp = PowerProfile.stack([PowerProfile.max_power(cfg) for cfg in cfgs])
    return ls, pa, pp


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestStackedLayers:
    def test_large_scale_and_psa(self, name):
        cfgs = trial_configs(name)
        cfg, _, ls = point_stack(cfgs)
        pa = next(_scenario_pipeline([cfg], ls))[0]
        chi = interference_metric(ls)
        for t, cfg in enumerate(cfgs):
            alone = compute_large_scale(generate_topology(cfg), cfg)
            assert same_fields(ls[t], alone)
            assert same_bits(chi[t], interference_metric(alone))
            assert same_bits(pa.pilot_of[t], psa(alone, cfg).pilot_of)
            assert same_bits(pa.to_matrix()[t], psa(alone, cfg).to_matrix())

    def test_coefficients_cancellation_and_bounds(self, name):
        cfgs = trial_configs(name)
        cfg = cfgs[0]
        ls, pa, pp = mixed_stack(cfgs)
        if name == "zero budgets":
            assert (pa.to_matrix().sum(axis=-1) == 0).any()   # some pilot is empty
        den = group_powers(ls, pa, pp.p_p)
        coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        assert {"y_var_bs", "y_var_rx"} <= {f for f, v in vars(coeffs).items() if isinstance(v, np.ndarray)}
        sets = select_cancellation(ls, pa, cfg)
        rc = rate_coeffs(ls, pa, coeffs, sets, pp, cfg)
        etas = bound_sinrs(rc, pp.q_s, pp.p_s)
        rates = rate_lower_bounds(rc, pp, cfg)
        sums = [r.sum(axis=-1) for r in rates]
        for t in range(len(cfgs)):
            ls_t, pa_t, pp_t = ls[t], pa[t], pp[t]
            alone = {}
            alone["den"] = group_powers(ls_t, pa_t, pp_t.p_p)
            alone["coeffs"] = estimation_coeffs(ls_t, pa_t, pp_t, cfg.noise_power)
            alone["sets"] = select_cancellation(ls_t, pa_t, cfg)
            alone["rc"] = rate_coeffs(ls_t, pa_t, alone["coeffs"], alone["sets"], pp_t, cfg)
            assert all(same_bits(a[t], b) for a, b in zip(den, alone["den"]))
            assert same_fields(coeffs[t], alone["coeffs"])   # the column powers among them
            assert same_fields(sets[t], alone["sets"])
            n = cfg.n_cu
            for mask, want in ((sets.bs_kept_cu(n), alone["sets"].bs_kept_cu(n)),
                               (sets.bs_kept_pairs(pa), alone["sets"].bs_kept_pairs(pa_t)),
                               (sets.rx_kept_cu(n), alone["sets"].rx_kept_cu(n)),
                               (sets.rx_kept_pairs(pa), alone["sets"].rx_kept_pairs(pa_t))):
                assert same_bits(mask[t], want)
            assert same_fields(rc[t], alone["rc"])
            assert same_bits(sigma_c_of(rc, pp.p_s)[t], sigma_c_of(alone["rc"], pp_t.p_s))
            assert same_bits(sigma_d_of(rc, pp.q_s)[t], sigma_d_of(alone["rc"], pp_t.q_s))
            assert same_bits(cellular_power_budget(rc, pp.q_s, cfg.sinr_target)[t],
                             cellular_power_budget(alone["rc"], pp_t.q_s, cfg.sinr_target))
            assert all(same_bits(e[t], a) for e, a in zip(etas, bound_sinrs(alone["rc"], pp_t.q_s, pp_t.p_s)))
            rates_t = rate_lower_bounds(alone["rc"], pp_t, cfg)
            assert all(same_bits(r[t], a) for r, a in zip(rates, rates_t))
            assert all(same_bits(s[t], a.sum()) for s, a in zip(sums, rates_t))

    def test_stack_of_one_is_the_unstacked_call(self, name):
        cfg = trial_configs(name, trials=1)[0]
        ls = compute_large_scale(generate_topology(cfg), cfg)
        one = compute_large_scale(generate_topology(cfg)[None], cfg, [substream(cfg.rng_seed, SHADOWING)])
        assert same_fields(one[0], ls)
        pa, pp = psa(ls, cfg), PowerProfile.max_power(cfg)
        assert same_bits(psa(one, cfg).pilot_of[0], pa.pilot_of)
        coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        assert same_fields(estimation_coeffs(one, pa[None], pp[None], cfg.noise_power)[0], coeffs)
        sets = select_cancellation(ls, pa, cfg)
        assert same_fields(select_cancellation(one, pa[None], cfg)[0], sets)
        rc = rate_coeffs(ls, pa, coeffs, sets, pp, cfg)
        assert same_fields(rate_coeffs(one, pa[None], coeffs[None], sets[None], pp[None], cfg)[0], rc)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sum_mse_rows_are_single_calls(name):
    cfgs = trial_configs(name)
    cfg = cfgs[0]
    ls, pa, _ = mixed_stack(cfgs)
    trials = sum_mse(ls, pa, cfg)
    # candidate assignments of trial 0's draw: the trials' random ones
    candidates = PilotAssignment.stack([random_assignment(c) for c in cfgs])
    scores = sum_mse(ls[0], candidates, cfg)
    for t in range(len(cfgs)):
        assert same_bits(trials[t], sum_mse(ls[t], pa[t], cfg))
        assert same_bits(scores[t], sum_mse(ls[0], candidates[t], cfg))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mse_floor_is_the_contamination_free_formula(name):
    cfg, seeds, ls = point_stack(trial_configs(name))
    for t, row in enumerate(trial_rows(harness._chunk_mse([cfg], seeds, ["sum_mse_lb"], ls)[0])):
        s = cfg.pilot_len * cfg.max_power_d2d * np.diag(ls.v_d[t])
        want = float(cfg.d2drx_antennas * np.sum(1.0 - s / (s + cfg.noise_power)))
        assert row["sum_mse_lb"].hex() == want.hex()


def test_chunk_mse_draws_each_trials_schedules_from_its_seed():
    # the random and exhaustive-search rows of a chunk at the root seed's
    # point config are those of each trial's own config alone
    cfgs = trial_configs("silent first member", trials=6, configs=MC_CONFIGS)
    cfg, seeds, ls = point_stack(cfgs)
    rows = trial_rows(harness._chunk_mse([cfg], seeds, ["sum_mse_rps", "sum_mse_es"], ls)[0])
    for row, cfg_t in zip(rows, cfgs):
        ls_t = compute_large_scale(generate_topology(cfg_t), cfg_t)
        assert row["sum_mse_rps"].hex() == float(sum_mse(ls_t, random_assignment(cfg_t), cfg_t)).hex()
        assert row["sum_mse_es"].hex() == float(sum_mse(ls_t, exhaustive_search(ls_t, cfg_t), cfg_t)).hex()


def test_stack_round_trip():
    ls = point_stack(trial_configs("zero budgets", trials=3))[2]
    again = LargeScale.stack([ls[t] for t in range(3)])
    assert same_fields(again, ls) and ls.u_c.shape == (3, 3)


@pytest.mark.parametrize("d2d_max_dist", [100.0, 600.0])
def test_blocked_placement_matches_the_scalar_loop(d2d_max_dist):
    rejected = 0
    for seed in range(250):
        cfg = SystemConfig(n_cu=5, n_d2d=20, pilot_len=10, d2d_max_dist=d2d_max_dist, rng_seed=seed)
        rng = CountingRng(substream(seed, TOPOLOGY))
        want = reference_generate_topology(cfg, rng)
        rejected += (rng.calls - 2) // 2 > cfg.n_d2d   # two draws per attempt after CU and Tx drops
        assert same_fields(generate_topology(cfg), want)
    assert rejected > (100 if d2d_max_dist == 600.0 else 0)


def outcome(fn, cfg):
    try:
        return vars(fn(cfg))
    except RuntimeError as exc:
        return str(exc)


def test_unplaceable_config_raises_the_scalar_loops_error():
    cfg = SystemConfig(n_cu=2, n_d2d=3, bs_antennas=8, d2drx_antennas=4, pilot_len=4,
                       pzf_bs=(0, 0), pzf_d2d=(0, 0), cell_side=10.0, min_dist=50.0,
                       d2d_max_dist=60.0)
    assert (outcome(generate_topology, cfg) == outcome(reference_generate_topology, cfg)
            == "could not place D2D-Rx 0 inside the cell after 10000 draws")


def test_placement_failing_at_a_later_pair():
    # 90-95 m from a Tx is inside a 100 m cell only from near a corner
    failed = set()
    for seed in range(12):
        cfg = SystemConfig(n_cu=2, n_d2d=4, bs_antennas=8, d2drx_antennas=4, pilot_len=4,
                           pzf_bs=(0, 0), pzf_d2d=(0, 0), cell_side=100.0, min_dist=90.0,
                           d2d_max_dist=95.0, rng_seed=seed)
        want = outcome(reference_generate_topology, cfg)
        got = outcome(generate_topology, cfg)
        if isinstance(want, str):
            assert got == want
            failed.add(want.split()[4])
        else:
            assert all(same_bits(got[name], value) for name, value in want.items())
    assert failed - {"0"}   # some draw fails after placing pair 0


# Monte Carlo layers.  "K=40" has F-ordered D2D kept-masks (m_d = 2) and
# long i_dd rows; "silent first member" zeroes the pilot power of the first
# member of a cancelled BS group in every even trial.
MC_CONFIGS = {**CONFIGS,
              "K=40": dict(n_cu=5, n_d2d=40, pilot_len=15, bs_antennas=64),
              "silent first member": dict(n_cu=3, n_d2d=6, bs_antennas=16, d2drx_antennas=4,
                                          pilot_len=6, pzf_bs=(1, 2), pzf_d2d=(1, 1))}
MC_METRICS = ("sum_se_cell", "sum_se_cell_lb", "sum_se_d2d", "sum_se_d2d_lb")


def mc_inputs(name, trials):
    """Configs and mixed PSA / random-pilot stack of the analytic inputs."""
    cfgs = trial_configs(name, trials, MC_CONFIGS)
    ls, pa, pp = mixed_stack(cfgs)
    if name == "silent first member":
        sets = select_cancellation(ls, pa, cfgs[0])
        for t in range(0, trials, 2):
            pp.p_p[t, np.flatnonzero(pa.pilot_of[t] == sets.bs_cancel_groups[t, 0])[0]] = 0.0
    coeffs = estimation_coeffs(ls, pa, pp, cfgs[0].noise_power)
    return cfgs, ls, pa, pp, coeffs, select_cancellation(ls, pa, cfgs[0])


def streams(cfgs, purpose, attempt=0):
    return [substream(cfg.rng_seed, purpose, attempt) for cfg in cfgs]


def silent_rows(pp):
    return [t for t in range(len(pp.p_p)) if not pp.p_p[t].all()]


@pytest.mark.parametrize("trials", [1, 6])
@pytest.mark.parametrize("name", sorted(MC_CONFIGS))
def test_monte_carlo_layers(name, trials):
    cfgs, ls, pa, pp, coeffs, sets = mc_inputs(name, trials)
    cfg = cfgs[0]
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    real = draw_fast_fading(cfg, streams(cfgs, FADING))
    obs = simulate_pilot_phase(real, plan, cfg, streams(cfgs, NOISE))
    est = mmse_estimate(obs, plan, cfg)
    beta_cu, cell = pzf_filter(est, plan, "cu"), cell_sinr_terms(est, plan)
    silent = silent_rows(pp)
    if silent:   # a silent pair's own D2D target is zero
        with pytest.raises(DegenerateSpanError) as err:
            pzf_filter(est, plan, "d2d")
        assert err.value.rows == silent
    else:
        beta_d2d, d2d = pzf_filter(est, plan, "d2d"), d2d_sinr_terms(est, plan)
    for t, cfg_t in enumerate(cfgs):
        plan_t = monte_carlo_plan(ls[t], pa[t], pp[t], coeffs[t], sets[t], cfg_t.noise_power)
        real_t = draw_fast_fading(cfg_t, substream(cfg_t.rng_seed, FADING, 0))
        obs_t = simulate_pilot_phase(real_t, plan_t, cfg_t, substream(cfg_t.rng_seed, NOISE, 0))
        est_t = mmse_estimate(obs_t, plan_t, cfg_t)
        assert same_layout(real[t], real_t)
        assert same_layout(obs[t], obs_t)
        assert same_layout(est[t], est_t)
        assert same_bits(beta_cu[t], pzf_filter(est_t, plan_t, "cu"))
        assert same_fields(cell[t], cell_sinr_terms(est_t, plan_t))
        if t in silent:
            with pytest.raises(DegenerateSpanError):
                pzf_filter(est_t, plan_t, "d2d")
        elif not silent:
            assert same_bits(beta_d2d[t], pzf_filter(est_t, plan_t, "d2d"))
            assert same_fields(d2d[t], d2d_sinr_terms(est_t, plan_t))


def same_plan(got, want):
    """Same sides, the same fields left out, and the others with the same
    bits and, except the integer index arrays, the same memory layout (an
    index array's layout reaches only the columns it gathers for a QR,
    which copies them)."""
    def same(a, b):
        return same_bits(a, b) if b.dtype.kind == "i" else same_layout(a, b)
    return got.sides == want.sides and all(
        value is None if getattr(want, name) is None else same(value, getattr(want, name))
        for name, value in vars(got).items() if name != "sides")


@pytest.mark.parametrize("sides", [("cu", "d2d"), ("cu",), ("d2d",)])
@pytest.mark.parametrize("name", sorted(MC_CONFIGS))
def test_plan_rows_are_the_plan_of_those_rows(name, sides):
    # a contiguous run (a view), scattered rows (a copy) and single rows
    cfgs, ls, pa, pp, coeffs, sets = mc_inputs(name, 6)
    n0 = cfgs[0].noise_power
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, n0, sides)
    # the 11 D2D-Rx terms or the 12 BS terms are left out
    assert sum(value is None for value in vars(plan).values()) == {("cu",): 11, ("d2d",): 12}.get(sides, 0)
    for rows in (np.arange(1, 4), np.array([0, 3, 5])):
        want = monte_carlo_plan(ls[rows], pa[rows], pp[rows], coeffs[rows], sets[rows], n0, sides)
        assert same_plan(harness._take(plan, rows), want)
    for t in range(6):
        assert same_plan(plan[t], monte_carlo_plan(ls[t], pa[t], pp[t], coeffs[t], sets[t], n0, sides))


@pytest.mark.parametrize("name", sorted(MC_CONFIGS))
def test_one_side_has_the_bits_of_both(name):
    # a side formed alone reads a prefix of (the BS) or the same (the
    # D2D-Rxs) normals as both sides and forms the same observations,
    # estimates and SINR terms; the other side's arrays are None
    cfgs, ls, pa, pp, coeffs, sets = mc_inputs(name, 6)
    cfg = cfgs[0]
    assert fading_normals(cfg, ("cu",)) < fading_normals(cfg, ("d2d",)) == fading_normals(cfg)
    assert noise_normals(cfg, ("cu",)) < noise_normals(cfg, ("d2d",)) == noise_normals(cfg)
    both = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    obs = simulate_pilot_phase(draw_fast_fading(cfg, streams(cfgs, FADING)), both, cfg, streams(cfgs, NOISE))
    est = mmse_estimate(obs, both, cfg)
    for side, (y, y_other), (formed, left), terms in (
            ("cu", ("y_bs", "y_rx"), (("h_c", "h_d"), ("g_d", "g_c")), cell_sinr_terms),
            ("d2d", ("y_rx", "y_bs"), (("g_d", "g_c"), ("h_c", "h_d")), d2d_sinr_terms)):
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power, (side,))
        real = draw_fast_fading(cfg, streams(cfgs, FADING), (side,))
        obs_side = simulate_pilot_phase(real, plan, cfg, streams(cfgs, NOISE))
        est_side = mmse_estimate(obs_side, plan, cfg)
        assert same_bits(getattr(obs_side, y), getattr(obs, y)) and getattr(obs_side, y_other) is None
        assert all(same_bits(getattr(est_side, f), getattr(est, f)) for f in formed)
        assert all(getattr(est_side, f) is None for f in left)
        if side == "cu" or not silent_rows(pp):   # a silent pair's D2D target raises
            assert same_fields(terms(est_side, plan), terms(est, both))


def reference_column_powers(ls, pa, pp, n0):
    """[q_p u_c | group powers] + n0 at the BS and [q_p v_c | group powers]
    + n0 at every D2D-Rx."""
    den_bs, den_rx = group_powers(ls, pa, pp.p_p)
    return (np.concatenate([pp.q_p * ls.u_c, den_bs], axis=-1) + n0,
            np.concatenate([pp.q_p[..., :, None] * ls.v_c, den_rx], axis=-2) + n0)


def reference_mmse_scalings(ls, pa, pp, n0):
    """The MMSE scalings straight from group_powers, N0 added after the
    gather: the reference the plan's scalings match bit for bit."""
    den_bs, den_rx = group_powers(ls, pa, pp.p_p)
    group = pa.pilot_of - pa.n_cu - 1
    sc, scd = pp.q_p * ls.u_c, pp.q_p[..., :, None] * ls.v_c
    pilot_c, pilot_d = np.sqrt(sc), np.sqrt(pp.p_p * ls.u_d)
    pilot_rc, pilot_rd = np.sqrt(scd), np.sqrt(pp.p_p[..., :, None] * ls.v_d)
    return {"cu": {"mmse_c": pilot_c / (sc + n0),
                   "mmse_d": pilot_d / (np.take_along_axis(den_bs, group, axis=-1) + n0)},
            "d2d": {"mmse_rc": pilot_rc / (scd + n0),
                    "mmse_rd": pilot_rd / (np.take_along_axis(den_rx, group[..., :, None], axis=-2) + n0)}}


@pytest.mark.parametrize("name", sorted(MC_CONFIGS))
def test_column_powers_are_the_group_powers_plus_noise(name):
    cfgs, ls, pa, pp, coeffs, _ = mc_inputs(name, 6)
    n0 = cfgs[0].noise_power
    want = reference_column_powers(ls, pa, pp, n0)
    assert all(same_bits(got, w) for got, w in zip((coeffs.y_var_bs, coeffs.y_var_rx), want))
    for t in range(6):
        alone = estimation_coeffs(ls[t], pa[t], pp[t], n0)
        want = reference_column_powers(ls[t], pa[t], pp[t], n0)
        assert all(same_bits(got, w) for got, w in zip((alone.y_var_bs, alone.y_var_rx), want))


@pytest.mark.parametrize("sides", [("cu", "d2d"), ("cu",), ("d2d",)])
@pytest.mark.parametrize("name", sorted(MC_CONFIGS))
def test_mmse_scalings_divide_by_the_column_powers(name, sides):
    # the plan's scalings have the bits of the group-power formulas, on the
    # stack and on each row alone
    cfgs, ls, pa, pp, coeffs, sets = mc_inputs(name, 6)
    n0 = cfgs[0].noise_power
    for rows in [slice(None)] + list(range(6)):
        plan = monte_carlo_plan(ls[rows], pa[rows], pp[rows], coeffs[rows], sets[rows], n0, sides)
        for side, scalings in reference_mmse_scalings(ls[rows], pa[rows], pp[rows], n0).items():
            for field, want in scalings.items():
                got = getattr(plan, field)
                assert same_bits(got, want) if side in sides else got is None


def hex_rows(results):
    return [[float(r[m]).hex() for m in MC_METRICS] for r in results]


def set_budgets(monkeypatch, budget):
    """budget 1 runs analytic chunks and Monte Carlo sub-stacks of one trial
    each; harness._STACK_BYTES keeps the shipped budgets."""
    if budget == 1:
        monkeypatch.setattr(harness, "_STACK_BYTES", 1)
        monkeypatch.setattr(harness, "_MC_STACK_BYTES", 1)


def bounds_mc_alone(cfg):
    """One trial's row: a chunk of that trial alone at its own config."""
    return trial_rows(_chunk_bounds_mc([cfg], [cfg.rng_seed], MC_METRICS,
                                       harness._large_scale(cfg, [cfg.rng_seed]))[0])[0]


@pytest.mark.parametrize("budget", [harness._STACK_BYTES, 1])
@pytest.mark.parametrize("name", ["K=40", "one pair", "rejections", "zero budgets"])
def test_chunk_bounds_mc_matches_each_trial_alone(monkeypatch, name, budget):
    set_budgets(monkeypatch, budget)
    cfgs = trial_configs(name, 7, MC_CONFIGS)
    alone = [bounds_mc_alone(cfg) for cfg in cfgs]
    cfg, seeds, ls = point_stack(cfgs)
    assert hex_rows(trial_rows(_chunk_bounds_mc([cfg], seeds, MC_METRICS, ls)[0])) == hex_rows(alone)


def mc_sums_alone(cfg, attempt):
    """The Monte Carlo sum rates of one trial's draw at one attempt, computed
    the way a trial-by-trial loop does."""
    ls = harness._large_scale(cfg, [cfg.rng_seed])
    pa, pp, coeffs, sets, _ = (x[0] for x in next(_scenario_pipeline([cfg], ls)))
    plan = monte_carlo_plan(ls[0], pa, pp, coeffs, sets, cfg.noise_power)
    real = draw_fast_fading(cfg, substream(cfg.rng_seed, FADING, attempt))
    obs = simulate_pilot_phase(real, plan, cfg, substream(cfg.rng_seed, NOISE, attempt))
    est = mmse_estimate(obs, plan, cfg)
    prefactor = 1.0 - cfg.pilot_len / cfg.coherence_len
    return {m: prefactor * float(np.sum(np.log2(1.0 + f(est, plan).sinr)))
            for m, f in (("sum_se_cell", cell_sinr_terms), ("sum_se_d2d", d2d_sinr_terms))}


def degenerate_draws(monkeypatch, seeds, attempts, at=lambda config: True):
    """Test doubles for the harness's fading draw and MMSE estimate: the
    trials with the given seeds get, on the given attempts and at the sweep
    points whose config passes at, a zero estimate of CU 0, whose BS-side
    target then lies in every span.  A row is told by its first normals."""
    heads = {substream(seed, FADING, a).standard_normal(4).tobytes() for seed in seeds for a in attempts}
    marked = []

    def draw(config, rng, sides):
        z = rng if isinstance(rng, np.ndarray) else normals(rng, fading_normals(config, sides))
        marked[:] = [row for row, head in enumerate(z[:, :4]) if at(config) and head.tobytes() in heads]
        return draw_fast_fading(config, z, sides)

    def estimate(*args, **kwargs):
        est = mmse_estimate(*args, **kwargs)
        est.h_c[marked, :, 0] = 0.0
        return est

    monkeypatch.setattr(harness, "draw_fast_fading", draw)
    monkeypatch.setattr(harness, "mmse_estimate", estimate)


def test_degenerate_row_is_redrawn_alone(monkeypatch):
    cfgs = trial_configs("rejections", 7, MC_CONFIGS)
    want = [bounds_mc_alone(cfg) for cfg in cfgs]
    first, redrawn = mc_sums_alone(cfgs[4], attempt=0), mc_sums_alone(cfgs[4], attempt=1)
    assert all(want[4][m] == first[m] != redrawn[m] for m in first)
    assert _stack_size(cfgs[0], "mc") == 7   # trial 4 sits between trials 3 and 5 of the one sub-stack
    degenerate_draws(monkeypatch, {cfgs[4].rng_seed}, {0})
    want[4].update(redrawn)
    cfg, seeds, ls = point_stack(cfgs)
    assert hex_rows(trial_rows(_chunk_bounds_mc([cfg], seeds, MC_METRICS, ls)[0])) == hex_rows(want)


GROUPS = {"bs_antennas": [64, 128, 256], "pilot_len": [6, 10, 25]}


# the sub-stack size that puts trial 4 of 7 at that row of its sub-stack
ROW_OF_FOUR = {"first": 4, "middle": 6, "last": 5}


@pytest.mark.parametrize("budget", [harness._STACK_BYTES, 1, *ROW_OF_FOUR])
@pytest.mark.parametrize("variable", sorted(GROUPS))
def test_group_rows_match_each_point_alone(monkeypatch, variable, budget):
    # the points read prefixes of each trial's shared attempt-0 normals; a
    # row degenerate at the middle point alone is redrawn there alone,
    # wherever it sits in its sub-stack
    values = GROUPS[variable]
    seeds = [trial_seed(21, t) for t in range(7)]
    points = [apply_sweep(SystemConfig(rng_seed=21), variable, v) for v in values]
    size = ROW_OF_FOUR.get(budget)
    if size:
        largest = max(harness._mc_trial_bytes(cfg, SIDES) for cfg in points)
        monkeypatch.setattr(harness, "_MC_STACK_BYTES", size * largest)
        assert min(_stack_size(cfg, "mc") for cfg in points) == size
    else:
        set_budgets(monkeypatch, budget)
    group = [[apply_sweep(SystemConfig(rng_seed=s), variable, v) for s in seeds] for v in values]
    want = [[bounds_mc_alone(cfg) for cfg in cfgs] for cfgs in group]
    bad = group[1][4]
    first, redrawn = mc_sums_alone(bad, attempt=0), mc_sums_alone(bad, attempt=1)
    assert all(want[1][4][m] == first[m] != redrawn[m] for m in first)
    want[1][4].update(redrawn)
    degenerate_draws(monkeypatch, {bad.rng_seed}, {0}, at=lambda cfg: getattr(cfg, variable) == values[1])
    got = _chunk_bounds_mc(points, seeds, MC_METRICS, harness._large_scale(points[0], seeds))
    assert [hex_rows(trial_rows(point)) for point in got] == [hex_rows(p) for p in want]


def test_uneven_sub_stacks_match_each_trial_alone():
    # 11 trials in sub-stacks of 5, 5 and a lone last one
    cfgs = [SystemConfig(bs_antennas=256, rng_seed=trial_seed(21, t)) for t in range(11)]
    assert _stack_size(cfgs[0], "mc") == 5
    cfg, seeds, ls = point_stack(cfgs)
    got = trial_rows(_chunk_bounds_mc([cfg], seeds, MC_METRICS, ls)[0])
    assert hex_rows(got) == hex_rows([bounds_mc_alone(cfg) for cfg in cfgs])


def test_group_draws_each_trials_normals_once(monkeypatch):
    keys = []

    def spy(seed, *key):
        keys.append((seed, *key))
        return substream(seed, *key)

    monkeypatch.setattr(harness, "substream", spy)
    spec = ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[64, 128, 256],
                          trials=7, config=SystemConfig(rng_seed=3), metrics=list(MC_METRICS))
    run_experiment(spec)
    for purpose in (FADING, NOISE):
        assert sorted(k for k in keys if k[1] == purpose) == sorted((trial_seed(3, t), purpose, 0)
                                                                    for t in range(7))


@pytest.mark.parametrize("metrics,sides", [(["sum_se_cell"], ("cu",)),
                                           (["sum_se_d2d_lb", "sum_se_d2d"], ("d2d",)),
                                           (list(MC_METRICS), ("cu", "d2d"))])
def test_a_run_forms_only_the_sides_its_metrics_read(monkeypatch, metrics, sides):
    seen = set()

    def estimate(obs, plan, config):
        seen.add(plan.sides)
        return mmse_estimate(obs, plan, config)

    spec = ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[64, 128], trials=4,
                          config=SystemConfig(rng_seed=3), metrics=list(MC_METRICS))
    both = {(r.sweep, r.metric): (r.mean, r.ci95, r.trials) for r in run_experiment(spec)[0]}
    monkeypatch.setattr(harness, "mmse_estimate", estimate)
    spec.metrics = metrics
    rows = run_experiment(spec)[0]
    assert seen == {sides}
    assert [(r.mean, r.ci95, r.trials) for r in rows] == [both[(r.sweep, r.metric)] for r in rows]


def test_row_degenerate_on_every_attempt_names_its_trial(monkeypatch):
    spec = ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[64],
                          trials=5, config=SystemConfig(rng_seed=3))
    seed = trial_seed(3, 2)
    degenerate_draws(monkeypatch, {seed}, set(range(5)))
    with pytest.raises(RuntimeError) as err:
        run_experiment(spec)
    assert str(err.value) == (f"bs_antennas=64, trial 2 (seed {seed}): "
                              "fast-fading draw kept a degenerate PZF span after 5 attempts")


def test_row_degenerate_at_one_point_names_that_point(monkeypatch):
    spec = ExperimentSpec(experiment="fig1", sweep_variable="bs_antennas", sweep_values=[64, 128, 256],
                          trials=5, config=SystemConfig(rng_seed=3))
    seed = trial_seed(3, 2)
    degenerate_draws(monkeypatch, {seed}, set(range(5)), at=lambda cfg: cfg.bs_antennas == 128)
    with pytest.raises(RuntimeError) as err:
        run_experiment(spec)
    assert str(err.value) == (f"bs_antennas=128, trial 2 (seed {seed}): "
                              "fast-fading draw kept a degenerate PZF span after 5 attempts")


def test_stacks_of_one_write_the_same_csv(monkeypatch, tmp_path):
    specs = [ExperimentSpec(experiment=e, sweep_variable="pilot_len", sweep_values=[7, 10], trials=5,
                            config=SystemConfig(n_d2d=6, bs_antennas=32, rng_seed=8), metrics=m)
             for e, m in (("fig2", list(MC_METRICS)), ("fig3", None))]
    for budget in (harness._STACK_BYTES, 1):
        set_budgets(monkeypatch, budget)
        for spec in specs:
            spec.output = str(tmp_path / str(budget) / f"{spec.experiment}.csv")
            run_experiment(spec)
    for spec in specs:
        name = f"{spec.experiment}.csv"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / str(harness._STACK_BYTES) / name).read_bytes()


# (shape, antenna groups) of the memory test: fig1's K=20/tau=10; the longest
# fig2 pilot, and the same with the most BS groups cancelled, where the BS
# filters, not the pilot phase, set the peak; and mc_large's K=100/tau=30
PEAK_SHAPES = [(dict(), ([256], [64, 128, 256])),
               (dict(pilot_len=25), ([256], [64, 128, 256])),
               (dict(pilot_len=25, pzf_bs=(4, 20)), ([256], [64, 128, 256])),
               (dict(n_d2d=100, pilot_len=30), ([64], [128], [64, 128, 256]))]
# numpy's index and iteration buffers, which a Monte Carlo sub-stack holds
# whatever its size
FIXED_BYTES = 200_000


def test_monte_carlo_peak_stays_within_the_stack_budget():
    # every sub-stack of more than one trial, with both receiver sides or
    # either alone, in an uneven split (its last sub-stack smaller), peaks,
    # in the traced bytes _mc_rates allocates, at most at its trials times
    # the per-trial model plus the fixed bytes, so at most at the 3 MB
    # budget; mc_small's group of B = 64, 128 and 256 runs five trials a
    # sub-stack
    budget = harness._MC_STACK_BYTES + FIXED_BYTES
    mc_small = [SystemConfig(bs_antennas=b) for b in (64, 128, 256)]
    assert min(_stack_size(cfg, "mc") for cfg in mc_small) >= 5
    checked = set()
    for shape, groups in PEAK_SHAPES:
        for sides in (SIDES, ("cu",), ("d2d",)):
            metrics = [m for m, (side, _) in harness._MC_TERMS.items() if side in sides]
            for antennas in groups:
                group = [SystemConfig(**shape, bs_antennas=b, rng_seed=3) for b in antennas]
                size = min(_stack_size(cfg, "mc", sides) for cfg in group)
                if size == 1:
                    continue
                seeds = [trial_seed(3, t) for t in range(size + 2)]
                ls = harness._large_scale(group[0], seeds)
                pa, pp, coeffs, sets, _ = next(_scenario_pipeline(group, ls))
                plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, group[0].noise_power, sides)
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    _mc_rates(group, seeds, [plan] * len(group), metrics)
                    peak = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
                model = size * max(harness._mc_trial_bytes(cfg, sides) for cfg in group) + FIXED_BYTES
                assert peak <= model <= budget, (shape, sides, antennas, size, peak, model)
                checked.add(tuple(shape.items()))
    assert len(checked) == len(PEAK_SHAPES)   # each shape has a sub-stack of several trials
