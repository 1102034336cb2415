"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value is produced by an independent route: Monte Carlo
against closed form, linear solve against fixed-point iteration, grid
search against WMMSE, enumeration against the greedy scheduler.
"""
import time

import numpy as np

from d2dmimo.scenario import SystemConfig, generate_topology, compute_large_scale, substream
from d2dmimo.channel import (PilotAssignment, PowerProfile, draw_fast_fading,
                             estimation_coeffs, simulate_pilot_phase, mmse_estimate)
from d2dmimo.receivers import (RateCoeffs, select_cancellation, rate_coeffs,
                               rate_lower_bounds, pzf_filter, cell_sinr_terms,
                               d2d_sinr_terms, monte_carlo_plan)
from d2dmimo.pilot_scheduling import (psa, random_assignment, exhaustive_search,
                                      sum_mse, pilot_power_parametric)
from d2dmimo.power_control import (JdpcPoint, cellular_fixed_point, dpcc_iterate, dpcd, jdpc_stack,
                                   cellular_power_budget)
from d2dmimo.harness import ExperimentSpec, run_experiment


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _full_pipeline(cfg):
    topo = generate_topology(cfg)
    ls = compute_large_scale(topo, cfg)
    pa = psa(ls, cfg)
    pp = PowerProfile.max_power(cfg)
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    sets = select_cancellation(ls, pa, cfg)
    rc = rate_coeffs(ls, pa, coeffs, sets, pp, cfg)
    return ls, pa, pp, coeffs, sets, rc


def test_criterion_1_bound_validity():
    """Monte Carlo mean rates dominate the closed-form lower bounds on
    every link of 20 seeded configs; cellular gap under fully ZF <= 10%."""
    t0 = time.time()
    trials = 500
    z99 = 2.576
    rng = np.random.default_rng(20240701)
    violations, worst_gap, links_checked = 0, 0.0, 0
    for c in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(6, 21))
        tau = int(rng.integers(n + 3, min(n + k, 12) + 1))
        cfg = SystemConfig(n_cu=n, n_d2d=k, bs_antennas=128, d2drx_antennas=8,
                           pilot_len=tau, coherence_len=50,
                           pzf_bs=(n - 1, tau - n), pzf_d2d=(1, 2),
                           rng_seed=1000 + c)
        ls, pa, pp, coeffs, sets, rc = _full_pipeline(cfg)
        r_c_lb, r_d_lb = rate_lower_bounds(rc, pp, cfg)
        prefactor = 1 - cfg.pilot_len / cfg.coherence_len
        rates_c = np.empty((trials, n))
        rates_d = np.empty((trials, k))
        rng_f = substream(cfg.rng_seed, 50)
        rng_z = substream(cfg.rng_seed, 51)
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
        for t in range(trials):
            real = draw_fast_fading(cfg, rng_f)
            obs = simulate_pilot_phase(real, plan, cfg, rng_z)
            est = mmse_estimate(obs, plan, cfg)
            eta = cell_sinr_terms(est, plan).sinr
            rates_c[t] = prefactor * np.log2(1 + eta)
            eta = d2d_sinr_terms(est, plan).sinr
            rates_d[t] = prefactor * np.log2(1 + eta)
        for mc, lb in ((rates_c, r_c_lb), (rates_d, r_d_lb)):
            mean = mc.mean(axis=0)
            se = mc.std(axis=0, ddof=1) / np.sqrt(trials)
            violations += int(np.sum(mean < lb - z99 * se))
            links_checked += lb.size
        gap = (rates_c.mean(axis=0) - r_c_lb) / rates_c.mean(axis=0)
        worst_gap = max(worst_gap, float(gap.max()))
    elapsed = time.time() - t0
    ok = violations == 0 and worst_gap <= 0.10 and elapsed < 300
    _report("1 bound validity",
            ok, f"{violations}/{links_checked} bound violations at 99% conf; "
                f"worst ZF cellular gap {worst_gap:.3%} (<=10%); {elapsed:.0f}s (<300s)")


def test_criterion_2_mmse_statistics():
    """Estimate-entry variance matches delta within 3%; the empirical mean
    of 1/S matches the inverse-moment closed form within 5% at B=32."""
    cfg = SystemConfig(n_cu=3, n_d2d=4, bs_antennas=32, d2drx_antennas=4,
                       pilot_len=5, coherence_len=40, pzf_bs=(2, 2), pzf_d2d=(1, 0),
                       noise_power=0.5, rng_seed=77)
    rng = np.random.default_rng(7)
    from d2dmimo.scenario import LargeScale
    ls = LargeScale(u_c=rng.uniform(0.2, 2, 3), u_d=rng.uniform(0.2, 2, 4),
                    v_c=rng.uniform(0.2, 2, (3, 4)), v_d=rng.uniform(0.2, 2, (4, 4)))
    pa = PilotAssignment(pilot_of=np.array([4, 4, 5, 5]), n_cu=3, pilot_len=5)
    pp = PowerProfile(q_p=rng.uniform(0.5, 3, 3), p_p=rng.uniform(0.5, 3, 4),
                      q_s=np.ones(3), p_s=np.ones(4))
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    sets = select_cancellation(ls, pa, cfg)

    draws = 10_000
    rng_f = substream(11, 0)
    rng_z = substream(11, 1)
    var_acc = np.zeros(3)
    inv_s = np.zeros(3)
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    for _ in range(draws):
        real = draw_fast_fading(cfg, rng_f)
        obs = simulate_pilot_phase(real, plan, cfg, rng_z)
        est = mmse_estimate(obs, plan, cfg)
        var_acc += np.mean(np.abs(est.h_c) ** 2, axis=0)
        beta = pzf_filter(est, plan, "cu")
        for n in range(3):
            inv_s[n] += 1.0 / (pp.q_s[n] * ls.u_c[n] * abs(beta[n].conj() @ est.h_c[:, n]) ** 2)
    var_err = np.max(np.abs(var_acc / draws - coeffs.delta_c) / coeffs.delta_c)
    dof = cfg.bs_antennas - sum(cfg.pzf_bs) - 1
    closed = 1.0 / (pp.q_s * ls.u_c * dof * coeffs.delta_c)
    inv_err = np.max(np.abs(inv_s / draws - closed) / closed)
    ok = var_err <= 0.03 and inv_err <= 0.05
    _report("2 MMSE statistics",
            ok, f"estimate-variance error {var_err:.3%} (<=3%); "
                f"inverse-signal-moment error {inv_err:.3%} (<=5%) over {draws} draws")


def test_criterion_3_scheduler_quality():
    """Greedy scheduler beats random in >=95% of 200 instances and stays
    within 20% of the exhaustive optimum on average.

    Instances use a compact cell and ~10 dB own-link pilot SNR so the MSE
    carries both a contamination part (scheduling matters, greedy must
    beat random) and a noise floor (ratios of near-zero MSEs at saturated
    pilot SNR would be uninformative)."""
    wins, ratios = 0, []
    for i in range(200):
        n = 3
        extra = 2 + (i % 2)     # tau - N in {2, 3}
        cfg = SystemConfig(n_cu=n, n_d2d=6, bs_antennas=32, d2drx_antennas=4,
                           pilot_len=n + extra, coherence_len=40,
                           pzf_bs=(1, 1), pzf_d2d=(1, 1),
                           cell_side=400.0, d2d_max_dist=100.0,
                           max_power_d2d=3e-3, rng_seed=3000 + i)
        topo = generate_topology(cfg)
        ls = compute_large_scale(topo, cfg)
        greedy = sum_mse(ls, psa(ls, cfg), cfg)
        rand = sum_mse(ls, random_assignment(cfg), cfg)
        best = sum_mse(ls, exhaustive_search(ls, cfg), cfg)
        wins += greedy <= rand + 1e-12
        ratios.append(greedy / best)
    mean_ratio = float(np.mean(ratios))
    ok = wins >= 190 and mean_ratio <= 1.2
    _report("3 scheduler quality",
            ok, f"greedy <= random in {wins}/200 (>=190); "
                f"mean greedy/optimal ratio {mean_ratio:.4f} (<=1.2)")


def test_criterion_4_cellular_power_optimality():
    """Fixed point matches the direct linear solve to 1e-6 relative on 100
    feasible instances; iterates climb monotonically; the interference map
    satisfies the standard-function axioms on 1e4 probes."""
    rng = np.random.default_rng(4)
    solved, worst_err = 0, 0.0
    monotone_ok = True
    seed = 0
    while solved < 100:
        seed += 1
        n = int(rng.integers(2, 6))
        cfg = SystemConfig(n_cu=n, n_d2d=8, bs_antennas=32, d2drx_antennas=4,
                           pilot_len=n + 3, coherence_len=40,
                           pzf_bs=(min(1, n - 1), 1), pzf_d2d=(1, 1),
                           rng_seed=4000 + seed)
        ls, pa, pp, coeffs, sets, rc = _full_pipeline(cfg)
        gamma = rng.uniform(0.3, 2.0)
        fp = cellular_fixed_point(rc, pp.p_s, gamma, q_max=1e15)
        if np.max(np.abs(np.linalg.eigvals(fp.F))) >= 0.95:
            continue
        res = dpcc_iterate(fp, tol=1e-12, record_trace=True)
        direct = np.linalg.solve(np.eye(n) - fp.F, fp.theta)
        worst_err = max(worst_err, float(np.max(np.abs(res.q_s - direct) / direct)))
        for prev, cur in zip(res.trace, res.trace[1:]):
            monotone_ok &= bool(np.all(cur >= prev - 1e-18))
        solved += 1

    probes_ok = True
    probe_rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(probe_rng.integers(2, 6))
        f = probe_rng.uniform(0, 1, (n, n))
        theta = probe_rng.uniform(0.01, 1, n)
        from d2dmimo.power_control import CellularFixedPoint
        fp = CellularFixedPoint(F=f, theta=theta, caps=np.full(n, 1e9))
        for _ in range(100):
            q = probe_rng.uniform(0, 10, n)
            q2 = q + probe_rng.uniform(0, 5, n)
            s = 1.0 + probe_rng.uniform(0.001, 4.0)
            probes_ok &= bool(np.all(fp.interference(q) > 0))
            probes_ok &= bool(np.all(fp.interference(q2) >= fp.interference(q)))
            probes_ok &= bool(np.all(s * fp.interference(q) > fp.interference(s * q)))
    ok = worst_err <= 1e-6 and monotone_ok and probes_ok
    _report("4 cellular power optimality",
            ok, f"max |iterate - solve| {worst_err:.2e} (<=1e-06) on 100 instances; "
                f"monotone={monotone_ok}; axioms on 1e4 probes={probes_ok}")


def test_criterion_5_d2d_power_quality():
    """WMMSE power control reaches >=99% of a 200x200 grid-search optimum
    on 100 two-pair instances, monotonically, without budget violations."""
    rng = np.random.default_rng(6)
    worst_ratio, worst_violation = np.inf, 0.0
    monotone_ok = True
    n0 = 1e-2
    for _ in range(100):
        phi_d = rng.uniform(0.5, 4.0, 2)
        psi = rng.uniform(0.005, 0.3, (2, 2))
        np.fill_diagonal(psi, rng.uniform(0.002, 0.05, 2))
        cu_w = rng.uniform(0.05, 0.4, (1, 2))
        varphi_d = rng.uniform(0.05, 0.6, 2)
        zeta = float(rng.uniform(0.25, 1.1) * varphi_d.sum())
        rc = RateCoeffs(phi_c=np.array([zeta + n0]), varphi_c=np.zeros((1, 1)),
                        varphi_d=varphi_d, phi_d=phi_d, psi_d=psi, cu_to_rx_weight=cu_w,
                        noise_power=n0)
        q_s = np.array([1.0])
        assert abs(cellular_power_budget(rc, q_s, 1.0) - zeta) < 1e-12
        res = dpcd(rc, q_s, gamma=1.0, p_max=1.0, tol_wmmse=1e-9, bisect_rtol=1e-9)
        grid = np.linspace(0, 1, 200)
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        sigma_d = np.ones(1) @ cu_w + n0
        mask = g1 * varphi_d[0] + g2 * varphi_d[1] <= zeta
        i1 = g1 * psi[0, 0] + g2 * psi[1, 0] + sigma_d[0]
        i2 = g1 * psi[0, 1] + g2 * psi[1, 1] + sigma_d[1]
        best = float(np.max(np.where(mask,
                                     np.log2(1 + g1 * phi_d[0] / i1)
                                     + np.log2(1 + g2 * phi_d[1] / i2), -np.inf)))
        worst_ratio = min(worst_ratio, res.objective_trace[-1] / best)
        diffs = np.diff(res.objective_trace)
        monotone_ok &= bool(np.all(diffs >= -1e-9 * max(1.0, res.objective_trace[-1])))
        worst_violation = max(worst_violation, float(res.p_s @ varphi_d) - zeta)
    ok = worst_ratio >= 0.99 and monotone_ok and worst_violation <= 1e-6 * zeta
    _report("5 D2D power quality",
            ok, f"min objective/grid ratio {worst_ratio:.4f} (>=0.99) on 100 instances; "
                f"monotone={monotone_ok}; max budget violation {worst_violation:.2e}")


def test_criterion_6_joint_loop_convergence():
    """Desk-scale joint power control: non-decreasing D2D sum-SE trace,
    converged within 5 outer rounds (full-size claim: 3)."""
    cfg = SystemConfig(sinr_target=0.372, rng_seed=14)   # N=5 K=20 B=128 M=8
    ls, pa, pp, coeffs, sets, rc = _full_pipeline(cfg)
    res = jdpc_stack([JdpcPoint(rc[None], cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d,
                                tol_power=cfg.tol_power, tol_wmmse=cfg.tol_wmmse,
                                prefactor=1 - cfg.pilot_len / cfg.coherence_len)])[0][0]
    diffs = np.diff(res.trace)
    monotone = bool(np.all(diffs >= -1e-9))
    ok = res.feasible and monotone and res.outer_iterations <= 5
    _report("6 joint loop convergence",
            ok, f"feasible={res.feasible}; outer iterations {res.outer_iterations} (<=5); "
                f"monotone trace={monotone}; trace={[round(t, 4) for t in res.trace]}")


def test_criterion_7_pilot_length_unimodality():
    """The mean D2D sum-SE lower bound over the full pilot-length window
    rises to a single interior maximum and then falls."""
    cfg = SystemConfig(rng_seed=42)
    spec = ExperimentSpec(
        experiment="fig2", sweep_variable="pilot_len",
        sweep_values=list(range(cfg.n_cu + 1, cfg.n_cu + cfg.n_d2d + 1)),
        trials=300, config=cfg, metrics=["sum_se_d2d_lb"],
    )
    rows, _ = run_experiment(spec)
    means = np.array([r.mean for r in rows])
    taus = [r.sweep for r in rows]
    m = int(np.argmax(means))
    plateau = 1e-9 * float(np.max(means))
    d = np.diff(means)
    rising = bool(np.all(d[:m] > -plateau))
    falling = bool(np.all(d[m:] < plateau))
    plateaus = int(np.sum(np.abs(d) <= plateau))
    ok = 0 < m < len(means) - 1 and rising and falling and plateaus <= 1
    _report("7 pilot-length unimodality",
            ok, f"interior max at tau={taus[m]}; rising={rising}, falling={falling}, "
                f"plateaus={plateaus} (<=1) over tau in [{taus[0]}, {taus[-1]}]")


def test_criterion_8_pilot_power_solver():
    """Parametric pilot-power solver: ratio-condition residuals within
    tolerance on 100 dispersed instances; negligible cross gains yield
    exactly the full pilot energy."""
    worst_res, max_power_ok = 0.0, True
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        k = int(rng.integers(4, 9))
        n = 3
        cfg = SystemConfig(n_cu=n, n_d2d=k, bs_antennas=16, d2drx_antennas=4,
                           pilot_len=n + max(2, k // 2), coherence_len=40,
                           pzf_bs=(1, 1), pzf_d2d=(1, 1),
                           noise_power=1.0, max_power_d2d=1.0, rng_seed=seed)
        from d2dmimo.scenario import LargeScale
        v_d = rng.uniform(0.0, 0.05, (k, k))
        np.fill_diagonal(v_d, rng.uniform(0.5, 2.0, k))
        ls = LargeScale(u_c=rng.uniform(0.1, 2, n), u_d=rng.uniform(0.1, 2, k),
                        v_c=rng.uniform(0.1, 2, (n, k)), v_d=np.maximum(v_d, 1e-15))
        pa = psa(ls, cfg)
        res = pilot_power_parametric(pa, ls, cfg)
        worst_res = max(worst_res, res.residual)
        if seed < 20:
            # negligible-cross-gain variant of the same instance
            iso = LargeScale(u_c=ls.u_c, u_d=ls.u_d, v_c=ls.v_c,
                             v_d=np.where(np.eye(k, dtype=bool), ls.v_d, 1e-15))
            res_iso = pilot_power_parametric(pa, iso, cfg)
            cap = cfg.pilot_len * cfg.max_power_d2d
            max_power_ok &= bool(np.all(res_iso.p_p == cap))
    ok = worst_res <= 1e-3 and max_power_ok
    _report("8 pilot power solver",
            ok, f"max ratio-condition residual {worst_res:.2e} (<=1e-03) on 100 instances; "
                f"max power under negligible cross gains={max_power_ok}")
