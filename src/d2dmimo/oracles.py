"""Brute-force oracle suites runnable from the CLI.

Each oracle re-derives a quantity through an independent route (direct
linear solve, explicit Gram-Schmidt, scalar transcription, grid search)
and checks the production path against it.  They exist so a failed
assumption can be localized quickly without running the full test suite.
"""
from __future__ import annotations

import numpy as np

from .scenario import SystemConfig, generate_topology, compute_large_scale
from .channel import PowerProfile, estimation_coeffs
from .receivers import select_cancellation, rate_coeffs, pzf_filter, monte_carlo_plan
from .pilot_scheduling import psa, pilot_power_parametric
from .power_control import CellularFixedPoint, dpcc_iterate, dpcd, cellular_power_budget
from .harness import _large_scale, _scenario_pipeline
from .channel import draw_fast_fading, simulate_pilot_phase, mmse_estimate


def _small_config(seed, **overrides):
    base = dict(n_cu=3, n_d2d=6, bs_antennas=16, d2drx_antennas=4,
                pilot_len=6, coherence_len=40, pzf_bs=(1, 2), pzf_d2d=(1, 1),
                rng_seed=seed)
    base.update(overrides)
    return SystemConfig(**base)


def oracle_dpcc_linear_solve(seed=0):
    """Capped fixed point vs direct solve of (I - F) q = theta."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = rng.uniform(0.0, 1.0, (n, n))
        f *= rng.uniform(0.1, 0.9) / max(np.abs(np.linalg.eigvals(f)))
        theta = rng.uniform(0.1, 2.0, n)
        fp = CellularFixedPoint(F=f, theta=theta, caps=np.full(n, 1e12))
        res = dpcc_iterate(fp, tol=1e-12)
        direct = np.linalg.solve(np.eye(n) - f, theta)
        worst = max(worst, float(np.max(np.abs(res.q_s - direct) / direct)))
    ok = worst <= 1e-6
    return ok, f"max relative error {worst:.2e} over 100 random instances (bound 1e-06)"


def _leakage(beta, cancelled):
    """Largest |beta^H c| / |c| over the columns c of cancelled."""
    return max((abs(beta.conj() @ c) / np.linalg.norm(c) for c in cancelled.T), default=0.0)


def oracle_pzf_zeros(seed=0):
    """Filter zeros on cancelled estimates, BS side and every D2D-Rx."""
    worst = 0.0
    for s in range(10):
        cfg = _small_config(seed * 100 + s)
        ls = _large_scale(cfg, [cfg.rng_seed])
        pa, pp, coeffs, sets, _ = next(_scenario_pipeline([cfg], ls))
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)[0]
        pa, sets = pa[0], sets[0]
        real = draw_fast_fading(cfg)
        obs = simulate_pilot_phase(real, plan, cfg)
        est = mmse_estimate(obs, plan, cfg)
        beta_cu = pzf_filter(est, plan, "cu")
        bs_groups = np.isin(pa.pilot_of, sets.bs_cancel_groups)
        for n in range(cfg.n_cu):
            worst = max(worst, _leakage(beta_cu[n], est.h_c[:, sets.bs_cancel_cu[n]]),
                        _leakage(beta_cu[n], est.h_d[:, bs_groups]))
        beta_d2d = pzf_filter(est, plan, "d2d")
        for k in range(cfg.n_d2d):
            rx_groups = np.isin(pa.pilot_of, sets.rx_cancel_groups[k])
            worst = max(worst, _leakage(beta_d2d[k], est.g_c[k][:, sets.rx_cancel_cu[k]]),
                        _leakage(beta_d2d[k], est.g_d[k][:, rx_groups]))
    ok = worst <= 1e-10
    return ok, f"max relative cancelled-estimate leakage {worst:.2e} (bound 1e-10)"


def oracle_estimation_coeffs(seed=0):
    """Vectorized coefficients vs a scalar transcription of the formulas."""
    worst = 0.0
    for s in range(10):
        cfg = _small_config(seed * 100 + s)
        topo = generate_topology(cfg)
        ls = compute_large_scale(topo, cfg)
        pa = psa(ls, cfg)
        pp = PowerProfile.max_power(cfg)
        cf = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        n0 = cfg.noise_power
        for k in range(cfg.n_d2d):
            grp = [i for i in range(cfg.n_d2d) if pa.pilot_of[i] == pa.pilot_of[k]]
            den = sum(pp.p_p[i] * ls.u_d[i] for i in grp) + n0
            worst = max(worst, abs(cf.delta_d[k] - pp.p_p[k] * ls.u_d[k] / den))
            for r in range(cfg.n_d2d):
                den_r = sum(pp.p_p[j] * ls.v_d[j, r] for j in grp) + n0
                worst = max(worst, abs(cf.mu_d[k, r] - pp.p_p[k] * ls.v_d[k, r] / den_r))
    ok = worst <= 1e-12
    return ok, f"max coefficient deviation {worst:.2e} vs scalar transcription (bound 1e-12)"


def oracle_dpcd_grid(seed=0):
    """WMMSE output vs a 100x100 grid search on two-pair instances."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(20):
        phi_d = rng.uniform(0.5, 3.0, 2)
        psi = rng.uniform(0.01, 0.3, (2, 2))
        np.fill_diagonal(psi, rng.uniform(0.005, 0.05, 2))
        sigma = rng.uniform(0.1, 1.0, 2)
        varphi = rng.uniform(0.05, 0.5, 2)
        p_max = np.array([1.0, 1.0])
        zeta = float(rng.uniform(0.2, 1.0) * (p_max @ varphi))
        rc = _synthetic_rc(phi_d, psi, sigma, varphi, zeta)
        res = dpcd(rc, q_s=np.array([1.0]), gamma=1.0, p_max=p_max,
                   tol_wmmse=1e-8, bisect_rtol=1e-8)
        grid = np.linspace(0.0, 1.0, 100)
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        mask = g1 * varphi[0] + g2 * varphi[1] <= zeta
        i1 = g1 * psi[0, 0] + g2 * psi[1, 0] + sigma[0]
        i2 = g1 * psi[0, 1] + g2 * psi[1, 1] + sigma[1]
        obj = np.log2(1 + g1 * phi_d[0] / i1) + np.log2(1 + g2 * phi_d[1] / i2)
        best = float(obj[mask].max())
        worst = min(worst, res.objective_trace[-1] / best)
    ok = worst >= 0.99
    return ok, f"min WMMSE/grid objective ratio {worst:.4f} over 20 instances (bound 0.99)"


def _synthetic_rc(phi_d, psi_d, sigma_d, varphi_d, zeta):
    """RateCoeffs stand-in encoding budget zeta and the given sigma_d at
    unit cellular power."""
    from .receivers import RateCoeffs
    n0 = 1e-3
    sigma_d = np.asarray(sigma_d, dtype=float)
    return RateCoeffs(
        phi_c=np.array([zeta + n0]), varphi_c=np.zeros((1, 1)),
        varphi_d=np.asarray(varphi_d, dtype=float),
        phi_d=np.asarray(phi_d, dtype=float), psi_d=np.asarray(psi_d, dtype=float),
        cu_to_rx_weight=(sigma_d - n0)[None, :],
        noise_power=n0,
    )


def oracle_parametric_power(seed=0):
    """Pilot-power solver beats random feasible vectors; residuals vanish.

    Instances are dispersed pairs (cross gains <= 5% of own) at moderate
    pilot SNR, the regime where the alternation settles; heavier
    contamination is the documented non-convergence/escalation regime.
    """
    rng = np.random.default_rng(seed)
    worst_gap, worst_res = np.inf, 0.0
    for s in range(10):
        cfg = _small_config(seed * 100 + s, n_d2d=4, pilot_len=5, pzf_bs=(1, 1),
                            noise_power=1.0, max_power_d2d=1.0)
        inst = np.random.default_rng(seed * 100 + s)
        from .scenario import LargeScale
        v_d = inst.uniform(0.0, 0.05, (4, 4))
        np.fill_diagonal(v_d, inst.uniform(0.5, 2.0, 4))
        ls = LargeScale(u_c=inst.uniform(0.1, 2, 3), u_d=inst.uniform(0.1, 2, 4),
                        v_c=inst.uniform(0.1, 2, (3, 4)), v_d=np.maximum(v_d, 1e-15))
        pa = psa(ls, cfg)
        res = pilot_power_parametric(pa, ls, cfg)
        worst_res = max(worst_res, res.residual)

        def objective(p):
            total = 0.0
            for k in range(cfg.n_d2d):
                grp = pa.group_of(k)
                total += p[k] * ls.v_d[k, k] / (float(p[grp] @ ls.v_d[grp, k]) + cfg.noise_power)
            return total

        ours = objective(res.p_p)
        cap = cfg.pilot_len * cfg.max_power_d2d
        best_rand = max(objective(rng.uniform(0, cap, cfg.n_d2d)) for _ in range(1000))
        worst_gap = min(worst_gap, ours - best_rand)
    ok = worst_res <= 1e-3 and worst_gap >= -1e-9
    return ok, (f"max residual {worst_res:.2e} (bound 1e-03); "
                f"min margin over 1000 random vectors {worst_gap:.3e} (bound >= 0)")


ORACLES = {
    "dpcc-linear-solve": (oracle_dpcc_linear_solve,
                          "fixed-point cellular power vs direct linear solve"),
    "pzf-zeros": (oracle_pzf_zeros, "PZF filter zeros on cancelled estimates"),
    "estimation-coeffs": (oracle_estimation_coeffs,
                          "closed-form coefficients vs scalar transcription"),
    "dpcd-grid": (oracle_dpcd_grid, "WMMSE D2D power vs grid search"),
    "parametric-power": (oracle_parametric_power,
                         "pilot-power solver vs random sampling"),
}


def run_oracle(name, seed=0):
    """Run one oracle (or 'all'); returns True when everything passed."""
    names = list(ORACLES) if name == "all" else [name]
    all_ok = True
    for n in names:
        if n not in ORACLES:
            raise KeyError(f"unknown oracle {n!r}; known: {', '.join(sorted(ORACLES))} or 'all'")
        fn, _ = ORACLES[n]
        ok, message = fn(seed=seed)
        print(f"[oracle] {n}: {'PASS' if ok else 'FAIL'} - {message}")
        all_ok = all_ok and ok
    return all_ok
