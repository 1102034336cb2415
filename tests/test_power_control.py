import functools
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dmimo.scenario import SystemConfig, generate_topology, compute_large_scale, trial_seed
from d2dmimo.channel import PowerProfile, estimation_coeffs
from d2dmimo.receivers import (RateCoeffs, select_cancellation, rate_coeffs,
                               bound_sinrs, sigma_c_of, sigma_d_of)
from d2dmimo.pilot_scheduling import psa
from d2dmimo import power_control
from d2dmimo.power_control import (CellularFixedPoint, cellular_fixed_point,
                                   cellular_power_budget, dpcc, dpcc_iterate, dpcd, dpcd_stack,
                                   jdpc_stack, JdpcPoint, WmmseGroup, InfeasibleBudgetError,
                                   BracketError, SolverError)
from d2dmimo.harness import _large_scale, _scenario_pipeline
from helpers import small_config


def jdpc_point(rc, gamma, q_max, p_max, outer_cap=10, **kw):
    """jdpc_stack on one point, JdpcPoint(rc, gamma, q_max, p_max, **kw): its JdpcResult stack."""
    return jdpc_stack([JdpcPoint(rc, gamma, q_max, p_max, **kw)], outer_cap=outer_cap)[0]


def wmmse_group(*args, max_iter=50_000, record_trace=True, **kw):
    """dpcd_stack on one group, WmmseGroup(*args, **kw): its rows' DpcdResults."""
    return dpcd_stack([WmmseGroup(*args, **kw)], max_iter=max_iter, record_trace=record_trace)[0]


def pipeline_rc(cfg):
    topo = generate_topology(cfg)
    ls = compute_large_scale(topo, cfg)
    pa = psa(ls, cfg)
    pp = PowerProfile.max_power(cfg)
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    sets = select_cancellation(ls, pa, cfg)
    return rate_coeffs(ls, pa, coeffs, sets, pp, cfg)


def synthetic_rc(phi_c, varphi_c, varphi_d, phi_d, psi_d, cu_to_rx, n0=1e-2):
    phi_c = np.asarray(phi_c, dtype=float)
    varphi_d = np.asarray(varphi_d, dtype=float)
    return RateCoeffs(
        phi_c=phi_c, varphi_c=np.asarray(varphi_c, dtype=float),
        varphi_d=varphi_d,
        phi_d=np.asarray(phi_d, dtype=float), psi_d=np.asarray(psi_d, dtype=float),
        cu_to_rx_weight=np.asarray(cu_to_rx, dtype=float), noise_power=n0,
    )


class TestDpcc:
    def test_single_cu_perfect_csi_one_step(self):
        # eps = 0: fixed point is gamma * sigma / phi when below the cap
        gamma, phi, n0 = 2.0, 5.0, 1e-2
        rc = synthetic_rc([phi], [[0.0]], [0.3], [1.0], [[0.1]], [[0.05]], n0=n0)
        p_s = np.array([0.4])
        res = dpcc(rc, p_s, gamma, q_max=100.0, tol=1e-12)
        sigma = sigma_c_of(rc, p_s)
        assert res.q_s[0] == pytest.approx(gamma * sigma / phi, rel=1e-10)
        assert res.feasible

    def test_single_cu_self_error_geometric_series(self):
        # q = gamma sigma / (phi - gamma u eps): scalar geometric fixed point
        gamma, phi, u_eps, n0 = 1.5, 5.0, 0.8, 1e-2
        rc = synthetic_rc([phi], [[u_eps]], [0.3], [1.0], [[0.1]], [[0.05]], n0=n0)
        p_s = np.array([0.2])
        res = dpcc(rc, p_s, gamma, q_max=1e6, tol=1e-13)
        sigma = sigma_c_of(rc, p_s)
        expected = gamma * sigma / (phi - gamma * u_eps)
        assert res.q_s[0] == pytest.approx(expected, rel=1e-9)

    def test_matches_direct_linear_solve(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 3
            f = rng.uniform(0, 1, (n, n))
            f *= rng.uniform(0.2, 0.9) / np.max(np.abs(np.linalg.eigvals(f)))
            theta = rng.uniform(0.05, 1.0, n)
            fp = CellularFixedPoint(F=f, theta=theta, caps=np.full(n, 1e9))
            res = dpcc_iterate(fp, tol=1e-12)
            direct = np.linalg.solve(np.eye(n) - f, theta)
            assert np.max(np.abs(res.q_s - direct) / direct) < 1e-6
            assert res.feasible

    def test_iterates_monotone_nondecreasing_from_zero(self):
        rng = np.random.default_rng(1)
        f = rng.uniform(0, 0.4, (4, 4))
        theta = rng.uniform(0.1, 1.0, 4)
        fp = CellularFixedPoint(F=f, theta=theta, caps=np.full(4, 2.0))
        res = dpcc_iterate(fp, tol=1e-10, record_trace=True)
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert np.all(cur >= prev - 1e-15)
        assert np.all(res.q_s <= fp.caps + 1e-15)

    def test_infeasible_capped_instance_flagged(self):
        # target unreachable under the cap: q sticks at the cap, SINR short
        rc = synthetic_rc([1.0], [[0.0]], [1.0], [1.0], [[0.1]], [[0.05]], n0=1.0)
        res = dpcc(rc, p_s=np.array([1.0]), gamma=10.0, q_max=1.0, tol=1e-12)
        assert not res.feasible
        assert res.q_s[0] == pytest.approx(1.0)
        eta_c, _ = bound_sinrs(rc, res.q_s, np.array([1.0]))
        assert eta_c[0] < 10.0

    def test_feasible_point_meets_targets_with_equality(self):
        cfg = small_config(sinr_target=2.0)
        rc = pipeline_rc(cfg)
        p_s = np.full(cfg.n_d2d, cfg.max_power_d2d)
        res = dpcc(rc, p_s, cfg.sinr_target, cfg.max_power_cu, tol=1e-10)
        if res.feasible:
            eta_c, _ = bound_sinrs(rc, res.q_s, p_s)
            assert np.allclose(eta_c, cfg.sinr_target, rtol=1e-6)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_standard_function_axioms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        fp = CellularFixedPoint(F=rng.uniform(0, 1, (n, n)),
                                theta=rng.uniform(0.01, 1.0, n),
                                caps=np.full(n, 1e9))
        q = rng.uniform(0, 5, n)
        q2 = q + rng.uniform(0, 2, n)
        scale = 1.0 + rng.uniform(0.01, 3.0)
        assert np.all(fp.interference(q) > 0)
        assert np.all(fp.interference(q2) >= fp.interference(q))
        assert np.all(scale * fp.interference(q) > fp.interference(scale * q))


class TestDpcd:
    def test_single_pair_slack_budget_full_power(self):
        rc = synthetic_rc([10.0], [[0.0]], [0.01], [2.0], [[0.05]], [[0.02]], n0=1e-2)
        q_s = np.array([50.0])   # huge budget
        res = dpcd(rc, q_s, gamma=1.0, p_max=4.0, tol_wmmse=1e-10)
        assert res.p_s[0] == pytest.approx(4.0, rel=1e-12)
        assert res.multiplier == 0.0

    def test_single_pair_binding_budget_equality(self):
        varphi_d = 0.5
        rc = synthetic_rc([10.0], [[0.0]], [varphi_d], [2.0], [[0.05]], [[0.02]], n0=1e-2)
        q_s = np.array([0.2])
        zeta = cellular_power_budget(rc, q_s, gamma=1.0)
        assert 0 < zeta < 4.0 * varphi_d
        res = dpcd(rc, q_s, gamma=1.0, p_max=4.0, tol_wmmse=1e-10, bisect_rtol=1e-9)
        assert res.p_s[0] == pytest.approx(zeta / varphi_d, rel=1e-6)

    def test_two_pair_grid_search_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            phi_d = rng.uniform(0.5, 3.0, 2)
            psi = rng.uniform(0.01, 0.2, (2, 2))
            np.fill_diagonal(psi, rng.uniform(0.005, 0.05, 2))
            cu_to_rx = rng.uniform(0.05, 0.3, (1, 2))
            varphi_d = rng.uniform(0.05, 0.5, 2)
            budget_scale = rng.uniform(0.3, 1.2)
            n0 = 1e-2
            zeta_target = budget_scale * float(varphi_d.sum())
            rc = RateCoeffs(phi_c=np.array([zeta_target + n0]), varphi_c=np.zeros((1, 1)),
                            varphi_d=varphi_d, phi_d=phi_d, psi_d=psi,
                            cu_to_rx_weight=cu_to_rx, noise_power=n0)
            q_s = np.array([1.0])
            res = dpcd(rc, q_s, gamma=1.0, p_max=1.0, tol_wmmse=1e-9, bisect_rtol=1e-9)
            grid = np.linspace(0, 1, 200)
            g1, g2 = np.meshgrid(grid, grid, indexing="ij")
            sigma_d = (np.ones(1) @ cu_to_rx + n0)
            mask = g1 * varphi_d[0] + g2 * varphi_d[1] <= zeta_target
            i1 = g1 * psi[0, 0] + g2 * psi[1, 0] + sigma_d[0]
            i2 = g1 * psi[0, 1] + g2 * psi[1, 1] + sigma_d[1]
            obj = np.log2(1 + g1 * phi_d[0] / i1) + np.log2(1 + g2 * phi_d[1] / i2)
            best = obj[mask].max()
            assert res.objective_trace[-1] >= 0.99 * best
            # never violates the budget
            assert float(res.p_s @ varphi_d) <= zeta_target * (1 + 1e-12)

    def test_surrogate_monotone_per_iteration(self):
        cfg = small_config(sinr_target=2.0)
        rc = pipeline_rc(cfg)
        res_c = dpcc(rc, np.full(cfg.n_d2d, cfg.max_power_d2d), cfg.sinr_target,
                     cfg.max_power_cu, tol=1e-8)
        assert res_c.feasible
        res = dpcd(rc, res_c.q_s, cfg.sinr_target, cfg.max_power_d2d, tol_wmmse=1e-5)
        assert res.iterations > 5   # long enough to be a meaningful monotonicity check
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs >= -1e-8 * max(1.0, abs(res.objective_trace[-1])))

    def test_negative_budget_raises(self):
        rc = synthetic_rc([1.0], [[0.0]], [0.5], [2.0], [[0.05]], [[0.02]], n0=1e-2)
        with pytest.raises(InfeasibleBudgetError, match="zeta"):
            dpcd(rc, q_s=np.array([1e-6]), gamma=50.0, p_max=4.0)


def _d2d_sum_rate(rc, p_sq, sigma_d):
    interf = p_sq @ rc.psi_d + sigma_d
    return float(np.sum(np.log2(1.0 + p_sq * rc.phi_d / interf)))


def reference_dpcd(rc, q_s, gamma, p_max, tol_wmmse=1e-3, bisect_rtol=1e-3, max_iter=50_000,
                   p_init=None):
    """The WMMSE loop as first written: every bisection step re-evaluates
    the whole update.  dpcd must reproduce it bit for bit."""
    k = rc.phi_d.size
    p_max = np.broadcast_to(np.asarray(p_max, dtype=float), (k,))
    zeta = cellular_power_budget(rc, q_s, gamma)
    if zeta < 0.0:
        raise InfeasibleBudgetError(f"cellular QoS leaves no D2D budget (zeta = {zeta:.3e})")
    sigma_d = sigma_d_of(rc, q_s)
    sqrt_phi = np.sqrt(rc.phi_d)
    f_cap = np.sqrt(p_max)

    f = f_cap.copy() if p_init is None else np.sqrt(np.asarray(p_init, dtype=float))
    w = np.ones(k)
    trace = []

    def f_update(lam, w, nu):
        num = w * nu * sqrt_phi
        denom = w * nu ** 2 * rc.phi_d + rc.psi_d @ (w * nu ** 2) + lam * rc.varphi_d
        # a silent pair (nu = 0) stays silent; avoids 0/0 on degenerate starts
        return np.where(num > 0.0, np.minimum(f_cap, num / np.maximum(denom, 1e-300)), 0.0)

    def budget_used(f_vec):
        return float(f_vec ** 2 @ rc.varphi_d)

    it = 0
    for it in range(1, max_iter + 1):
        w_old = w
        total = f ** 2 * rc.phi_d + (f ** 2) @ rc.psi_d + sigma_d
        nu = f * sqrt_phi / total
        w = 1.0 / (1.0 - nu * f * sqrt_phi)

        lam = 0.0
        if budget_used(f_update(0.0, w, nu)) > zeta:
            hi = 1.0
            for _ in range(60):
                if budget_used(f_update(hi, w, nu)) <= zeta:
                    break
                hi *= 2.0
            else:
                raise BracketError("could not bracket the budget multiplier after 60 doublings")
            lo = 0.0
            for _ in range(200):
                if zeta - budget_used(f_update(hi, w, nu)) <= bisect_rtol * zeta + 1e-15:
                    break
                mid = 0.5 * (lo + hi)
                if budget_used(f_update(mid, w, nu)) > zeta:
                    lo = mid
                else:
                    hi = mid
            lam = hi
        f = f_update(lam, w, nu)
        trace.append(_d2d_sum_rate(rc, f ** 2, sigma_d))
        if float(np.sum(np.abs(np.log(w) - np.log(w_old)))) <= tol_wmmse:
            break
    else:
        raise RuntimeError(f"dpcd did not converge in {max_iter} iterations")

    return f ** 2, trace, it, lam


def _fig7_instance(n_d2d, gamma, trial):
    """Rate coefficients of one fig7 trial and its first-round cellular powers.

    Where some CU's power stays capped (QoS infeasible at full D2D power),
    the budget left for the D2D pairs is tight and the multiplier binds."""
    cfg = SystemConfig(n_d2d=n_d2d, sinr_target=gamma, rng_seed=trial_seed(777, trial))
    rc = next(_scenario_pipeline([cfg], _large_scale(cfg, [cfg.rng_seed])))[-1][0]
    cell = dpcc(rc, np.full(n_d2d, cfg.max_power_d2d), gamma, cfg.max_power_cu, tol=cfg.tol_power)
    return cfg, rc, cell.q_s


def _dpcd_case(name):
    """(rc, q_s, gamma, p_max, keyword arguments, expected multiplier sign)."""
    if name == "binding budget pair":
        rc = synthetic_rc([10.0], [[0.0]], [0.5], [2.0], [[0.05]], [[0.02]], n0=1e-2)
        return rc, np.array([0.2]), 1.0, 4.0, dict(tol_wmmse=1e-10, bisect_rtol=1e-9), True
    if name == "multiplier zero":
        cfg, rc, q_s = _fig7_instance(10, 0.372, 0)
        p_init, positive = None, False
    elif name == "multiplier positive":
        cfg, rc, q_s = _fig7_instance(10, 1.0, 3)
        p_init, positive = None, True
    else:
        # second jdpc round: cellular powers refreshed for the first round's
        # D2D powers, which warm-start the WMMSE; the silent pair's draw
        # also runs the bisection
        silent = name == "silent pair warm start"
        cfg, rc, _ = _fig7_instance(10, 0.372, 7 if silent else 4)
        first = jdpc_point(rc[None], cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d,
                           tol_power=cfg.tol_power, tol_wmmse=cfg.tol_wmmse, outer_cap=1)[0]
        p_init = first.p_s.copy()
        q_s = dpcc(rc, p_init, cfg.sinr_target, cfg.max_power_cu, tol=cfg.tol_power).q_s
        if silent:
            p_init[3] = 0.0
        positive = silent
    kw = dict(tol_wmmse=cfg.tol_wmmse, bisect_rtol=cfg.tol_power, p_init=p_init)
    return rc, q_s, cfg.sinr_target, cfg.max_power_d2d, kw, positive


class TestDpcdMatchesReferenceLoop:
    @pytest.mark.parametrize("name", ["multiplier zero", "multiplier positive", "jdpc warm start",
                                      "silent pair warm start", "binding budget pair"])
    def test_bit_identical(self, name):
        rc, q_s, gamma, p_max, kw, positive = _dpcd_case(name)
        p_ref, trace_ref, it_ref, lam_ref = reference_dpcd(rc, q_s, gamma, p_max, **kw)
        res = dpcd(rc, q_s, gamma, p_max, **kw)
        assert res.p_s.tobytes() == p_ref.tobytes()
        assert res.objective_trace == trace_ref
        assert res.iterations == it_ref
        assert res.multiplier == lam_ref
        assert (res.multiplier > 0.0) == positive
        if name == "silent pair warm start":
            assert res.p_s[3] == 0.0


class TestJdpc:
    def test_no_pairs_reduces_to_single_dpcc(self):
        rc = RateCoeffs(phi_c=np.array([5.0, 4.0]),
                        varphi_c=np.array([[0.1, 0.2], [0.3, 0.1]]),
                        varphi_d=np.zeros(0),
                        phi_d=np.zeros(0), psi_d=np.zeros((0, 0)),
                        cu_to_rx_weight=np.zeros((2, 0)),
                        noise_power=1.0)
        res = jdpc_point(rc[None], gamma=1.5, q_max=10.0, p_max=np.zeros(0))[0]
        assert res.feasible
        assert res.outer_iterations == 1
        assert res.trace == [0.0]
        eta_c, _ = bound_sinrs(rc, res.q_s, res.p_s)
        assert np.allclose(eta_c, 1.5, rtol=1e-2)

    def test_two_link_grid_oracle(self):
        # one CU, one pair: compare against a 2-D grid over (q, p)
        rng = np.random.default_rng(3)
        for _ in range(3):
            phi_c = rng.uniform(3, 8)
            u_eps = rng.uniform(0.01, 0.1)
            varphi_d = rng.uniform(0.2, 0.8)
            phi_d = rng.uniform(1, 4)
            psi_self = rng.uniform(0.005, 0.05)
            w = rng.uniform(0.05, 0.3)
            n0 = 1e-2
            rc = synthetic_rc([phi_c], [[u_eps]], [varphi_d], [phi_d],
                              [[psi_self]], [[w]], n0=n0)
            gamma, q_max, p_max = 1.8, 6.0, 3.0
            res = jdpc_point(rc[None], gamma, q_max, p_max, tol_power=1e-9, tol_wmmse=1e-9)[0]
            assert res.feasible
            qs = np.linspace(1e-6, q_max, 400)
            ps = np.linspace(0, p_max, 400)
            qg, pg = np.meshgrid(qs, ps, indexing="ij")
            eta_c = qg * phi_c / (qg * u_eps + pg * varphi_d + n0)
            eta_d = pg * phi_d / (pg * psi_self + qg * w + n0)
            feas = eta_c >= gamma
            obj = np.where(feas, np.log2(1 + eta_d), -np.inf)
            best = obj.max()
            ours = res.trace[-1]
            assert ours >= best - 0.02 * abs(best) - 1e-9

    def test_desk_scale_converges_fast_with_monotone_trace(self):
        # desk default geometry (N=5, K=20, B=128, M=8); the SINR target is
        # scaled down by the array-gain ratio to the full-size system so the
        # draw is QoS-feasible at this antenna count
        cfg = SystemConfig(sinr_target=0.372, rng_seed=14)
        rc = pipeline_rc(cfg)
        prefactor = 1 - cfg.pilot_len / cfg.coherence_len
        res = jdpc_point(rc[None], cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d,
                         tol_power=cfg.tol_power, tol_wmmse=cfg.tol_wmmse,
                         prefactor=prefactor)[0]
        assert res.feasible
        assert res.outer_iterations <= 5
        diffs = np.diff(res.trace)
        assert np.all(diffs >= -1e-9)

    def test_infeasible_propagates_as_flag(self):
        rc = synthetic_rc([1.0], [[0.0]], [1.0], [1.0], [[0.1]], [[0.05]], n0=1.0)
        res = jdpc_point(rc[None], gamma=100.0, q_max=1.0, p_max=1.0)[0]
        assert not res.feasible


def reference_jdpc(rc, gamma, q_max, p_max, tol_power, tol_wmmse, prefactor=1.0, p_init=None):
    """The joint loop as first written, one instance at a time, on reference_dpcd."""
    p_max_vec = np.broadcast_to(np.asarray(p_max, dtype=float), (rc.phi_d.size,))
    p = p_max_vec.copy() if p_init is None else np.asarray(p_init, dtype=float).copy()
    trace = []
    for outer in range(1, 11):
        cell = dpcc(rc, p, gamma, q_max, tol=tol_power)
        q = cell.q_s
        if not cell.feasible:
            return q, p, outer, trace, False
        try:
            p = reference_dpcd(rc, q, gamma, p_max_vec, tol_wmmse=tol_wmmse,
                               bisect_rtol=tol_power, p_init=p)[0]
        except InfeasibleBudgetError:
            return q, p, outer, trace, False
        _, eta_d = bound_sinrs(rc, q, p)
        trace.append(prefactor * float(np.sum(np.log2(1.0 + eta_d))))
        if outer >= 2 and abs(trace[-1] - trace[-2]) < tol_power:
            break
    return q, p, outer, trace, True


def _stack_case():
    """Ten-pair fig7 draws at gamma = 0.372: trials 0, 4, 8, 9 and 10 stop
    after 3, 4, 10 (the cap), 5 and 2 outer rounds, trial 1 is QoS-infeasible,
    and trial 7 is warm-started with pair 3 silent, so its WMMSE bisects."""
    rcs, warm = [], []
    for trial in (0, 1, 4, 7, 8, 9, 10):
        cfg, rc, _ = _fig7_instance(10, 0.372, trial)
        p_init = np.full(10, cfg.max_power_d2d)
        if trial == 7:
            p_init = jdpc_point(rc[None], cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d,
                                tol_power=cfg.tol_power, tol_wmmse=cfg.tol_wmmse, outer_cap=1).p_s[0]
            p_init[3] = 0.0
        rcs.append(rc)
        warm.append(p_init)
    kw = dict(tol_power=cfg.tol_power, tol_wmmse=cfg.tol_wmmse)
    return cfg, rcs, np.array(warm), kw


def _same_result(a, b):
    return (a.q_s.tobytes() == b.q_s.tobytes() and a.p_s.tobytes() == b.p_s.tobytes()
            and a.se.tobytes() == b.se.tobytes() and a.trace == b.trace
            and a.outer_iterations == b.outer_iterations and a.feasible == b.feasible)


class TestStackedSolvers:
    def test_jdpc_rows_match_their_solo_runs_and_the_reference_loop(self, monkeypatch):
        cfg, rcs, warm, kw = _stack_case()
        args = (cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d)
        multipliers = []
        stack_dpcd = dpcd_stack

        def spy(*a, **k):
            out = stack_dpcd(*a, **k)
            multipliers.append([r.multiplier for r in out[0]])
            return out

        monkeypatch.setattr(power_control, "dpcd_stack", spy)
        stacked = jdpc_point(RateCoeffs.stack(rcs), *args, p_init=warm, **kw)
        monkeypatch.undo()
        assert stacked.feasible.tolist() == [True, False, True, True, True, True, True]
        assert stacked.outer_iterations.tolist() == [3, 1, 4, 2, 10, 5, 2]
        # row 3 (third in the first dpcd stack: row 1 never reaches it) bisects and stays silent
        assert multipliers[0][2] > 0.0 and stacked.p_s[3, 3] == 0.0
        assert [len(m) for m in multipliers] == [6, 6, 4, 3, 2, 1, 1, 1, 1, 1]
        for r, (rc, p_init) in enumerate(zip(rcs, warm)):
            res = stacked[r]
            assert _same_result(res, jdpc_point(rc[None], *args, p_init=p_init[None], **kw)[0])
            q, p, outer, trace, feasible = reference_jdpc(rc, *args, p_init=p_init, **kw)
            assert (res.q_s.tobytes(), res.p_s.tobytes(), res.outer_iterations, res.trace,
                    res.feasible) == (q.tobytes(), p.tobytes(), outer, trace, feasible)

    def test_jdpc_stack_keeps_each_rows_rounds_in_arrays(self):
        cfg, rcs, warm, kw = _stack_case()
        res = jdpc_point(RateCoeffs.stack(rcs), cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d,
                         p_init=warm, **kw)
        assert (res.q_s.shape, res.p_s.shape, res.se.shape) == ((7, 5), (7, 10), (7, 10))
        assert res.outer_iterations.dtype.kind == "i" and res.feasible.dtype == bool
        # the QoS-infeasible row has no sum SE for its only round
        assert res[1].trace == [] and not res.se[1].any()
        for r in range(7):
            rounds = len(res[r].trace)
            assert rounds == res.outer_iterations[r] - (not res.feasible[r])
            assert res.se[r, :rounds].all() and not res.se[r, rounds:].any()

    def test_jdpc_stack_without_pairs(self):
        # the K = 0 instance of test_no_pairs_reduces_to_single_dpcc, and a
        # second row with a twice weaker CU 0 link
        rc = RateCoeffs(phi_c=np.array([[5.0, 4.0], [2.5, 4.0]]),
                        varphi_c=np.array([[[0.1, 0.2], [0.3, 0.1]]] * 2),
                        varphi_d=np.zeros((2, 0)),
                        phi_d=np.zeros((2, 0)), psi_d=np.zeros((2, 0, 0)),
                        cu_to_rx_weight=np.zeros((2, 2, 0)),
                        noise_power=1.0)
        res = jdpc_point(rc, gamma=1.5, q_max=10.0, p_max=np.zeros(0))
        assert (res.q_s.shape, res.p_s.shape, res.se.shape) == ((2, 2), (2, 0), (2, 10))
        assert res.feasible.tolist() == [True, True] and res.outer_iterations.tolist() == [1, 1]
        for r in range(2):
            assert _same_result(res[r], jdpc_point(rc[r][None], gamma=1.5, q_max=10.0, p_max=np.zeros(0))[0])
            assert res[r].trace == [0.0]
            eta_c, _ = bound_sinrs(rc[r], res.q_s[r], res.p_s[r])
            assert np.allclose(eta_c, 1.5, rtol=1e-2)

    def test_dpcd_rows_bisecting_together_match_the_reference_loop(self):
        names = ["multiplier zero", "multiplier positive", "jdpc warm start", "silent pair warm start"]
        cases = [_dpcd_case(name) for name in names]
        rcs = [case[0] for case in cases]
        warm = [case[4]["p_init"] for case in cases]
        p_max = cases[0][3]
        stacked = wmmse_group(
            *(np.array([getattr(rc, f) for rc in rcs]) for f in ("phi_d", "psi_d", "varphi_d")),
            np.array([sigma_d_of(rc, q_s) for rc, q_s, *_ in cases]),
            [cellular_power_budget(rc, q_s, gamma) for rc, q_s, gamma, *_ in cases], p_max,
            p_init=np.array([np.full(10, p_max) if p is None else p for p in warm]))
        for (rc, q_s, gamma, p_max, kw, positive), res in zip(cases, stacked):
            p_ref, trace_ref, it_ref, lam_ref = reference_dpcd(rc, q_s, gamma, p_max, **kw)
            assert (res.p_s.tobytes(), res.objective_trace, res.iterations, res.multiplier) == (
                p_ref.tobytes(), trace_ref, it_ref, lam_ref)
            assert (res.multiplier > 0.0) == positive

    def test_dpcd_stack_names_the_row_that_does_not_converge(self):
        # first-round instances needing 9, 442 and 2 WMMSE iterations
        rcs, qs = [], []
        for trial in (3, 0, 10):
            cfg, rc, q_s = _fig7_instance(10, 0.372, trial)
            rcs.append(rc)
            qs.append(q_s)
        stack = [np.array([getattr(rc, f) for rc in rcs]) for f in ("phi_d", "psi_d", "varphi_d")]
        sigma_d = np.array([sigma_d_of(rc, q) for rc, q in zip(rcs, qs)])
        zeta = [cellular_power_budget(rc, q, cfg.sinr_target) for rc, q in zip(rcs, qs)]
        with pytest.raises(SolverError, match=r"did not converge in 50 iterations \(stack rows \[1\]\)") as err:
            wmmse_group(*stack, sigma_d, zeta, cfg.max_power_d2d, max_iter=50)
        assert err.value.rows == [1]
        solved = wmmse_group(*stack, sigma_d, zeta, cfg.max_power_d2d, max_iter=500)
        assert [r.iterations for r in solved] == [9, 442, 2]

    def test_jdpc_stack_names_failing_rows_in_its_own_order(self, monkeypatch):
        rcs = [_fig7_instance(10, 0.372, trial)[1] for trial in (1, 3, 0, 10)]
        cfg = _fig7_instance(10, 0.372, 0)[0]
        monkeypatch.setattr(power_control, "dpcd_stack",
                            functools.partial(dpcd_stack, max_iter=50))
        with pytest.raises(SolverError) as err:
            jdpc_point(RateCoeffs.stack(rcs), cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d)
        assert err.value.rows == [2]   # trial 1 is QoS-infeasible and never reaches dpcd


def _first_round_stack(instances):
    """dpcd_stack arguments and keywords for first-round fig7 instances given
    as (n_d2d, gamma, trial), and the (rc, q_s, gamma) of each row."""
    rows = [_fig7_instance(*inst) for inst in instances]
    args = [np.array([getattr(rc, f) for _, rc, _ in rows]) for f in ("phi_d", "psi_d", "varphi_d")]
    args.append(np.array([sigma_d_of(rc, q) for _, rc, q in rows]))
    args.append([cellular_power_budget(rc, q, cfg.sinr_target) for cfg, rc, q in rows])
    cfg = rows[0][0]
    kw = dict(tol_wmmse=cfg.tol_wmmse, bisect_rtol=cfg.tol_power)
    return (*args, cfg.max_power_d2d), kw, [(rc, q, c.sinr_target) for c, rc, q in rows]


def _matches_reference(res, rc, q_s, gamma, p_max, **kw):
    p_ref, trace_ref, it_ref, lam_ref = reference_dpcd(rc, q_s, gamma, p_max, **kw)
    return (res.p_s.tobytes(), res.objective_trace, res.iterations,
            np.float64(res.multiplier).tobytes()) == (
        p_ref.tobytes(), trace_ref, it_ref, np.float64(lam_ref).tobytes())


class TestLoneRow:
    """A row left alone in its group runs through the same stacked matrix
    products, which give it the bits of the 1-D call."""

    def test_stacked_helpers_give_each_row_the_bits_of_the_1d_matmul(self):
        from d2dmimo.receivers import _dot, _matvec, _vecmat
        rng = np.random.default_rng(11)
        keep = np.array([True, False, True, True, False, True])
        for k in (1, 2, 10, 15, 20, 40, 100):
            # positive terms over ten decades, like the interference gains
            a = 10.0 ** rng.uniform(-12, -2, (6, k, k))
            x = 10.0 ** rng.uniform(-3, 1, (6, k))
            y = 10.0 ** rng.uniform(-12, -2, (6, k))
            for a_s, x_s, y_s in ((a, x, y), (a[keep], x[keep], y[keep])):
                mv, vm, d = _matvec(a_s, x_s), _vecmat(x_s, a_s), _dot(x_s, y_s)
                for t in range(len(x_s)):
                    assert mv[t].tobytes() == (a_s[t] @ x_s[t]).tobytes(), (k, t)
                    assert vm[t].tobytes() == (x_s[t] @ a_s[t]).tobytes(), (k, t)
                    assert d[t].tobytes() == (x_s[t] @ y_s[t]).tobytes(), (k, t)
                # the WMMSE loop's form: operands and results are views of flat
                # arrays that hold other groups' rows before them
                n = x_s.size
                flat = np.empty(3 * n + 2)
                xv, out = flat[1:n + 1].reshape(x_s.shape), flat[n + 2:2 * n + 2].reshape(x_s.shape)
                xv[...] = x_s
                np.matmul(a_s, xv[..., None], out=out[..., None])
                assert out.tobytes() == mv.tobytes()
                np.matmul(xv[:, None, :], a_s, out=out[:, None, :])
                assert out.tobytes() == vm.tobytes()
                used = flat[2 * n + 2:2 * n + 2 + len(x_s)]
                np.matmul(xv[:, None, :], y_s[..., None], out=used[:, None, None])
                assert used.tobytes() == d.tobytes()

    def test_row_running_alone_for_thousands_of_iterations(self):
        # trials 10, 2, 3 and 4 need 2, 5376, 9 and 1000 iterations: two rows
        # share the stack for 1000 iterations, then row 1 runs 4376 alone
        args, kw, rows = _first_round_stack([(10, 0.372, t) for t in (10, 2, 3, 4)])
        stacked = wmmse_group(*args, **kw)
        assert [r.iterations for r in stacked] == [2, 5376, 9, 1000]
        for res, (rc, q_s, gamma) in zip(stacked, rows):
            assert _matches_reference(res, rc, q_s, gamma, args[-1], **kw)

    def test_lone_row_bisects_its_binding_budget(self, monkeypatch):
        # fig7 trial 3 at gamma = 1 binds in all its 684 iterations; the other
        # rows never bind and leave after 2 and 9
        args, kw, rows = _first_round_stack([(10, 0.372, 10), (10, 1.0, 3), (10, 0.372, 3)])
        bisected = []
        bisect = power_control._bisect_multiplier

        def spy(base, *a):
            bisected.append(list(a[-1]))
            return bisect(base, *a)

        monkeypatch.setattr(power_control, "_bisect_multiplier", spy)
        stacked = wmmse_group(*args, **kw)
        assert [r.iterations for r in stacked] == [2, 684, 9]
        assert bisected == [[1]] * 684 and stacked[1].multiplier > 0.0
        for res, (rc, q_s, gamma) in zip(stacked, rows):
            assert _matches_reference(res, rc, q_s, gamma, args[-1], **kw)

    @pytest.mark.parametrize("name", ["binding budget pair", "silent pair warm start"])
    def test_stack_of_one(self, name):
        rc, q_s, gamma, p_max, kw, positive = _dpcd_case(name)
        p_init = kw.pop("p_init", None)
        res, = wmmse_group(rc.phi_d[None], rc.psi_d[None], rc.varphi_d[None],
                          sigma_d_of(rc, q_s)[None], [cellular_power_budget(rc, q_s, gamma)], p_max,
                          p_init=None if p_init is None else p_init[None], **kw)
        assert _matches_reference(res, rc, q_s, gamma, p_max, p_init=p_init, **kw)
        assert (res.multiplier > 0.0) == positive

    def test_lone_row_at_max_iter_names_its_stack_row(self, monkeypatch):
        # trials 3, 10 and 0 need 9, 2 and 442 iterations: row 2 is alone
        # from iteration 10 and fails at 50
        args, kw, _ = _first_round_stack([(10, 0.372, t) for t in (3, 10, 0)])
        with pytest.raises(SolverError) as err:
            wmmse_group(*args, max_iter=50, **kw)
        assert err.value.rows == [2]
        # trial 1 is QoS-infeasible, so dpcd solves rc rows 1-3 and its row 2 is rc row 3
        rcs = [_fig7_instance(10, 0.372, trial)[1] for trial in (1, 10, 3, 0)]
        cfg = _fig7_instance(10, 0.372, 0)[0]
        monkeypatch.setattr(power_control, "dpcd_stack",
                            functools.partial(dpcd_stack, max_iter=50))
        with pytest.raises(SolverError) as err:
            jdpc_point(RateCoeffs.stack(rcs), cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d)
        assert err.value.rows == [3]


def _fig7_rc(n_d2d, trials):
    """Rate coefficients of fig7 draws of root seed 777 at n_d2d pairs, stacked."""
    cfg = SystemConfig(n_d2d=n_d2d, sinr_target=0.372, rng_seed=777)
    return next(_scenario_pipeline([cfg], _large_scale(cfg, [trial_seed(777, t) for t in trials])))[-1]


def _merge_points():
    """JdpcPoints whose joint solve runs every path of the ragged WMMSE loop:
    fig7 draws at K = 10, 15 and 20 (each with QoS-infeasible trials), equal-K
    points on the K = 10 draws that differ in gamma (fig9; at 0.7 budgets bind)
    or in the prefactor (fig8), a point without pairs, and a one-pair point
    whose row 0 does not interfere with its CU, so dpcc, which converges from
    below, meets the target within its slack and leaves zeta < 0."""
    cfg = SystemConfig()
    rc10, rc15, rc20 = _fig7_rc(10, range(10)), _fig7_rc(15, range(6)), _fig7_rc(20, range(6))
    caps = dict(q_max=cfg.max_power_cu, p_max=cfg.max_power_d2d, tol_power=cfg.tol_power,
                tol_wmmse=cfg.tol_wmmse)
    no_pairs = RateCoeffs(phi_c=np.array([[5.0, 4.0], [2.5, 4.0]]), varphi_c=np.array([[[0.1, 0.2], [0.3, 0.1]]] * 2),
                          varphi_d=np.zeros((2, 0)), phi_d=np.zeros((2, 0)), psi_d=np.zeros((2, 0, 0)),
                          cu_to_rx_weight=np.zeros((2, 2, 0)), noise_power=1.0)
    short = RateCoeffs.stack([synthetic_rc([5.0], [[0.1]], [varphi_d], [2.0], [[0.05]], [[0.02]])
                              for varphi_d in (0.0, 0.5)])
    return [JdpcPoint(rc10, 0.372, prefactor=0.8, **caps), JdpcPoint(rc15, 0.372, prefactor=0.8, **caps),
            JdpcPoint(rc10, 0.7, prefactor=0.8, **caps), JdpcPoint(rc20, 0.372, prefactor=0.8, **caps),
            JdpcPoint(rc10, 0.372, prefactor=0.6, **caps), JdpcPoint(no_pairs, 1.5, 10.0, np.zeros(0)),
            JdpcPoint(short, 1.8, 6.0, 3.0)]


def _hex(res):
    return [a.tobytes().hex() for a in (res.q_s, res.p_s, res.se, res.outer_iterations, res.feasible)]


class TestJointSolveOverPoints:
    def test_each_point_gets_the_bits_it_gets_alone(self, monkeypatch):
        points = _merge_points()
        calls, bisected = [], []
        solve, bisect = power_control.dpcd_stack, power_control._bisect_multiplier

        def solve_spy(groups, **kw):
            out = solve(groups, **kw)
            calls.append([sorted(r.iterations for r in rows) for rows in out])
            return out

        def bisect_spy(base, *args):
            bisected.append(len(args[-1]))
            return bisect(base, *args)

        monkeypatch.setattr(power_control, "dpcd_stack", solve_spy)
        monkeypatch.setattr(power_control, "_bisect_multiplier", bisect_spy)
        merged = jdpc_stack(points)
        monkeypatch.undo()
        # round 1 solves the rows of the three K = 10 points as one group, then
        # K = 15, K = 20 and the one-pair point's row 1 (its row 0 is short)
        assert [len(its) for its in calls[0]] == [23, 2, 1, 1]
        assert bisected and all(n > 0 for n in bisected)
        # a group down to one row: its slowest row runs on after the others leave
        assert any(len(its) > 1 and its[-1] > its[-2] for group in calls for its in group)
        for pt, res in zip(points, merged):
            assert _hex(res) == _hex(jdpc_stack([pt])[0])
        assert [np.count_nonzero(~res.feasible) for res in merged[:5]] == [2, 4, 3, 5, 2]
        assert merged[5].feasible.all() and (merged[5].outer_iterations == 1).all()
        short = points[-1].rc
        assert dpcc(short[0], np.full(1, 3.0), 1.8, 6.0).feasible
        assert cellular_power_budget(short[0], merged[-1].q_s[0], 1.8) < 0.0
        assert merged[-1].feasible.tolist() == [False, True]
        assert merged[-1].outer_iterations[0] == 1 and merged[-1][0].trace == []

    def test_a_failing_row_is_named_by_its_point_and_row(self, monkeypatch):
        # at 300 WMMSE iterations the fig7 points fail in round 1, each on
        # the rows it fails on alone; the others converge
        points = _merge_points()
        monkeypatch.setattr(power_control, "dpcd_stack", functools.partial(dpcd_stack, max_iter=300))
        alone = []
        for pt in points:
            with pytest.raises(SolverError) if pt.rc.phi_d.shape[-1] >= 10 else nullcontext() as err:
                jdpc_stack([pt])
            alone.append(err and (err.value.point, err.value.rows))
        assert alone == [(0, [0, 2, 4, 7]), (0, [0, 2]), (0, [0, 2, 4, 7]), (0, [2]), (0, [0, 2, 4, 7]),
                         None, None]
        for order, named in (([5, 6, 3], (2, [2])),          # the only failing point, last
                             ([1, 0, 2], (0, [0, 2])),       # of several, the first
                             ([3, 4, 0], (0, [2]))):
            with pytest.raises(SolverError) as err:
                jdpc_stack([points[i] for i in order])
            assert (err.value.point, err.value.rows) == named


class TestRecordTrace:
    def test_untraced_run_keeps_every_other_bit(self):
        args, kw, _ = _first_round_stack([(10, 0.372, 10), (10, 1.0, 3), (10, 0.372, 0),
                                          (10, 0.372, 4)])
        traced = wmmse_group(*args, **kw)
        bare = wmmse_group(*args, record_trace=False, **kw)
        assert [len(r.objective_trace) for r in traced] == [2, 684, 442, 1000]
        for a, b in zip(traced, bare):
            assert b.objective_trace == []
            assert (a.p_s.tobytes(), a.iterations, np.float64(a.multiplier).tobytes()) == (
                b.p_s.tobytes(), b.iterations, np.float64(b.multiplier).tobytes())

    def test_joint_power_control_records_no_wmmse_trace(self, monkeypatch):
        cfg, rcs, warm, kw = _stack_case()
        asked = []
        stack_dpcd = dpcd_stack

        def spy(*a, **k):
            asked.append(k.get("record_trace", True))
            out = stack_dpcd(*a, **k)
            assert all(r.objective_trace == [] for rows in out for r in rows)
            return out

        monkeypatch.setattr(power_control, "dpcd_stack", spy)
        jdpc_point(RateCoeffs.stack(rcs), cfg.sinr_target, cfg.max_power_cu, cfg.max_power_d2d,
                   p_init=warm, **kw)
        assert asked and not any(asked)
