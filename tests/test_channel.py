import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dmimo.scenario import LargeScale, substream, FADING, NOISE
from d2dmimo.channel import (PilotAssignment, PowerProfile, _cn, draw_fast_fading, fading_normals,
                             noise_normals, normals, estimation_coeffs, simulate_pilot_phase,
                             mmse_estimate)
from d2dmimo.receivers import monte_carlo_plan, select_cancellation
from helpers import assignment, make_ls, same_bits, small_config


def plan_of(ls, pa, pp, cfg):
    """The Monte Carlo plan of both receiver sides of one draw or a stack."""
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    return monte_carlo_plan(ls, pa, pp, coeffs, select_cancellation(ls, pa, cfg), cfg.noise_power)


def reference_cn(rng, shape):
    """CN(0, 1) samples as the sum of their parts, drawn from a generator."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestPilotAssignment:
    def test_reuse_matrix_has_unit_column_sums(self):
        pa = assignment([4, 4, 5, 6, 6, 6])
        o = pa.to_matrix()
        assert o.shape == (3, 6)
        assert np.all(o.sum(axis=0) == 1)

    def test_every_pair_in_own_group(self):
        pa = assignment([4, 5, 5, 6, 4, 6])
        for k in range(6):
            assert k in pa.group_of(k)

    def test_out_of_range_pilot_rejected(self):
        with pytest.raises(ValueError, match="pilot indices"):
            assignment([3, 4, 5, 6, 4, 5])
        with pytest.raises(ValueError, match="pilot indices"):
            assignment([4, 4, 5, 7, 4, 5])


class TestFastFading:
    def test_deterministic_per_stream(self):
        cfg = small_config()
        r1, r2 = draw_fast_fading(cfg), draw_fast_fading(cfg)
        assert np.array_equal(r1.h_c, r2.h_c)
        assert np.array_equal(r1.g_d, r2.g_d)

    def test_unit_variance_and_circular_symmetry(self):
        cfg = small_config(bs_antennas=1000, n_cu=100, pilot_len=101,
                           coherence_len=200, pzf_bs=(0, 0), pzf_d2d=(0, 0))
        h = draw_fast_fading(cfg).h_c  # 1e5 entries
        power = np.abs(h) ** 2
        assert power.mean() == pytest.approx(1.0, abs=0.01)
        assert h.real.var() == pytest.approx(0.5, abs=0.005)
        assert h.imag.var() == pytest.approx(0.5, abs=0.005)
        assert abs(h.mean()) < 0.01

    @pytest.mark.parametrize("shape", [(0,), (7,), (256, 20), (20, 8, 20), (3, 1, 4, 2)])
    def test_cn_matches_the_sum_of_parts_form(self, shape):
        # read at an offset from one draw's normals, a row of a stack of
        # them, or a whole stack
        count = 2 * int(np.prod(shape))
        want = reference_cn(substream(3, 1), shape)
        for z in (normals(substream(3, 1), count), normals([substream(3, 1)], count)[0]):
            got, at = _cn(np.concatenate([np.zeros(5), z, np.zeros(3)]), 5, shape)
            assert same_bits(got, want) and at == 5 + count
        got, at = _cn(normals([substream(4, 1), substream(3, 1)], count + 2), 0, shape)
        assert same_bits(got[1], want) and at == count

    def test_draw_reads_its_normals_in_the_sum_of_parts_order(self):
        cfg = small_config()
        b, n, k, m = cfg.bs_antennas, cfg.n_cu, cfg.n_d2d, cfg.d2drx_antennas
        rng = substream(3, FADING)
        parts = [reference_cn(rng, shape) for shape in ((b, n), (b, k), (k, m, k), (k, m, n))]
        for source in (substream(3, FADING), normals(substream(3, FADING), fading_normals(cfg))):
            real = draw_fast_fading(cfg, source)
            assert all(same_bits(got, want) for got, want in zip((real.h_c, real.h_d, real.g_d, real.g_c), parts))

    def test_too_few_normals_raise(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="normals"):
            draw_fast_fading(cfg, np.zeros((2, fading_normals(cfg) - 1)))


class TestEstimationCoeffs:
    def test_cu_half_point(self):
        # pilot SNR of one: delta = x / (x + x)
        rng = np.random.default_rng(0)
        ls = make_ls(rng, 3, 6)
        n0 = 2.0
        pa = assignment([4, 5, 6, 4, 5, 6])
        pp = PowerProfile(q_p=n0 / ls.u_c, p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        cf = estimation_coeffs(ls, pa, pp, n0)
        assert np.allclose(cf.delta_c, 0.5)

    def test_shared_pilot_equal_powers_third(self):
        rng = np.random.default_rng(1)
        ls = make_ls(rng, 3, 6)
        n0 = 3.0
        pa = assignment([4, 4, 5, 5, 6, 6])
        p_p = n0 / ls.u_d  # each pair contributes exactly n0 at the BS
        pp = PowerProfile(q_p=np.ones(3), p_p=p_p, q_s=np.ones(3), p_s=np.ones(6))
        cf = estimation_coeffs(ls, pa, pp, n0)
        assert np.allclose(cf.delta_d, 1.0 / 3.0)

    def test_matches_scalar_transcription(self):
        # independent scalar re-evaluation of every coefficient formula
        rng = np.random.default_rng(2)
        n, k = 2, 3
        ls = make_ls(rng, n, k)
        pa = PilotAssignment(pilot_of=np.array([3, 4, 3]), n_cu=2, pilot_len=4)
        pp = PowerProfile(q_p=rng.uniform(0.5, 2, n), p_p=rng.uniform(0.5, 2, k),
                          q_s=np.ones(n), p_s=np.ones(k))
        n0 = 0.7
        cf = estimation_coeffs(ls, pa, pp, n0)
        for a in range(n):
            s = pp.q_p[a] * ls.u_c[a]
            assert cf.delta_c[a] == pytest.approx(s / (s + n0), rel=1e-14)
        for i in range(k):
            grp = [j for j in range(k) if pa.pilot_of[j] == pa.pilot_of[i]]
            den = sum(pp.p_p[j] * ls.u_d[j] for j in grp) + n0
            assert cf.delta_d[i] == pytest.approx(pp.p_p[i] * ls.u_d[i] / den, rel=1e-14)
            for r in range(k):
                den_r = sum(pp.p_p[j] * ls.v_d[j, r] for j in grp) + n0
                assert cf.mu_d[i, r] == pytest.approx(pp.p_p[i] * ls.v_d[i, r] / den_r, rel=1e-14)
        for a in range(n):
            for r in range(k):
                s = pp.q_p[a] * ls.v_c[a, r]
                assert cf.mu_c[a, r] == pytest.approx(s / (s + n0), rel=1e-14)

    def test_complements_exact(self):
        rng = np.random.default_rng(3)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=rng.uniform(0.1, 3, 3), p_p=rng.uniform(0.1, 3, 6),
                          q_s=np.ones(3), p_s=np.ones(6))
        cf = estimation_coeffs(ls, pa, pp, 1.3)
        assert np.all(cf.delta_c + cf.eps_c == 1.0)
        assert np.all(cf.delta_d + cf.eps_d == 1.0)
        assert np.all(cf.mu_d + cf.eps_dd == 1.0)
        assert np.all(cf.mu_c + cf.eps_cd == 1.0)

    def test_zero_pilot_power_zeroes_mu(self):
        rng = np.random.default_rng(4)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        p_p = np.ones(6)
        p_p[2] = 0.0
        pp = PowerProfile(q_p=np.ones(3), p_p=p_p, q_s=np.ones(3), p_s=np.ones(6))
        cf = estimation_coeffs(ls, pa, pp, 1.0)
        assert np.all(cf.mu_d[2, :] == 0.0)
        assert cf.delta_d[2] == 0.0

    @given(bump=st.floats(0.05, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_own_pilot_power_monotonicity(self, bump):
        rng = np.random.default_rng(5)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 4, 5, 5, 6])
        pp_lo = PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        p_hi = np.ones(6)
        p_hi[0] += bump
        pp_hi = PowerProfile(q_p=np.ones(3), p_p=p_hi, q_s=np.ones(3), p_s=np.ones(6))
        lo = estimation_coeffs(ls, pa, pp_lo, 1.0)
        hi = estimation_coeffs(ls, pa, pp_hi, 1.0)
        assert hi.delta_d[0] > lo.delta_d[0]
        assert hi.mu_d[0, 0] > lo.mu_d[0, 0]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=np.ones(3), p_p=rng.uniform(0.5, 2, 6),
                          q_s=np.ones(3), p_s=np.ones(6))
        perm = np.array([3, 0, 5, 1, 4, 2])
        ls_p = LargeScale(u_c=ls.u_c, u_d=ls.u_d[perm], v_c=ls.v_c[:, perm],
                          v_d=ls.v_d[np.ix_(perm, perm)])
        pa_p = assignment(pa.pilot_of[perm])
        pp_p = PowerProfile(q_p=pp.q_p, p_p=pp.p_p[perm], q_s=pp.q_s, p_s=pp.p_s[perm])
        cf = estimation_coeffs(ls, pa, pp, 1.0)
        cf_p = estimation_coeffs(ls_p, pa_p, pp_p, 1.0)
        assert np.allclose(cf_p.delta_d, cf.delta_d[perm])
        assert np.allclose(cf_p.mu_d, cf.mu_d[np.ix_(perm, perm)])

    def test_nonfinite_gain_rejected(self):
        rng = np.random.default_rng(7)
        ls = make_ls(rng, 3, 6)
        ls.u_d = ls.u_d.copy()
        ls.u_d[0] = np.inf
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        with pytest.raises(ValueError, match="finite"):
            estimation_coeffs(ls, pa, pp, 1.0)


class TestPilotPhase:
    def _setup(self, **kw):
        cfg = small_config(**kw)
        rng = np.random.default_rng(10)
        ls = make_ls(rng, cfg.n_cu, cfg.n_d2d)
        pa = assignment([4, 4, 5, 5, 6, 6], n_cu=cfg.n_cu, pilot_len=cfg.pilot_len)
        pp = PowerProfile(q_p=rng.uniform(0.5, 2, cfg.n_cu), p_p=rng.uniform(0.5, 2, cfg.n_d2d),
                          q_s=np.ones(cfg.n_cu), p_s=np.ones(cfg.n_d2d))
        return cfg, ls, pa, pp

    def test_a_draw_is_a_prefix_of_a_larger_configs_normals(self):
        # a stack read from normals drawn at larger sizes is the stack drawn alone
        cfg, ls, pa, pp = self._setup()
        large = small_config(bs_antennas=64, d2drx_antennas=6, pilot_len=9)
        assert fading_normals(large) > fading_normals(cfg) and noise_normals(large) > noise_normals(cfg)
        seeds = (4, 9)

        def draws(purpose, count=None):
            gens = [substream(seed, purpose, 0) for seed in seeds]
            return gens if count is None else normals(gens, count)

        ls, pa, pp = (type(x).stack([x, x]) for x in (ls, pa, pp))
        alone = draw_fast_fading(cfg, draws(FADING))
        shared = draw_fast_fading(cfg, draws(FADING, fading_normals(large)))
        for name in ("h_c", "h_d", "g_d", "g_c"):
            assert same_bits(getattr(shared, name), getattr(alone, name))
        plan = plan_of(ls, pa, pp, cfg)
        obs_alone = simulate_pilot_phase(alone, plan, cfg, draws(NOISE))
        obs_shared = simulate_pilot_phase(alone, plan, cfg, draws(NOISE, noise_normals(large)))
        assert same_bits(obs_shared.y_bs, obs_alone.y_bs) and same_bits(obs_shared.y_rx, obs_alone.y_rx)

    def test_pilot_basis_is_unitary(self):
        # identity columns: trivially Omega^H Omega = I
        tau = 6
        omega = np.eye(tau, dtype=complex)
        assert np.allclose(omega.conj().T @ omega, np.eye(tau))

    def test_zero_noise_single_cu_recovers_channel(self):
        cfg, ls, pa, pp = self._setup(noise_power=1e-300)
        pp.q_p[0] = 1.0 / ls.u_c[0]   # unit effective pilot power
        real = draw_fast_fading(cfg)
        obs = simulate_pilot_phase(real, plan_of(ls, pa, pp, cfg), cfg)
        assert np.allclose(obs.y_bs[:, 0], real.h_c[:, 0], atol=1e-10)

    def test_zero_noise_shared_pilot_superposition(self):
        cfg, ls, pa, pp = self._setup(noise_power=1e-300)
        real = draw_fast_fading(cfg)
        obs = simulate_pilot_phase(real, plan_of(ls, pa, pp, cfg), cfg)
        expected = (np.sqrt(pp.p_p[0] * ls.u_d[0]) * real.h_d[:, 0]
                    + np.sqrt(pp.p_p[1] * ls.u_d[1]) * real.h_d[:, 1])
        assert np.allclose(obs.y_bs[:, 3], expected, atol=1e-10)

    def test_low_noise_no_sharing_estimate_converges_to_truth(self):
        cfg = small_config(n_d2d=3, pilot_len=6, noise_power=1e-12)
        rng = np.random.default_rng(11)
        ls = make_ls(rng, 3, 3)
        pa = assignment([4, 5, 6], n_cu=3, pilot_len=6)
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(3), q_s=np.ones(3), p_s=np.ones(3))
        plan = plan_of(ls, pa, pp, cfg)
        real = draw_fast_fading(cfg)
        obs = simulate_pilot_phase(real, plan, cfg)
        est = mmse_estimate(obs, plan, cfg)
        assert np.allclose(est.h_c, real.h_c, atol=1e-4)
        assert np.allclose(est.h_d, real.h_d, atol=1e-4)
        cf = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        assert np.all(cf.eps_c < 1e-11)

    def test_same_pilot_estimates_collinear_with_exact_ratio(self):
        cfg, ls, pa, pp = self._setup()
        plan = plan_of(ls, pa, pp, cfg)
        real = draw_fast_fading(cfg)
        obs = simulate_pilot_phase(real, plan, cfg)
        est = mmse_estimate(obs, plan, cfg)
        # pairs 0 and 1 share a pilot
        h0, h1 = est.h_d[:, 0], est.h_d[:, 1]
        ratio = np.sqrt(pp.p_p[0] * ls.u_d[0] / (pp.p_p[1] * ls.u_d[1]))
        assert np.allclose(h0, ratio * h1, rtol=1e-12)
        cos = abs(h0.conj() @ h1) / (np.linalg.norm(h0) * np.linalg.norm(h1))
        assert 1.0 - cos < 1e-10

    def test_estimate_variance_matches_coefficients(self):
        # Monte Carlo: sample variance of estimate entries -> delta / mu
        cfg = small_config(bs_antennas=8, noise_power=0.5)
        rng = np.random.default_rng(12)
        ls = make_ls(rng, cfg.n_cu, cfg.n_d2d)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=rng.uniform(0.5, 2, 3), p_p=rng.uniform(0.5, 2, 6),
                          q_s=np.ones(3), p_s=np.ones(6))
        cf = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        draws = 10_000
        rng_f = substream(cfg.rng_seed, 100)
        rng_n = substream(cfg.rng_seed, 101)
        acc_h = np.zeros(cfg.n_cu)
        acc_g = 0.0
        plan = plan_of(ls, pa, pp, cfg)
        for _ in range(draws):
            real = draw_fast_fading(cfg, rng_f)
            obs = simulate_pilot_phase(real, plan, cfg, rng_n)
            est = mmse_estimate(obs, plan, cfg)
            acc_h += np.mean(np.abs(est.h_c) ** 2, axis=0)
            acc_g += np.mean(np.abs(est.g_d[0][:, 0]) ** 2)
        var_h = acc_h / draws
        assert np.allclose(var_h, cf.delta_c, rtol=0.03)
        assert acc_g / draws == pytest.approx(cf.mu_d[0, 0], rel=0.03)

    def test_estimate_error_orthogonality(self):
        # MMSE property: estimate uncorrelated with its error
        cfg = small_config(bs_antennas=8, noise_power=0.5)
        rng = np.random.default_rng(13)
        ls = make_ls(rng, cfg.n_cu, cfg.n_d2d)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        rng_f = substream(cfg.rng_seed, 102)
        rng_n = substream(cfg.rng_seed, 103)
        draws = 10_000
        cross = 0.0
        plan = plan_of(ls, pa, pp, cfg)
        for _ in range(draws):
            real = draw_fast_fading(cfg, rng_f)
            obs = simulate_pilot_phase(real, plan, cfg, rng_n)
            est = mmse_estimate(obs, plan, cfg)
            err = real.h_c[:, 0] - est.h_c[:, 0]
            cross += (est.h_c[:, 0].conj() @ err).real / cfg.bs_antennas
        assert abs(cross / draws) < 4.0 / np.sqrt(draws * cfg.bs_antennas)


class TestPowerProfile:
    def test_max_power_respects_budgets(self):
        cfg = small_config()
        pp = PowerProfile.max_power(cfg)
        assert np.all(pp.q_p == cfg.pilot_len * cfg.max_power_cu)
        assert np.all(pp.p_p == cfg.pilot_len * cfg.max_power_d2d)
        assert np.all(pp.q_s == cfg.max_power_cu)
        assert np.all(pp.p_s == cfg.max_power_d2d)

    def test_budget_violations_raise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=-np.ones(3), p_s=np.ones(6))
