import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dmimo.scenario import LargeScale, substream
from d2dmimo.channel import PilotAssignment, PowerProfile, estimation_coeffs
from d2dmimo.pilot_scheduling import (interference_metric, sum_mse,
                                      psa, random_assignment, exhaustive_search,
                                      pilot_power_parametric, search_space, InstanceTooLargeError,
                                      _ES_BLOCK_BYTES)
from helpers import make_ls, same_bits, small_config


def isolated_ls(rng, n, k, cross=1e-12):
    """Pairs with negligible cross gains."""
    v_d = np.full((k, k), cross)
    np.fill_diagonal(v_d, rng.uniform(0.5, 2.0, k))
    return LargeScale(u_c=rng.uniform(0.1, 2, n), u_d=rng.uniform(0.1, 2, k),
                      v_c=rng.uniform(0.1, 2, (n, k)), v_d=v_d)


class TestInterferenceMetric:
    def test_zero_diagonal(self):
        rng = np.random.default_rng(0)
        chi = interference_metric(make_ls(rng, 3, 6))
        assert np.all(np.diag(chi) == 0.0)

    def test_substitution_value(self):
        # v_ik = v_kk and v_ki = v_ii for one pair -> ln 3
        rng = np.random.default_rng(1)
        ls = make_ls(rng, 3, 4)
        ls.v_d[0, 1] = ls.v_d[1, 1]
        ls.v_d[1, 0] = ls.v_d[0, 0]
        chi = interference_metric(ls)
        assert chi[0, 1] == pytest.approx(np.log(3.0), rel=1e-12)

    def test_isolated_pairs_vanish(self):
        rng = np.random.default_rng(2)
        chi = interference_metric(isolated_ls(rng, 3, 5))
        off = chi[~np.eye(5, dtype=bool)]
        assert np.all(off < 1e-20)

    def test_symmetric_nonnegative_finite(self):
        rng = np.random.default_rng(3)
        chi = interference_metric(make_ls(rng, 3, 8))
        assert np.allclose(chi, chi.T)
        assert np.all(chi >= 0) and np.all(np.isfinite(chi))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        ls = make_ls(rng, 3, 6)
        perm = np.array([2, 0, 5, 3, 1, 4])
        ls_p = LargeScale(u_c=ls.u_c, u_d=ls.u_d[perm], v_c=ls.v_c[:, perm],
                          v_d=ls.v_d[np.ix_(perm, perm)])
        chi = interference_metric(ls)
        chi_p = interference_metric(ls_p)
        assert np.allclose(chi_p, chi[np.ix_(perm, perm)])


class TestSumMse:
    def test_all_distinct_half_point(self):
        # p v_kk = N0 on every direct link, no sharing -> K * M * 0.5
        cfg = small_config(pilot_len=9)   # tau = N + K
        rng = np.random.default_rng(5)
        ls = make_ls(rng, 3, 6)
        pa = PilotAssignment(pilot_of=np.arange(4, 10), n_cu=3, pilot_len=9)
        n0 = cfg.noise_power
        p_p = n0 / np.diag(ls.v_d)
        pp = PowerProfile(q_p=np.ones(3), p_p=p_p, q_s=np.ones(3), p_s=np.ones(6))
        coeffs = estimation_coeffs(ls, pa, pp, n0)
        assert cfg.d2drx_antennas * np.trace(coeffs.eps_dd) == pytest.approx(6 * 4 * 0.5, rel=1e-12)

    def test_perfect_pilots_zero(self):
        rng = np.random.default_rng(6)
        ls = make_ls(rng, 3, 6)
        pa = PilotAssignment(pilot_of=np.arange(4, 10), n_cu=3, pilot_len=9)
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        coeffs = estimation_coeffs(ls, pa, pp, 0.0)
        assert 4 * np.trace(coeffs.eps_dd) == 0.0

    def test_matches_scalar_transcription(self):
        cfg = small_config(n_d2d=4, pilot_len=5)
        rng = np.random.default_rng(7)
        ls = make_ls(rng, 3, 4)
        pa = PilotAssignment(pilot_of=np.array([4, 5, 4, 5]), n_cu=3, pilot_len=5)
        pp = PowerProfile.max_power(cfg)
        coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        total = 0.0
        for k in range(4):
            grp = [j for j in range(4) if pa.pilot_of[j] == pa.pilot_of[k]]
            den = sum(pp.p_p[j] * ls.v_d[j, k] for j in grp) + cfg.noise_power
            total += cfg.d2drx_antennas * (1.0 - pp.p_p[k] * ls.v_d[k, k] / den)
        assert cfg.d2drx_antennas * np.trace(coeffs.eps_dd) == pytest.approx(total, rel=1e-12)
        assert sum_mse(ls, pa, cfg) == pytest.approx(total, rel=1e-12)

    def test_moving_to_empty_pilot_strictly_improves(self):
        cfg = small_config(n_d2d=4, pilot_len=6)
        rng = np.random.default_rng(8)
        ls = make_ls(rng, 3, 4)
        shared = PilotAssignment(pilot_of=np.array([4, 4, 5, 5]), n_cu=3, pilot_len=6)
        moved = PilotAssignment(pilot_of=np.array([4, 6, 5, 5]), n_cu=3, pilot_len=6)
        assert sum_mse(ls, moved, cfg) < sum_mse(ls, shared, cfg)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabelling_the_pilots_keeps_the_bits(self, seed, k, data):
        # exhaustive_search scores only the assignments with pair 0 on the
        # first pilot, which rests on this
        n_pilots = data.draw(st.integers(1, k))
        cfg = small_config(n_d2d=k, pilot_len=3 + n_pilots, pzf_bs=(1, 1), pzf_d2d=(0, 0))
        rng = np.random.default_rng(seed)
        # sum_mse reads v_d only; gains across the desk-scale range, where the noise counts
        draws = [LargeScale(u_c=np.ones(3), u_d=np.ones(k), v_c=np.ones((3, k)),
                            v_d=10.0 ** rng.uniform(-14.0, -6.0, (k, k))) for _ in range(4)]
        pilot_of = rng.integers(4, 4 + n_pilots, size=(4, k))
        relabelled = 4 + rng.permutation(n_pilots)[pilot_of - 4]

        def score(ls, pilot_of):
            return sum_mse(ls, PilotAssignment(pilot_of=pilot_of, n_cu=3, pilot_len=3 + n_pilots), cfg)

        # candidates of one draw, a trial stack, and one assignment alone
        assert same_bits(score(draws[0], pilot_of), score(draws[0], relabelled))
        stack = LargeScale.stack(draws)
        assert same_bits(score(stack, pilot_of), score(stack, relabelled))
        for ls, a, b in zip(draws, pilot_of, relabelled):
            assert same_bits(score(ls, a), score(ls, b))


class TestPsa:
    def test_enough_pilots_all_distinct(self):
        cfg = small_config(n_d2d=4, pilot_len=7)   # 4 pilots for 4 pairs
        rng = np.random.default_rng(9)
        ls = make_ls(rng, 3, 4)
        pa = psa(ls, cfg)
        assert len(set(pa.pilot_of.tolist())) == 4
        chi = interference_metric(ls)
        shared = sum(chi[i, k] for i in range(4) for k in range(4)
                     if i != k and pa.pilot_of[i] == pa.pilot_of[k])
        assert shared == 0.0

    def test_dominant_conflict_separated(self):
        # pairs 0 and 1 interfere heavily; they must end on different pilots
        cfg = small_config(n_d2d=3, pilot_len=5)   # two pilots, three pairs
        rng = np.random.default_rng(10)
        ls = isolated_ls(rng, 3, 3, cross=1e-6)
        ls.v_d[0, 1] = ls.v_d[1, 1] * 10
        ls.v_d[1, 0] = ls.v_d[0, 0] * 10
        pa = psa(ls, cfg)
        assert pa.pilot_of[0] != pa.pilot_of[1]
        es = exhaustive_search(ls, cfg)
        assert es.pilot_of[0] != es.pilot_of[1]

    def test_symmetric_metric_balances_groups(self):
        cfg = small_config(n_d2d=6, pilot_len=5)   # two pilots, six pairs
        ls = LargeScale(u_c=np.ones(3), u_d=np.ones(6),
                        v_c=np.ones((3, 6)), v_d=np.full((6, 6), 0.5))
        np.fill_diagonal(ls.v_d, 1.0)
        pa = psa(ls, cfg)
        sizes = [np.sum(pa.pilot_of == t) for t in (4, 5)]
        assert max(sizes) - min(sizes) <= 1

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8), n_pilots=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_valid_assignment_every_pair_once(self, seed, k, n_pilots):
        n = 3
        tau = n + min(n_pilots, k)
        cfg = small_config(n_d2d=k, pilot_len=tau, pzf_bs=(1, 0), pzf_d2d=(0, 0))
        ls = make_ls(np.random.default_rng(seed), n, k)
        pa = psa(ls, cfg)
        assert pa.pilot_of.size == k
        assert np.all(pa.to_matrix().sum(axis=0) == 1)


def reference_exhaustive_search(ls, config):
    """The enumeration the blocked search replaced: one sum_mse call per
    assignment in lexicographic order, keeping the first minimizer.  Also
    returns how many assignments attain the minimum."""
    pilots = range(config.n_cu + 1, config.pilot_len + 1)
    best, best_pa, ties = np.inf, None, 0
    for combo in product(pilots, repeat=config.n_d2d):
        pa = PilotAssignment(pilot_of=np.array(combo), n_cu=config.n_cu, pilot_len=config.pilot_len)
        val = sum_mse(ls, pa, config)
        if val < best:
            best, best_pa, ties = val, pa, 0
        ties += val == best
    return best_pa, ties


class TestExhaustiveSearch:
    def test_single_pilot_forced_sharing(self):
        cfg = small_config(n_d2d=4, pilot_len=4, pzf_bs=(1, 1), pzf_d2d=(0, 0))   # tau - N = 1
        rng = np.random.default_rng(11)
        ls = make_ls(rng, 3, 4)
        pa = exhaustive_search(ls, cfg)
        assert np.all(pa.pilot_of == 4)

    def test_orthogonal_budget_hits_contamination_free_floor(self):
        cfg = small_config(n_d2d=4, pilot_len=7)
        rng = np.random.default_rng(12)
        ls = make_ls(rng, 3, 4)
        pa = exhaustive_search(ls, cfg)
        assert len(set(pa.pilot_of.tolist())) == 4
        p = cfg.pilot_len * cfg.max_power_d2d
        s = p * np.diag(ls.v_d)
        floor = cfg.d2drx_antennas * np.sum(1.0 - s / (s + cfg.noise_power))
        assert sum_mse(ls, pa, cfg) == pytest.approx(floor, rel=1e-12)

    def test_ordering_es_psa_random_expectation(self):
        cfg = small_config(n_d2d=6, pilot_len=5)   # 2^6 assignments
        rng = np.random.default_rng(13)
        ls = make_ls(rng, 3, 6)
        es_val = sum_mse(ls, exhaustive_search(ls, cfg), cfg)
        psa_val = sum_mse(ls, psa(ls, cfg), cfg)
        # expectation over the uniform assignment distribution, by enumeration
        vals = [sum_mse(ls, PilotAssignment(pilot_of=np.array(c), n_cu=3, pilot_len=5), cfg)
                for c in product((4, 5), repeat=6)]
        rps_mean = float(np.mean(vals))
        assert es_val <= psa_val + 1e-12
        assert psa_val <= rps_mean + 1e-12

    @pytest.mark.parametrize("n_pilots,k", [(4, 7), (3, 9)])
    @pytest.mark.parametrize("gains", ["random", "identical pairs"])
    def test_blocks_choose_what_the_one_at_a_time_loop_chose(self, n_pilots, k, gains):
        cfg = small_config(n_d2d=k, pilot_len=3 + n_pilots, pzf_bs=(1, 1), pzf_d2d=(0, 0),
                           max_power_d2d=1.0)
        # several blocks of the assignments scored, those with pair 0 on the first pilot
        assert search_space(cfg) // n_pilots > 3 * _ES_BLOCK_BYTES // (8 * n_pilots * k)
        for seed in range(3 if gains == "random" else 1):
            ls = make_ls(np.random.default_rng(seed), 3, k)
            if gains == "identical pairs":   # partitions with the same group sizes tie too
                ls.v_d = np.full((k, k), 0.5)
                np.fill_diagonal(ls.v_d, 1.0)
            want, ties = reference_exhaustive_search(ls, cfg)
            # every labelling of the optimal partition ties
            assert ties > (math.factorial(n_pilots) if gains == "identical pairs" else 1)
            assert np.array_equal(exhaustive_search(ls, cfg).pilot_of, want.pilot_of)

    def test_guard_rejects_large_instances(self):
        cfg = small_config(n_d2d=20, pilot_len=8)
        rng = np.random.default_rng(14)
        ls = make_ls(rng, 3, 20)
        with pytest.raises(InstanceTooLargeError, match="guard"):
            exhaustive_search(ls, cfg)


class TestRandomAssignment:
    def test_valid_and_deterministic(self):
        cfg = small_config()
        a = random_assignment(cfg)
        b = random_assignment(cfg)
        assert np.array_equal(a.pilot_of, b.pilot_of)
        assert np.all(a.to_matrix().sum(axis=0) == 1)
        for seed in (1, 2, 3):
            pa = random_assignment(small_config(rng_seed=seed))
            assert np.all((pa.pilot_of >= 4) & (pa.pilot_of <= 6))

    def test_uniform_distribution(self):
        cfg = small_config(n_d2d=3, pilot_len=6)
        rng = substream(0, 42)
        draws = 10_000
        counts = np.zeros(3)
        for _ in range(draws):
            pa = random_assignment(cfg, rng)
            counts[pa.pilot_of[0] - 4] += 1
        expected = draws / 3
        sigma = np.sqrt(draws * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)


class TestParametricPilotPower:
    def test_single_pair_maxes_out(self):
        cfg = small_config(n_d2d=1, pilot_len=4, pzf_bs=(1, 1), pzf_d2d=(0, 0))
        rng = np.random.default_rng(15)
        ls = make_ls(rng, 3, 1)
        pa = PilotAssignment(pilot_of=np.array([4]), n_cu=3, pilot_len=4)
        res = pilot_power_parametric(pa, ls, cfg)
        assert res.p_p[0] == cfg.pilot_len * cfg.max_power_d2d
        assert not res.bang_bang_flags[0]

    def test_isolated_pairs_all_max_power(self):
        # cross gains fifteen orders below the noise margin: contamination-free
        cfg = small_config(n_d2d=6, pilot_len=5, noise_power=0.1)
        rng = np.random.default_rng(16)
        ls = isolated_ls(rng, 3, 6, cross=1e-15)
        pa = psa(ls, cfg)
        res = pilot_power_parametric(pa, ls, cfg)
        assert np.all(res.p_p == cfg.pilot_len * cfg.max_power_d2d)
        assert not np.any(res.bang_bang_flags)

    def test_beats_random_feasible_vectors(self):
        cfg = small_config(n_d2d=3, pilot_len=4, pzf_bs=(1, 1), pzf_d2d=(0, 0), noise_power=0.1)  # shared pilot, moderate SNR
        rng = np.random.default_rng(17)
        ls = make_ls(rng, 3, 3)
        pa = PilotAssignment(pilot_of=np.array([4, 4, 4]), n_cu=3, pilot_len=4)
        res = pilot_power_parametric(pa, ls, cfg)

        def objective(p):
            total = 0.0
            for k in range(3):
                total += p[k] * ls.v_d[k, k] / (float(p @ ls.v_d[:, k]) + cfg.noise_power)
            return total

        ours = objective(res.p_p)
        cap = cfg.pilot_len * cfg.max_power_d2d
        best = max(objective(rng.uniform(0, cap, 3)) for _ in range(1000))
        assert ours >= best - 1e-9

    def test_stationarity_residuals_within_tolerance(self):
        # dispersed pairs (cross gains <= 5% of own) at moderate pilot SNR:
        # the alternation settles and the ratio conditions hold at the exit
        for seed in range(10):
            rng = np.random.default_rng(seed)
            v_d = rng.uniform(0.0, 0.05, (6, 6))
            np.fill_diagonal(v_d, rng.uniform(0.5, 2.0, 6))
            ls = make_ls(rng, 3, 6)
            ls.v_d = np.maximum(v_d, 1e-15)
            cfg = small_config(n_d2d=6, pilot_len=6, noise_power=1.0,
                               max_power_d2d=1.0, rng_seed=seed)
            pa = psa(ls, cfg)
            res = pilot_power_parametric(pa, ls, cfg)
            assert res.residual <= cfg.tol_power
            assert np.all((res.p_p == 0.0) | (res.p_p == cfg.pilot_len * cfg.max_power_d2d))
            assert np.array_equal(res.bang_bang_flags, res.p_p == 0.0)

    def test_contamination_dominated_regime_reports_nonconvergence(self):
        # vanishing noise makes the bang-bang update cycle; the solver must
        # report it with the last residual instead of looping forever
        from d2dmimo.pilot_scheduling import NonConvergenceError
        cfg = small_config(n_d2d=6, pilot_len=5, noise_power=1e-10, rng_seed=16)
        rng = np.random.default_rng(16)
        ls = isolated_ls(rng, 3, 6, cross=1e-12)
        pa = psa(ls, cfg)
        with pytest.raises(NonConvergenceError, match="residual"):
            pilot_power_parametric(pa, ls, cfg)
