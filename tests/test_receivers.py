import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dmimo import receivers
from d2dmimo.scenario import SystemConfig, LargeScale, substream, trial_seed, FADING, NOISE
from d2dmimo.channel import (PilotAssignment, PowerProfile, EstimatedChannels,
                             EstimationCoeffs, draw_fast_fading, estimation_coeffs,
                             simulate_pilot_phase, mmse_estimate)
from d2dmimo.pilot_scheduling import random_assignment
from d2dmimo.receivers import (FeasibilityError, DegenerateSpanError, CancellationSets,
                               select_cancellation, pzf_filter, cell_sinr_terms,
                               d2d_sinr_terms, rate_coeffs, rate_lower_bounds,
                               bound_sinrs, sigma_c_of, _project_out, monte_carlo_plan)
from d2dmimo.harness import _large_scale, _scenario_pipeline
from helpers import assignment, make_ls, small_config


def full_pipeline(cfg, seed=0):
    rng = np.random.default_rng(seed)
    ls = make_ls(rng, cfg.n_cu, cfg.n_d2d)
    pa = assignment([4, 4, 5, 5, 6, 6], n_cu=cfg.n_cu, pilot_len=cfg.pilot_len)
    pp = PowerProfile(q_p=rng.uniform(0.5, 2, cfg.n_cu), p_p=rng.uniform(0.5, 2, cfg.n_d2d),
                      q_s=rng.uniform(0.2, 1, cfg.n_cu), p_s=rng.uniform(0.2, 1, cfg.n_d2d))
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    sets = select_cancellation(ls, pa, cfg)
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    est = mmse_estimate(simulate_pilot_phase(draw_fast_fading(cfg), plan, cfg), plan, cfg)
    return ls, pa, pp, coeffs, sets, plan, est


def unit_plan(pa, sets):
    """Plan of unit gains, powers and noise for hand-built estimates."""
    n, k = pa.n_cu, pa.n_d2d
    ls = LargeScale(u_c=np.ones(n), u_d=np.ones(k), v_c=np.ones((n, k)), v_d=np.ones((k, k)))
    pp = PowerProfile(q_p=np.ones(n), p_p=np.ones(k), q_s=np.ones(n), p_s=np.ones(k))
    return monte_carlo_plan(ls, pa, pp, estimation_coeffs(ls, pa, pp, 1.0), sets, 1.0)


class TestSelectCancellation:
    def test_mrc_cancels_nothing(self):
        cfg = small_config(pzf_bs=(0, 0), pzf_d2d=(0, 0))
        rng = np.random.default_rng(1)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        sets = select_cancellation(ls, pa, cfg)
        assert sets.bs_cancel_cu.shape == (3, 0)
        assert sets.bs_cancel_groups.size == 0
        assert sets.rx_cancel_cu.shape == (6, 0)
        assert np.all(sets.bs_kept_pairs(pa))

    def test_fully_zf_cancels_everything_cancellable(self):
        cfg = small_config(pzf_bs=(2, 3), pzf_d2d=(3, 2), d2drx_antennas=8)
        rng = np.random.default_rng(2)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        sets = select_cancellation(ls, pa, cfg)
        for n in range(3):
            assert not np.any(sets.bs_kept_cu(3)[n] & (np.arange(3) != n))
        assert not np.any(sets.bs_kept_pairs(pa))
        for k in range(6):
            assert not np.any(sets.rx_kept_cu(3)[k])
            kept = sets.rx_kept_pairs(pa)[k]
            # only the own pilot group survives
            assert np.array_equal(np.flatnonzero(kept), pa.group_of(k))

    def test_strongest_cu_selection_by_inspection(self):
        cfg = small_config(pzf_bs=(1, 0), pzf_d2d=(0, 0))
        rng = np.random.default_rng(3)
        ls = make_ls(rng, 3, 6)
        ls.u_c = np.array([3.0, 2.0, 1.0])
        pa = assignment([4, 4, 5, 5, 6, 6])
        sets = select_cancellation(ls, pa, cfg)
        assert sets.bs_cancel_cu[0].tolist() == [1]   # CU 1 cancels CU 2
        assert sets.bs_cancel_cu[1].tolist() == [0]   # CU 2 cancels CU 1
        assert sets.bs_cancel_cu[2].tolist() == [0]   # CU 3 cancels CU 1

    def test_group_ranking_by_member_sum(self):
        cfg = small_config(pzf_bs=(0, 1), pzf_d2d=(0, 0))
        rng = np.random.default_rng(4)
        ls = make_ls(rng, 3, 6)
        ls.u_d = np.array([1.0, 1.0, 1.5, 0.1, 0.2, 0.2])
        pa = assignment([4, 4, 5, 5, 6, 6])
        sets = select_cancellation(ls, pa, cfg)
        # group on pilot 4 sums to 2.0, beats 1.6 and 0.4
        assert sets.bs_cancel_groups.tolist() == [4]

    def test_own_group_never_cancelled_at_rx(self):
        cfg = small_config(pzf_d2d=(0, 2))
        rng = np.random.default_rng(5)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        sets = select_cancellation(ls, pa, cfg)
        for k in range(6):
            assert pa.pilot_of[k] not in sets.rx_cancel_groups[k]


class TestPzfFilter:
    def test_empty_cancellation_gives_matched_filter(self):
        cfg = small_config(pzf_bs=(0, 0), pzf_d2d=(0, 0))
        ls, pa, pp, coeffs, sets, plan, est = full_pipeline(cfg)
        beta = pzf_filter(est, plan, "cu")[0]
        h = est.h_c[:, 0]
        assert np.allclose(beta, h / np.linalg.norm(h))

    def test_hand_projection(self):
        # cancelled span {e1}, target e1 + e2 -> filter is e2
        b = 4
        est = EstimatedChannels(
            h_c=np.array([[1, 1], [1, 0], [0, 0], [0, 0]], dtype=complex),
            h_d=np.zeros((b, 1), dtype=complex),
            g_d=np.zeros((1, 2, 1), dtype=complex),
            g_c=np.zeros((1, 2, 2), dtype=complex),
        )
        sets = CancellationSets(
            bs_cancel_cu=np.array([[1], [0]]),
            bs_cancel_groups=np.array([], dtype=int),
            rx_cancel_cu=np.zeros((1, 0), dtype=int),
            rx_cancel_groups=np.zeros((1, 0), dtype=int),
        )
        pa = PilotAssignment(pilot_of=np.array([3]), n_cu=2, pilot_len=3)
        beta = pzf_filter(est, unit_plan(pa, sets), "cu")[0]
        assert np.allclose(beta, [0, 1, 0, 0])

    def test_unit_norm_and_zeros_vs_gram_schmidt(self):
        cfg = small_config(bs_antennas=8, pzf_bs=(1, 2))
        ls, pa, pp, coeffs, sets, plan, est = full_pipeline(cfg, seed=8)
        filters = pzf_filter(est, plan, "cu")
        for n in range(cfg.n_cu):
            beta = filters[n]
            assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
            cancelled = [est.h_c[:, a] for a in sets.bs_cancel_cu[n]]
            for t in sets.bs_cancel_groups:
                for i in np.flatnonzero(pa.pilot_of == t):
                    cancelled.append(est.h_d[:, i])
            for c in cancelled:
                assert abs(beta.conj() @ c) <= 1e-10 * np.linalg.norm(c)
            # independent classical Gram-Schmidt of the cancelled span
            basis = []
            for c in cancelled:
                w = c.astype(complex)
                for b_vec in basis:
                    w = w - (b_vec.conj() @ w) * b_vec
                if np.linalg.norm(w) > 1e-9:
                    basis.append(w / np.linalg.norm(w))
            ref = est.h_c[:, n].astype(complex)
            for b_vec in basis:
                ref = ref - (b_vec.conj() @ ref) * b_vec
            ref = ref / np.linalg.norm(ref)
            # both are the unique unit projection up to a global phase
            assert abs(abs(beta.conj() @ ref) - 1.0) < 1e-9

    def test_group_cancellation_costs_one_dimension(self):
        # one cancelled pilot group with three members still leaves B - b_c - 1 dims
        cfg = small_config(n_d2d=4, pilot_len=5, bs_antennas=6, pzf_bs=(0, 1),
                           pzf_d2d=(1, 1))
        rng = np.random.default_rng(9)
        ls = make_ls(rng, 3, 4)
        ls.u_d = np.array([2.0, 2.0, 2.0, 0.1])
        pa = assignment([4, 4, 4, 5], pilot_len=5)
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(4), q_s=np.ones(3), p_s=np.ones(4))
        sets = select_cancellation(ls, pa, cfg)
        assert sets.bs_cancel_groups.tolist() == [4]
        coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
        obs = simulate_pilot_phase(draw_fast_fading(cfg), plan, cfg)
        est = mmse_estimate(obs, plan, cfg)
        beta = pzf_filter(est, plan, "cu")[0]
        # all three same-pilot estimates are zeroed through one representative
        for i in (0, 1, 2):
            h = est.h_d[:, i]
            assert abs(beta.conj() @ h) <= 1e-10 * np.linalg.norm(h)
        # sanity: only one degree of freedom was spent
        assert np.linalg.matrix_rank(np.column_stack([est.h_d[:, i] for i in (0, 1, 2)])) == 1

    def test_degenerate_span_raises(self):
        est = EstimatedChannels(
            h_c=np.array([[1, 1], [0, 0]], dtype=complex),
            h_d=np.zeros((2, 1), dtype=complex),
            g_d=np.zeros((1, 2, 1), dtype=complex),
            g_c=np.zeros((1, 2, 2), dtype=complex),
        )
        sets = CancellationSets(
            bs_cancel_cu=np.array([[1], [0]]),
            bs_cancel_groups=np.array([], dtype=int),
            rx_cancel_cu=np.zeros((1, 0), dtype=int),
            rx_cancel_groups=np.zeros((1, 0), dtype=int),
        )
        pa = PilotAssignment(pilot_of=np.array([3]), n_cu=2, pilot_len=3)
        with pytest.raises(DegenerateSpanError):
            pzf_filter(est, unit_plan(pa, sets), "cu")


def _gs_filter(target, cancelled):
    """Per-link reference: target minus its projection on the span of the
    cancelled columns (modified Gram-Schmidt, twice, skipping columns
    already in the span), normalized."""
    basis = []
    for c in cancelled.T:
        w = c.astype(complex)
        for _ in range(2):
            for b_vec in basis:
                w = w - (b_vec.conj() @ w) * b_vec
        if np.linalg.norm(w) > 1e-9 * np.linalg.norm(c):
            basis.append(w / np.linalg.norm(w))
    r = target.astype(complex)
    for _ in range(2):
        for b_vec in basis:
            r = r - (b_vec.conj() @ r) * b_vec
    return r / np.linalg.norm(r)


def _scalar_cell_terms(n, est, coeffs, ls, pa, pp, sets, cfg):
    """One cellular link: reference filter and its (signal, I_cell, I_d2d, error+noise)."""
    groups = np.isin(pa.pilot_of, sets.bs_cancel_groups)
    beta = _gs_filter(est.h_c[:, n], np.column_stack(
        [est.h_c[:, sets.bs_cancel_cu[n]], est.h_d[:, groups]]))
    gain = lambda h: abs(beta.conj() @ h) ** 2
    signal = pp.q_s[n] * ls.u_c[n] * gain(est.h_c[:, n])
    i_cc = sum(pp.q_s[a] * ls.u_c[a] * gain(est.h_c[:, a]) for a in range(cfg.n_cu)
               if a != n and a not in sets.bs_cancel_cu[n])
    i_dc = sum(pp.p_s[i] * ls.u_d[i] * gain(est.h_d[:, i]) for i in range(cfg.n_d2d) if not groups[i])
    alpha = (sum(pp.q_s * ls.u_c * coeffs.eps_c) + sum(pp.p_s * ls.u_d * coeffs.eps_d)
             + cfg.noise_power)
    return beta, (signal, i_cc, i_dc, alpha)


def _scalar_d2d_terms(k, est, coeffs, ls, pa, pp, sets, cfg):
    """One D2D link: reference filter and its (signal, I_cell, I_d2d, error+noise)."""
    groups = np.isin(pa.pilot_of, sets.rx_cancel_groups[k])
    beta = _gs_filter(est.g_d[k, :, k], np.column_stack(
        [est.g_c[k][:, sets.rx_cancel_cu[k]], est.g_d[k][:, groups]]))
    gain = lambda g: abs(beta.conj() @ g) ** 2
    signal = pp.p_s[k] * ls.v_d[k, k] * gain(est.g_d[k, :, k])
    i_cd = sum(pp.q_s[a] * ls.v_c[a, k] * gain(est.g_c[k, :, a]) for a in range(cfg.n_cu)
               if a not in sets.rx_cancel_cu[k])
    i_dd = sum(pp.p_s[i] * ls.v_d[i, k] * gain(est.g_d[k, :, i]) for i in range(cfg.n_d2d)
               if i != k and not groups[i])
    alpha = (sum(pp.p_s * ls.v_d[:, k] * coeffs.eps_dd[:, k])
             + sum(pp.q_s * ls.v_c[:, k] * coeffs.eps_cd[:, k]) + cfg.noise_power)
    return beta, (signal, i_cd, i_dd, alpha)


def _edge_case(name):
    """A pipeline draw whose cancelled columns include empty sets, empty
    pilot groups or exact zeros, some of them ahead of nonzero columns, or
    whose D2D interference sums run over long rows (K = 40)."""
    if name == "empty cancel sets":
        cfg = small_config(pzf_bs=(0, 0), pzf_d2d=(0, 0))
        pa = assignment([4, 4, 5, 5, 6, 6])
    elif name == "empty cancelled groups":
        cfg = small_config(n_d2d=5, pilot_len=8, d2drx_antennas=8, pzf_bs=(1, 5), pzf_d2d=(2, 4))
        pa = random_assignment(cfg, substream(1, 0))
        empty = np.setdiff1d(pa.d2d_pilots(), pa.pilot_of)
        assert np.any(empty < cfg.pilot_len)   # an empty group ahead of a nonempty one
    elif name == "single pair":
        cfg = small_config(n_d2d=1, pilot_len=4, pzf_bs=(2, 1), pzf_d2d=(2, 0))
        pa = assignment([4], pilot_len=4)
    elif name.startswith("K=40"):   # test_stack's "K=40" config, m_d as named
        cfg = SystemConfig(n_cu=5, n_d2d=40, pilot_len=15, bs_antennas=64,
                           pzf_d2d=(1, int(name[-1])), rng_seed=7)
        pa = random_assignment(cfg, substream(1, 0))
    else:   # "zero estimate columns"
        cfg = small_config(pzf_bs=(1, 2), pzf_d2d=(2, 1))
        pa = assignment([4, 4, 5, 5, 6, 6])
    rng = np.random.default_rng(31)
    ls = make_ls(rng, cfg.n_cu, cfg.n_d2d)
    pp = PowerProfile(q_p=rng.uniform(0.5, 2, cfg.n_cu), p_p=rng.uniform(0.5, 2, cfg.n_d2d),
                      q_s=rng.uniform(0.2, 1, cfg.n_cu), p_s=rng.uniform(0.2, 1, cfg.n_d2d))
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    sets = select_cancellation(ls, pa, cfg)
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    est = mmse_estimate(simulate_pilot_phase(draw_fast_fading(cfg), plan, cfg), plan, cfg)
    if name == "zero estimate columns":
        # the first cancelled BS group and the first cancelled CU at Rx 0
        est.h_d[:, pa.pilot_of == sets.bs_cancel_groups[0]] = 0.0
        est.g_c[:, :, sets.rx_cancel_cu[0, 0]] = 0.0
    return cfg, ls, pa, pp, coeffs, sets, plan, est


EDGE_CASES = ["empty cancel sets", "empty cancelled groups", "single pair", "zero estimate columns"]
LONG_ROWS = ["K=40, m_d=1", "K=40, m_d=2"]


class TestBatchedPzfEdgeCases:
    @pytest.mark.parametrize("name", EDGE_CASES + LONG_ROWS)
    def test_matches_per_link_gram_schmidt(self, name):
        cfg, ls, pa, pp, coeffs, sets, plan, est = _edge_case(name)
        args = (est, coeffs, ls, pa, pp, sets, cfg)
        beta_cu = pzf_filter(est, plan, "cu")
        beta_d2d = pzf_filter(est, plan, "d2d")
        cell, d2d = cell_sinr_terms(est, plan), d2d_sinr_terms(est, plan)
        for n in range(cfg.n_cu):
            ref_beta, ref_terms = _scalar_cell_terms(n, *args)
            assert np.allclose(beta_cu[n], ref_beta, rtol=0.0, atol=1e-12)
            got = (cell.signal[n], cell.interf_cell[n], cell.interf_d2d[n], cell.error_noise[n])
            np.testing.assert_allclose(got, ref_terms, rtol=1e-12, atol=0.0)
        for k in range(cfg.n_d2d):
            ref_beta, ref_terms = _scalar_d2d_terms(k, *args)
            assert np.allclose(beta_d2d[k], ref_beta, rtol=0.0, atol=1e-12)
            got = (d2d.signal[k], d2d.interf_cell[k], d2d.interf_d2d[k], d2d.error_noise[k])
            np.testing.assert_allclose(got, ref_terms, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", EDGE_CASES)
    @pytest.mark.parametrize("kind", ["cu", "d2d"])
    def test_one_degenerate_target_raises(self, name, kind):
        cfg, ls, pa, pp, coeffs, sets, plan, est = _edge_case(name)
        # move the last link's target into its cancelled span (a zero
        # target when nothing is cancelled); every other link stays regular
        if kind == "cu":
            n = cfg.n_cu - 1
            cancelled = est.h_c[:, sets.bs_cancel_cu[n]].sum(axis=1)
            est.h_c[:, n] = 2.0 * cancelled
        else:
            k = cfg.n_d2d - 1
            cancelled = est.g_c[k][:, sets.rx_cancel_cu[k]].sum(axis=1)
            est.g_d[k, :, k] = 2.0 * cancelled
        with pytest.raises(DegenerateSpanError):
            pzf_filter(est, plan, kind)

    def test_zero_first_member_still_cancels_its_group(self):
        # the lowest-index member of a cancelled group sends no pilot; the
        # group's live member must still be cancelled at the BS (a silent
        # pair's own D2D link has no estimate, so kind "d2d" raises instead)
        cfg = small_config(pzf_bs=(1, 2), pzf_d2d=(1, 1))
        rng = np.random.default_rng(5)
        ls = make_ls(rng, cfg.n_cu, cfg.n_d2d)
        pa = assignment([4, 4, 5, 5, 6, 6])
        sets = select_cancellation(ls, pa, cfg)
        real = draw_fast_fading(cfg)
        first, live = np.flatnonzero(pa.pilot_of == sets.bs_cancel_groups[0])
        pp = PowerProfile.max_power(cfg)
        pp.p_p[first] = 0.0
        coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
        est = mmse_estimate(simulate_pilot_phase(real, plan, cfg), plan, cfg)
        assert not est.h_d[:, first].any()
        beta = pzf_filter(est, plan, "cu")
        h = est.h_d[:, live]
        assert np.max(np.abs(beta.conj() @ h)) <= 1e-10 * np.linalg.norm(h)


# BS-side configs whose shared basis [CU estimates | cancelled group
# representatives] is not the plain one of the default config
SHARED_BASIS_CASES = {
    # b_c < N-1: the CUs cancel different CU sets
    "partial CU cancellation": dict(n_cu=5, n_d2d=8, pilot_len=9, pzf_bs=(2, 3)),
    # B = b_c+b_d+2 = 8 below N+b_d = 9 columns
    "basis wider than the array": dict(n_cu=5, n_d2d=8, bs_antennas=8, pilot_len=9, pzf_bs=(2, 4)),
    "no cancelled groups": dict(pzf_bs=(2, 0)),
}


def _shared_basis_draws(name, seeds):
    """Analytic inputs of one draw per seed, stacked, and the cancellation
    sets and estimates of the stack, drawn from each seed's substreams."""
    cfg = small_config(**SHARED_BASIS_CASES[name])
    ls, pa, pp = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        ls.append(make_ls(rng, cfg.n_cu, cfg.n_d2d))
        pa.append(random_assignment(cfg, substream(seed, 0)))
        pp.append(PowerProfile(q_p=rng.uniform(0.5, 2, cfg.n_cu), p_p=rng.uniform(0.5, 2, cfg.n_d2d),
                               q_s=rng.uniform(0.2, 1, cfg.n_cu), p_s=rng.uniform(0.2, 1, cfg.n_d2d)))
    ls, pa, pp = LargeScale.stack(ls), PilotAssignment.stack(pa), PowerProfile.stack(pp)
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    sets = select_cancellation(ls, pa, cfg)
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    real = draw_fast_fading(cfg, [substream(seed, FADING) for seed in seeds])
    obs = simulate_pilot_phase(real, plan, cfg, [substream(seed, NOISE) for seed in seeds])
    return cfg, ls, pa, pp, coeffs, sets, plan, mmse_estimate(obs, plan, cfg)


def _alone(name, seed):
    """The single draw of one seed, as _shared_basis_draws draws it."""
    cfg, *stacked = _shared_basis_draws(name, [seed])
    return (cfg, *(x[0] for x in stacked))


def _assert_cell_matches_gram_schmidt(cfg, ls, pa, pp, coeffs, sets, plan, est):
    """Every BS filter and finite cellular SINR term of one draw against
    the per-link Gram-Schmidt reference."""
    args = (est, coeffs, ls, pa, pp, sets, cfg)
    beta = pzf_filter(est, plan, "cu")
    cell = cell_sinr_terms(est, plan)
    for n in range(cfg.n_cu):
        ref_beta, ref_terms = _scalar_cell_terms(n, *args)
        assert np.allclose(beta[n], ref_beta, rtol=0.0, atol=1e-12)
        got = (cell.signal[n], cell.interf_cell[n], cell.interf_d2d[n], cell.error_noise[n])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, ref_terms, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(SHARED_BASIS_CASES))
class TestSharedBasisPzf:
    def test_matches_per_link_gram_schmidt(self, name):
        _assert_cell_matches_gram_schmidt(*_alone(name, 41))

    def test_stack_rows_have_their_single_draw_bits(self, name):
        seeds = [41, 42, 43]
        cfg, ls, pa, pp, coeffs, sets, plan, est = _shared_basis_draws(name, seeds)
        beta = pzf_filter(est, plan, "cu")
        cell = cell_sinr_terms(est, plan)
        for t, seed in enumerate(seeds):
            cfg_t, ls_t, pa_t, pp_t, coeffs_t, sets_t, plan_t, est_t = _alone(name, seed)
            alone = cell_sinr_terms(est_t, plan_t)
            assert beta[t].tobytes() == pzf_filter(est_t, plan_t, "cu").tobytes()
            for field in ("signal", "interf_cell", "interf_d2d", "error_noise"):
                assert getattr(cell, field)[t].tobytes() == getattr(alone, field).tobytes()


def _per_cu_pzf_filter(est, plan, kind):
    """BS-side filters with a B-dimensional QR of every CU's own cancelled
    columns, gathered per CU (the d2d kind is pzf_filter's)."""
    if kind != "cu":
        return pzf_filter(est, plan, kind)
    reps = np.take_along_axis(est.h_d, plan.bs_first, axis=-1) * plan.bs_spans
    columns = np.concatenate([est.h_c, reps], axis=-1)[..., None, :, :]
    cancelled = np.take_along_axis(columns, plan.bs_picked[..., None, :], axis=-1)
    return _project_out(np.swapaxes(est.h_c, -1, -2), cancelled)


@pytest.mark.parametrize("b", [32, 64, 256])
def test_shared_basis_keeps_the_per_cu_precision(monkeypatch, b):
    # the BS filters come from the coordinates of one QR per draw; the SINRs
    # must stay within 1e-13 of filters built in the B-dimensional space
    cfg, seeds = SystemConfig(bs_antennas=b, rng_seed=777), [trial_seed(777, t) for t in range(30)]
    ls = _large_scale(cfg, seeds)
    pa, pp, coeffs, sets, _ = next(_scenario_pipeline([cfg], ls))
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    real = draw_fast_fading(cfg, [substream(s, FADING) for s in seeds])
    obs = simulate_pilot_phase(real, plan, cfg, [substream(s, NOISE) for s in seeds])
    est = mmse_estimate(obs, plan, cfg)
    sinr = cell_sinr_terms(est, plan).sinr
    monkeypatch.setattr(receivers, "pzf_filter", _per_cu_pzf_filter)
    np.testing.assert_allclose(sinr, cell_sinr_terms(est, plan).sinr, rtol=1e-13, atol=0.0)


@given(n=st.integers(1, 6), b_c=st.integers(0, 5), b_d=st.integers(0, 1), silent=st.booleans(),
       collapse=st.booleans(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_bs_filter_at_the_validate_limits(n, b_c, b_d, silent, collapse, seed):
    # B = b_c+b_d+2 (the least array that leaves the bounds a gain), K = 1
    # and tau = N+1: the filters match the Gram-Schmidt reference, or a
    # target put into its cancelled span raises DegenerateSpanError
    b_c = min(b_c, n - 1)
    cfg = small_config(n_cu=n, n_d2d=1, pilot_len=n + 1, bs_antennas=b_c + b_d + 2,
                       pzf_bs=(b_c, b_d), pzf_d2d=(0, 0), rng_seed=seed)
    rng = np.random.default_rng(seed)
    ls = make_ls(rng, n, 1)
    pa = assignment([n + 1], n_cu=n, pilot_len=n + 1)
    pp = PowerProfile(q_p=rng.uniform(0.5, 2, n), p_p=np.array([0.0 if silent else 1.0]),
                      q_s=rng.uniform(0.2, 1, n), p_s=rng.uniform(0.2, 1, 1))
    coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
    sets = select_cancellation(ls, pa, cfg)
    plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
    est = mmse_estimate(simulate_pilot_phase(draw_fast_fading(cfg), plan, cfg), plan, cfg)
    if collapse:
        est.h_c[:, n - 1] = 2.0 * est.h_c[:, sets.bs_cancel_cu[n - 1]].sum(axis=1)
        with pytest.raises(DegenerateSpanError) as err:
            pzf_filter(est, plan, "cu")
        assert err.value.rows == [0]
    else:
        _assert_cell_matches_gram_schmidt(cfg, ls, pa, pp, coeffs, sets, plan, est)


class TestInstantaneousSinr:
    def test_single_cu_perfect_estimation(self):
        # no D2D interference entries, eps = 0: sinr = q u |h|^2 / N0
        b = 8
        rng = np.random.default_rng(10)
        h = (rng.standard_normal(b) + 1j * rng.standard_normal(b)) / np.sqrt(2)
        cfg = small_config(n_cu=1, n_d2d=1, bs_antennas=b, pilot_len=2,
                           pzf_bs=(0, 0), pzf_d2d=(0, 0), noise_power=0.3)
        est = EstimatedChannels(h_c=h[:, None], h_d=np.zeros((b, 1), complex),
                                g_d=np.zeros((1, 4, 1), complex), g_c=np.zeros((1, 4, 1), complex))
        coeffs = EstimationCoeffs(
            delta_c=np.ones(1), eps_c=np.zeros(1),
            delta_d=np.ones(1), eps_d=np.zeros(1),
            mu_d=np.ones((1, 1)), eps_dd=np.zeros((1, 1)),
            mu_c=np.ones((1, 1)), eps_cd=np.zeros((1, 1)),
            y_var_bs=np.array([1.7 + 0.3, 1e-12 + 0.3]), y_var_rx=np.array([[1.0 + 0.3], [1.0 + 0.3]]),
        )
        ls = LargeScale(u_c=np.array([1.7]), u_d=np.array([1e-12]),
                        v_c=np.ones((1, 1)), v_d=np.ones((1, 1)))
        pa = PilotAssignment(pilot_of=np.array([2]), n_cu=1, pilot_len=2)
        pp = PowerProfile(q_p=np.ones(1), p_p=np.ones(1), q_s=np.array([0.9]), p_s=np.zeros(1))
        sets = select_cancellation(ls, pa, cfg)
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
        eta = cell_sinr_terms(est, plan).sinr[0]
        expected = 0.9 * 1.7 * np.linalg.norm(h) ** 2 / 0.3
        assert eta == pytest.approx(expected, rel=1e-12)

    def test_fully_zf_removes_cochannel_interference(self):
        cfg = small_config(pzf_bs=(2, 3), pzf_d2d=(1, 1))
        ls, pa, pp, coeffs, sets, plan, est = full_pipeline(cfg, seed=11)
        terms = cell_sinr_terms(est, plan)
        for n in range(cfg.n_cu):
            assert terms.interf_cell[n] <= 1e-20 * terms.signal[n]
            assert terms.interf_d2d[n] <= 1e-20 * terms.signal[n]

    def test_single_d2d_link_closed_form(self):
        cfg = small_config(n_cu=1, n_d2d=1, pilot_len=2, pzf_bs=(0, 0),
                           pzf_d2d=(0, 0), noise_power=0.2)
        m = cfg.d2drx_antennas
        rng = np.random.default_rng(12)
        g = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
        est = EstimatedChannels(h_c=np.zeros((16, 1), complex), h_d=np.zeros((16, 1), complex),
                                g_d=g[None, :, None], g_c=np.zeros((1, m, 1), complex))
        mu = 0.6
        coeffs = EstimationCoeffs(
            delta_c=np.ones(1), eps_c=np.zeros(1),
            delta_d=np.ones(1), eps_d=np.zeros(1),
            mu_d=np.array([[mu]]), eps_dd=np.array([[1 - mu]]),
            mu_c=np.ones((1, 1)), eps_cd=np.zeros((1, 1)),
            y_var_bs=np.array([1.0 + 0.2, 1.0 + 0.2]), y_var_rx=np.array([[1e-12 + 0.2], [2.0 + 0.2]]),
        )
        ls = LargeScale(u_c=np.array([1.0]), u_d=np.array([1.0]),
                        v_c=np.full((1, 1), 1e-12), v_d=np.array([[2.0]]))
        pa = PilotAssignment(pilot_of=np.array([2]), n_cu=1, pilot_len=2)
        pp = PowerProfile(q_p=np.ones(1), p_p=np.ones(1), q_s=np.zeros(1), p_s=np.array([0.5]))
        sets = select_cancellation(ls, pa, cfg)
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
        eta = d2d_sinr_terms(est, plan).sinr[0]
        alpha = 0.5 * 2.0 * (1 - mu) + cfg.noise_power
        expected = 0.5 * 2.0 * np.linalg.norm(g) ** 2 / alpha
        assert eta == pytest.approx(expected, rel=1e-12)

    def test_same_pilot_contamination_ratio_exact(self):
        cfg = small_config()
        ls, pa, pp, coeffs, sets, plan, est = full_pipeline(cfg, seed=13)
        k = 0
        mates = [i for i in pa.group_of(k) if i != k]
        terms = d2d_sinr_terms(est, plan)
        beta = pzf_filter(est, plan, "d2d")[k]
        contaminated = sum(pp.p_s[i] * ls.v_d[i, k] * abs(beta.conj() @ est.g_d[k][:, i]) ** 2
                           for i in mates)
        expected_ratio = sum(pp.p_s[i] * ls.v_d[i, k] * coeffs.mu_d[i, k] for i in mates) / (
            pp.p_s[k] * ls.v_d[k, k] * coeffs.mu_d[k, k])
        assert contaminated / terms.signal[k] == pytest.approx(expected_ratio, rel=1e-10)


class TestRateCoeffs:
    def test_matches_scalar_transcription(self):
        cfg = small_config()
        rng = np.random.default_rng(14)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=rng.uniform(0.5, 2, 3), p_p=rng.uniform(0.5, 2, 6),
                          q_s=rng.uniform(0.2, 1, 3), p_s=rng.uniform(0.2, 1, 6))
        coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        sets = select_cancellation(ls, pa, cfg)
        rc = rate_coeffs(ls, pa, coeffs, sets, pp, cfg)
        b_c, b_d = cfg.pzf_bs
        m_c, m_d = cfg.pzf_d2d
        n0 = cfg.noise_power
        for n in range(3):
            assert rc.phi_c[n] == pytest.approx(
                (cfg.bs_antennas - b_c - b_d - 1) * ls.u_c[n] * coeffs.delta_c[n], rel=1e-14)
            for a in range(3):
                if a == n or a in sets.bs_cancel_cu[n]:
                    expected = ls.u_c[a] * coeffs.eps_c[a]
                else:
                    expected = ls.u_c[a]
                assert rc.varphi_c[a, n] == pytest.approx(expected, rel=1e-14)
        for i in range(6):
            if pa.pilot_of[i] in sets.bs_cancel_groups:
                assert rc.varphi_d[i] == pytest.approx(ls.u_d[i] * coeffs.eps_d[i], rel=1e-14)
            else:
                assert rc.varphi_d[i] == pytest.approx(ls.u_d[i], rel=1e-14)
        assert sigma_c_of(rc, pp.p_s) == pytest.approx(float(pp.p_s @ rc.varphi_d) + n0, rel=1e-14)
        dof = cfg.d2drx_antennas - m_c - m_d - 1
        for k in range(6):
            assert rc.phi_d[k] == pytest.approx(dof * ls.v_d[k, k] * coeffs.mu_d[k, k], rel=1e-14)
            for i in range(6):
                same = pa.pilot_of[i] == pa.pilot_of[k]
                cancelled = pa.pilot_of[i] in sets.rx_cancel_groups[k]
                if i == k or cancelled:
                    expected = ls.v_d[i, k] * coeffs.eps_dd[i, k]
                elif same:
                    expected = (dof * ls.v_d[i, k] * coeffs.mu_d[i, k]
                                + ls.v_d[i, k] * coeffs.eps_dd[i, k])
                else:
                    expected = ls.v_d[i, k]
                assert rc.psi_d[i, k] == pytest.approx(expected, rel=1e-14)
            for a in range(3):
                if a in sets.rx_cancel_cu[k]:
                    expected = ls.v_c[a, k] * coeffs.eps_cd[a, k]
                else:
                    expected = ls.v_c[a, k]
                assert rc.cu_to_rx_weight[a, k] == pytest.approx(expected, rel=1e-14)

    def test_same_pilot_entry_exceeds_pure_error_term(self):
        cfg = small_config()
        ls, pa, pp, coeffs, sets, _, _ = full_pipeline(cfg, seed=15)
        rc = rate_coeffs(ls, pa, coeffs, sets, pp, cfg)
        for k in range(cfg.n_d2d):
            for i in pa.group_of(k):
                if i != k and coeffs.mu_d[i, k] > 0:
                    assert rc.psi_d[i, k] > ls.v_d[i, k] * coeffs.eps_dd[i, k]

    def test_perfect_csi_fully_zf_limits(self):
        cfg = small_config(pzf_bs=(2, 3))
        rng = np.random.default_rng(16)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        perfect = EstimationCoeffs(
            delta_c=np.ones(3), eps_c=np.zeros(3),
            delta_d=np.ones(6), eps_d=np.zeros(6),
            mu_d=np.ones((6, 6)), eps_dd=np.zeros((6, 6)),
            mu_c=np.ones((3, 6)), eps_cd=np.zeros((3, 6)),
            y_var_bs=np.ones(6), y_var_rx=np.ones((6, 6)),   # rate_coeffs reads no column power
        )
        sets = select_cancellation(ls, pa, cfg)
        rc = rate_coeffs(ls, pa, perfect, sets, pp, cfg)
        assert np.allclose(rc.varphi_c, 0.0)
        assert np.allclose(rc.varphi_d, 0.0)
        assert sigma_c_of(rc, pp.p_s) == pytest.approx(cfg.noise_power)

    def test_insufficient_antennas_rejected(self):
        cfg = small_config(bs_antennas=4, pzf_bs=(1, 2))   # needs B > 4
        ls, pa, pp, coeffs, sets, _, _ = full_pipeline(small_config(), seed=17)
        with pytest.raises(FeasibilityError, match="bs_antennas"):
            rate_coeffs(ls, pa, coeffs, sets, pp, cfg)


class TestRateLowerBounds:
    def _rc(self, cfg, seed=18):
        ls, pa, pp, coeffs, sets, _, _ = full_pipeline(cfg, seed=seed)
        return ls, pa, pp, coeffs, sets, rate_coeffs(ls, pa, coeffs, sets, pp, cfg)

    def test_pilot_len_equal_coherence_gives_zero(self):
        cfg = small_config(coherence_len=6)
        ls, pa, pp, coeffs, sets, rc = self._rc(cfg)
        r_c, r_d = rate_lower_bounds(rc, pp, cfg)
        assert np.all(r_c == 0.0) and np.all(r_d == 0.0)

    def test_zero_data_power_gives_zero(self):
        cfg = small_config()
        ls, pa, pp, coeffs, sets, rc = self._rc(cfg)
        pp0 = PowerProfile(q_p=pp.q_p, p_p=pp.p_p, q_s=np.zeros(3), p_s=np.zeros(6))
        r_c, r_d = rate_lower_bounds(rc, pp0, cfg)
        assert np.all(r_c == 0.0) and np.all(r_d == 0.0)

    def test_mrc_rate_decreases_with_pilot_len(self):
        # with no D2D-group cancellation only the prefactor moves with tau
        cfg6 = small_config(pzf_bs=(1, 0), pzf_d2d=(0, 0), pilot_len=6)
        cfg7 = small_config(pzf_bs=(1, 0), pzf_d2d=(0, 0), pilot_len=7)
        rng = np.random.default_rng(19)
        ls = make_ls(rng, 3, 6)
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        pa6 = assignment([4, 4, 5, 5, 6, 6], pilot_len=6)
        pa7 = assignment([4, 4, 5, 5, 6, 6], pilot_len=7)
        coeffs = estimation_coeffs(ls, pa6, pp, cfg6.noise_power)
        sets6 = select_cancellation(ls, pa6, cfg6)
        sets7 = select_cancellation(ls, pa7, cfg7)
        r6, _ = rate_lower_bounds(rate_coeffs(ls, pa6, coeffs, sets6, pp, cfg6), pp, cfg6)
        r7, _ = rate_lower_bounds(rate_coeffs(ls, pa7, coeffs, sets7, pp, cfg7), pp, cfg7)
        assert np.all(r7 < r6)

    def test_bound_sinr_increases_with_bs_antennas(self):
        cfg_small = small_config(bs_antennas=16)
        cfg_big = small_config(bs_antennas=32)
        rng = np.random.default_rng(20)
        ls = make_ls(rng, 3, 6)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=np.ones(3), p_p=np.ones(6), q_s=np.ones(3), p_s=np.ones(6))
        coeffs = estimation_coeffs(ls, pa, pp, cfg_small.noise_power)
        sets = select_cancellation(ls, pa, cfg_small)
        eta_small, _ = bound_sinrs(rate_coeffs(ls, pa, coeffs, sets, pp, cfg_small), pp.q_s, pp.p_s)
        eta_big, _ = bound_sinrs(rate_coeffs(ls, pa, coeffs, sets, pp, cfg_big), pp.q_s, pp.p_s)
        assert np.all(eta_big > eta_small)

    def test_monte_carlo_mean_dominates_bound(self):
        # Jensen direction on a small seeded instance
        cfg = small_config(bs_antennas=32, d2drx_antennas=8, pzf_bs=(2, 3),
                           pzf_d2d=(1, 2), noise_power=0.05)
        rng = np.random.default_rng(21)
        ls = make_ls(rng, cfg.n_cu, cfg.n_d2d)
        pa = assignment([4, 4, 5, 5, 6, 6])
        pp = PowerProfile(q_p=np.full(3, 4.0), p_p=np.full(6, 4.0),
                          q_s=np.ones(3), p_s=np.ones(6))
        coeffs = estimation_coeffs(ls, pa, pp, cfg.noise_power)
        sets = select_cancellation(ls, pa, cfg)
        rc = rate_coeffs(ls, pa, coeffs, sets, pp, cfg)
        r_c_lb, r_d_lb = rate_lower_bounds(rc, pp, cfg)
        plan = monte_carlo_plan(ls, pa, pp, coeffs, sets, cfg.noise_power)
        prefactor = 1 - cfg.pilot_len / cfg.coherence_len
        draws = 600
        rates_c = np.zeros((draws, 3))
        rates_d = np.zeros((draws, 6))
        rng_f = substream(1234, 0)
        rng_n = substream(1234, 1)
        for d in range(draws):
            real = draw_fast_fading(cfg, rng_f)
            obs = simulate_pilot_phase(real, plan, cfg, rng_n)
            est = mmse_estimate(obs, plan, cfg)
            eta = cell_sinr_terms(est, plan).sinr
            rates_c[d] = prefactor * np.log2(1 + eta)
            eta = d2d_sinr_terms(est, plan).sinr
            rates_d[d] = prefactor * np.log2(1 + eta)
        se_c = rates_c.std(axis=0) / np.sqrt(draws)
        se_d = rates_d.std(axis=0) / np.sqrt(draws)
        assert np.all(rates_c.mean(axis=0) >= r_c_lb - 2.576 * se_c)
        assert np.all(rates_d.mean(axis=0) >= r_d_lb - 2.576 * se_d)
