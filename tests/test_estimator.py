import numpy as np
import pytest

from itercdma import analysis
from itercdma import system_model as sm
from itercdma.config import SystemConfig, derive_stream, noise_var_from_snr_db
from itercdma.estimator import (build_stacked_matrix, decompose_error,
                                empirical_estimation_stats,
                                leave_one_out_estimates_fast, ml_estimate)
from itercdma.exceptions import ParameterError, RankError

SNR5 = noise_var_from_snr_db(5.0)


def _frame(cfg, seed, error_rate=0.0, tag="est"):
    rng = derive_stream(seed, tag, 0)
    channel = sm.generate_channel(cfg, rng)
    codes = sm.generate_codes(cfg, rng)
    symbols = sm.generate_symbols(cfg, rng)
    feedback = sm.corrupt_feedback(symbols, error_rate, rng)
    received = sm.synthesize_received(channel, codes, symbols, cfg, rng)
    return channel, codes, symbols, feedback, received


def _refit_leave_one_out(codes, symbols, received):
    """Oracle: per period t, the least-squares refit on every other period."""
    m = codes.shape[0]
    out = []
    for t in range(m):
        kept = np.delete(np.arange(m), t)
        stacked = build_stacked_matrix(codes, symbols, blocks=kept)
        out.append(ml_estimate(stacked, received.chips[kept].reshape(-1)).gains_flat)
    return np.array(out)


class TestStackedMatrix:
    def test_columns_carry_symbol_signs(self):
        cfg = SystemConfig(n_users=1, spreading_gain=8, n_paths=1,
                           coherence_time=2, seed=1)
        rng = derive_stream(1, "stk", 0)
        codes = sm.generate_codes(cfg, rng)
        symbols = np.array([[1, -1]], dtype=np.int8)
        stacked = build_stacked_matrix(codes, symbols)
        np.testing.assert_allclose(stacked.matrix[:8, 0], codes[0, 0, 0])
        np.testing.assert_allclose(stacked.matrix[8:, 0], -codes[1, 0, 0])

    def test_column_norms_sqrt_m(self):
        cfg = SystemConfig(n_users=4, spreading_gain=16, n_paths=3,
                           coherence_time=9, seed=2)
        _, codes, symbols, _, _ = _frame(cfg, 2)
        stacked = build_stacked_matrix(codes, symbols.symbols)
        norms = np.linalg.norm(stacked.matrix, axis=0)
        np.testing.assert_allclose(norms, np.sqrt(9), atol=1e-12)

    def test_perfect_feedback_gives_identical_matrix(self):
        cfg = SystemConfig(n_users=3, spreading_gain=16, n_paths=2,
                           coherence_time=6, seed=3)
        _, codes, symbols, feedback, _ = _frame(cfg, 3, error_rate=0.0)
        s_true = build_stacked_matrix(codes, symbols.symbols)
        s_fb = build_stacked_matrix(codes, feedback.decisions)
        np.testing.assert_array_equal(s_true.matrix, s_fb.matrix)

    def test_single_flip_touches_l_columns_in_one_block(self):
        cfg = SystemConfig(n_users=3, spreading_gain=16, n_paths=2,
                           coherence_time=6, seed=4)
        _, codes, symbols, _, _ = _frame(cfg, 4)
        flipped = symbols.symbols.copy()
        k_hit, m_hit = 1, 3
        flipped[k_hit, m_hit] = -flipped[k_hit, m_hit]
        delta = (build_stacked_matrix(codes, symbols.symbols).matrix
                 - build_stacked_matrix(codes, flipped).matrix)
        # delta = 2 b * s on the flipped user's L columns of block m only
        n, l = cfg.spreading_gain, cfg.n_paths
        rows = slice(m_hit * n, (m_hit + 1) * n)
        cols = slice(k_hit * l, (k_hit + 1) * l)
        expected = np.zeros_like(delta)
        expected[rows, cols] = (2 * symbols.symbols[k_hit, m_hit]
                                * codes[m_hit, k_hit].T)
        np.testing.assert_allclose(delta, expected, atol=1e-12)

    def test_block_subset_and_empty_subset(self):
        cfg = SystemConfig(n_users=2, spreading_gain=8, n_paths=1,
                           coherence_time=5, seed=5)
        _, codes, symbols, _, _ = _frame(cfg, 5)
        sub = build_stacked_matrix(codes, symbols.symbols, blocks=[1, 3])
        full = build_stacked_matrix(codes, symbols.symbols).matrix
        np.testing.assert_array_equal(sub.matrix, np.concatenate([full[8:16], full[24:32]]))
        with pytest.raises(ParameterError):
            build_stacked_matrix(codes, symbols.symbols, blocks=[])


class TestMlEstimate:
    def test_noiseless_exact_recovery(self):
        cfg = SystemConfig(n_users=6, spreading_gain=32, n_paths=2,
                           coherence_time=8, noise_var=0.0, seed=6)
        channel, codes, symbols, _, received = _frame(cfg, 6)
        stacked = build_stacked_matrix(codes, symbols.symbols)
        est = ml_estimate(stacked, received.chips.reshape(-1))
        np.testing.assert_allclose(est.gains_flat, channel.vector, atol=1e-10)
        assert est.solve_info.residual < 1e-8

    def test_gram_diagonal_is_coherence_time(self):
        cfg = SystemConfig(n_users=4, spreading_gain=16, n_paths=2,
                           coherence_time=12, noise_var=0.1, seed=7)
        _, codes, symbols, _, received = _frame(cfg, 7)
        est = ml_estimate(build_stacked_matrix(codes, symbols.symbols),
                          received.chips.reshape(-1))
        np.testing.assert_allclose(np.diag(est.gram), 12.0, atol=1e-12)
        # normal-equation orthogonality holds to solver precision
        assert est.solve_info.residual < 1e-8

    def test_single_code_matches_scalar_least_squares(self):
        cfg = SystemConfig(n_users=1, spreading_gain=16, n_paths=1,
                           coherence_time=5, noise_var=0.2, seed=8)
        channel, codes, symbols, _, received = _frame(cfg, 8)
        stacked = build_stacked_matrix(codes, symbols.symbols)
        est = ml_estimate(stacked, received.chips.reshape(-1))
        manual = np.vdot(stacked.matrix[:, 0],
                         received.chips.reshape(-1).conj()).conj() / 5.0
        assert est.gains_flat[0] == pytest.approx(manual)

    def test_training_only_variance_matches_prediction(self):
        # trace of the error covariance against noise/(M - L*beta)
        cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                           coherence_time=10, noise_var=SNR5, seed=9)
        pred = analysis.training_estimate_variance(SNR5, 10, 5, 0.2)
        errs = []
        for trial in range(200):
            rng = derive_stream(9, "train-var", trial)
            channel = sm.generate_channel(cfg, rng)
            codes = sm.generate_codes(cfg, rng)
            symbols = sm.generate_symbols(cfg, rng)
            received = sm.synthesize_received(channel, codes, symbols, cfg, rng)
            est = ml_estimate(build_stacked_matrix(codes, symbols.symbols),
                              received.chips.reshape(-1))
            errs.append(np.mean(np.abs(est.gains_flat - channel.vector) ** 2))
        assert np.mean(errs) == pytest.approx(pred, rel=0.10)

    def test_underdetermined_raises(self):
        cfg = SystemConfig(n_users=8, spreading_gain=8, n_paths=2,
                           coherence_time=6, seed=10)
        _, codes, symbols, _, received = _frame(cfg, 10)
        stacked = build_stacked_matrix(codes, symbols.symbols, blocks=[0])
        with pytest.raises(RankError):
            ml_estimate(stacked, received.chips[[0]].reshape(-1))


class TestDecomposition:
    def test_parts_sum_exactly_in_exact_mode(self):
        cfg = SystemConfig(n_users=5, spreading_gain=32, n_paths=2,
                           coherence_time=12, noise_var=0.3, seed=11)
        channel, codes, symbols, feedback, received = _frame(cfg, 11, 0.1)
        s_true = build_stacked_matrix(codes, symbols.symbols)
        s_fb = build_stacked_matrix(codes, feedback.decisions)
        est = ml_estimate(s_fb, received.chips.reshape(-1))
        dec = decompose_error(channel.vector, s_true, s_fb,
                              received.noise.reshape(-1))
        np.testing.assert_allclose(dec.total,
                                   channel.vector - est.gains_flat, atol=1e-9)
        np.testing.assert_allclose(dec.total,
                                   dec.feedback_part + dec.noise_part)

    def test_no_feedback_error_means_no_feedback_part(self):
        cfg = SystemConfig(n_users=5, spreading_gain=32, n_paths=2,
                           coherence_time=12, noise_var=0.3, seed=12)
        channel, codes, symbols, feedback, received = _frame(cfg, 12, 0.0)
        s = build_stacked_matrix(codes, symbols.symbols)
        dec = decompose_error(channel.vector, s, s, received.noise.reshape(-1))
        np.testing.assert_allclose(dec.feedback_part, 0.0, atol=1e-12)

    def test_no_noise_means_no_noise_part(self):
        cfg = SystemConfig(n_users=5, spreading_gain=32, n_paths=2,
                           coherence_time=12, noise_var=0.0, seed=13)
        channel, codes, symbols, feedback, received = _frame(cfg, 13, 0.1)
        s_true = build_stacked_matrix(codes, symbols.symbols)
        s_fb = build_stacked_matrix(codes, feedback.decisions)
        dec = decompose_error(channel.vector, s_true, s_fb,
                              received.noise.reshape(-1))
        np.testing.assert_allclose(dec.noise_part, 0.0, atol=1e-12)

    def test_exact_vs_approx_close_for_long_blocks(self):
        # inverse-Gram vs identity-over-M decompositions drift apart by
        # less than 10% relative on average at M=50, Pe=0.05
        cfg = SystemConfig(n_users=10, spreading_gain=50, n_paths=2,
                           coherence_time=50, noise_var=SNR5, seed=14)
        rels = []
        for trial in range(30):
            rng = derive_stream(14, "exact-vs-approx", trial)
            channel = sm.generate_channel(cfg, rng)
            codes = sm.generate_codes(cfg, rng)
            symbols = sm.generate_symbols(cfg, rng)
            feedback = sm.corrupt_feedback(symbols, 0.05, rng)
            received = sm.synthesize_received(channel, codes, symbols, cfg, rng)
            s_true = build_stacked_matrix(codes, symbols.symbols)
            s_fb = build_stacked_matrix(codes, feedback.decisions)
            noise = received.noise.reshape(-1)
            exact = decompose_error(channel.vector, s_true, s_fb, noise)
            approx = decompose_error(channel.vector, s_true, s_fb, noise,
                                     mode="approx_im")
            denom = np.linalg.norm(exact.feedback_part)
            if denom > 0:
                rels.append(np.linalg.norm(
                    exact.feedback_part - approx.feedback_part) / denom)
        assert np.mean(rels) < 0.10

    def test_leave_one_out_fast_matches_refit(self):
        cfg = SystemConfig(n_users=4, spreading_gain=16, n_paths=2,
                           coherence_time=7, noise_var=0.2, seed=15)
        _, codes, symbols, feedback, received = _frame(cfg, 15, 0.1)
        stacked = build_stacked_matrix(codes, feedback.decisions)
        fast = leave_one_out_estimates_fast(stacked, received.chips)
        naive = _refit_leave_one_out(codes, feedback.decisions, received)
        np.testing.assert_allclose(fast, naive, atol=1e-9)

    def test_leave_one_out_fast_rejects_ill_conditioned_gram(self):
        # two nearly collinear path codes put cond(R) near 1e13, past the
        # limit; the downdated fits must fail exactly as the full fit does
        rng = derive_stream(17, "collinear", 0)
        m, n = 6, 16
        base = (2.0 * rng.integers(0, 2, size=(m, n)) - 1.0) / np.sqrt(n)
        near = base + 1e-7 * rng.standard_normal((m, n))
        codes = np.stack([base, near], axis=1)[:, None]
        stacked = build_stacked_matrix(codes, np.ones((1, m), dtype=np.int8))
        chips = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        with pytest.raises(RankError, match="condition estimate"):
            ml_estimate(stacked, chips.reshape(-1))
        with pytest.raises(RankError, match="condition estimate"):
            leave_one_out_estimates_fast(stacked, chips)


class TestComplexReferences:
    """The real-arithmetic products against their complex-arithmetic definitions."""

    CFG = SystemConfig(n_users=6, spreading_gain=24, n_paths=3, coherence_time=9,
                       noise_var=0.2, seed=16)

    def test_ml_estimate_matches_complex_lstsq(self):
        _, codes, _, feedback, received = _frame(self.CFG, 16, 0.1)
        stacked = build_stacked_matrix(codes, feedback.decisions)
        chips = received.chips.reshape(-1)
        est = ml_estimate(stacked, chips)
        ref = np.linalg.lstsq(stacked.matrix.astype(complex), chips, rcond=None)[0]
        np.testing.assert_allclose(est.gains_flat, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "approx_im"])
    def test_decompose_error_matches_complex_products(self, mode):
        channel, codes, symbols, feedback, received = _frame(self.CFG, 16, 0.1)
        s_true = build_stacked_matrix(codes, symbols.symbols)
        s_fb = build_stacked_matrix(codes, feedback.decisions)
        noise = received.noise.reshape(-1)
        s_hat = s_fb.matrix.astype(complex)
        proj_fb = s_hat.T @ ((s_true.matrix.astype(complex) - s_hat) @ channel.vector)
        proj_noise = s_hat.T @ noise
        if mode == "exact":
            gram = s_hat.T @ s_hat
            ref_fb = -np.linalg.solve(gram, proj_fb)
            ref_noise = -np.linalg.solve(gram, proj_noise)
        else:
            ref_fb = -proj_fb / self.CFG.coherence_time
            ref_noise = -proj_noise / self.CFG.coherence_time
        dec = decompose_error(channel.vector, s_true, s_fb, noise, mode=mode)
        np.testing.assert_allclose(dec.feedback_part, ref_fb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.noise_part, ref_noise, rtol=0, atol=1e-12)


class TestEstimationStats:
    @pytest.fixture(scope="class")
    @staticmethod
    def stats():
        # the closed forms describe the identity-over-M decomposition
        cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                           coherence_time=30, noise_var=SNR5,
                           code_model="shifted", seed=16)
        return cfg, empirical_estimation_stats(cfg, 0.1, trials=200,
                                               realizations=40,
                                               mode="approx_im")

    def test_variance_parts_near_predictions(self, stats):
        # beta=0.2, L=5, M=30, Pe=0.1, 5 dB: feedback part 0.16/30,
        # noise part sigma^2/30
        cfg, st = stats
        pred_f = 4 * 0.1 * (1 + 0.2 * 5) / (5 * 30)
        pred_n = SNR5 / 30
        assert pred_f == pytest.approx(0.00533333, abs=1e-8)
        assert pred_n == pytest.approx(0.01054093, abs=1e-8)
        assert st.delta_f == pytest.approx(pred_f, rel=0.12)
        assert st.delta_n == pytest.approx(pred_n, rel=0.10)

    def test_total_variance_splits(self, stats):
        _, st = stats
        assert st.delta_a == pytest.approx(st.delta_f + st.delta_n, rel=0.05)
        assert st.cross_norm < 0.2

    def test_noise_covariance_tends_to_scaled_identity(self):
        # entrywise matrix claims need one fixed realization and many trials
        cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                           coherence_time=30, noise_var=SNR5,
                           code_model="shifted", seed=26)
        st = empirical_estimation_stats(cfg, 0.1, trials=400, realizations=1,
                                        mode="approx_im")
        m = cfg.coherence_time
        diag = np.diag(st.sigma_n).real * m
        assert diag.mean() == pytest.approx(SNR5, rel=0.10)
        off = st.sigma_n[~np.eye(len(diag), dtype=bool)] * m
        se = SNR5 / np.sqrt(st.trials_per_realization - 1)
        assert np.abs(off).max() < 5 * se

    def test_bias_ratio_moves_toward_twice_error_rate(self, stats):
        _, st = stats
        assert st.mean_bias_ratio.real == pytest.approx(0.2, rel=0.15)
        assert abs(st.mean_bias_ratio.imag) < 0.02


def test_feedback_covariance_entries_match_prediction():
    # entrywise check of the three covariance branches on one realization
    cfg = SystemConfig(n_users=8, spreading_gain=64, n_paths=2,
                       coherence_time=100, noise_var=0.0, seed=17)
    pe = 0.1
    st = empirical_estimation_stats(cfg, pe, trials=3000, realizations=1,
                                    mode="approx_im")
    kl = cfg.n_gains
    m = cfg.coherence_time
    a = st.gains_flat
    emp = st.sigma_f * m

    diag_pred = np.array([analysis.feedback_covariance_limit_entry(
        i, i, a, pe, 64, 2).real for i in range(kl)])
    diag_emp = np.diag(emp).real
    # exact finite-Pe diagonal carries (1-Pe) on the own-gain term
    corr = diag_pred - 4 * pe * pe * np.abs(a) ** 2
    assert np.corrcoef(diag_emp, diag_pred)[0, 1] > 0.98
    np.testing.assert_allclose(diag_emp, corr, rtol=0.25)

    same_emp, same_pred, cross_emp, cross_pred = [], [], [], []
    for i in range(kl):
        for j in range(kl):
            if i == j:
                continue
            pred = analysis.feedback_covariance_limit_entry(i, j, a, pe, 64, 2)
            if i // 2 == j // 2:
                same_emp.append(emp[i, j])
                same_pred.append(pred)
            else:
                cross_emp.append(emp[i, j])
                cross_pred.append(pred)
    same_emp, same_pred = np.asarray(same_emp), np.asarray(same_pred)
    slope = np.real(np.vdot(same_pred, same_emp) / np.vdot(same_pred, same_pred))
    assert slope == pytest.approx(1.0, abs=0.2)
    # exact bookkeeping leaves cross-user entries at order Pe^2/N, tiny
    # against the tabulated branch, so that slope collapses toward zero
    # and the entries themselves sit at the sampling-noise floor
    cross_emp, cross_pred = np.asarray(cross_emp), np.asarray(cross_pred)
    cross_slope = np.real(np.vdot(cross_pred, cross_emp)
                          / np.vdot(cross_pred, cross_pred))
    assert abs(cross_slope) < 0.2
    noise_floor = diag_emp.mean() / np.sqrt(st.trials_per_realization)
    assert np.abs(cross_emp).mean() < 3 * noise_floor


def test_truth_debias_halves_mse_in_feedback_dominated_regime():
    # the bias term carries most of the error energy when feedback errors
    # dominate noise; subtracting it (which needs the true gains) must
    # reclaim at least half of the mean-square error
    cfg = SystemConfig(n_users=10, spreading_gain=50, n_paths=2,
                       coherence_time=50, noise_var=1e-3, seed=18)
    pe = 0.3
    raw, fixed = [], []
    for trial in range(40):
        rng = derive_stream(18, "debias", trial)
        channel = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        symbols = sm.generate_symbols(cfg, rng)
        feedback = sm.corrupt_feedback(symbols, pe, rng)
        received = sm.synthesize_received(channel, codes, symbols, cfg, rng)
        est = ml_estimate(build_stacked_matrix(codes, feedback.decisions),
                          received.chips.reshape(-1))
        better = est.gains_flat + 2.0 * pe * channel.vector
        raw.append(np.mean(np.abs(channel.vector - est.gains_flat) ** 2))
        fixed.append(np.mean(np.abs(channel.vector - better) ** 2))
    assert np.mean(fixed) < 0.5 * np.mean(raw)
