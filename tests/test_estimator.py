import numpy as np
import pytest

from conftest import assert_same_fields
from itercdma import analysis
from itercdma import system_model as sm
from itercdma.config import SystemConfig, derive_stream, noise_var_from_snr_db
from itercdma.estimator import (_gram_domain_split, _period_grams, build_stacked_matrix,
                                decompose_error, empirical_estimation_stats,
                                leave_one_out_estimates_fast, ml_estimate)
from itercdma.exceptions import ParameterError, RankError

SNR5 = noise_var_from_snr_db(5.0)


def _frame(cfg, seed, error_rate=0.0, tag="est"):
    rng = derive_stream(seed, tag, 0)
    gains = sm.generate_channel(cfg, rng)
    codes = sm.generate_codes(cfg, rng)
    symbols = sm.generate_symbols(cfg, rng)
    feedback = sm.corrupt_feedback(symbols, error_rate, cfg.n_training, rng)
    chips, noise = sm.synthesize_received(gains, codes, symbols, cfg, rng)
    return gains, codes, symbols, feedback, chips, noise


def _refit_leave_one_out(codes, symbols, chips):
    """Oracle: per period t, the least-squares refit on every other period."""
    m = codes.shape[0]
    out = []
    for t in range(m):
        kept = np.delete(np.arange(m), t)
        stacked = build_stacked_matrix(codes[kept], symbols[:, kept])
        out.append(ml_estimate(stacked, chips[kept].reshape(-1)).gains_flat)
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

    def test_vector_is_user_major(self):
        # stacked column i and entry i of gains.reshape(-1) are user i // L, path i % L
        cfg = SystemConfig(n_users=3, spreading_gain=8, n_paths=2,
                           coherence_time=2, noise_var=0.0, seed=6)
        rng = derive_stream(6, "stk", 0)
        gains = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        symbols = np.ones((3, 2), dtype=np.int8)
        stacked = build_stacked_matrix(codes, symbols)
        a = gains.reshape(-1)
        for i in range(cfg.n_gains):
            k, l = divmod(i, cfg.n_paths)
            assert a[i] == gains[k, l]
            np.testing.assert_array_equal(stacked.matrix[:8, i], codes[0, k, l])
        chips, _ = sm.synthesize_received(gains, codes, symbols, cfg, rng)
        np.testing.assert_allclose(stacked.matrix @ a, chips.reshape(-1), atol=1e-12)

    def test_column_norms_sqrt_m(self):
        cfg = SystemConfig(n_users=4, spreading_gain=16, n_paths=3,
                           coherence_time=9, seed=2)
        _, codes, symbols, _, _, _ = _frame(cfg, 2)
        stacked = build_stacked_matrix(codes, symbols)
        norms = np.linalg.norm(stacked.matrix, axis=0)
        np.testing.assert_allclose(norms, np.sqrt(9), atol=1e-12)

    def test_perfect_feedback_gives_identical_matrix(self):
        cfg = SystemConfig(n_users=3, spreading_gain=16, n_paths=2,
                           coherence_time=6, seed=3)
        _, codes, symbols, feedback, _, _ = _frame(cfg, 3, error_rate=0.0)
        s_true = build_stacked_matrix(codes, symbols)
        s_fb = build_stacked_matrix(codes, feedback)
        np.testing.assert_array_equal(s_true.matrix, s_fb.matrix)

    def test_single_flip_touches_l_columns_in_one_block(self):
        cfg = SystemConfig(n_users=3, spreading_gain=16, n_paths=2,
                           coherence_time=6, seed=4)
        _, codes, symbols, _, _, _ = _frame(cfg, 4)
        flipped = symbols.copy()
        k_hit, m_hit = 1, 3
        flipped[k_hit, m_hit] = -flipped[k_hit, m_hit]
        delta = (build_stacked_matrix(codes, symbols).matrix
                 - build_stacked_matrix(codes, flipped).matrix)
        # delta = 2 b * s on the flipped user's L columns of block m only
        n, l = cfg.spreading_gain, cfg.n_paths
        rows = slice(m_hit * n, (m_hit + 1) * n)
        cols = slice(k_hit * l, (k_hit + 1) * l)
        expected = np.zeros_like(delta)
        expected[rows, cols] = (2 * symbols[k_hit, m_hit]
                                * codes[m_hit, k_hit].T)
        np.testing.assert_allclose(delta, expected, atol=1e-12)

    def test_block_subset_matches_full_stack_rows(self):
        cfg = SystemConfig(n_users=2, spreading_gain=8, n_paths=1,
                           coherence_time=5, seed=5)
        _, codes, symbols, _, _, _ = _frame(cfg, 5)
        sub = build_stacked_matrix(codes[[1, 3]], symbols[:, [1, 3]])
        full = build_stacked_matrix(codes, symbols).matrix
        np.testing.assert_array_equal(sub.matrix, np.concatenate([full[8:16], full[24:32]]))
        assert sub.n_blocks == 2

    @pytest.mark.parametrize("blocks", [None, [1, 3, 4], [5, 0, 3]],
                             ids=["all", "subset", "permuted"])
    def test_one_pass_matches_copy_then_transpose(self, blocks):
        cfg = SystemConfig(n_users=3, spreading_gain=8, n_paths=4,
                           coherence_time=6, seed=7)
        _, codes, symbols, _, _, _ = _frame(cfg, 7)
        picked = np.arange(6) if blocks is None else np.asarray(blocks)
        signed = codes[picked] * symbols.T[picked, :, None, None]
        ref = signed.reshape(len(picked), 12, 8).transpose(0, 2, 1).reshape(-1, 12)
        stacked = build_stacked_matrix(codes[picked], symbols[:, picked])
        assert np.array_equal(stacked.matrix, ref)
        assert stacked.n_blocks == len(picked)


class TestMlEstimate:
    def test_noiseless_exact_recovery(self):
        cfg = SystemConfig(n_users=6, spreading_gain=32, n_paths=2,
                           coherence_time=8, noise_var=0.0, seed=6)
        gains, codes, symbols, _, chips, _ = _frame(cfg, 6)
        stacked = build_stacked_matrix(codes, symbols)
        est = ml_estimate(stacked, chips.reshape(-1))
        np.testing.assert_allclose(est.gains_flat, gains.reshape(-1), atol=1e-10)
        assert est.solve_info.residual < 1e-8

    def test_gram_diagonal_is_coherence_time(self):
        cfg = SystemConfig(n_users=4, spreading_gain=16, n_paths=2,
                           coherence_time=12, noise_var=0.1, seed=7)
        _, codes, symbols, _, chips, _ = _frame(cfg, 7)
        stacked = build_stacked_matrix(codes, symbols)
        est = ml_estimate(stacked, chips.reshape(-1))
        np.testing.assert_allclose(np.diag(stacked.matrix.T @ stacked.matrix), 12.0,
                                   atol=1e-12)
        # normal-equation orthogonality holds to solver precision
        assert est.solve_info.residual < 1e-8

    def test_single_code_matches_scalar_least_squares(self):
        cfg = SystemConfig(n_users=1, spreading_gain=16, n_paths=1,
                           coherence_time=5, noise_var=0.2, seed=8)
        gains, codes, symbols, _, chips, _ = _frame(cfg, 8)
        stacked = build_stacked_matrix(codes, symbols)
        est = ml_estimate(stacked, chips.reshape(-1))
        manual = np.vdot(stacked.matrix[:, 0],
                         chips.reshape(-1).conj()).conj() / 5.0
        assert est.gains_flat[0] == pytest.approx(manual)

    def test_training_only_variance_matches_prediction(self):
        # trace of the error covariance against noise/(M - L*beta)
        cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                           coherence_time=10, noise_var=SNR5, seed=9)
        pred = analysis.training_estimate_variance(SNR5, 10, 5, 0.2)
        errs = []
        for trial in range(200):
            rng = derive_stream(9, "train-var", trial)
            gains = sm.generate_channel(cfg, rng)
            codes = sm.generate_codes(cfg, rng)
            symbols = sm.generate_symbols(cfg, rng)
            chips, noise = sm.synthesize_received(gains, codes, symbols, cfg, rng)
            est = ml_estimate(build_stacked_matrix(codes, symbols),
                              chips.reshape(-1))
            errs.append(np.mean(np.abs(est.gains_flat - gains.reshape(-1)) ** 2))
        assert np.mean(errs) == pytest.approx(pred, rel=0.10)

    def test_underdetermined_raises(self):
        cfg = SystemConfig(n_users=8, spreading_gain=8, n_paths=2,
                           coherence_time=6, seed=10)
        _, codes, symbols, _, chips, _ = _frame(cfg, 10)
        stacked = build_stacked_matrix(codes[:1], symbols[:, :1])
        with pytest.raises(RankError):
            ml_estimate(stacked, chips[:1].reshape(-1))


class TestDecomposition:
    def test_parts_sum_exactly_in_exact_mode(self):
        cfg = SystemConfig(n_users=5, spreading_gain=32, n_paths=2,
                           coherence_time=12, noise_var=0.3, seed=11)
        gains, codes, symbols, feedback, chips, noise = _frame(cfg, 11, 0.1)
        s_true = build_stacked_matrix(codes, symbols)
        s_fb = build_stacked_matrix(codes, feedback)
        est = ml_estimate(s_fb, chips.reshape(-1))
        dec = decompose_error(gains.reshape(-1), s_true, s_fb,
                              noise.reshape(-1))
        np.testing.assert_allclose(dec.total,
                                   gains.reshape(-1) - est.gains_flat, atol=1e-9)
        np.testing.assert_allclose(dec.total,
                                   dec.feedback_part + dec.noise_part)

    def test_no_feedback_error_means_no_feedback_part(self):
        cfg = SystemConfig(n_users=5, spreading_gain=32, n_paths=2,
                           coherence_time=12, noise_var=0.3, seed=12)
        gains, codes, symbols, feedback, chips, noise = _frame(cfg, 12, 0.0)
        s = build_stacked_matrix(codes, symbols)
        dec = decompose_error(gains.reshape(-1), s, s, noise.reshape(-1))
        np.testing.assert_allclose(dec.feedback_part, 0.0, atol=1e-12)

    def test_no_noise_means_no_noise_part(self):
        cfg = SystemConfig(n_users=5, spreading_gain=32, n_paths=2,
                           coherence_time=12, noise_var=0.0, seed=13)
        gains, codes, symbols, feedback, chips, noise = _frame(cfg, 13, 0.1)
        s_true = build_stacked_matrix(codes, symbols)
        s_fb = build_stacked_matrix(codes, feedback)
        dec = decompose_error(gains.reshape(-1), s_true, s_fb,
                              noise.reshape(-1))
        np.testing.assert_allclose(dec.noise_part, 0.0, atol=1e-12)

    def test_exact_vs_approx_close_for_long_blocks(self):
        # inverse-Gram vs identity-over-M decompositions drift apart by
        # less than 10% relative on average at M=50, Pe=0.05
        cfg = SystemConfig(n_users=10, spreading_gain=50, n_paths=2,
                           coherence_time=50, noise_var=SNR5, seed=14)
        rels = []
        for trial in range(30):
            rng = derive_stream(14, "exact-vs-approx", trial)
            gains = sm.generate_channel(cfg, rng)
            codes = sm.generate_codes(cfg, rng)
            symbols = sm.generate_symbols(cfg, rng)
            feedback = sm.corrupt_feedback(symbols, 0.05, cfg.n_training, rng)
            chips, noise = sm.synthesize_received(gains, codes, symbols, cfg, rng)
            s_true = build_stacked_matrix(codes, symbols)
            s_fb = build_stacked_matrix(codes, feedback)
            noise = noise.reshape(-1)
            exact = decompose_error(gains.reshape(-1), s_true, s_fb, noise)
            approx = decompose_error(gains.reshape(-1), s_true, s_fb, noise,
                                     mode="approx_im")
            denom = np.linalg.norm(exact.feedback_part)
            if denom > 0:
                rels.append(np.linalg.norm(
                    exact.feedback_part - approx.feedback_part) / denom)
        assert np.mean(rels) < 0.10

    def test_leave_one_out_fast_matches_refit(self):
        cfg = SystemConfig(n_users=4, spreading_gain=16, n_paths=2,
                           coherence_time=7, noise_var=0.2, seed=15)
        _, codes, symbols, feedback, chips, _ = _frame(cfg, 15, 0.1)
        stacked = build_stacked_matrix(codes, feedback)
        fast = leave_one_out_estimates_fast(stacked, chips)
        naive = _refit_leave_one_out(codes, feedback, chips)
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
        _, codes, _, feedback, chips, _ = _frame(self.CFG, 16, 0.1)
        stacked = build_stacked_matrix(codes, feedback)
        chips = chips.reshape(-1)
        est = ml_estimate(stacked, chips)
        ref = np.linalg.lstsq(stacked.matrix.astype(complex), chips, rcond=None)[0]
        np.testing.assert_allclose(est.gains_flat, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "approx_im"])
    def test_decompose_error_matches_complex_products(self, mode):
        gains, codes, symbols, feedback, chips, noise = _frame(self.CFG, 16, 0.1)
        s_true = build_stacked_matrix(codes, symbols)
        s_fb = build_stacked_matrix(codes, feedback)
        noise = noise.reshape(-1)
        s_hat = s_fb.matrix.astype(complex)
        proj_fb = s_hat.T @ ((s_true.matrix.astype(complex) - s_hat) @ gains.reshape(-1))
        proj_noise = s_hat.T @ noise
        if mode == "exact":
            gram = s_hat.T @ s_hat
            ref_fb = -np.linalg.solve(gram, proj_fb)
            ref_noise = -np.linalg.solve(gram, proj_noise)
        else:
            ref_fb = -proj_fb / self.CFG.coherence_time
            ref_noise = -proj_noise / self.CFG.coherence_time
        dec = decompose_error(gains.reshape(-1), s_true, s_fb, noise, mode=mode)
        np.testing.assert_allclose(dec.feedback_part, ref_fb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.noise_part, ref_noise, rtol=0, atol=1e-12)


class TestGramDomainSplit:
    """The per-period Gram split of the sampler against the stacked oracle."""

    @pytest.mark.parametrize("code_model", ["independent", "shifted"])
    @pytest.mark.parametrize("mode", ["exact", "approx_im"])
    def test_matches_stacked_decompose_error(self, mode, code_model):
        cfg = SystemConfig(n_users=4, spreading_gain=16, n_paths=3,
                           coherence_time=10, n_training=2, noise_var=0.3,
                           code_model=code_model, seed=19)
        for trial in range(3):
            gains, codes, symbols, feedback, _, noise = _frame(
                cfg, 19, 0.2, tag=f"gram-split/{trial}")
            assert np.any(feedback != symbols)
            periods, scaled_grams = _period_grams(np.rint(codes * 4).astype(np.int8))
            np.testing.assert_array_equal(periods, codes.reshape(10, 12, 16))
            a = gains.reshape(-1)
            fb, nz = _gram_domain_split(periods, scaled_grams, a, symbols, feedback, noise,
                                        mode)
            dec = decompose_error(a, build_stacked_matrix(codes, symbols),
                                  build_stacked_matrix(codes, feedback),
                                  noise.reshape(-1), mode)
            np.testing.assert_allclose(fb, dec.feedback_part, rtol=1e-12)
            np.testing.assert_allclose(nz, dec.noise_part, rtol=1e-12)

    def test_period_grams_are_exact_integers(self):
        cfg = SystemConfig(n_users=5, spreading_gain=40, n_paths=3, coherence_time=6,
                           code_model="shifted", seed=23)
        signs = sm.generate_code_signs(cfg, derive_stream(23, "period-grams", 0))
        periods, scaled = _period_grams(signs)
        assert scaled.dtype == np.int16
        np.testing.assert_array_equal(
            scaled, np.rint(40 * periods @ periods.transpose(0, 2, 1)).astype(np.int16))
        with pytest.raises(ParameterError, match="int16"):
            _period_grams(np.ones((1, 1, 1, 2 ** 15), dtype=np.int8))

    def test_split_gap_at_stage_checks_scale(self):
        cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                           coherence_time=30, noise_var=SNR5,
                           code_model="shifted", seed=0)
        st = empirical_estimation_stats(cfg, 0.1, trials=4, realizations=2)
        assert st.split_gap < 1e-10

    def test_underdetermined_exact_split_raises(self):
        # M*N = 8 equations for K*L = 16 unknowns
        cfg = SystemConfig(n_users=8, spreading_gain=8, n_paths=2,
                           coherence_time=1, noise_var=0.1, seed=20)
        with pytest.raises(RankError):
            empirical_estimation_stats(cfg, 0.1, trials=4, realizations=2)

    def test_trials_not_a_multiple_of_realizations_rejected(self):
        # 7 trials over 3 realizations used to run 3 x 2 and drop the seventh
        cfg = SystemConfig(n_users=2, spreading_gain=8, n_paths=1, coherence_time=4,
                           noise_var=0.1, seed=1)
        with pytest.raises(ParameterError,
                           match=r"trials \(7\) must be a multiple of realizations \(3\)"):
            empirical_estimation_stats(cfg, 0.1, trials=7, realizations=3)


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

    def test_same_inputs_give_identical_stats(self):
        cfg = SystemConfig(n_users=6, spreading_gain=24, n_paths=3,
                           coherence_time=9, n_training=1, noise_var=0.2, seed=21)

        def run(experiment_id):
            return empirical_estimation_stats(cfg, 0.1, trials=12, realizations=3,
                                              experiment_id=experiment_id)

        first = run("repro")
        assert_same_fields(first, run("repro"))
        other = run("repro-other")
        assert other.delta_f != first.delta_f
        assert not np.array_equal(other.sigma_n, first.sigma_n)


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
        gains = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        symbols = sm.generate_symbols(cfg, rng)
        feedback = sm.corrupt_feedback(symbols, pe, cfg.n_training, rng)
        chips, noise = sm.synthesize_received(gains, codes, symbols, cfg, rng)
        est = ml_estimate(build_stacked_matrix(codes, feedback),
                          chips.reshape(-1))
        better = est.gains_flat + 2.0 * pe * gains.reshape(-1)
        raw.append(np.mean(np.abs(gains.reshape(-1) - est.gains_flat) ** 2))
        fixed.append(np.mean(np.abs(gains.reshape(-1) - better) ** 2))
    assert np.mean(fixed) < 0.5 * np.mean(raw)
