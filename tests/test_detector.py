import numpy as np
import pytest

from conftest import assert_same_fields
from itercdma import analysis
from itercdma import system_model as sm
from itercdma.config import SystemConfig, derive_stream, noise_var_from_snr_db
from itercdma.detector import (lmmse_detect_frame, lmmse_llrs,
                               matched_filter_frame, measure_pic_stats,
                               pic_mrc_frame, qfunc)
from itercdma.exceptions import ParameterError

SNR10 = noise_var_from_snr_db(10.0)


def _frame(cfg, seed, error_rate=0.0, tag="det"):
    rng = derive_stream(seed, tag, 0)
    gains = sm.generate_channel(cfg, rng)
    codes = sm.generate_codes(cfg, rng)
    symbols = sm.generate_symbols(cfg, rng)
    feedback = sm.corrupt_feedback(symbols, error_rate, cfg.n_training, rng)
    chips, noise = sm.synthesize_received(gains, codes, symbols, cfg, rng)
    return gains, codes, symbols, feedback, chips, noise


class TestMatchedFilter:
    def test_single_user_noiseless_recovers_gain(self):
        cfg = SystemConfig(n_users=1, spreading_gain=32, n_paths=1,
                           coherence_time=4, noise_var=0.0, seed=1)
        gains, codes, symbols, _, chips, _ = _frame(cfg, 1)
        y = matched_filter_frame(chips, codes)
        np.testing.assert_allclose(y[:, 0, 0], gains[0, 0] * symbols[0],
                                   rtol=1e-12)

    def test_pure_noise_projection_variance(self):
        cfg = SystemConfig(n_users=8, spreading_gain=64, n_paths=2,
                           coherence_time=100, noise_var=0.7, seed=2)
        rng = derive_stream(2, "mfnoise", 0)
        codes = sm.generate_codes(cfg, rng)
        noise = np.sqrt(0.35) * (rng.standard_normal((100, 64))
                                 + 1j * rng.standard_normal((100, 64)))
        outs = matched_filter_frame(noise, codes)
        assert np.mean(np.abs(outs) ** 2) == pytest.approx(0.7, rel=0.05)

    def test_matches_brute_force_dot_products(self):
        cfg = SystemConfig(n_users=5, spreading_gain=16, n_paths=3,
                           coherence_time=6, noise_var=0.2, seed=3)
        _, codes, _, _, chips, _ = _frame(cfg, 3)
        y = matched_filter_frame(chips, codes)
        for t in range(6):
            for k in range(5):
                for l in range(3):
                    assert y[t, k, l] == pytest.approx(
                        np.dot(codes[t, k, l], chips[t]))


class TestLmmse:
    def test_single_user_output_sinr_is_matched_filter_bound(self):
        cfg = SystemConfig(n_users=1, spreading_gain=64, n_paths=1,
                           coherence_time=200, noise_var=0.1, seed=5)
        gains, codes, symbols, _, chips, _ = _frame(cfg, 5)
        soft, _ = lmmse_detect_frame(chips, codes, gains, 0.1)
        rotated = soft[:, 0] * symbols[0]
        gain = rotated.real.mean()
        sinr = gain ** 2 / np.var(rotated - gain + 0j)
        assert sinr == pytest.approx(np.abs(gains[0, 0]) ** 2 / 0.1,
                                     rel=0.25)

    def test_high_noise_limit_is_scaled_matched_filter(self):
        cfg = SystemConfig(n_users=4, spreading_gain=32, n_paths=2,
                           coherence_time=4, noise_var=1e6, seed=6)
        gains, codes, _, _, chips, _ = _frame(cfg, 6)
        soft, _ = lmmse_detect_frame(chips, codes,
                                     gains, cfg.noise_var)
        signatures = np.einsum("kl,mkln->mnk", gains, codes)
        mf = np.einsum("mnk,mn->mk", signatures.conj(), chips)
        for t in range(cfg.coherence_time):
            cosine = np.abs(np.vdot(soft[t], mf[t])) / (
                np.linalg.norm(soft[t]) * np.linalg.norm(mf[t]))
            assert cosine == pytest.approx(1.0, abs=1e-4)

    def test_output_sinr_tracks_large_system_fixed_point(self):
        # equal-power oracle: s solves s = P/(noise + beta*P/(1+s)), with
        # per-user received powers plugged into the general version
        cfg = SystemConfig(n_users=32, spreading_gain=64, n_paths=50,
                           coherence_time=60, noise_var=0.1, seed=7)
        gains, codes, symbols, _, chips, noise = _frame(cfg, 7)
        soft, _ = lmmse_detect_frame(chips, codes, gains, 0.1)
        rotated = soft.T * symbols
        amps = rotated.real.mean(axis=1)
        sinrs = amps ** 2 / np.var(rotated - amps[:, None] + 0j, axis=1)

        powers = np.sum(np.abs(gains) ** 2, axis=1)
        oracle = _tse_hanly_sinrs(powers, 0.1, cfg.spreading_gain)
        assert np.median(sinrs) == pytest.approx(np.median(oracle), rel=0.15)

    def test_llr_sign_follows_soft_output(self):
        cfg = SystemConfig(n_users=3, spreading_gain=16, n_paths=2,
                           coherence_time=4, noise_var=0.3, seed=8)
        gains, codes, _, _, chips, _ = _frame(cfg, 8)
        soft, bias = lmmse_detect_frame(chips, codes,
                                        gains, 0.3)
        np.testing.assert_array_equal(np.sign(lmmse_llrs(soft, bias)),
                                      np.sign(soft.real))

    def test_singular_covariance_falls_back_with_warning(self):
        # one user, no noise: rank-one covariance triggers the ridge
        cfg = SystemConfig(n_users=1, spreading_gain=8, n_paths=1,
                           coherence_time=2, noise_var=0.0, seed=18)
        gains, codes, _, _, chips, noise = _frame(cfg, 18)
        with pytest.warns(RuntimeWarning, match="ridge"):
            soft, bias = lmmse_detect_frame(chips, codes,
                                            gains, 0.0)
        assert np.isfinite(soft).all() and np.isfinite(bias).all()


def _tse_hanly_sinrs(powers, noise_var, spreading_gain, iters=500):
    # fixed-point evaluation of the large-system LMMSE SINR system
    sinrs = np.ones_like(powers)
    for _ in range(iters):
        updated = np.empty_like(sinrs)
        for k, pk in enumerate(powers):
            others = np.delete(powers, k)
            interference = np.mean(others * pk / (pk + others * sinrs[k])) \
                * len(others) / spreading_gain
            updated[k] = pk / (noise_var + interference)
        sinrs = 0.5 * sinrs + 0.5 * updated
    return sinrs


def _pic_oracle(chips, codes, est, feedback, true_gains, true_symbols):
    """PIC + MRC from its definition, chip by chip.

    Per period t and user k: subtract every other user's reconstructed chips
    b_hat_j sum_l a_hat_jl s_jl(t) from r_t, correlate with each s_kl(t) and
    combine with a_hat_k*.  The residual is what remains of each correlation
    after user k's own true chips b_k sum_l a_kl s_kl(t) are taken out too.
    """
    m, kk, _, _ = codes.shape
    est = np.broadcast_to(est, (m,) + true_gains.shape)
    combined = np.empty((m, kk), dtype=complex)
    residual = np.empty((m,) + true_gains.shape, dtype=complex)
    for t in range(m):
        recon = [feedback[j, t] * est[t, j] @ codes[t, j] for j in range(kk)]
        for k in range(kk):
            cleaned = codes[t, k] @ (chips[t] - sum(recon[j] for j in range(kk) if j != k))
            combined[t, k] = est[t, k].conj() @ cleaned
            own = true_symbols[k, t] * true_gains[k] @ codes[t, k]
            residual[t, k] = cleaned - codes[t, k] @ own
    return combined, residual


def _pic_mf_reference(chips, codes, est, feedback, true_gains, true_symbols):
    """PIC + MRC on matched-filter outputs: subtract the projections instead.

    Matched-filter the raw chips first, then subtract the projection of
    every user's reconstruction onto each path's code and add back the
    user's own reconstructed paths.
    """
    m, k, l, n = codes.shape
    flat = codes.reshape(m, k * l, n)
    est = np.broadcast_to(est, (m, k, l))
    amp = est * feedback.T[:, :, None]
    recon = np.einsum("mjn,mj->mn", flat, amp.reshape(m, k * l))
    own_gram = codes @ codes.transpose(0, 1, 3, 2)
    full_proj = np.einsum("mjn,mn->mj", flat, recon).reshape(m, k, l)
    own_proj = np.einsum("mkab,mkb->mka", own_gram, amp)
    cleaned = matched_filter_frame(chips, codes) - (full_proj - own_proj)
    sym = true_symbols.T[:, :, None]
    crosstalk = sym * (np.einsum("mkab,kb->mka", own_gram, true_gains) - true_gains)
    residual = cleaned - true_gains * sym - crosstalk
    return np.sum(est.conj() * cleaned, axis=2), residual, crosstalk


class TestPic:
    def test_perfect_cancellation_leaves_own_user_terms(self):
        cfg = SystemConfig(n_users=6, spreading_gain=32, n_paths=3,
                           coherence_time=4, noise_var=0.0, seed=9)
        gains, codes, symbols, feedback, chips, noise = _frame(cfg, 9, 0.0)
        det = pic_mrc_frame(chips, codes, gains, feedback,
                            true_gains=gains, true_symbols=symbols)
        # residual carries nothing: no noise, no feedback error, true gains
        np.testing.assert_allclose(det.residual, 0.0, atol=1e-12)
        expected = np.sum(gains.conj()
                          * (gains * symbols.T[:, :, None]
                             + det.self_crosstalk), axis=2)
        np.testing.assert_allclose(det.combined, expected, atol=1e-12)

    def test_accounting_identity(self):
        # combined equals gains* . (signal + crosstalk + residual) exactly
        cfg = SystemConfig(n_users=8, spreading_gain=32, n_paths=2,
                           coherence_time=4, noise_var=0.4, seed=10)
        gains, codes, symbols, feedback, chips, _ = _frame(cfg, 10, 0.1)
        est = gains * (0.9 + 0.05j)   # any estimate
        det = pic_mrc_frame(chips, codes, est, feedback,
                            true_gains=gains, true_symbols=symbols)
        rebuilt = np.sum(est.conj()
                         * (gains * symbols.T[:, :, None]
                            + det.self_crosstalk + det.residual), axis=2)
        np.testing.assert_allclose(det.combined, rebuilt, atol=1e-10)

    def test_residual_is_noise_when_no_errors(self):
        cfg = SystemConfig(n_users=6, spreading_gain=32, n_paths=2,
                           coherence_time=50, noise_var=0.25, seed=11)
        gains, codes, symbols, feedback, chips, _ = _frame(cfg, 11, 0.0)
        det = pic_mrc_frame(chips, codes, gains, feedback,
                            true_gains=gains,
                            true_symbols=symbols)
        power = np.mean(np.abs(det.residual) ** 2)
        assert power == pytest.approx(0.25, rel=0.1)

    @pytest.mark.parametrize("per_period", [False, True], ids=["shared", "per_period"])
    def test_matches_chip_level_oracle(self, per_period):
        cfg = SystemConfig(n_users=5, spreading_gain=16, n_paths=2,
                           coherence_time=5, noise_var=0.3, seed=12)
        gains, codes, symbols, feedback, chips, _ = _frame(cfg, 12, 0.1)
        rng = derive_stream(12, "pic-oracle", 0)
        shape = (5,) + gains.shape if per_period else gains.shape
        est = gains + 0.1 * (rng.standard_normal(shape)
                                     + 1j * rng.standard_normal(shape))
        det = pic_mrc_frame(chips, codes, est, feedback,
                            true_gains=gains, true_symbols=symbols)
        combined, residual = _pic_oracle(chips, codes, est,
                                         feedback, gains,
                                         symbols)
        np.testing.assert_allclose(det.combined, combined, rtol=0, atol=1e-12)
        np.testing.assert_allclose(det.residual, residual, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("code_model", ["independent", "shifted"])
    @pytest.mark.parametrize("per_period", [False, True], ids=["shared", "per_period"])
    def test_chip_domain_matches_matched_filter_reference(self, code_model, per_period):
        cfg = SystemConfig(n_users=6, spreading_gain=24, n_paths=3,
                           coherence_time=7, noise_var=0.3, code_model=code_model,
                           seed=20)
        gains, codes, symbols, feedback, chips, _ = _frame(cfg, 20, 0.1)
        rng = derive_stream(20, "pic-reference", 0)
        shape = (7,) + gains.shape if per_period else gains.shape
        est = gains + 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        det = pic_mrc_frame(chips, codes, est, feedback,
                            true_gains=gains, true_symbols=symbols)
        combined, residual, crosstalk = _pic_mf_reference(chips, codes, est, feedback,
                                                          gains, symbols)
        np.testing.assert_allclose(det.combined, combined, rtol=0, atol=1e-12)
        np.testing.assert_allclose(det.residual, residual, rtol=0, atol=1e-12)
        np.testing.assert_allclose(det.self_crosstalk, crosstalk, rtol=0, atol=1e-12)


class TestPicStatistics:
    @pytest.fixture(scope="class")
    @staticmethod
    def stats():
        cfg = SystemConfig(n_users=30, spreading_gain=30, n_paths=5,
                           coherence_time=50, noise_var=SNR10, seed=13)
        return cfg, measure_pic_stats(cfg, 0.1, frames=24, realizations=4)

    def test_residual_power_matches_prediction(self, stats):
        cfg, st = stats
        delta_a = analysis.feedback_estimate_variance(
            0.1, cfg.load, cfg.n_paths, cfg.coherence_time, cfg.noise_var)
        pred = analysis.residual_interference_variance(
            delta_a, cfg.load, cfg.n_paths, 0.1, cfg.noise_var)
        assert st.interference_power == pytest.approx(pred, rel=0.10)

    def test_gain_matches_scalar_model(self, stats):
        _, st = stats
        assert st.gain == pytest.approx(0.8, rel=0.05)

    def test_mrc_noise_power_matches_scalar_model(self, stats):
        cfg, st = stats
        delta_a = analysis.feedback_estimate_variance(
            0.1, cfg.load, cfg.n_paths, cfg.coherence_time, cfg.noise_var)
        sig = analysis.residual_interference_variance(
            delta_a, cfg.load, cfg.n_paths, 0.1, cfg.noise_var)
        model = analysis.pic_output_model(0.1, delta_a, cfg.n_paths, sig)
        assert st.mrc_noise_power == pytest.approx(model.variance, rel=0.10)

    def test_gaussian_model_ser_close_to_simulated(self, stats):
        _, st = stats
        assert st.ser_sim > 0
        assert abs(st.ser_sim - st.ser_gauss) / st.ser_gauss < 0.25


def test_same_inputs_give_identical_pic_stats():
    cfg = SystemConfig(n_users=6, spreading_gain=16, n_paths=2, coherence_time=10,
                       n_training=1, noise_var=0.2, seed=22)

    def run(experiment_id):
        return measure_pic_stats(cfg, 0.1, frames=4, realizations=2,
                                 experiment_id=experiment_id)

    first = run("repro")
    assert_same_fields(first, run("repro"))
    other = run("repro-other")
    assert other.interference_power != first.interference_power
    assert other.output_variance != first.output_variance


def test_frames_not_a_multiple_of_realizations_rejected():
    # 5 frames over 3 realizations used to run 3 x 1 and drop the other 2
    cfg = SystemConfig(n_users=2, spreading_gain=8, n_paths=1, coherence_time=4,
                       noise_var=0.1, seed=1)
    with pytest.raises(ParameterError,
                       match=r"frames \(5\) must be a multiple of realizations \(3\)"):
        measure_pic_stats(cfg, 0.1, frames=5, realizations=3)


def test_residual_mean_near_zero():
    cfg = SystemConfig(n_users=10, spreading_gain=32, n_paths=2,
                       coherence_time=40, noise_var=0.2, seed=14)
    resids = []
    for trial in range(6):
        rng = derive_stream(14, "resmean", trial)
        gains = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        symbols = sm.generate_symbols(cfg, rng)
        feedback = sm.corrupt_feedback(symbols, 0.1, cfg.n_training, rng)
        chips, _ = sm.synthesize_received(gains, codes, symbols, cfg, rng)
        det = pic_mrc_frame(chips, codes, gains, feedback,
                            true_gains=gains,
                            true_symbols=symbols)
        resids.append(det.residual.ravel())
    resids = np.concatenate(resids)
    se = resids.real.std() / np.sqrt(resids.size)
    assert abs(resids.real.mean()) < 5 * se
    assert abs(resids.imag.mean()) < 5 * se


def test_residual_power_shifts_one_for_one_with_noise():
    # with genie gains and fixed feedback error rate, sweeping the noise
    # floor moves the residual power with unit slope
    powers = []
    noise_vars = [0.1, 0.2, 0.4, 0.8]
    for nv in noise_vars:
        cfg = SystemConfig(n_users=10, spreading_gain=20, n_paths=3,
                           coherence_time=40, noise_var=nv, seed=15)
        st = measure_pic_stats(cfg, 0.1, frames=12, realizations=3,
                               channel_knowledge="perfect")
        powers.append(st.interference_power)
    slope = np.polyfit(noise_vars, powers, 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_cross_path_residuals_uncorrelated_at_large_gain():
    cfg = SystemConfig(n_users=8, spreading_gain=256, n_paths=2,
                       coherence_time=60, noise_var=0.2, seed=16)
    prods = []
    for trial in range(6):
        rng = derive_stream(16, "xpath", trial)
        gains = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        symbols = sm.generate_symbols(cfg, rng)
        feedback = sm.corrupt_feedback(symbols, 0.1, cfg.n_training, rng)
        chips, _ = sm.synthesize_received(gains, codes, symbols, cfg, rng)
        det = pic_mrc_frame(chips, codes, gains, feedback,
                            true_gains=gains,
                            true_symbols=symbols)
        prods.append((det.residual[:, :, 0]
                      * det.residual[:, :, 1].conj()).ravel())
    prods = np.concatenate(prods)
    se = prods.real.std() / np.sqrt(prods.size)
    assert abs(prods.real.mean()) < 5 * se


def test_residual_power_prediction_at_large_gain():
    # the closed form stays within 15% at a wide-band operating point
    cfg = SystemConfig(n_users=20, spreading_gain=100, n_paths=5,
                       coherence_time=30, noise_var=SNR10, seed=19)
    st = measure_pic_stats(cfg, 0.1, frames=24, realizations=4)
    delta_a = analysis.feedback_estimate_variance(0.1, 0.2, 5, 30, SNR10)
    pred = analysis.residual_interference_variance(delta_a, 0.2, 5, 0.1, SNR10)
    assert st.interference_power == pytest.approx(pred, rel=0.15)


def test_moment_gate_holds_in_converged_regime():
    # at small residual feedback error the flip-count variance mixture is
    # negligible and the output noise is Gaussian to the third and fourth
    # moments; at detection-stage error rates the fourth moment visibly
    # exceeds the gate (variance mixture over the per-period flip count)
    cfg = SystemConfig(n_users=30, spreading_gain=30, n_paths=5,
                       coherence_time=50, noise_var=SNR10, seed=17)
    quiet = measure_pic_stats(cfg, 0.001, frames=24, realizations=4)
    assert abs(quiet.skewness) < 0.1
    assert abs(quiet.excess_kurtosis) < 0.2
    noisy = measure_pic_stats(cfg, 0.05, frames=24, realizations=4)
    assert noisy.excess_kurtosis > 0.2


def test_qfunc_reference_values():
    assert qfunc(0.0) == pytest.approx(0.5)
    assert qfunc(1.6448536269514722) == pytest.approx(0.05, rel=1e-9)
    assert float(qfunc(np.inf)) == 0.0
