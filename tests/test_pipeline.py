import numpy as np
import pytest

from itercdma import analysis, pipeline
from itercdma.config import SystemConfig, derive_stream, noise_var_from_snr_db
from itercdma.exceptions import ConfigurationError, RankError
from itercdma.pipeline import (MODES, capacity_search, codeword_packing,
                               run_iterative_receiver)

NAN = float("nan")


def _cfg(**kw):
    base = dict(n_users=4, spreading_gain=32, n_paths=5, coherence_time=10,
                n_training=2, noise_var=noise_var_from_snr_db(5.0), seed=7)
    base.update(kw)
    return SystemConfig(**base)


class _RecordingCodec:
    """Codec proxy that counts the errors of every decode against its trial's codewords."""

    def __init__(self, codec):
        self._codec = codec
        self.codeword_length = codec.codeword_length
        self.info_length = codec.info_length
        self.trials = []      # per trial, one (feedback errors, info errors) per decode

    def encode(self, info):
        coded = self._codec.encode(info)
        self._sent = (info, coded)
        self.trials.append([])
        return coded

    def decode(self, llrs):
        info_hat, feedback = self._codec.decode(llrs)
        info, coded = self._sent
        self.trials[-1].append((int(np.sum(feedback != coded)),
                                int(np.sum(info_hat != info))))
        return info_hat, feedback


# Golden traces: K=8, N=32, L=5, M=10, M_t=2, 1.5 dB, seed 7, conv codec,
# 4 iterations, 2 trials, experiment "golden".  Counts are per trial and per
# decode, so a trial that stops early (its decisions repeated) is shorter.
# Keys are receiver modes under independent codes; "shifted" runs the
# iterative mode on sliding-window codes.
GOLDEN = {
    "iterative": dict(
        counts=[[(2658, 1866), (2633, 1861), (2633, 1861)],
                [(2708, 1902), (2675, 1865), (2664, 1856), (2659, 1853),
                 (2659, 1853)]],
        est_error_power=[0.9478845795546088, 0.1812465866408764,
                         0.18225100826215793, 0.1823404929571417,
                         0.18205728055609474],
        residual_interference_power=[NAN, 0.7662573065152954,
                                     0.7612265572639265, 0.7612177571281082,
                                     0.7603596374677808]),
    "lmmse_only": dict(
        counts=[[(2732, 1924)], [(2723, 1961)]],
        est_error_power=[0.9618806902658372],
        residual_interference_power=[NAN]),
    "perfect_init": dict(
        counts=[[(10, 6), (10, 6)], [(18, 14), (18, 14)]],
        est_error_power=[NAN] + [0.08006127989059078] * 4,
        residual_interference_power=[NAN] + [0.6422514938984221] * 4),
    "perfect_csi": dict(
        counts=[[(14, 6), (7, 3), (7, 3)], [(0, 0), (0, 0)]],
        est_error_power=[NAN] * 5,
        residual_interference_power=[NAN, 0.706264734314743]
        + [0.7063480723848272] * 3),
    "shifted": dict(
        counts=[[(2758, 1924), (2729, 1915), (2719, 1911), (2719, 1911)],
                [(2725, 1923), (2701, 1913), (2691, 1907), (2688, 1908),
                 (2688, 1908)]],
        est_error_power=[0.9574235598458928, 0.18761137616921195,
                         0.1882061072955046, 0.18815951446628018,
                         0.1881698165573118],
        residual_interference_power=[NAN, 0.772339731137393,
                                     0.766780914445381, 0.7657764911305178,
                                     0.7656213579685067]),
}


@pytest.mark.parametrize("case", [*MODES, "shifted"])
def test_golden_trace(conv_codec, case):
    shifted = case == "shifted"
    cfg = _cfg(n_users=8, noise_var=noise_var_from_snr_db(1.5),
               code_model="shifted" if shifted else "independent")
    codec = _RecordingCodec(conv_codec)
    trace = run_iterative_receiver(cfg, codec, iterations=4, trials=2,
                                   mode="iterative" if shifted else case,
                                   experiment_id="golden")
    golden = GOLDEN[case]
    assert codec.trials == golden["counts"]
    np.testing.assert_allclose(trace.est_error_power,
                               golden["est_error_power"], rtol=1e-9)
    np.testing.assert_allclose(trace.residual_interference_power,
                               golden["residual_interference_power"], rtol=1e-9)
    # the trace repeats each trial's last decode through the skipped stages
    stages = len(trace.feedback_error_rate)
    filled = np.array([counts + counts[-1:] * (stages - len(counts))
                       for counts in golden["counts"]])            # (trials, stages, 2)
    copies = codeword_packing(cfg, conv_codec.codeword_length)[1]
    n_coded = cfg.n_users * copies * conv_codec.codeword_length
    n_info = cfg.n_users * copies * conv_codec.info_length
    np.testing.assert_array_equal(trace.per_trial_feedback * n_coded, filled[..., 0])
    np.testing.assert_allclose(trace.info_bit_error_rate * n_info,
                               filled[..., 1].mean(axis=0), rtol=1e-12)


def test_each_block_drawn_once_per_trial(conv_codec, monkeypatch):
    # one stream for the trial's info bits and one per block, however many
    # stages the loop runs
    calls = []

    def counting(*args):
        calls.append(args)
        return derive_stream(*args)

    monkeypatch.setattr(pipeline, "derive_stream", counting)
    cfg = _cfg()
    run_iterative_receiver(cfg, conv_codec, iterations=3, trials=2)
    n_blocks = codeword_packing(cfg, conv_codec.codeword_length)[0]
    assert len(calls) == 2 * (n_blocks + 1)


class TestPacking:
    def test_exact_fit(self):
        # 8 data periods per block divide the codeword evenly
        assert codeword_packing(_cfg(), 1024) == (128, 1)
        assert codeword_packing(_cfg(coherence_time=20, n_training=4),
                                1024) == (64, 1)

    def test_multiple_codewords_when_needed(self):
        # 10 data periods need five codewords to land on a block boundary
        assert codeword_packing(_cfg(n_training=0), 1024) == (512, 5)

    def test_all_training_rejected(self):
        with pytest.raises(ConfigurationError):
            codeword_packing(_cfg(coherence_time=2, n_training=2), 1024)


class TestReceiverRuns:
    def test_trace_reproducible_from_seed(self, conv_codec):
        cfg = _cfg()
        a = run_iterative_receiver(cfg, conv_codec, iterations=2, trials=1)
        b = run_iterative_receiver(cfg, conv_codec, iterations=2, trials=1)
        np.testing.assert_array_equal(a.feedback_error_rate,
                                      b.feedback_error_rate)
        np.testing.assert_array_equal(a.info_bit_error_rate,
                                      b.info_bit_error_rate)

    def test_iterations_improve_moderate_load(self, conv_codec):
        cfg = _cfg(n_users=6)
        trace = run_iterative_receiver(cfg, conv_codec, iterations=4, trials=2)
        pe = trace.feedback_error_rate
        assert pe[1] < pe[0]
        assert pe[-1] <= pe[1]
        assert trace.info_bit_error_rate[-1] < trace.info_bit_error_rate[0]

    def test_estimation_quality_improves_with_feedback(self, conv_codec):
        cfg = _cfg(n_users=6)
        trace = run_iterative_receiver(cfg, conv_codec, iterations=3, trials=2)
        # training uses two periods; feedback estimation uses all ten
        assert trace.est_error_power[1] < 0.5 * trace.est_error_power[0]

    def test_lmmse_only_is_single_stage(self, conv_codec):
        trace = run_iterative_receiver(_cfg(), conv_codec, iterations=5,
                                       trials=1, mode="lmmse_only")
        assert len(trace.feedback_error_rate) == 1

    def test_training_needed_for_cold_start(self, conv_codec):
        with pytest.raises(ConfigurationError):
            run_iterative_receiver(_cfg(n_training=0), conv_codec,
                                   mode="iterative")
        # genie initialization has no such requirement
        run_iterative_receiver(_cfg(n_training=0, coherence_time=8),
                               conv_codec, iterations=1, trials=1,
                               mode="perfect_csi")

    def test_unknown_mode_rejected(self, conv_codec):
        with pytest.raises(ConfigurationError):
            run_iterative_receiver(_cfg(), conv_codec, mode="oracle")

    def test_zero_trials_rejected(self, conv_codec):
        with pytest.raises(ConfigurationError, match="trials"):
            run_iterative_receiver(_cfg(), conv_codec, trials=0)

    def test_overload_raises_rank_error(self, conv_codec):
        # 14 users x 5 paths exceed the 2x32 training observations
        with pytest.raises(RankError):
            run_iterative_receiver(_cfg(n_users=14), conv_codec,
                                   iterations=1, trials=1)

    def test_genie_reduction_to_single_user_coded_channel(self, conv_codec,
                                                          conv_gcurve):
        # one user, perfect gains: the loop is just MRC plus decoding, so
        # the interference record collapses to the noise floor and the bit
        # error rate lands near the scalar-channel curve at 1/SINR = noise
        cfg = _cfg(n_users=1, n_paths=20, coherence_time=20, n_training=4,
                   noise_var=1.05, seed=17)
        trace = run_iterative_receiver(cfg, conv_codec, iterations=1,
                                       trials=4, mode="perfect_csi")
        assert trace.residual_interference_power[1] \
            == pytest.approx(1.05, rel=0.10)
        scalar_ber = float(np.interp(1.05, conv_gcurve.xs,
                                     conv_gcurve.info_ber))
        assert scalar_ber > 1e-3
        ratio = trace.info_bit_error_rate[1] / scalar_ber
        assert 0.4 < ratio < 2.5


class TestTrajectoryTracking:
    def test_prediction_tracks_when_conditions_hold(self, conv_codec,
                                                    conv_gcurve):
        # start from a small initial error rate (the map's validity regime)
        cfg = _cfg(n_users=10, coherence_time=20, n_training=4,
                   noise_var=noise_var_from_snr_db(4.0), seed=77)
        trace = run_iterative_receiver(cfg, conv_codec, iterations=5, trials=4)
        pe = trace.feedback_error_rate
        se = trace.per_trial_feedback.std(axis=0, ddof=1) / np.sqrt(4)

        coeffs = analysis.map_coefficients(cfg.noise_var, cfg.load,
                                           cfg.n_paths, cfg.coherence_time)
        # the map seeded by the realized iteration-0 error rate; a trace
        # that settles early stays at its fixed point
        report = analysis.iterate_map(conv_gcurve, coeffs, start=pe[0], max_iter=5)
        assert not report.left_domain
        pred = np.pad(report.trace, (0, 6 - len(report.trace)), mode="edge")
        start_quality = float(np.interp(pe[0], conv_gcurve.pes, conv_gcurve.xs))
        check = analysis.check_convergence_conditions(conv_gcurve,
                                                      start_quality, coeffs)
        assert check.within_domain and check.decreasing

        for d in range(1, 6):
            tol = max(0.3 * pred[d], 2 * se[d])
            assert abs(pe[d] - pred[d]) <= tol
        # and the trajectory is non-increasing once the loop engages
        assert np.all(np.diff(pe) <= 1e-12)

    def test_overloaded_case_stalls(self, conv_codec, conv_gcurve):
        # at unit load and 0 dB the map itself diverges; the simulated
        # loop must fail to improve rather than sneak through
        cfg = _cfg(n_users=32, coherence_time=20, n_training=4,
                   noise_var=1.0, seed=78)
        coeffs = analysis.map_coefficients(1.0, 1.0, 5, 20)
        probe = 2.0
        decreasing = (conv_gcurve(probe)
                      < (probe - coeffs.d0) / coeffs.d1)
        assert not decreasing
        trace = run_iterative_receiver(cfg, conv_codec, iterations=4, trials=1,
                                       mode="perfect_init")
        pe = trace.feedback_error_rate
        assert pe[-1] > 0.5 * pe[0]
        assert trace.info_bit_error_rate[-1] > 1e-2


@pytest.mark.slow
class TestCapacitySearch:
    def test_iterative_beats_single_stage(self, conv_codec):
        template = _cfg(n_users=1)
        res_iter = capacity_search(template, conv_codec, "iterative",
                                   trials=2, iterations=4)
        res_lmmse = capacity_search(template, conv_codec, "lmmse_only",
                                    trials=2)
        assert res_iter.max_load >= res_lmmse.max_load + 0.05
        assert all(len(p) == 3 for p in res_iter.probes)

    def test_rank_limited_probes_counted_infeasible(self, conv_codec):
        template = _cfg(n_users=1)
        res = capacity_search(template, conv_codec, "iterative",
                              trials=1, iterations=2,
                              load_min=1.8, load_max=2.0, resolution=0.1)
        assert res.max_load == 0.0
        assert all(not ok for _, _, ok in res.probes)
