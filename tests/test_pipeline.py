from functools import partial

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
# iterative mode on sliding-window codes.  Every mode draws what the
# iterative mode draws, so lmmse_only is the iterative trace's stage 0, and
# perfect_init and perfect_csi share theirs.
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
    "perfect_init": dict(
        counts=[[(18, 10), (18, 10)], [(0, 0), (0, 0)]],
        est_error_power=[NAN] + [0.07981508670571838] * 4,
        residual_interference_power=[NAN] + [0.6448001719958822] * 4),
    "perfect_csi": dict(
        counts=[[(18, 10), (0, 0), (0, 0)], [(0, 0), (0, 0)]],
        est_error_power=[NAN] * 5,
        residual_interference_power=[NAN, 0.7028856784380662]
        + [0.7025984667031908] * 3),
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


def _first_stage(golden):
    """The stage-0 rows of a golden table: what a one-stage trace of the same draws reads."""
    return dict(counts=[counts[:1] for counts in golden["counts"]],
                est_error_power=golden["est_error_power"][:1],
                residual_interference_power=golden["residual_interference_power"][:1])


GOLDEN["lmmse_only"] = _first_stage(GOLDEN["iterative"])


def test_genie_golden_tables_share_their_first_stage():
    init, csi = _first_stage(GOLDEN["perfect_init"]), _first_stage(GOLDEN["perfect_csi"])
    assert init["counts"] == csi["counts"]
    np.testing.assert_array_equal(init["est_error_power"], csi["est_error_power"])
    np.testing.assert_array_equal(init["residual_interference_power"],
                                  csi["residual_interference_power"])


@pytest.mark.parametrize("case", [*MODES, "shifted"])
def test_golden_trace(conv_codec, case, use_cpus, serial):
    shifted = case == "shifted"
    cfg = _cfg(n_users=8, noise_var=noise_var_from_snr_db(1.5),
               code_model="shifted" if shifted else "independent")
    codec = _RecordingCodec(conv_codec)
    run = partial(run_iterative_receiver, cfg, iterations=4, trials=2,
                  mode="iterative" if shifted else case, experiment_id="golden")
    # the recording codec sees the decodes of the process it is in, so the
    # counted run is serial; the trials split over two processes match it
    trace = serial(run, codec)
    use_cpus(2)
    split = run(conv_codec)
    for name in ("feedback_error_rate", "info_bit_error_rate", "est_error_power",
                 "residual_interference_power", "per_trial_feedback"):
        np.testing.assert_array_equal(getattr(split, name), getattr(trace, name))
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


@pytest.mark.parametrize("mode, first_stage_of", [("lmmse_only", "iterative"),
                                                   ("perfect_init", "perfect_csi")])
def test_modes_share_their_first_stage(conv_codec, mode, first_stage_of, use_cpus):
    # the draws do not depend on the mode, so two modes whose stage 0 is the
    # same receiver agree there bit for bit, in one process and over two
    cfg = _cfg(n_users=8, noise_var=noise_var_from_snr_db(1.5))
    run = partial(run_iterative_receiver, cfg, conv_codec, iterations=2, trials=2,
                  experiment_id="first-stage")
    for processes in (1, 2):
        use_cpus(processes)
        trace, other = run(mode=mode), run(mode=first_stage_of)
        for name in ("feedback_error_rate", "info_bit_error_rate", "est_error_power",
                     "residual_interference_power", "per_trial_feedback"):
            np.testing.assert_array_equal(getattr(trace, name)[..., 0],
                                          getattr(other, name)[..., 0])


def test_each_block_drawn_once_per_trial(conv_codec, monkeypatch, serial):
    # one stream for the trial's info bits and one per block, however many
    # stages the loop runs; counted in one process, since workers do not see
    # the counting stream
    calls = []

    def counting(*args):
        calls.append(args)
        return derive_stream(*args)

    monkeypatch.setattr(pipeline, "derive_stream", counting)
    cfg = _cfg()
    serial(run_iterative_receiver, cfg, conv_codec, iterations=3, trials=2)
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


class TestPicLlrs:
    """``_pic_llrs`` scales MRC outputs by the scalar output model of the stage."""

    def _inputs(self, blocks=3, gain_scale=1.0):
        cfg = _cfg()
        rng = np.random.default_rng(0)
        shape = (blocks, cfg.coherence_time - cfg.n_training, cfg.n_users)
        combined = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gains = gain_scale * (rng.standard_normal((blocks, cfg.n_users, cfg.n_paths))
                              + 1j * rng.standard_normal((blocks, cfg.n_users, cfg.n_paths)))
        return cfg, combined, gains

    def test_sign_follows_real_part(self):
        cfg, combined, gains = self._inputs()
        for pe in (0.0, 0.1, 0.3):
            for genie in (False, True):
                llrs = pipeline._pic_llrs(combined, gains, pe, cfg, genie_csi=genie)
                np.testing.assert_array_equal(np.sign(llrs), np.sign(combined.real))

    def test_genie_stage_uses_no_estimation_error(self):
        cfg, combined, gains = self._inputs()
        pe = 0.1
        sigma_i = analysis.residual_interference_variance(
            0.0, cfg.load, cfg.n_paths, pe, cfg.noise_var)
        expected = 4.0 * combined.real / ((1.0 - 2.0 * pe) * sigma_i)
        genie = pipeline._pic_llrs(combined, gains, pe, cfg, genie_csi=True)
        np.testing.assert_allclose(genie, expected, rtol=1e-12)
        estimated = pipeline._pic_llrs(combined, gains, pe, cfg)
        assert not np.allclose(estimated, genie)

    def test_gain_floored_at_a_tenth_of_the_power(self):
        # estimated power far below L * delta_a: the floor 0.1 * power sets the gain
        cfg, combined, gains = self._inputs(gain_scale=1e-3)
        pe = 0.2
        delta_a = analysis.feedback_estimate_variance(
            pe, cfg.load, cfg.n_paths, cfg.coherence_time, cfg.noise_var,
            cfg.training_fraction)
        power = np.sum(np.abs(gains) ** 2, axis=-1)
        assert np.all(power - cfg.n_paths * delta_a < 0.1 * power)
        sigma_i = analysis.residual_interference_variance(
            delta_a, cfg.load, cfg.n_paths, pe, cfg.noise_var)
        expected = 0.4 * combined.real / ((1.0 - 2.0 * pe) * sigma_i)
        np.testing.assert_allclose(pipeline._pic_llrs(combined, gains, pe, cfg),
                                   expected, rtol=1e-12)

    @pytest.mark.parametrize("prev_pe, clipped", [(-0.3, 0.0), (0.5, 0.49), (0.7, 0.49)])
    def test_error_rate_clipped(self, prev_pe, clipped):
        cfg, combined, gains = self._inputs()
        for genie in (False, True):
            np.testing.assert_array_equal(
                pipeline._pic_llrs(combined, gains, prev_pe, cfg, genie_csi=genie),
                pipeline._pic_llrs(combined, gains, clipped, cfg, genie_csi=genie))

    def test_batch_equals_per_block_calls(self):
        cfg, combined, gains = self._inputs(blocks=5)
        for genie in (False, True):
            batch = pipeline._pic_llrs(combined, gains, 0.08, cfg, genie_csi=genie)
            per_block = np.stack([pipeline._pic_llrs(combined[b], gains[b], 0.08, cfg,
                                                     genie_csi=genie)
                                  for b in range(len(combined))])
            np.testing.assert_array_equal(batch, per_block)


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

    @pytest.mark.parametrize("mode", ["iterative", "lmmse_only"])
    def test_pilot_overload_raises_before_any_draw(self, conv_codec, monkeypatch, serial,
                                                   mode):
        # 14 x 5 gains from 2 x 32 pilot equations: decided from the config alone
        calls = []

        def counting(*args):
            calls.append(args)
            return derive_stream(*args)

        monkeypatch.setattr(pipeline, "derive_stream", counting)
        with pytest.raises(RankError, match="underdetermined"):
            serial(run_iterative_receiver, _cfg(n_users=14), conv_codec,
                   iterations=1, trials=1, mode=mode)
        assert calls == []

    def test_genie_reduction_to_single_user_coded_channel(self, conv_codec,
                                                          conv_gcurve):
        # one user, perfect gains: the loop is just MRC plus decoding, so
        # the interference record collapses to the noise floor and the bit
        # error rate lands near the scalar-channel curve at 1/SINR = noise;
        # a trial is one codeword, and about two in three decode clean here,
        # so the ratio needs tens of trials
        cfg = _cfg(n_users=1, n_paths=20, coherence_time=20, n_training=4,
                   noise_var=1.05, seed=17)
        trace = run_iterative_receiver(cfg, conv_codec, iterations=1,
                                       trials=32, mode="perfect_csi")
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
        results = capacity_search(_cfg(n_users=1), conv_codec, ("iterative", "lmmse_only"),
                                  trials=2, iterations=4)
        assert results["iterative"].max_load >= results["lmmse_only"].max_load + 0.05
        assert all(len(p) == 3 for p in results["iterative"].probes)

    def test_lmmse_only_read_off_iterative_runs(self, conv_codec, monkeypatch):
        # the lmmse_only search reads stage 0 of the iterative runs it meets,
        # and finds what it finds alone with fewer runs of its own
        runs = []

        def counting(config, codec, **kwargs):
            runs.append(kwargs["mode"])
            return run_iterative_receiver(config, codec, **kwargs)

        monkeypatch.setattr(pipeline, "run_iterative_receiver", counting)
        template = _cfg(n_users=1)
        joint = capacity_search(template, conv_codec, ("lmmse_only", "iterative"),
                                trials=2, iterations=2)["lmmse_only"]
        joint_runs = runs.count("lmmse_only")
        alone = capacity_search(template, conv_codec, ("lmmse_only",),
                                trials=2, iterations=2)["lmmse_only"]
        assert joint.max_load == alone.max_load
        assert joint.probes == alone.probes
        assert joint_runs < runs.count("lmmse_only") - joint_runs

    def test_rank_limited_probes_counted_infeasible(self, conv_codec):
        # at the grid's lowest load (K=2) the pilots give 32 equations for 40 unknowns
        template = _cfg(n_users=1, n_paths=20, coherence_time=5, n_training=1)
        res = capacity_search(template, conv_codec, ("iterative",),
                              trials=1, iterations=2)["iterative"]
        assert res.max_load == 0.0
        assert res.probes == [(analysis.LOAD_GRID[0], None, False)]
