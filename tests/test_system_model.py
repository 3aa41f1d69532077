import numpy as np
import pytest

from itercdma import system_model as sm
from itercdma.config import SystemConfig, derive_stream
from itercdma.exceptions import ConfigurationError, ParameterError


def _cfg(**kw):
    base = dict(n_users=4, spreading_gain=32, n_paths=2, coherence_time=10,
                noise_var=0.0, seed=1)
    base.update(kw)
    return SystemConfig(**base)


class TestChannel:
    def test_single_path_unit_power(self):
        # variance of each gain is 1/L, so |a|^2 averages to 1 at L=1
        cfg = _cfg(n_users=1000, n_paths=1)
        rng = derive_stream(1, "chan", 0)
        samples = np.concatenate([sm.generate_channel(cfg, rng).gains.ravel()
                                  for _ in range(100)])
        power = np.abs(samples) ** 2
        se = power.std() / np.sqrt(len(power))
        assert abs(power.mean() - 1.0) < 3 * se

    def test_many_paths_power_concentrates(self):
        cfg = _cfg(n_users=1, n_paths=50)
        rng = derive_stream(2, "chan", 0)
        totals = np.array([np.sum(np.abs(sm.generate_channel(cfg, rng).gains) ** 2)
                           for _ in range(10_000)])
        assert abs(totals.mean() - 1.0) < 0.01

    def test_real_imag_parts_balanced(self):
        cfg = _cfg(n_users=10, n_paths=4)
        rng = derive_stream(3, "chan", 0)
        gains = np.concatenate([sm.generate_channel(cfg, rng).gains.ravel()
                                for _ in range(500)])
        assert gains.real.var() == pytest.approx(1 / 8, rel=0.05)
        assert gains.imag.var() == pytest.approx(1 / 8, rel=0.05)

    def test_deterministic_given_stream(self):
        cfg = _cfg()
        g1 = sm.generate_channel(cfg, derive_stream(5, "x", 0)).gains
        g2 = sm.generate_channel(cfg, derive_stream(5, "x", 0)).gains
        np.testing.assert_array_equal(g1, g2)

    def test_vector_is_user_major(self):
        cfg = _cfg(n_users=3, n_paths=2)
        ch = sm.generate_channel(cfg, derive_stream(6, "x", 0))
        vec = ch.vector
        assert vec[2] == ch.gains[1, 0] and vec[3] == ch.gains[1, 1]


class TestCodes:
    @pytest.mark.parametrize("model", ["independent", "shifted"])
    def test_exact_unit_norm(self, model):
        cfg = _cfg(code_model=model)
        codes = sm.generate_codes(cfg, derive_stream(7, "codes", 0))
        np.testing.assert_allclose(np.sum(codes ** 2, axis=-1), 1.0,
                                   atol=1e-12)

    def test_shifted_codes_are_windows_of_one_stream(self):
        cfg = _cfg(n_users=3, n_paths=4, code_model="shifted")
        c = sm.generate_codes(cfg, derive_stream(8, "codes", 0))
        m, k, l, n = c.shape
        for t in range(m):
            for u in range(k):
                for p in range(l - 1):
                    # adjacent paths overlap in all but one chip
                    np.testing.assert_array_equal(c[t, u, p, 1:], c[t, u, p + 1, :-1])
        # the next period's first path continues the same chip stream
        np.testing.assert_array_equal(c[0, 0, l - 1, n - l + 1:], c[1, 0, 0, :l - 1])

    @pytest.mark.parametrize("model", ["independent", "shifted"])
    def test_crosscorrelation_moments(self, model):
        # E{rho}=0 and E{rho^2}=1/N for distinct (user, path) pairs
        cfg = _cfg(n_users=20, spreading_gain=100, n_paths=2,
                   coherence_time=130, code_model=model)
        codes = sm.generate_codes(cfg, derive_stream(9, "codes", 0))
        rhos = []
        for t in range(130):
            flat = codes[t].reshape(-1, codes.shape[-1])
            gram = flat @ flat.T
            iu = np.triu_indices(gram.shape[0], k=1)
            rhos.append(gram[iu])
        rhos = np.concatenate(rhos)
        n_samp = len(rhos)
        assert n_samp > 1e5
        se_mean = rhos.std() / np.sqrt(n_samp)
        assert abs(rhos.mean()) < 5 * se_mean
        sq = rhos ** 2
        se_sq = sq.std() / np.sqrt(n_samp)
        assert abs(sq.mean() - 0.01) < max(5 * se_sq, 0.05 * 0.01)

    @pytest.mark.parametrize("model", ["independent", "shifted"])
    def test_distinct_tuple_products_uncorrelated(self, model):
        # E{rho_klmn rho_pqrs} = 0 whenever the index tuples differ
        cfg = _cfg(n_users=20, spreading_gain=64, n_paths=2,
                   coherence_time=260, code_model=model)
        codes = sm.generate_codes(cfg, derive_stream(10, "codes", 0))
        rng = np.random.default_rng(0)
        prods = []
        for t in range(260):
            flat = codes[t].reshape(-1, codes.shape[-1])
            gram = flat @ flat.T
            rhos = gram[np.triu_indices(gram.shape[0], k=1)]
            order = rng.permutation(len(rhos))
            half = len(rhos) // 2
            prods.append(rhos[order[:half]] * rhos[order[half:2 * half]])
        prods = np.concatenate(prods)
        assert prods.size > 1e5
        se = prods.std() / np.sqrt(prods.size)
        assert abs(prods.mean()) < 5 * se


class TestReceived:
    def test_single_user_single_path_noiseless(self):
        cfg = _cfg(n_users=1, n_paths=1, noise_var=0.0)
        rng = derive_stream(11, "rx", 0)
        ch = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        syms = sm.generate_symbols(cfg, rng)
        rx = sm.synthesize_received(ch, codes, syms, cfg, rng)
        for t in range(cfg.coherence_time):
            expected = syms.symbols[0, t] * ch.gains[0, 0] * codes[t, 0, 0]
            np.testing.assert_allclose(rx.chips[t], expected, atol=1e-14)

    def test_multiuser_multipath_matches_per_period_sum(self):
        cfg = _cfg(n_users=5, n_paths=3, coherence_time=7, noise_var=0.0)
        rng = derive_stream(14, "rx", 0)
        ch = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        syms = sm.generate_symbols(cfg, rng)
        rx = sm.synthesize_received(ch, codes, syms, cfg, rng)
        for t in range(cfg.coherence_time):
            expected = sum(syms.symbols[k, t] * ch.gains[k, l] * codes[t, k, l]
                           for k in range(cfg.n_users) for l in range(cfg.n_paths))
            np.testing.assert_allclose(rx.chips[t], expected, rtol=0, atol=1e-12)

    def test_noise_power_per_chip(self):
        cfg = _cfg(noise_var=0.5, coherence_time=100, spreading_gain=100)
        rng = derive_stream(12, "rx", 0)
        ch = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        syms = sm.generate_symbols(cfg, rng)
        rx = sm.synthesize_received(ch, codes, syms, cfg, rng)
        power = np.abs(rx.noise) ** 2
        assert power.mean() == pytest.approx(0.5, rel=0.05)

    def test_noise_circularly_symmetric(self):
        cfg = _cfg(noise_var=1.0, coherence_time=100, spreading_gain=100)
        rng = derive_stream(13, "rx", 0)
        ch = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        syms = sm.generate_symbols(cfg, rng)
        rx = sm.synthesize_received(ch, codes, syms, cfg, rng)
        re = rx.noise.real.ravel()
        im = rx.noise.imag.ravel()
        corr = np.mean(re * im)
        se = np.std(re * im) / np.sqrt(re.size)
        assert abs(corr) < 5 * se

    def test_superposition_matches_direct_sum(self):
        # full recomputation from stored ingredients
        cfg = _cfg(n_users=5, n_paths=3, noise_var=0.2)
        rng = derive_stream(14, "rx", 0)
        ch = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        syms = sm.generate_symbols(cfg, rng)
        rx = sm.synthesize_received(ch, codes, syms, cfg, rng)
        t = 4
        direct = rx.noise[t].copy()
        for k in range(cfg.n_users):
            for l in range(cfg.n_paths):
                direct = direct + syms.symbols[k, t] * ch.gains[k, l] * codes[t, k, l]
        np.testing.assert_allclose(rx.chips[t], direct, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = _cfg()
        rng = derive_stream(15, "rx", 0)
        ch = sm.generate_channel(cfg, rng)
        codes = sm.generate_codes(cfg, rng)
        syms = sm.generate_symbols(cfg, rng)
        other = _cfg(n_users=5)
        with pytest.raises(ConfigurationError):
            sm.synthesize_received(ch, codes, syms, other, rng)

    def test_bit_reproducible_from_seed(self):
        cfg = _cfg(noise_var=0.3)
        draws = []
        for _ in range(2):
            rng = derive_stream(16, "rx", 7)
            ch = sm.generate_channel(cfg, rng)
            codes = sm.generate_codes(cfg, rng)
            syms = sm.generate_symbols(cfg, rng)
            rx = sm.synthesize_received(ch, codes, syms, cfg, rng)
            draws.append((rx.chips, syms.symbols))
        (chips1, syms1), (chips2, syms2) = draws
        np.testing.assert_array_equal(chips1, chips2)
        np.testing.assert_array_equal(syms1, syms2)


class TestFeedback:
    def test_zero_rate_is_identity(self):
        cfg = _cfg()
        syms = sm.generate_symbols(cfg, derive_stream(17, "fb", 0))
        fb = sm.corrupt_feedback(syms, 0.0, derive_stream(17, "fb", 1))
        np.testing.assert_array_equal(fb.decisions, syms.symbols)
        assert fb.realized_error_rate == 0.0

    def test_error_moments(self):
        # realized rate ~ Pe, E{b*db} ~ 2Pe, E{db^2} ~ 4Pe
        cfg = _cfg(n_users=100, coherence_time=1000)
        syms = sm.generate_symbols(cfg, derive_stream(18, "fb", 0))
        fb = sm.corrupt_feedback(syms, 0.1, derive_stream(18, "fb", 1))
        db = (syms.symbols - fb.decisions).astype(float)
        n = db.size
        assert abs(fb.realized_error_rate - 0.1) < 3 * np.sqrt(0.1 * 0.9 / n)
        bdb = syms.symbols * db
        assert bdb.mean() == pytest.approx(0.2, abs=3 * bdb.std() / np.sqrt(n))
        assert np.isin(db, [-2.0, 0.0, 2.0]).all()

    def test_half_rate_second_moment(self):
        cfg = _cfg(n_users=100, coherence_time=1000)
        syms = sm.generate_symbols(cfg, derive_stream(19, "fb", 0))
        fb = sm.corrupt_feedback(syms, 0.5, derive_stream(19, "fb", 1))
        db = (syms.symbols - fb.decisions).astype(float)
        assert (db ** 2).mean() == pytest.approx(2.0, rel=0.02)

    def test_training_periods_protected(self):
        cfg = _cfg(n_training=4, coherence_time=10, n_users=200)
        syms = sm.generate_symbols(cfg, derive_stream(20, "fb", 0))
        fb = sm.corrupt_feedback(syms, 0.5, derive_stream(20, "fb", 1))
        np.testing.assert_array_equal(fb.decisions[:, :4], syms.symbols[:, :4])
        assert (fb.decisions[:, 4:] != syms.symbols[:, 4:]).any()

    def test_rate_out_of_range_rejected(self):
        cfg = _cfg()
        syms = sm.generate_symbols(cfg, derive_stream(21, "fb", 0))
        with pytest.raises(ParameterError):
            sm.corrupt_feedback(syms, 0.6, derive_stream(21, "fb", 1))
