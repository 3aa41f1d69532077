import numpy as np
import pytest

from itercdma.codec import CodecSpec
from itercdma.codec.convolutional import ConvolutionalCode
from itercdma.codec.interleaver import (deinterleave, interleave,
                                        make_permutation)
from itercdma.codec.turbo import RscCode, TurboCode
from itercdma.exceptions import ParameterError


class TestConvolutionalCore:
    def test_zero_input_gives_zero_codeword(self):
        code = ConvolutionalCode()
        out = code.encode(np.zeros((1, 20), dtype=np.int8))
        assert not out.any()

    def test_impulse_response_equals_generator_taps(self):
        # single one: output streams replay the generator polynomials,
        # most significant bit first (hand-traced trellis)
        code = ConvolutionalCode((0o35, 0o23))
        out = code.encode(np.array([[1, 0, 0, 0, 0, 0]]))[0].reshape(-1, 2)
        np.testing.assert_array_equal(out[:5, 0], [1, 1, 1, 0, 1])   # 0o35
        np.testing.assert_array_equal(out[:5, 1], [1, 0, 0, 1, 1])   # 0o23
        # beyond the memory the encoder sits in the zero state again
        assert not out[5:].any()

    def test_encode_matches_polynomial_convolution(self):
        rng = np.random.default_rng(0)
        info = rng.integers(0, 2, size=(3, 40), dtype=np.int8)
        code = ConvolutionalCode()
        out = code.encode(info).reshape(3, -1, 2)
        padded = np.concatenate([info, np.zeros((3, 4), np.int8)], axis=1)
        for j, taps in enumerate(([1, 1, 1, 0, 1], [1, 0, 0, 1, 1])):
            for row in range(3):
                ref = np.convolve(padded[row], taps) % 2
                np.testing.assert_array_equal(out[row, :, j], ref[:44])

    def test_noiseless_viterbi_roundtrip(self):
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, size=(10, 100), dtype=np.int8)
        code = ConvolutionalCode()
        soft = 1.0 - 2.0 * code.encode(info)
        np.testing.assert_array_equal(code.viterbi_decode(soft), info)

    def test_viterbi_beats_uncoded_and_is_monotone_in_snr(self):
        rng = np.random.default_rng(2)
        code = ConvolutionalCode()
        info = rng.integers(0, 2, size=(60, 400), dtype=np.int8)
        symbols = 1.0 - 2.0 * code.encode(info)
        bers = []
        for snr_db in (-3.0, -1.0, 1.0):
            sigma = np.sqrt(1.0 / (2 * 10 ** (snr_db / 10)))
            noisy = symbols + sigma * rng.standard_normal(symbols.shape)
            decoded = code.viterbi_decode(noisy)
            bers.append(np.mean(decoded != info))
        assert bers[0] > bers[1] > bers[2]
        assert bers[2] < 1e-2

    def test_codeword_translation_equivariance(self):
        # multiplying the soft inputs by any codeword's signs shifts the
        # decision by that codeword: exact for a linear code under
        # maximum-likelihood decoding (the all-ones vector is not a
        # codeword here, so plain sign flipping has no such guarantee)
        rng = np.random.default_rng(3)
        code = ConvolutionalCode()
        info = rng.integers(0, 2, size=(5, 80), dtype=np.int8)
        shift_info = rng.integers(0, 2, size=(5, 80), dtype=np.int8)
        symbols = 1.0 - 2.0 * code.encode(info)
        noisy = symbols + 0.6 * rng.standard_normal(symbols.shape)
        base = code.viterbi_decode(noisy)
        shifted = code.viterbi_decode(noisy * (1.0 - 2.0 * code.encode(shift_info)))
        np.testing.assert_array_equal(shifted, base ^ shift_info)


class TestTurboCore:
    def test_rsc_parity_is_recursive(self):
        rsc = RscCode()
        # an impulse excites an infinite response: parity must not die out
        parity = rsc.encode_parity(np.eye(1, 40, dtype=np.int8))
        assert parity[0, 20:].any()

    def test_noiseless_turbo_roundtrip(self):
        rng = np.random.default_rng(4)
        turbo = TurboCode(info_length=128, interleaver_seed=5)
        info = rng.integers(0, 2, size=(4, 128), dtype=np.int8)
        coded = turbo.encode(info)
        assert coded.shape == (4, 256)
        # systematic bits ride in the even positions
        np.testing.assert_array_equal(coded[:, 0::2], info)
        llr = (1.0 - 2.0 * coded) * 8.0
        np.testing.assert_array_equal(turbo.decode(llr), info)

    def test_turbo_corrects_noise_viterbi_grade(self):
        rng = np.random.default_rng(5)
        turbo = TurboCode(info_length=256, interleaver_seed=6)
        info = rng.integers(0, 2, size=(20, 256), dtype=np.int8)
        symbols = 1.0 - 2.0 * turbo.encode(info)
        noise_var = 1.0 / 10 ** 0.25   # 2.5 dB
        noisy = symbols + np.sqrt(noise_var / 2) * rng.standard_normal(symbols.shape)
        decoded = turbo.decode(4.0 * noisy / noise_var)
        assert np.mean(decoded != info) < 1e-3

    def test_iterations_improve_decisions(self):
        rng = np.random.default_rng(6)
        turbo = TurboCode(info_length=256, interleaver_seed=7)
        info = rng.integers(0, 2, size=(30, 256), dtype=np.int8)
        symbols = 1.0 - 2.0 * turbo.encode(info)
        noise_var = 10 ** 0.1          # -1 dB
        noisy = symbols + np.sqrt(noise_var / 2) * rng.standard_normal(symbols.shape)
        llr = 4.0 * noisy / noise_var
        one = np.mean(turbo.decode(llr, n_iterations=1) != info)
        many = np.mean(turbo.decode(llr, n_iterations=8) != info)
        assert many < one


class TestInterleaver:
    def test_roundtrip_and_bijection(self):
        perm = make_permutation(97, seed=3)
        x = np.arange(97)
        np.testing.assert_array_equal(deinterleave(interleave(x, perm), perm), x)
        np.testing.assert_array_equal(np.sort(interleave(x, perm)), x)

    def test_distinct_seeds_nearly_disjoint(self):
        n = 4096
        p1 = make_permutation(n, seed=1)
        p2 = make_permutation(n, seed=2)
        matches = np.sum(p1 == p2)
        # expected number of coincidences is 1 with Poisson tails
        assert matches < 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            interleave(np.arange(5), make_permutation(6, 0))


class TestChannelCodec:
    def test_conv_lengths(self, conv_codec):
        assert conv_codec.codeword_length == 1024
        assert conv_codec.info_length == 508    # 512 trellis steps minus tail

    def test_turbo_lengths(self, turbo_codec):
        assert turbo_codec.codeword_length == 1024
        assert turbo_codec.info_length == 512

    @pytest.mark.parametrize("codec_name", ["conv_codec", "turbo_codec"])
    def test_noiseless_chain_roundtrip(self, codec_name, request):
        codec = request.getfixturevalue(codec_name)
        rng = np.random.default_rng(7)
        info = rng.integers(0, 2, size=(3, codec.info_length), dtype=np.int8)
        symbols = codec.encode(info)
        assert set(np.unique(symbols)) <= {-1, 1}
        info_hat, fed_back = codec.decode(symbols * 6.0)
        np.testing.assert_array_equal(info_hat, info)
        np.testing.assert_array_equal(fed_back, symbols)

    def test_feedback_reconstruction_consistency(self, conv_codec):
        # whenever the info decisions are right, the re-encoded feedback
        # equals the transmitted symbols even if the raw channel was noisy
        rng = np.random.default_rng(8)
        info = rng.integers(0, 2, size=(6, conv_codec.info_length), dtype=np.int8)
        symbols = conv_codec.encode(info).astype(float)
        noise_var = 0.5
        noisy = symbols + np.sqrt(noise_var / 2) * rng.standard_normal(symbols.shape)
        info_hat, fed_back = conv_codec.decode(4.0 * noisy / noise_var)
        clean = np.all(info_hat == info, axis=1)
        assert clean.any()
        np.testing.assert_array_equal(fed_back[clean],
                                      conv_codec.encode(info[clean]))

    def test_interleaver_spreads_symbols(self, conv_codec):
        rng = np.random.default_rng(9)
        info = rng.integers(0, 2, size=(1, conv_codec.info_length), dtype=np.int8)
        symbols = conv_codec.encode(info)[0]
        # consecutive encoder outputs land far apart on average
        positions = np.empty(1024, dtype=int)
        positions[conv_codec.permutation] = np.arange(1024)
        spacing = np.abs(np.diff(positions))
        assert spacing.mean() > 100
        assert symbols.shape == (1024,)

    def test_bad_lengths_rejected(self, conv_codec):
        with pytest.raises(ParameterError):
            conv_codec.encode(np.zeros((1, 100), dtype=np.int8))
        with pytest.raises(ParameterError):
            conv_codec.decode(np.zeros((1, 100)))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            CodecSpec(family="ldpc")
        assert CodecSpec().digest() != CodecSpec.turbo().digest()
