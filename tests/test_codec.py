import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itercdma
from itercdma import _workers
from itercdma.codec import CodecSpec, make_codec, make_permutation
from itercdma.codec.convolutional import _NEG, ConvolutionalCode
from itercdma.codec.turbo import RscCode, TurboCode
from itercdma.exceptions import ParameterError


# Reference decoders: the plain per-step recursions the batched decoders
# must reproduce bit for bit.

def _reference_bcjr(rsc, sys_llr, par_llr, apriori):
    batch, k = sys_llr.shape
    ps, pb, nxt = rsc.pred_state, rsc.pred_bit, rsc.next_state
    input_signs = np.array([1.0, -1.0])
    parity_signs = (1.0 - 2.0 * rsc.parity_bits).astype(np.float64)
    in_part = 0.5 * (sys_llr + apriori)
    gamma = (in_part[:, :, None, None] * input_signs[None, None, None, :]
             + 0.5 * par_llr[:, :, None, None] * parity_signs[None, None, :, :])

    alpha = np.empty((k + 1, batch, rsc.n_states))
    alpha[0] = _NEG
    alpha[0, :, 0] = 0.0
    for t in range(k):
        cand = alpha[t][:, ps] + gamma[:, t][:, ps, pb]
        nxt_alpha = np.logaddexp(cand[:, :, 0], cand[:, :, 1])
        nxt_alpha -= nxt_alpha.max(axis=1, keepdims=True)
        alpha[t + 1] = nxt_alpha

    def logsumexp(values):
        peak = values.max(axis=1)
        return peak + np.log(np.sum(np.exp(values - peak[:, None]), axis=1))

    beta = np.zeros((batch, rsc.n_states))
    posterior = np.empty((batch, k))
    for t in range(k - 1, -1, -1):
        joint = alpha[t][:, :, None] + gamma[:, t] + beta[:, nxt]
        posterior[:, t] = logsumexp(joint[:, :, 0]) - logsumexp(joint[:, :, 1])
        cand = gamma[:, t] + beta[:, nxt]
        beta = np.logaddexp(cand[:, :, 0], cand[:, :, 1])
        beta -= beta.max(axis=1, keepdims=True)
    return posterior


def _reference_turbo_decode(turbo, soft, n_iterations):
    sys_llr = soft[:, 0::2]
    par = soft[:, 1::2]
    lp1 = np.zeros_like(par)
    lp1[:, 0::2] = par[:, 0::2]
    lp2 = np.zeros_like(par)
    lp2[:, 1::2] = par[:, 1::2]
    perm, inv = turbo.permutation, turbo.inverse
    sys_perm = sys_llr[:, perm]
    ext2 = np.zeros_like(sys_llr)
    for _ in range(n_iterations):
        post1 = _reference_bcjr(turbo.rsc, sys_llr, lp1, ext2)
        ext1 = post1 - sys_llr - ext2
        post2 = _reference_bcjr(turbo.rsc, sys_perm, lp2, ext1[:, perm])
        ext2 = (post2 - sys_perm - ext1[:, perm])[:, inv]
    return (post2[:, inv] < 0).astype(np.int8)


def _reference_encode_parity(rsc, info_bits):
    batch, k = info_bits.shape
    out = np.empty((batch, k), dtype=np.int8)
    state = np.zeros(batch, dtype=np.int64)
    for t in range(k):
        bit = info_bits[:, t]
        out[:, t] = rsc.parity_bits[state, bit]
        state = rsc.next_state[state, bit]
    return out


def _reference_viterbi(code, soft):
    batch, total = soft.shape
    steps = total // 2
    sgn = code.out_signs.reshape(code.n_states * 2, 2)
    metrics = np.full((batch, code.n_states), _NEG)
    metrics[:, 0] = 0.0
    survivors = np.empty((steps, batch, code.n_states), dtype=np.int8)
    ps, pb = code.pred_state, code.pred_bit
    for t in range(steps):
        branch = (soft[:, 2 * t:2 * t + 2] @ sgn.T).reshape(batch, code.n_states, 2)
        arrive = metrics[:, ps] + branch[:, ps, pb]
        choice = np.argmax(arrive, axis=2)
        survivors[t] = choice
        metrics = np.take_along_axis(arrive, choice[:, :, None], axis=2)[:, :, 0]
    bits = np.empty((batch, steps), dtype=np.int8)
    state = np.zeros(batch, dtype=np.int64)
    rows = np.arange(batch)
    for t in range(steps - 1, -1, -1):
        pick = survivors[t][rows, state]
        bits[:, t] = pb[state, pick]
        state = ps[state, pick]
    return bits[:, :steps - code.memory]


# Reference trellis tables: the per-state register loops and the generic
# predecessor search that the array-built tables must reproduce exactly.

def _bit_parity(x):
    return bin(x).count("1") & 1


def _reference_predecessors(next_state):
    n_states = next_state.shape[0]
    pred_state = np.empty((n_states, 2), dtype=np.int64)
    pred_bit = np.empty((n_states, 2), dtype=np.int64)
    fill = np.zeros(n_states, dtype=np.int64)
    for state in range(n_states):
        for bit in (0, 1):
            nxt = next_state[state, bit]
            pred_state[nxt, fill[nxt]] = state
            pred_bit[nxt, fill[nxt]] = bit
            fill[nxt] += 1
    return dict(pred_state=pred_state, pred_bit=pred_bit)


def _reference_conv_tables(generators):
    memory = max(g.bit_length() for g in generators) - 1
    closing = 1 if memory == 0 else 0
    m = memory + closing
    next_state = np.empty((1 << m, 2), dtype=np.int64)
    out_bits = np.empty((1 << m, 2, 2), dtype=np.int8)
    for state in range(1 << m):
        for bit in (0, 1):
            reg = (bit << m) | state
            for j, gen in enumerate(generators):
                out_bits[state, bit, j] = _bit_parity((gen << closing) & reg)
            next_state[state, bit] = reg >> 1
    return dict(next_state=next_state, out_signs=1.0 - 2.0 * out_bits,
                **_reference_predecessors(next_state))


def _reference_rsc_tables(feedback, feedforward):
    m = feedback.bit_length() - 1
    fb_taps = feedback & ((1 << m) - 1)
    next_state = np.empty((1 << m, 2), dtype=np.int64)
    parity_bits = np.empty((1 << m, 2), dtype=np.int8)
    for state in range(1 << m):
        for bit in (0, 1):
            reg = ((bit ^ _bit_parity(fb_taps & state)) << m) | state
            parity_bits[state, bit] = _bit_parity(feedforward & reg)
            next_state[state, bit] = reg >> 1
    return dict(next_state=next_state, parity_bits=parity_bits,
                **_reference_predecessors(next_state))


def _noisy_llrs(rng, coded, snr_db):
    """Channel LLRs of BPSK-mapped coded bits at Es/N0 = snr_db."""
    noise_var = 10 ** (-snr_db / 10)
    symbols = 1.0 - 2.0 * coded
    noisy = symbols + np.sqrt(noise_var / 2) * rng.standard_normal(symbols.shape)
    return 4.0 * noisy / noise_var


@pytest.mark.parametrize("family, generators", [
    ("conv", (0o35, 0o23)), ("conv", (1, 1)), ("conv", (0o7, 0o5)), ("conv", (2, 3)),
    ("rsc", (0o37, 0o21)), ("rsc", (1, 1)), ("rsc", (0o13, 0o15))])
def test_trellis_tables_match_register_loops(family, generators):
    if family == "conv":
        built, reference = ConvolutionalCode(generators), _reference_conv_tables(generators)
    else:
        built, reference = RscCode(*generators), _reference_rsc_tables(*generators)
    for name, table in reference.items():
        assert getattr(built, name).dtype == table.dtype, name
        np.testing.assert_array_equal(getattr(built, name), table, err_msg=name)


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

    def test_memoryless_code_decodes_as_repetition(self):
        # (1, 1) repeats each bit: the ML decision is the sign of the pair sum,
        # and a tie keeps bit 0
        code = ConvolutionalCode((1, 1))
        rng = np.random.default_rng(5)
        info = rng.integers(0, 2, size=(4, 30), dtype=np.int8)
        coded = code.encode(info)
        assert coded.shape == (4, 60)
        np.testing.assert_array_equal(code.decode(1.0 - 2.0 * coded), info)
        soft = np.round(rng.standard_normal((4, 60)))
        expected = (soft.reshape(4, 30, 2).sum(axis=2) < 0).astype(np.int8)
        np.testing.assert_array_equal(code.decode(soft), expected)
        with pytest.raises(ParameterError, match="nonzero"):
            ConvolutionalCode((0, 0))

    def test_zero_feedback_rejected(self):
        with pytest.raises(ParameterError, match="nonzero"):
            RscCode(0, 0o21)

    def test_noiseless_viterbi_roundtrip(self):
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, size=(10, 100), dtype=np.int8)
        code = ConvolutionalCode()
        soft = 1.0 - 2.0 * code.encode(info)
        np.testing.assert_array_equal(code.decode(soft), info)

    def test_viterbi_beats_uncoded_and_is_monotone_in_snr(self):
        rng = np.random.default_rng(2)
        code = ConvolutionalCode()
        info = rng.integers(0, 2, size=(60, 400), dtype=np.int8)
        symbols = 1.0 - 2.0 * code.encode(info)
        bers = []
        for snr_db in (-3.0, -1.0, 1.0):
            sigma = np.sqrt(1.0 / (2 * 10 ** (snr_db / 10)))
            noisy = symbols + sigma * rng.standard_normal(symbols.shape)
            decoded = code.decode(noisy)
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
        base = code.decode(noisy)
        shifted = code.decode(noisy * (1.0 - 2.0 * code.encode(shift_info)))
        np.testing.assert_array_equal(shifted, base ^ shift_info)

    @pytest.mark.parametrize("batch", [1, 14, 25, 100])
    @pytest.mark.parametrize("snr_db", [-3.0, 0.0, 3.0])
    def test_viterbi_matches_reference(self, batch, snr_db):
        # rounded and hard-limited inputs make many equal path metrics, so
        # the tie rule (keep the first arriving branch) is exercised too;
        # codes of 4, 16 and 64 states check the butterfly layout
        rng = np.random.default_rng(10 + batch)
        for generators in ((0o35, 0o23), (0o7, 0o5), (0o171, 0o133)):
            code = ConvolutionalCode(generators)
            info = rng.integers(0, 2, size=(batch, 120), dtype=np.int8)
            llr = _noisy_llrs(rng, code.encode(info), snr_db)
            for soft in (llr, np.round(llr), np.sign(llr)):
                np.testing.assert_array_equal(code.decode(soft),
                                              _reference_viterbi(code, soft))


class TestTurboCore:
    def test_rsc_parity_is_recursive(self):
        rsc = RscCode()
        # an impulse excites an infinite response: parity must not die out
        parity = rsc.encode_parity(np.eye(1, 40, dtype=np.int8))
        assert parity[0, 20:].any()

    @pytest.mark.parametrize("generators", [(0o37, 0o21), (1, 1), (0o13, 0o15), (0o7, 0o5)])
    def test_encode_parity_matches_bit_loop(self, generators):
        # 1, 7, 9, 37 and 100 bits leave a part byte at the end
        rng = np.random.default_rng(generators[0])
        rsc = RscCode(*generators)
        for k in (1, 7, 8, 9, 37, 64, 100, 512):
            for batch in (1, 3, 14):
                info = rng.integers(0, 2, size=(batch, k), dtype=np.int8)
                parity = rsc.encode_parity(info)
                assert parity.dtype == np.int8
                np.testing.assert_array_equal(parity, _reference_encode_parity(rsc, info))

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
        # one interleaver seed, so both codes share the permutation
        one_pass, eight = (TurboCode(info_length=256, interleaver_seed=7, n_iterations=k)
                           for k in (1, 8))
        info = rng.integers(0, 2, size=(30, 256), dtype=np.int8)
        symbols = 1.0 - 2.0 * eight.encode(info)
        noise_var = 10 ** 0.1          # -1 dB
        noisy = symbols + np.sqrt(noise_var / 2) * rng.standard_normal(symbols.shape)
        llr = 4.0 * noisy / noise_var
        one = np.mean(one_pass.decode(llr) != info)
        many = np.mean(eight.decode(llr) != info)
        assert many < one

    @pytest.mark.parametrize("info_length", [2, 37, 64, 100, 512])
    @pytest.mark.parametrize("batch", [1, 14])
    @pytest.mark.parametrize("snr_db", [-2.0, 1.0, 4.0])
    def test_log_map_matches_reference(self, info_length, batch, snr_db):
        # 37 and 100 are not multiples of the decoder's block of time steps
        rng = np.random.default_rng(info_length + batch)
        turbo = TurboCode(info_length=info_length, interleaver_seed=8, n_iterations=3)
        info = rng.integers(0, 2, size=(batch, info_length), dtype=np.int8)
        soft = _noisy_llrs(rng, turbo.encode(info), snr_db)
        apriori = 2.0 * rng.standard_normal((batch, info_length))
        args = (soft[:, 0::2], soft[:, 1::2], apriori)
        np.testing.assert_array_equal(turbo.rsc.bcjr(*args),
                                      _reference_bcjr(turbo.rsc, *args))
        np.testing.assert_array_equal(turbo.decode(soft),
                                      _reference_turbo_decode(turbo, soft, 3))

    @pytest.mark.parametrize("n_iterations", [0, -1])
    def test_fewer_than_one_iteration_rejected(self, n_iterations):
        # zero iterations used to de-interleave the never-interleaved
        # systematic LLRs and return about half the bits wrong
        with pytest.raises(ParameterError):
            TurboCode(info_length=64, n_iterations=n_iterations)
        with pytest.raises(ParameterError):
            CodecSpec.turbo(turbo_iterations=n_iterations)


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _decode_in_child(turbo, soft, results):
    results.put((turbo.decode(soft), _workers.process_count()))


def _use_cpus(monkeypatch, count):
    """Make the decode split over ``count`` processes, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _serial(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        _use_cpus(m, 1)
        return fn(*args)


class TestDecodeProcesses:
    """The turbo decode splits its rows over processes and keeps every bit."""

    @pytest.mark.parametrize("processes", [2, 3])
    @pytest.mark.parametrize("snr_db", [-1.0, 1.0, 3.0])
    def test_split_matches_serial(self, monkeypatch, processes, snr_db):
        rng = np.random.default_rng(int(10 * snr_db) + 10 + processes)
        turbo = TurboCode(info_length=100, interleaver_seed=8, n_iterations=3)
        codec = make_codec(CodecSpec.turbo(turbo_iterations=2))
        _use_cpus(monkeypatch, processes)
        assert _workers.process_count() == processes
        for batch in (1, 2, 3, 14, 25):
            info = rng.integers(0, 2, size=(batch, turbo.info_length), dtype=np.int8)
            soft = _noisy_llrs(rng, turbo.encode(info), snr_db)
            np.testing.assert_array_equal(turbo.decode(soft),
                                          _serial(monkeypatch, turbo.decode, soft))
            info = rng.integers(0, 2, size=(batch, codec.info_length), dtype=np.int8)
            llr = _noisy_llrs(rng, (1 - codec.encode(info)) // 2, snr_db)
            decisions, feedback = codec.decode(llr)
            serial_decisions, serial_feedback = _serial(monkeypatch, codec.decode, llr)
            np.testing.assert_array_equal(decisions, serial_decisions)
            np.testing.assert_array_equal(feedback, serial_feedback)

    def test_second_decode_reuses_the_worker(self, monkeypatch):
        import multiprocessing
        _use_cpus(monkeypatch, 2)
        turbo = TurboCode(info_length=64, n_iterations=1)
        soft = np.random.default_rng(11).standard_normal((4, 128))
        turbo.decode(soft)
        pool = _workers._pool
        workers = {p.pid for p in multiprocessing.active_children()}
        assert workers
        turbo.decode(soft)
        assert _workers._pool is pool
        assert {p.pid for p in multiprocessing.active_children()} == workers

    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # a child forked after a decode inherits the pool object, whose
        # workers answer only the parent
        _use_cpus(monkeypatch, 2)
        turbo = TurboCode(info_length=64, n_iterations=1)
        soft = np.random.default_rng(12).standard_normal((4, 128))
        expected = turbo.decode(soft)
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)        # a child left waiting is killed, not hung
            os._exit(0 if np.array_equal(turbo.decode(soft), expected) else 1)
        assert os.waitpid(pid, 0)[1] == 0

    @pytest.mark.parametrize("daemonic", [True, False])
    def test_multiprocessing_child_decodes_alone(self, monkeypatch, daemonic):
        # a daemonic child may not start workers, and any other would wait at
        # exit for workers that stop only after it
        import multiprocessing
        _use_cpus(monkeypatch, 2)
        turbo = TurboCode(info_length=64, n_iterations=1)
        soft = np.random.default_rng(13).standard_normal((4, 128))
        fork = multiprocessing.get_context("fork")
        results = fork.SimpleQueue()
        child = fork.Process(target=_decode_in_child, args=(turbo, soft, results),
                             daemon=daemonic)
        child.start()
        child.join(60)          # the result is far smaller than a pipe buffer
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0
        decided, count = results.get()
        assert count == 1
        np.testing.assert_array_equal(decided, turbo.decode(soft))

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    @pytest.mark.parametrize("ending, status", [("", 0), ("os.kill(os.getpid(), 9)\n", -9)],
                             ids=["exit", "sigkill"])
    def test_no_worker_outlives_its_parent(self, ending, status):
        # the pool starts only with a turbo decode; a normal exit stops and
        # reaps its worker, and the worker of a killed parent exits by itself
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "import itercdma.cli\n"
            "from itercdma.codec import CodecSpec, make_codec\n"
            "make_codec(CodecSpec()).decode(np.ones((3, 1024)))\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "make_codec(CodecSpec.turbo(turbo_iterations=1)).decode(np.ones((3, 1024)))\n"
            "import multiprocessing\n"
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            + ending)
        src = str(Path(itercdma.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # the worker shares the captured stdout, so this also waits for it to end
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == status, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert pids
        for pid in pids:
            assert not _running(pid)


class TestInterleaver:
    def test_roundtrip_and_bijection(self, conv_codec):
        perm, inv = conv_codec.permutation, conv_codec.inverse
        x = np.arange(conv_codec.codeword_length)
        np.testing.assert_array_equal(x[perm][inv], x)
        np.testing.assert_array_equal(np.sort(x[perm]), x)

    def test_distinct_seeds_nearly_disjoint(self):
        n = 4096
        p1 = make_permutation(n, seed=1)
        p2 = make_permutation(n, seed=2)
        matches = np.sum(p1 == p2)
        # expected number of coincidences is 1 with Poisson tails
        assert matches < 10


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
