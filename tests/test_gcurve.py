import numpy as np
import pytest

from itercdma.codec import CodedBpskSource, estimate_gcurve
from itercdma.codec.gcurve import GCurve, make_gcurve
from itercdma.config import derive_stream
from itercdma.exceptions import ConfigurationError, DataQualityWarning, ParameterError


class GenieSource:
    """Deterministic decoder stand-in with a known closed-form curve."""

    def __init__(self, fn, symbols_per_point=10_000):
        self.fn = fn
        self.n = symbols_per_point

    def measure(self, x, n_codewords, rng):
        pe = self.fn(x)
        errors = int(round(pe * self.n))
        return errors, self.n, errors, self.n


def _measure_complex(codec, x, n_codewords, rng):
    """Reference sampler: forms the complex received sample, decodes its real part."""
    info = rng.integers(0, 2, size=(n_codewords, codec.info_length), dtype=np.int8)
    coded = codec.encode(info)
    noisy = coded.astype(np.float64) + np.sqrt(x / 2.0) * (
        rng.standard_normal(coded.shape) + 1j * rng.standard_normal(coded.shape))
    info_hat, fed_back = codec.decode(4.0 * noisy.real / max(x, 1e-300))
    return (int(np.sum(fed_back != coded)), coded.size,
            int(np.sum(info_hat != info)), info.size)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_measure_matches_complex_reference_and_stream(conv_codec, seed):
    source = CodedBpskSource(conv_codec)
    for x in (0.3, 1.0, 2.5, 6.0):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert source.measure(x, 7, rng) == _measure_complex(conv_codec, x, 7, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestIsotonic:
    # curves that start flat at a tabulated origin, so make_gcurve adds no point
    XS = [0.0, 1.0, 2.0, 3.0]

    def test_already_monotone_unchanged(self):
        values = np.array([0.0, 0.0, 0.2, 0.5])
        np.testing.assert_array_equal(make_gcurve(self.XS, values).pes, values)

    def test_pools_violators_to_least_squares(self):
        curve = make_gcurve(self.XS, [0.0, 0.0, 0.3, 0.2])
        np.testing.assert_allclose(curve.pes, [0.0, 0.0, 0.25, 0.25])

    def test_weights_shift_pooled_level(self):
        curve = make_gcurve(self.XS, [0.0, 0.0, 0.30, 0.26], weights=[1.0, 1.0, 3.0, 1.0])
        np.testing.assert_allclose(curve.pes, [0.0, 0.0, 0.29, 0.29])

    @pytest.mark.filterwarnings("ignore::itercdma.exceptions.DataQualityWarning")
    def test_matches_max_min_formula(self):
        # the fit at i is the max over j <= i of the min over k >= i of the
        # weighted mean of points j..k
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw = np.concatenate([[0.0, 0.0], rng.random(8)])
            w = rng.integers(1, 100, size=10).astype(float)

            def mean(j, k):
                return np.dot(raw[j:k + 1], w[j:k + 1]) / w[j:k + 1].sum()

            expected = [max(min(mean(j, k) for k in range(i, 10)) for j in range(i + 1))
                        for i in range(10)]
            curve = make_gcurve(np.arange(10.0), raw, weights=w)
            np.testing.assert_allclose(curve.pes, expected, rtol=0, atol=1e-12)


class TestGCurveShape:
    def test_origin_pinned_and_flat(self):
        curve = make_gcurve([0.5, 1.0, 2.0], [0.01, 0.1, 0.3])
        assert curve(0.0) == 0.0
        assert curve.derivative(0.0) == 0.0
        assert float(curve(1.0)) == pytest.approx(0.1)

    def test_monotone_required(self):
        with pytest.raises(ParameterError):
            GCurve(xs=np.array([0.0, 1.0, 2.0]), pes=np.array([0.0, 0.2, 0.1]))

    @pytest.mark.parametrize("xs, pes, info_ber, match", [
        ([0.0], [0.0], None, "at least two points"),
        ([0.0, np.nan], [0.0, 0.1], None, "finite"),
        ([0.0, 1.0], [0.0, np.inf], None, "finite"),
        ([0.0, 1.0], [0.0, 0.1], [0.0, np.nan], "finite"),
        ([0.0, 1.0], [0.0, 0.1], [0.0], "shape of xs"),
        ([0.0, 1.0, 2.0], [-0.2, -0.1, 0.0], None, r"pes must lie in \[0, 1\]"),
        ([0.0, 1.0], [0.0, 1.5], None, r"pes must lie in \[0, 1\]"),
        ([0.0, 1.0], [0.0, 0.1], [0.0, -0.01], r"info_ber must lie in \[0, 1\]"),
        ([0.0, 1.0], [0.0, 0.1], [0.0, 2.0], r"info_ber must lie in \[0, 1\]"),
    ], ids=["one_point", "nan_x", "inf_pe", "nan_info_ber", "short_info_ber", "negative_pe",
            "pe_above_one", "negative_info_ber", "info_ber_above_one"])
    def test_degenerate_curve_rejected(self, xs, pes, info_ber, match):
        with pytest.raises(ParameterError, match=match):
            GCurve(xs=np.array(xs), pes=np.array(pes), info_ber=info_ber)

    @pytest.mark.parametrize("pes", [[-0.1, 0.1, 0.2], [0.1, 0.2, 1.5]],
                             ids=["negative", "above_one"])
    def test_raw_rates_outside_unit_interval_named_before_repair(self, pes):
        with pytest.raises(ParameterError, match=r"^raw pes must lie in \[0, 1\], got "):
            make_gcurve([0.5, 1.0, 2.0], pes)

    def test_noisy_points_repaired_with_warning(self):
        xs = [0.5, 1.0, 1.5, 2.0]
        with pytest.warns(DataQualityWarning):
            curve = make_gcurve(xs, [0.30, 0.05, 0.32, 0.33])
        assert np.all(np.diff(curve.pes) >= 0)

    def test_domain_bound_where_curve_stays_usable(self):
        curve = make_gcurve([1.0, 2.0, 3.0], [0.1, 0.4, 0.55])
        assert curve.sigma_I_max == 2.0

    def test_max_slope_from_segments(self):
        curve = make_gcurve([1.0, 2.0], [0.0, 0.3])
        assert curve.max_slope == pytest.approx(0.3)

    def test_csv_roundtrip(self, tmp_path):
        curve = make_gcurve([0.5, 1.0, 2.0], [0.0, 0.1, 0.3],
                            label="unit-test", info_ber=[0.0, 0.01, 0.1])
        path = tmp_path / "curve.csv"
        curve.save_csv(path)
        loaded = GCurve.load_csv(path)
        np.testing.assert_allclose(loaded.xs, curve.xs)
        np.testing.assert_allclose(loaded.pes, curve.pes)
        np.testing.assert_allclose(loaded.info_ber, curve.info_ber)
        assert loaded.label == "unit-test"


class TestEstimation:
    def test_genie_curve_recovered_within_grid_resolution(self):
        genie = GenieSource(lambda x: min(0.4, x ** 2))
        grid = np.linspace(0.05, 0.7, 14)
        rng = derive_stream(0, "genie", 0)
        curve = estimate_gcurve(genie, grid, rng, target_errors=50)
        probe = np.linspace(0.1, 0.65, 23)
        np.testing.assert_allclose(curve(probe), np.minimum(0.4, probe ** 2),
                                   atol=0.02)

    def test_real_conv_curve_is_sane(self, conv_gcurve):
        g = conv_gcurve
        assert g(0.0) == 0.0
        assert g.derivative(0.0) == 0.0
        assert np.all(np.diff(g.pes) >= 0)
        # decoder gives up well below half at the largest grid abscissa
        assert 0.15 < g.pes[-1] < 0.5
        assert g.sigma_I_max == g.xs[-1]
        # waterfall sits between the coded Shannon-ish floor and x ~ 2
        assert g(0.5) < 1e-3
        assert g(2.0) > 0.05

    @pytest.mark.slow
    def test_turbo_waterfall_steeper_than_conv(self, conv_gcurve, turbo_codec):
        rng = derive_stream(7, "gcurve-turbo", 0)
        grid = np.concatenate([np.linspace(0.6, 1.1, 6),
                               np.linspace(1.2, 2.4, 7)])
        turbo_curve = estimate_gcurve(CodedBpskSource(turbo_codec), grid, rng,
                                      target_errors=80, max_codewords=150,
                                      label="turbo")
        assert turbo_curve.max_slope > conv_gcurve.max_slope
        # the steep code is better at good qualities, worse at bad ones
        assert turbo_curve(1.05) < conv_gcurve(1.05)


@pytest.mark.parametrize("body, match", [
    ("x,pe\n0.5,0.01\n1.0\n", r"line 3: expected 'x,pe\[,info_ber\]', got '1.0'"),
    ("x,pe\n0.5,0.01\n1.0,abc\n", r"line 3: .* got '1.0,abc'"),
    ("# gcurve label=empty\n# no points\n", "no curve points"),
    ("x,pe,info_ber\n0.5,0.01,0.001\n1.0,0.1\n2.0,0.3\n",
     "line 3: 2 cells, but the first data row has 3"),
    ("x,pe\n0.5,0.01,0.001,0.2\n", "line 2: 4 cells, expected"),
], ids=["one_column", "non_numeric", "comments_only", "mixed_widths", "four_columns"])
def test_malformed_csv_names_file_and_line(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ConfigurationError, match=match) as info:
        GCurve.load_csv(path)
    assert str(path) in str(info.value)
