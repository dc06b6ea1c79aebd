import math

import pytest
from hypothesis import given, strategies as st

from sfwmlab import units
from sfwmlab.constants import C_VACUUM


class TestDbToLinear:
    def test_identity_at_zero(self):
        assert units.db_to_linear(0.0) == 1.0

    def test_half_power(self):
        assert units.db_to_linear(3.0103) == pytest.approx(0.5, rel=1e-5)

    def test_filter_loss_value(self):
        # 10^(-0.651), evaluated with mpmath at 40 digits.
        assert units.db_to_linear(6.51) == pytest.approx(0.2233572222830532, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_round_trip(self, fraction):
        assert units.db_to_linear(-10.0 * math.log10(fraction)) == pytest.approx(
            fraction, rel=1e-9
        )


class TestWavelengthFrequency:
    def test_pump_wavelength(self):
        # c / 1549.315 nm, high-precision division.
        assert units.wavelength_to_frequency(1549.315e-9) == pytest.approx(
            193500003549955.95, rel=1e-12
        )

    def test_c_meters_is_one_hz(self):
        assert units.wavelength_to_frequency(C_VACUUM) == 1.0

    @given(st.floats(min_value=1e-7, max_value=1e-5))
    def test_round_trip(self, wavelength):
        back = units.frequency_to_wavelength(units.wavelength_to_frequency(wavelength))
        assert back == pytest.approx(wavelength, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.wavelength_to_frequency(0.0)
        with pytest.raises(ValueError):
            units.frequency_to_wavelength(-1.0)


class TestGammaFromN2:
    def test_chalcogenide_value(self):
        gamma = units.gamma_from_n2(3e-18, 0.86e-12, 1550e-9)
        assert gamma == pytest.approx(14.140702116683240, rel=1e-12)
        assert gamma == pytest.approx(14.0, abs=0.2)

    def test_zero_n2(self):
        assert units.gamma_from_n2(0.0, 0.86e-12, 1550e-9) == 0.0

    def test_doubling_area_halves_gamma(self):
        g1 = units.gamma_from_n2(3e-18, 0.86e-12, 1550e-9)
        g2 = units.gamma_from_n2(3e-18, 2 * 0.86e-12, 1550e-9)
        assert g2 == pytest.approx(g1 / 2.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.gamma_from_n2(3e-18, 0.0, 1550e-9)


class TestBeta2FromDispersion:
    def test_normal_dispersion_mode(self):
        beta2 = units.beta2_from_dispersion(-239.0, 1550e-9)
        assert beta2 == pytest.approx(3.048321196793035e-25, rel=1e-12)
        # matches the stated device value within 0.5%
        assert beta2 == pytest.approx(3.048e-25, rel=5e-3)

    def test_zero(self):
        assert units.beta2_from_dispersion(0.0, 1550e-9) == 0.0

    def test_anomalous_mode_sign_flips(self):
        beta2 = units.beta2_from_dispersion(22.0, 1550e-9)
        assert beta2 == pytest.approx(-2.805986038888986e-26, rel=1e-12)
        assert beta2 < 0 < units.beta2_from_dispersion(-239.0, 1550e-9)

    @given(st.floats(min_value=-500.0, max_value=500.0))
    def test_round_trip(self, d):
        beta2 = units.beta2_from_dispersion(d, 1550e-9)
        # D = -2 pi c beta2 / lambda^2, from s/m^2 to ps/(nm km).
        assert -2.0 * math.pi * C_VACUUM * beta2 / 1550e-9**2 * 1e6 == pytest.approx(
            d, rel=1e-9, abs=1e-12
        )


class TestEffectiveLength:
    def test_lossless_limit(self):
        assert units.effective_length(0.0, 0.071) == 0.071

    def test_device_loss(self):
        alpha = units.prop_loss_to_alpha(0.7)
        assert alpha == pytest.approx(16.118095650958320, rel=1e-12)
        assert units.effective_length(alpha, 0.071) == pytest.approx(
            0.042286648657955036, rel=1e-12
        )

    def test_high_loss_asymptote(self):
        alpha = 1e6
        assert units.effective_length(alpha, 10.0) == pytest.approx(1.0 / alpha, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=1e-3, max_value=1.0))
    def test_bounded_by_length(self, alpha, length):
        assert 0.0 < units.effective_length(alpha, length) <= length


class TestFilterBandwidth:
    def test_half_nm_filter(self):
        # 0.5 nm at 1550 nm is about 62.4 GHz, wider than a 50 GHz channel.
        bw = units.filter_fwhm_to_bandwidth(0.5, 1550e-9)
        assert bw == pytest.approx(62.4e9, rel=1e-2)
        assert bw > 50e9
