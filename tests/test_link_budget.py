"""Channel-model tests: pinned scalar cases plus randomized identities.

The pinned constants below were frozen from direct evaluation of the
defining formulas (logistic LoS curve, free-space spreading with excess
loss, Shannon rate, altitude ceiling) with an independent script; the
tests assert the library reproduces them.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover import link_budget as lb

URBAN = lb.params_from_preset("urban")
RADIO = lb.RadioConfig()

# degrees(asin(100 / sqrt(88^2 + 88^2 + 100^2)))
ELEV_88_88_100 = 38.78293682187282
# 1 / (1 + 11.95 * exp(-0.14 * (90 - 11.95)))
PLOS_90_URBAN = 0.9997853460579836
# 10^0.3 * (4 pi * 2e9 * 100 / c)^2
PL_LOS_100M = 140229153.85929725
# 10^2.3 * (4 pi * 2e9 * 100 / c)^2
PL_NLOS_100M = 14022915385.92972
# PLOS_90 * PL_LOS_100M + (1 - PLOS_90) * PL_NLOS_100M
MEAN_PL_OVERHEAD_100M = 143209127.18478745
# 1e6 * log2(1 + 0.2 / (MEAN_PL_OVERHEAD_100M * 1e-20))
RATE_OVERHEAD_100M = 37023085.6005783
# sqrt(0.2 / (10 * (4 pi * 2e9 / c)^2 * 1e-20 * 10^0.3))
MAX_ALT_DEFAULTS = 11942516.254954139


# --- elevation angle ---------------------------------------------------------

def test_elevation_overhead_is_90():
    geom = lb.LinkGeometry((0.0, 0.0, 100.0), (0.0, 0.0))
    assert lb.elevation_angle_deg(geom) == pytest.approx(90.0, abs=1e-12)


def test_elevation_isoceles_is_45():
    geom = lb.LinkGeometry((100.0, 0.0, 100.0), (0.0, 0.0))
    assert lb.elevation_angle_deg(geom) == pytest.approx(45.0, rel=1e-12)


def test_elevation_oblique_pinned():
    geom = lb.LinkGeometry((88.0, 88.0, 100.0), (0.0, 0.0))
    assert lb.elevation_angle_deg(geom) == pytest.approx(ELEV_88_88_100, rel=1e-12)


# --- LoS probability ---------------------------------------------------------

def test_los_probability_at_logistic_offset():
    # theta == omega1 collapses the exponent, leaving 1 / (1 + omega1)
    assert lb.los_probability(11.95, URBAN) == pytest.approx(1.0 / 12.95, rel=1e-15)


def test_los_probability_overhead_pinned():
    assert lb.los_probability(90.0, URBAN) == pytest.approx(PLOS_90_URBAN, rel=1e-12)


@given(theta=st.floats(min_value=0.0, max_value=90.0))
def test_los_complement_identity(theta):
    p = lb.los_probability(theta, URBAN)
    assert 0.0 < p < 1.0
    assert abs(p + (1.0 - p) - 1.0) <= 1e-9


@given(theta=st.floats(min_value=0.0, max_value=89.0),
       gap=st.floats(min_value=1e-3, max_value=1.0))
def test_los_probability_strictly_increasing(theta, gap):
    assert lb.los_probability(theta, URBAN) < lb.los_probability(theta + gap, URBAN)


# --- path loss ---------------------------------------------------------------

def test_path_loss_unit_at_wavelength_scale():
    # At d = c / (4 pi f_c) the spreading bracket is exactly 1.
    params = lb.params_from_preset("urban", psi_los=1.0, psi_nlos=1.0)
    d = lb.SPEED_OF_LIGHT_MPS / (4.0 * math.pi * params.carrier_hz)
    assert lb.path_loss_los(d, params) == pytest.approx(1.0, rel=1e-12)
    assert lb.path_loss_nlos(d, params) == pytest.approx(1.0, rel=1e-12)


def test_path_loss_pinned_100m():
    assert lb.path_loss_los(100.0, URBAN) == pytest.approx(PL_LOS_100M, rel=1e-12)
    assert lb.path_loss_nlos(100.0, URBAN) == pytest.approx(PL_NLOS_100M, rel=1e-12)


def test_path_loss_ratio_is_excess_loss_ratio():
    ratio = lb.path_loss_nlos(321.0, URBAN) / lb.path_loss_los(321.0, URBAN)
    assert ratio == pytest.approx(URBAN.psi_nlos / URBAN.psi_los, rel=1e-12)


@given(d=st.floats(min_value=1.0, max_value=1e5))
def test_doubling_distance_quadruples_loss(d):
    assert lb.path_loss_los(2.0 * d, URBAN) == pytest.approx(
        4.0 * lb.path_loss_los(d, URBAN), rel=1e-9
    )


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        lb.path_loss_los(0.0, URBAN)


# --- mixture -----------------------------------------------------------------

def test_mean_path_loss_overhead_pinned():
    geom = lb.LinkGeometry((0.0, 0.0, 100.0), (0.0, 0.0))
    assert lb.mean_path_loss(geom, URBAN) == pytest.approx(MEAN_PL_OVERHEAD_100M, rel=1e-12)


def test_mean_path_loss_degenerate_mixture():
    params = lb.params_from_preset("urban", psi_nlos_db=3.0)  # == psi_los_db
    geom = lb.LinkGeometry((50.0, -20.0, 80.0), (0.0, 0.0))
    assert lb.mean_path_loss(geom, params) == pytest.approx(
        lb.path_loss_los(geom.distance_m, params), rel=1e-12
    )


@given(x=st.floats(min_value=-400.0, max_value=400.0),
       y=st.floats(min_value=-400.0, max_value=400.0),
       h=st.floats(min_value=1.0, max_value=500.0))
def test_mixture_between_pure_losses(x, y, h):
    geom = lb.LinkGeometry((x, y, h), (0.0, 0.0))
    mixed = lb.mean_path_loss(geom, URBAN)
    d = geom.distance_m
    assert lb.path_loss_los(d, URBAN) <= mixed <= lb.path_loss_nlos(d, URBAN)


def test_mean_channel_gain_is_reciprocal():
    geom = lb.LinkGeometry((10.0, 30.0, 120.0), (0.0, 0.0))
    assert lb.mean_channel_gain(geom, URBAN) == pytest.approx(
        1.0 / lb.mean_path_loss(geom, URBAN), rel=1e-12
    )


# --- achievable rate ---------------------------------------------------------

def _params_with_snr(geom: lb.LinkGeometry, snr: float) -> lb.AirGroundParams:
    """Set the noise level so the mixture link has exactly this SNR."""
    loss = lb.mean_path_loss(geom, URBAN)
    return replace(URBAN, noise_watts=RADIO.device_tx_watts / (loss * snr))


def test_rate_at_unit_snr():
    geom = lb.LinkGeometry((0.0, 0.0, 100.0), (0.0, 0.0))
    params = _params_with_snr(geom, 1.0)
    assert lb.achievable_rate_bps(geom, params, RADIO) == pytest.approx(1.0e6, rel=1e-9)


def test_rate_at_snr_three():
    geom = lb.LinkGeometry((0.0, 0.0, 100.0), (0.0, 0.0))
    params = _params_with_snr(geom, 3.0)
    assert lb.achievable_rate_bps(geom, params, RADIO) == pytest.approx(2.0e6, rel=1e-9)


def test_rate_overhead_pinned():
    geom = lb.LinkGeometry((0.0, 0.0, 100.0), (0.0, 0.0))
    assert lb.achievable_rate_bps(geom, URBAN, RADIO) == pytest.approx(
        RATE_OVERHEAD_100M, rel=1e-12
    )


@given(r=st.floats(min_value=0.0, max_value=1000.0),
       step=st.floats(min_value=1.0, max_value=500.0))
def test_rate_decreases_as_device_recedes(r, step):
    near = lb.LinkGeometry((0.0, 0.0, 100.0), (r, 0.0))
    far = lb.LinkGeometry((0.0, 0.0, 100.0), (r + step, 0.0))
    assert lb.achievable_rate_bps(far, URBAN, RADIO) < lb.achievable_rate_bps(near, URBAN, RADIO)


def test_rate_feasible_boundaries():
    assert lb.rate_feasible(RADIO.rate_floor_bps, RADIO)          # inclusive
    assert not lb.rate_feasible(RADIO.rate_floor_bps - 1.0, RADIO)
    assert lb.rate_feasible(2.0 * RADIO.rate_floor_bps, RADIO)


# --- altitude ceiling ----------------------------------------------------------

def test_max_altitude_collapses_to_unity():
    # Carrier c / (4 pi) makes the spreading prefactor exactly 1 per metre.
    params = lb.AirGroundParams(
        omega1=11.95, omega2=0.14, psi_los=1.0, psi_nlos=1.0,
        carrier_hz=lb.SPEED_OF_LIGHT_MPS / (4.0 * math.pi),
        noise_watts=0.1, min_snr=10.0, max_tx_watts=1.0,
    )
    assert lb.max_altitude_m(params) == pytest.approx(1.0, rel=1e-12)


def test_max_altitude_quadruple_power_doubles():
    high = replace(URBAN, max_tx_watts=4.0 * URBAN.max_tx_watts)
    assert lb.max_altitude_m(high) == pytest.approx(2.0 * lb.max_altitude_m(URBAN), rel=1e-12)


def test_max_altitude_defaults_pinned():
    assert lb.max_altitude_m(URBAN) == pytest.approx(MAX_ALT_DEFAULTS, rel=1e-12)


def test_snr_at_ceiling_closes_exactly():
    h = lb.max_altitude_m(URBAN)
    snr = URBAN.max_tx_watts / (lb.path_loss_los(h, URBAN) * URBAN.noise_watts)
    assert snr == pytest.approx(URBAN.min_snr, rel=1e-9)


@settings(max_examples=200)
@given(tx_dbm=st.floats(min_value=0.0, max_value=40.0),
       noise_dbm=st.floats(min_value=-180.0, max_value=-90.0),
       snr_db=st.floats(min_value=0.0, max_value=30.0),
       psi_db=st.floats(min_value=0.0, max_value=10.0),
       carrier=st.floats(min_value=1e8, max_value=1e10))
def test_altitude_snr_round_trip(tx_dbm, noise_dbm, snr_db, psi_db, carrier):
    params = lb.params_from_preset(
        "urban",
        psi_los_db=psi_db, psi_nlos_db=max(psi_db, 23.0),
        noise_dbm=noise_dbm, min_snr_db=snr_db,
        max_tx_watts=lb.dbm_to_watts(tx_dbm), carrier_hz=carrier,
    )
    h = lb.max_altitude_m(params)
    snr = params.max_tx_watts / (lb.path_loss_los(h, params) * params.noise_watts)
    assert snr == pytest.approx(params.min_snr, rel=1e-9)


# --- unit conversions and config knobs ----------------------------------------

@given(db=st.floats(min_value=-300.0, max_value=300.0))
def test_db_round_trip(db):
    assert lb.linear_to_db(lb.db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        lb.linear_to_db(0.0)


def test_dbm_to_watts_reference_points():
    assert lb.dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert lb.dbm_to_watts(-170.0) == pytest.approx(1e-20, rel=1e-12)


def test_noise_from_density_matches_total():
    # -230 dBm/Hz over 1 MHz is the same power as -170 dBm total.
    assert lb.noise_from_density_watts(-230.0, 1.0e6) == pytest.approx(
        lb.dbm_to_watts(-170.0), rel=1e-12
    )


def test_noise_from_density_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        lb.noise_from_density_watts(-200.0, 0.0)


def test_preset_is_converted_to_linear():
    assert URBAN.psi_los == pytest.approx(10.0 ** 0.3, rel=1e-12)
    assert URBAN.psi_nlos == pytest.approx(10.0 ** 2.3, rel=1e-12)
    assert URBAN.noise_watts == pytest.approx(1e-20, rel=1e-12)
    assert URBAN.min_snr == pytest.approx(10.0, rel=1e-12)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown environment preset"):
        lb.params_from_preset("lunar")


def test_params_validation():
    with pytest.raises(ValueError):
        replace(URBAN, psi_los=0.5)  # below unity
    with pytest.raises(ValueError):
        replace(URBAN, psi_nlos=1.0)  # below psi_los
    with pytest.raises(ValueError):
        replace(URBAN, noise_watts=0.0)
