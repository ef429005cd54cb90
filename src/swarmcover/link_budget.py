"""Air-to-ground link budget for low-altitude UAV data collection.

Line-of-sight probability follows a logistic curve in the elevation
angle; LoS and NLoS links see free-space spreading scaled by an excess
loss factor, and the two are mixed by the LoS probability to give the
mean path loss of a link. On top of that the module provides the
Shannon rate of a device-to-UAV uplink and the altitude ceiling at
which the worst-case pure-LoS link still closes at the required SNR.

Everything here is a pure function of explicit inputs. All quantities
are linear-scale SI units; dB and dBm conversion happens only at the
config boundary (see ``params_from_preset``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT_MPS = 299_792_458.0

#: Logistic curve constants and excess losses (dB) for named propagation
#: environments. Excess losses are converted to linear scale on load.
ENVIRONMENT_PRESETS = {
    "urban": {
        "omega1": 11.95,
        "omega2": 0.14,
        "psi_los_db": 3.0,
        "psi_nlos_db": 23.0,
    },
}


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a positive linear quantity to dB."""
    if value <= 0.0:
        raise ValueError(f"dB undefined for non-positive value {value!r}")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a dBm power level to watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def noise_from_density_watts(dbm_per_hz: float, bandwidth_hz: float) -> float:
    """Total noise power of a flat spectral density over a bandwidth.

    Supports configs that quote noise per Hz instead of as a total; the
    result plugs straight into ``AirGroundParams.noise_watts``.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth must be positive")
    return dbm_to_watts(dbm_per_hz) * bandwidth_hz


@dataclass(frozen=True)
class AirGroundParams:
    """Propagation constants for one environment.

    Attributes:
        omega1: Logistic offset of the LoS-probability curve (degrees).
        omega2: Logistic steepness of the LoS-probability curve (1/degree).
        psi_los: Excess loss multiplier for LoS links, linear, >= 1.
        psi_nlos: Excess loss multiplier for NLoS links, linear, >= psi_los.
        carrier_hz: Carrier frequency in Hz.
        noise_watts: Receiver noise power in watts.
        min_snr: Required SNR (linear) for the altitude ceiling.
        max_tx_watts: Largest transmit power available on the link.
    """

    omega1: float
    omega2: float
    psi_los: float
    psi_nlos: float
    carrier_hz: float = 2.0e9
    noise_watts: float = dbm_to_watts(-170.0)
    min_snr: float = 10.0
    max_tx_watts: float = 0.2

    def __post_init__(self) -> None:
        if self.omega1 <= 0.0 or self.omega2 <= 0.0:
            raise ValueError("logistic constants must be positive")
        if self.psi_los < 1.0:
            raise ValueError("LoS excess loss must be >= 1 (linear scale)")
        if self.psi_nlos < self.psi_los:
            raise ValueError("NLoS excess loss must be >= LoS excess loss")
        if self.carrier_hz <= 0.0:
            raise ValueError("carrier frequency must be positive")
        if self.noise_watts <= 0.0:
            raise ValueError("noise power must be positive")
        if self.min_snr <= 0.0 or self.max_tx_watts <= 0.0:
            raise ValueError("SNR threshold and transmit power must be positive")


def params_from_preset(name: str = "urban", **overrides) -> AirGroundParams:
    """Build :class:`AirGroundParams` from a named preset.

    Accepts the raw preset keys (``psi_los_db``, ``psi_nlos_db``,
    ``noise_dbm``, ``min_snr_db``) as well as any field of
    :class:`AirGroundParams`; dB-valued keys are converted to linear
    scale here so the dataclass only ever sees linear units.
    """
    try:
        base = dict(ENVIRONMENT_PRESETS[name])
    except KeyError:
        known = ", ".join(sorted(ENVIRONMENT_PRESETS))
        raise ValueError(f"unknown environment preset {name!r} (known: {known})") from None
    base.update(overrides)

    psi_los_db = base.pop("psi_los_db", None)
    psi_nlos_db = base.pop("psi_nlos_db", None)
    noise_dbm = base.pop("noise_dbm", None)
    min_snr_db = base.pop("min_snr_db", None)
    if psi_los_db is not None:
        base.setdefault("psi_los", db_to_linear(psi_los_db))
    if psi_nlos_db is not None:
        base.setdefault("psi_nlos", db_to_linear(psi_nlos_db))
    if noise_dbm is not None:
        base.setdefault("noise_watts", dbm_to_watts(noise_dbm))
    if min_snr_db is not None:
        base.setdefault("min_snr", db_to_linear(min_snr_db))
    return AirGroundParams(**base)


@dataclass(frozen=True)
class LinkGeometry:
    """One UAV-to-device link: UAV position in 3D, device on the ground."""

    uav_xyz: tuple[float, float, float]
    device_xy: tuple[float, float]

    def __post_init__(self) -> None:
        if self.uav_xyz[2] <= 0.0:
            raise ValueError("UAV altitude must be positive")

    @property
    def altitude_m(self) -> float:
        return self.uav_xyz[2]

    @property
    def distance_m(self) -> float:
        dx = self.uav_xyz[0] - self.device_xy[0]
        dy = self.uav_xyz[1] - self.device_xy[1]
        return math.sqrt(dx * dx + dy * dy + self.uav_xyz[2] ** 2)


@dataclass(frozen=True)
class RadioConfig:
    """Uplink radio settings shared by all devices."""

    bandwidth_hz: float = 1.0e6
    device_tx_watts: float = 0.2
    rate_floor_bps: float = 1.0e5

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0 or self.device_tx_watts <= 0.0:
            raise ValueError("bandwidth and transmit power must be positive")
        if self.rate_floor_bps < 0.0:
            raise ValueError("rate floor must be non-negative")


def elevation_angle_deg(geometry: LinkGeometry) -> float:
    """Elevation of the UAV as seen from the device, in degrees.

    asin(altitude / slant distance); directly overhead gives 90.
    """
    d = geometry.distance_m
    if d <= 0.0:
        raise ValueError("link distance must be positive")
    return math.degrees(math.asin(geometry.altitude_m / d))


def los_probability(theta_deg: float, params: AirGroundParams) -> float:
    """Probability of a line-of-sight link at elevation ``theta_deg``.

    Logistic in the elevation angle: steeper links are more likely to
    clear the clutter. Strictly increasing in theta, range (0, 1).
    """
    return 1.0 / (1.0 + params.omega1 * math.exp(-params.omega2 * (theta_deg - params.omega1)))


def _spread_loss(distance_m: float, params: AirGroundParams) -> float:
    # Free-space spreading at the carrier wavelength, linear power ratio.
    if distance_m <= 0.0:
        raise ValueError("path loss undefined for non-positive distance")
    return (4.0 * math.pi * params.carrier_hz * distance_m / SPEED_OF_LIGHT_MPS) ** 2


def path_loss_los(distance_m: float, params: AirGroundParams) -> float:
    """Path loss (linear, >= 1 in any sane regime) of a LoS link."""
    return params.psi_los * _spread_loss(distance_m, params)


def path_loss_nlos(distance_m: float, params: AirGroundParams) -> float:
    """Path loss of an NLoS link; differs from LoS only in excess loss."""
    return params.psi_nlos * _spread_loss(distance_m, params)


def mean_path_loss(geometry: LinkGeometry, params: AirGroundParams) -> float:
    """LoS/NLoS mixture path loss of a link.

    The two hypotheses are weighted by the elevation-dependent LoS
    probability, so the result always lies between the pure LoS and
    pure NLoS losses at the same distance.
    """
    p_los = los_probability(elevation_angle_deg(geometry), params)
    d = geometry.distance_m
    return p_los * path_loss_los(d, params) + (1.0 - p_los) * path_loss_nlos(d, params)


def mean_channel_gain(geometry: LinkGeometry, params: AirGroundParams) -> float:
    """Reciprocal of the mixture path loss."""
    return 1.0 / mean_path_loss(geometry, params)


def achievable_rate_bps(
    geometry: LinkGeometry, params: AirGroundParams, radio: RadioConfig
) -> float:
    """Shannon rate of the device-to-UAV uplink in bits per second."""
    snr = radio.device_tx_watts * mean_channel_gain(geometry, params) / params.noise_watts
    return radio.bandwidth_hz * math.log2(1.0 + snr)


def rate_feasible(rate_bps: float, radio: RadioConfig) -> bool:
    """Whether an uplink rate clears the configured floor."""
    return rate_bps >= radio.rate_floor_bps


def max_altitude_m(params: AirGroundParams) -> float:
    """Altitude ceiling at which an overhead pure-LoS link still meets min_snr.

    Solves ``max_tx / (psi_los * (f0 * h)^2 * noise) = min_snr`` for h,
    with ``f0 = 4 pi f_c / c``.
    """
    f0 = 4.0 * math.pi * params.carrier_hz / SPEED_OF_LIGHT_MPS
    bound = params.max_tx_watts / (params.min_snr * f0 * f0 * params.noise_watts * params.psi_los)
    return math.sqrt(bound)
