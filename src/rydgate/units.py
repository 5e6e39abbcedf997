"""Unit helpers.

All library internals work in SI angular frequencies (rad/s), seconds, and
meters.  Configuration files and reports use laboratory units: frequencies as
nu = omega/2pi in MHz, times in microseconds, distances in micrometers.
A conversion into SI units refuses a nonzero value it would turn into 0
and a finite value it would turn into an infinity.
"""

import math

TWO_PI = 2.0 * math.pi


def _in_range(value: float, si: float, units: str) -> float:
    """``si``, the SI form of ``value`` in lab ``units``; FloatingPointError
    if it is 0 and ``value`` is not, or infinite and ``value`` is finite,
    since ``value`` leaves the float range."""
    if (value and not si) or (math.isinf(si) and math.isfinite(value)):
        raise FloatingPointError(f"{value!r} {units} is {si!r} in SI units")
    return si


def angular_from_mhz(nu_mhz: float) -> float:
    """Convert a frequency given as nu in MHz to angular frequency in rad/s."""
    return _in_range(nu_mhz, TWO_PI * 1.0e6 * nu_mhz, "MHz")


def mhz_from_angular(omega: float) -> float:
    """Convert an angular frequency in rad/s to nu = omega/2pi in MHz."""
    return omega / (TWO_PI * 1.0e6)


def seconds_from_us(t_us: float) -> float:
    return _in_range(t_us, 1.0e-6 * t_us, "us")


def us_from_seconds(t: float) -> float:
    return 1.0e6 * t


def meters_from_um(r_um: float) -> float:
    return _in_range(r_um, 1.0e-6 * r_um, "um")


def um_from_meters(r: float) -> float:
    return 1.0e6 * r


def _coefficient_si(value: float, um_scale: float, units: str) -> float:
    """2 pi 1e6 ``value`` ``um_scale``: a coefficient in MHz um^p in SI units."""
    si = TWO_PI * 1.0e6 * value * um_scale
    if math.isinf(si):  # 2 pi 1e6 value alone passed the float range, not the SI value
        si = TWO_PI * 1.0e6 * (value * um_scale)
    return _in_range(value, si, units)


def c3_si_from_mhz_um3(c3_mhz_um3: float) -> float:
    """Convert a dipolar coefficient quoted as shift/2pi in MHz at 1 um."""
    return _coefficient_si(c3_mhz_um3, 1.0e-18, "MHz um^3")


def c6_si_from_mhz_um6(c6_mhz_um6: float) -> float:
    """Convert a van der Waals coefficient quoted as shift/2pi in MHz at 1 um."""
    return _coefficient_si(c6_mhz_um6, 1.0e-36, "MHz um^6")
