"""Unit helpers.

All library internals work in SI angular frequencies (rad/s), seconds, and
meters.  Configuration files and reports use laboratory units: frequencies as
nu = omega/2pi in MHz, times in microseconds, distances in micrometers.
"""

import math

TWO_PI = 2.0 * math.pi


def angular_from_mhz(nu_mhz: float) -> float:
    """Convert a frequency given as nu in MHz to angular frequency in rad/s."""
    return TWO_PI * 1.0e6 * nu_mhz


def mhz_from_angular(omega: float) -> float:
    """Convert an angular frequency in rad/s to nu = omega/2pi in MHz."""
    return omega / (TWO_PI * 1.0e6)


def seconds_from_us(t_us: float) -> float:
    return 1.0e-6 * t_us


def us_from_seconds(t: float) -> float:
    return 1.0e6 * t


def meters_from_um(r_um: float) -> float:
    return 1.0e-6 * r_um


def c3_si_from_mhz_um3(c3_mhz_um3: float) -> float:
    """Convert a dipolar coefficient quoted as shift/2pi in MHz at 1 um."""
    return TWO_PI * 1.0e6 * c3_mhz_um3 * 1.0e-18

def c6_si_from_mhz_um6(c6_mhz_um6: float) -> float:
    """Convert a van der Waals coefficient quoted as shift/2pi in MHz at 1 um."""
    return TWO_PI * 1.0e6 * c6_mhz_um6 * 1.0e-36
