"""Physical inputs for the gate error model.

Holds the pairwise interaction laws used to map interatomic distance to a
blockade shift.  Interaction strengths are
angular frequencies (rad/s), distances are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import mhz_from_angular, um_from_meters


class InvalidModelError(ValueError):
    """Interaction model has no applicable law for the requested distance."""


# Relative mismatch allowed between the two laws at the crossover radius.
_CROSSOVER_CONTINUITY_TOL = 0.01


@dataclass(frozen=True)
class InteractionModel:
    """Pairwise interaction law B(r).

    Either a single power law (only one coefficient set) or a piecewise
    law with the cubic branch below ``crossover_radius`` and the
    sixth-power branch above it.  When both coefficients are given the
    two branches must agree within 1% at the crossover; continuity is
    enforced here, at construction, not assumed later.

    c3 has units rad/s*m^3, c6 has rad/s*m^6.
    """

    c3: float = 0.0
    c6: float = 0.0
    crossover_radius: float | None = None

    def __post_init__(self) -> None:
        if self.c3 < 0.0 or self.c6 < 0.0:
            raise InvalidModelError("interaction coefficients must be >= 0")
        if self.c3 == 0.0 and self.c6 == 0.0:
            raise InvalidModelError("at least one interaction coefficient must be set")
        if self.crossover_radius is not None:
            if not (self.crossover_radius > 0.0):
                raise InvalidModelError("crossover_radius must be positive")
            if self.c3 == 0.0 or self.c6 == 0.0:
                raise InvalidModelError(
                    "a crossover law needs both c3 and c6 coefficients"
                )
            rx = self.crossover_radius
            lo = self.c3 / rx**3
            hi = self.c6 / rx**6
            if abs(lo - hi) > _CROSSOVER_CONTINUITY_TOL * max(lo, hi):
                raise InvalidModelError(
                    "laws disagree by more than 1% at the crossover radius: "
                    f"c3 branch {lo:.6g} rad/s vs c6 branch {hi:.6g} rad/s"
                )
        elif self.c3 > 0.0 and self.c6 > 0.0:
            raise InvalidModelError(
                "both coefficients set: a crossover_radius is required"
            )

    def shift_at(self, r: float) -> float:
        """Blockade shift at separation r (meters), rad/s; FloatingPointError
        where it leaves the float range, 0 or infinite."""
        if not (r > 0.0):
            raise ValueError("separation must be positive")
        if self.crossover_radius is not None:
            shift = self.c3 / r**3 if r <= self.crossover_radius else self.c6 / r**6
        else:
            shift = self.c3 / r**3 if self.c3 > 0.0 else self.c6 / r**6
        if not 0.0 < shift < math.inf:
            raise FloatingPointError(f"the blockade shift at {um_from_meters(r):g} um is "
                                     f"{mhz_from_angular(shift)!r} MHz")
        return shift


def pair_shift(model, r: float) -> float:
    """Blockade shift for one atom pair at separation ``r``.

    ``model`` is anything exposing ``shift_at(r)``; this indirection lets
    tests substitute constant or synthetic laws.
    """
    return model.shift_at(r)


def fit_single_anchor(law: str, b_anchor: float, r_anchor: float) -> InteractionModel:
    """Build a single-law model from one (shift, distance) anchor point.

    Parameters
    ----------
    law : str
        "c3" or "c6".
    b_anchor : float
        Shift at the anchor distance, rad/s.
    r_anchor : float
        Anchor distance, m.
    """
    if not (b_anchor > 0.0) or not (r_anchor > 0.0):
        raise ValueError("anchor shift and radius must be positive")
    if law not in ("c3", "c6"):
        raise ValueError(f"unknown interaction law {law!r}; expected 'c3' or 'c6'")
    power = int(law[1])
    coefficient = b_anchor * r_anchor**power
    if not 0.0 < coefficient < math.inf:  # FloatingPointError, as the units conversions raise
        raise FloatingPointError(f"the fitted {law} = b r^{power} is {coefficient!r}")
    return InteractionModel(**{law: coefficient})

