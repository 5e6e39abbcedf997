"""Shared error-budget container."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# largest control count any budget accepts
_MAX_K = 64


@dataclass(frozen=True)
class ErrorBudget:
    """Named intrinsic-error terms for one gate execution.

    ``terms`` maps term name to its error contribution; ``total`` is always
    the exact float sum of the terms.  ``diagnostics`` carries auxiliary
    values (alternative algebraic reductions, intermediate sums) that are
    reported but never folded into the total.
    """

    scheme: str  # "sequential" | "simultaneous" | "grover"
    mode: str  # "uniform" | "lattice"
    terms: dict[str, float]
    total: float
    diagnostics: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_terms(
        cls,
        scheme: str,
        mode: str,
        terms: dict[str, float],
        diagnostics: dict[str, float] | None = None,
    ) -> "ErrorBudget":
        return cls(
            scheme=scheme,
            mode=mode,
            terms=dict(terms),
            total=math.fsum(terms.values()),
            diagnostics=dict(diagnostics or {}),
        )

    def as_dict(self) -> dict:
        out: dict = {"scheme": self.scheme, "mode": self.mode}
        out.update(self.terms)
        out["total"] = self.total
        for key, value in self.diagnostics.items():
            out[f"diag_{key}"] = value
        return out
