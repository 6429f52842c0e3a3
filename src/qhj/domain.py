"""The domain and channel tags a family declares to the grid oracle, kept apart
from the oracle (which loads scipy) and free of numpy, so that importing the
catalog, and with it `qhj list`, loads neither."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple


@dataclass(frozen=True)
class OracleDomain:
    """Where a family is collocated: ends of the real coordinate σ (a finite
    interval, (a, inf) or (−inf, inf)); wall strength c at each end, for
    V ≈ c/d² (0 for a Dirichlet end); map scale L of an infinite end;
    σ ↦ (x, dx/dσ, d²x/dσ²) of a complex contour, or None for x = σ; and the
    mirror symmetry σ ↦ −σ of the problem, if it has one: "parity" when
    V(x(−σ)) = V(x(σ)) with x(−σ) = −x(σ) and mirror-image ends and walls
    (the operator commutes with the flip), "pt" when V(−x) = conj V(x) on the
    real line (the flip conjugates it), or None.  The oracle then solves the
    even and odd blocks, or one real matrix, instead of the full matrix."""

    ends: Tuple[float, float]
    walls: Tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0
    contour: Optional[Callable] = None
    mirror: Optional[str] = None


def channel_tag(principal):
    """exponent_plus (minus) for the principal root at all (no) walls, else exponent_<lo>_<hi>."""
    roots = ["plus" if p else "minus" for p in principal]
    return "exponent_" + ("_".join(roots) if len(set(roots)) > 1 else roots[0])
