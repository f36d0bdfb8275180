"""Independent equilibrium oracle for checking benchmark answers.

Everything here is re-derived from the model's first-order conditions and
uses only the standard library: nothing is imported from ``tricontest``, so
agreement with the package is evidence rather than tautology.

At weighted aggregate effort ``X`` athlete ``i`` wins with probability
``de_i / (k_i X^2 + de_i)``, where ``k_i = cost_i / psi_i`` and
``de_i = prize_i * weight_i^2``; the equilibrium ``X`` makes those
probabilities sum to one.  The oracle brackets that root by doubling and
bisects until the bracket is one part in 1e15 wide.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple


class Solution(NamedTuple):
    total: float
    probs: tuple[float, ...]
    efforts: tuple[float, ...]
    values: tuple[float, ...]


@functools.lru_cache(maxsize=None)
def solve(delta: tuple, cost: tuple, psi: tuple, weight: tuple) -> Solution:
    """Equilibrium of the weighted lottery; arguments are per-athlete tuples."""
    if len(delta) == 1:
        return Solution(0.0, (1.0,), (0.0,), (float(delta[0]),))
    k = [c / s for c, s in zip(cost, psi)]
    de = [d * w * w for d, w in zip(delta, weight)]

    def excess(x: float) -> float:
        xx = x * x
        return sum(d / (kk * xx + d) for kk, d in zip(k, de)) - 1.0

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi or not lo < mid < hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    probs = tuple(d / (kk * x * x + d) for kk, d in zip(k, de))
    efforts = tuple(p * x / w for p, w in zip(probs, weight))
    values = tuple(p * d - 0.5 * kk * e * e
                   for p, d, kk, e in zip(probs, delta, k, efforts))
    return Solution(x, probs, efforts, values)


# ---------------------------------------------------------------------------
# Scenario documents (the JSON scenario-file layout, as plain dicts)
# ---------------------------------------------------------------------------


def multiplier(draft_share: float, eta: float) -> float:
    return 1.0 / (1.0 - eta * draft_share)


def outside(doc: dict, athlete: dict) -> float:
    g = doc["globals"]
    return (-g["alpha"] * athlete["t_swim"] - g["beta"] * athlete["r_swim"]
            + athlete.get("theta", 0.0))


def field(doc: dict, members, psi_override: dict | None = None):
    """Per-athlete parameter tuples of the contest among ``members``.

    Athletes keep document order; ``psi_override`` maps ids to multipliers
    that replace the ones implied by the drafting share.
    """
    eta = doc["globals"]["eta"]
    chosen = [a for a in doc["athletes"] if a["id"] in members]
    override = psi_override or {}
    return (tuple(a["id"] for a in chosen),
            tuple(a["prize_diff"] for a in chosen),
            tuple(a["base_cost"] for a in chosen),
            tuple(override.get(a["id"], multiplier(a["draft_share"], eta))
                  for a in chosen),
            tuple(a.get("weight", 1.0) for a in chosen))


def contest(doc: dict, members, psi_override: dict | None = None):
    """``(ids, Solution)`` of the contest among ``members``."""
    ids, delta, cost, psi, weight = field(doc, members, psi_override)
    return ids, solve(delta, cost, psi, weight)


def net_benefit(doc: dict, members, athlete_id: str,
                psi_override: dict | None = None) -> float:
    """Continuation value in ``members`` (which must hold the athlete) minus outside option."""
    ids, sol = contest(doc, members, psi_override)
    athlete = next(a for a in doc["athletes"] if a["id"] == athlete_id)
    return sol.values[ids.index(athlete_id)] - outside(doc, athlete)


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)
