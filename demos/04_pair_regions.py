#!/usr/bin/env python3
"""Which fields a pair of athletes sustains, across both draft shares.

With two athletes the entry stage has a closed form.  A contest pays
athlete i at least its outside option o_i once its win share reaches
p*_i = (sqrt(1 + 8 o_i / delta_i) - 1) / 2.  The two shares of a pair sum
to one, so the pair can only be stable when p*_1 + p*_2 <= 1.  Above that
line the lone fields take over, and where neither lone athlete would let
the other in profitably, both lone fields are stable at once.

Drafting during the swim lowers an athlete's effective effort cost, which
moves win share towards them.  This script builds one pair on each side
of p*_1 + p*_2 = 1, prints the stable fields on a 9 x 9 grid of draft
shares, and gives each athlete's cutoff multiplier at the grid's centre.

Run it directly:

    python3 demos/04_pair_regions.py
"""

import math

from tricontest import (
    AthleteRecord,
    GlobalParams,
    Scenario,
    cutoff_psi,
    enumerate_equilibrium_sets,
    outside_option,
)

PARAMS = GlobalParams(alpha=0.001, beta=0.01, eta=0.9)
SHARES = [i / 8 for i in range(9)]
LABELS = {("ada", "bea"): "AB", ("ada",): "A", ("bea",): "B", (): "-"}


def banner(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def pair(costs, prizes, thetas, shares=(0.5, 0.5)) -> Scenario:
    """ada and bea after an equal swim, with the given draft shares."""
    return Scenario(athletes=tuple(
        AthleteRecord(id=aid, t_swim=1800.0, r_swim=rank, draft_share=share,
                      base_cost=cost, prize_diff=prize, theta=theta)
        for aid, rank, cost, prize, theta, share
        in zip(("ada", "bea"), (1, 2), costs, prizes, thetas, shares)), globals=PARAMS)


def show(title: str, costs, prizes, thetas) -> None:
    banner(title)
    base = pair(costs, prizes, thetas)
    needed = []
    for rec in base.athletes:
        leave = outside_option(rec, PARAMS)
        needed.append((math.sqrt(1.0 + 8.0 * leave / rec.prize_diff) - 1.0) / 2.0)
        print(f"  {rec.id}: prize {rec.prize_diff:.2f}, cost {rec.base_cost:.2f}, "
              f"outside option {leave:.4f}, needs a win share of {needed[-1]:.4f}")
    print(f"  p*_ada + p*_bea = {sum(needed):.4f}")

    # Stable fields at every (D_ada, D_bea); rows run from no drafting down to full.
    print()
    print("  D_bea \\ D_ada " + "".join(f"{d:>6.3f}" for d in SHARES))
    counts: dict[str, int] = {}
    for d_bea in SHARES:
        cells = []
        for d_ada in SHARES:
            point = pair(costs, prizes, thetas, shares=(d_ada, d_bea))
            cell = "|".join(LABELS[members] for members in enumerate_equilibrium_sets(point))
            counts[cell] = counts.get(cell, 0) + 1
            cells.append(f"{cell:>6}")
        print(f"  {d_bea:>13.3f} " + "".join(cells))
    print("  cells: " + ", ".join(f"{cell} {n}" for cell, n in sorted(counts.items())))

    # At the centre (both draft shares 0.5), the multiplier that makes each athlete
    # indifferent to staying in the pair, the other's held fixed.
    for rec in base.athletes:
        result = cutoff_psi(base, base.ids, rec.id)
        if result.verdict == "interior":
            share = (1.0 - 1.0 / result.psi_star) / PARAMS.eta
            print(f"  {rec.id} would stay in the pair iff its multiplier is at least "
                  f"{result.psi_star:.4f} (draft share {share:.4f})")
        else:
            print(f"  {rec.id}: {result.verdict.replace('_', ' ')} over the whole range")


print("Legend: AB the pair, A or B a lone athlete, A|B both lone fields, - nobody.")

# ---------------------------------------------------------------------
# 1. Modest outside options: the pair, flanked by the lone fields
# ---------------------------------------------------------------------

# The pair is stable on a diagonal band; far enough off it the athlete
# with less shelter would rather take its outside option.
show("Modest outside options (p*_ada + p*_bea < 1)",
     costs=(1.0, 0.8), prizes=(1.0, 1.2), thetas=(2.11, 2.27))

# ---------------------------------------------------------------------
# 2. Rich outside options: never the pair, sometimes either lone field
# ---------------------------------------------------------------------

# Neither athlete can share the race profitably, so only lone fields are
# stable; on the band between, a lone athlete deters the other, whichever
# of them it is.
show("Rich outside options (p*_ada + p*_bea > 1)",
     costs=(1.0, 1.2), prizes=(1.0, 1.4), thetas=(2.31, 2.57))
