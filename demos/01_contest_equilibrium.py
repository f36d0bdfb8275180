#!/usr/bin/env python3
"""Solving the effort contest: root search, closed forms, verification.

After the swim, the athletes still in the race choose how hard to push
through the bike and run.  Each one weighs the prize difference between
winning and losing against a quadratic effort cost, discounted by however
much drafting shelter they enjoyed in the water.  The win probability is
an effort-weighted lottery, so the whole field is coupled through one
scalar: aggregate effort.  This script walks that machinery end to end.

Run it directly:

    python3 demos/01_contest_equilibrium.py
"""

from tricontest import (
    ContestInstance,
    EffortProfile,
    aggregate_equation,
    payoff_curvature,
    solve_contest,
    symmetric_equilibrium,
    two_player_equilibrium,
    verify_nash,
)


def banner(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


# ---------------------------------------------------------------------
# 1. A heterogeneous three-athlete field
# ---------------------------------------------------------------------

banner("A three-athlete field")

# bea chases a double prize, cal pays double cost, ada is the baseline.
field = ContestInstance(
    ids=("ada", "bea", "cal"),
    delta=(1.0, 2.0, 1.0),   # prize differentials
    cost=(1.0, 1.0, 2.0),    # baseline quadratic cost slopes
    psi=(1.0, 1.0, 1.0),     # drafting multipliers (nobody drafted here)
    weight=(1.0, 1.0, 1.0),  # lottery weights
)

eq = solve_contest(field)
print(f"aggregate effort E* = {eq.total_effort:.6f}")
for aid in field.ids:
    print(f"  {aid}: effort {eq.efforts[aid]:.4f}, win odds "
          f"{eq.probs[aid]:.4f}, expected payoff "
          f"{eq.continuation_values[aid]:.4f}")
print(f"residual of the aggregate equation: {eq.residual:.2e}")

# The equilibrium aggregate is the root of a strictly decreasing scalar
# function; probing it on either side of the root shows the sign change.
for probe in (1.0, eq.total_effort, 2.0):
    print(f"  g({probe:.4f}) = {aggregate_equation(probe, field):+.4e}")

# ---------------------------------------------------------------------
# 2. Closed forms as cross-checks
# ---------------------------------------------------------------------

banner("Closed forms")

# Any duel has an explicit solution driven by the advantage ratio.
duel = ContestInstance(ids=("ada", "bea"), delta=(2.0, 1.0),
                       cost=(1.0, 1.0), psi=(1.0, 1.0), weight=(1.0, 1.0))
closed = two_player_equilibrium(duel)
solved = solve_contest(duel)
print("duel with a doubled prize for ada:")
print(f"  closed form: p_ada = {closed.probs['ada']:.10f}")
print(f"  root search: p_ada = {solved.probs['ada']:.10f}")

# Identical athletes admit a one-line formula in the field size.
print("symmetric fields (unit prize and cost):")
for m in (2, 4, 8):
    sym = symmetric_equilibrium(m, delta=1.0, cost=1.0, psi=1.0)
    print(f"  m={m}: per-athlete effort {sym.effort:.5f}, "
          f"win odds {sym.prob:.4f}")

# ---------------------------------------------------------------------
# 3. Verifying the equilibrium the hard way
# ---------------------------------------------------------------------

banner("Best-response verification")

# The oracle computes every athlete's exact best response to the others
# (the root of a cubic) and reports the largest payoff improvement it
# offers.  At a true equilibrium that gain is numerically zero.
check = verify_nash(field, eq)
print(f"max unilateral gain at the solved point: {check.max_gain:.2e} "
      f"-> {'PASS' if check.passed else 'FAIL'}")

# Feed it a deliberately wrong profile and it names the athlete who is
# leaving money on the table.
wrong = solve_contest(field)
bent = type(wrong)(total_effort=wrong.total_effort,
                   efforts={**wrong.efforts, "ada": 0.9},
                   probs=wrong.probs,
                   continuation_values=wrong.continuation_values,
                   residual=wrong.residual)
check = verify_nash(field, bent)
print(f"after forcing ada to 0.9: gain {check.max_gain:.4f} for "
      f"{check.worst} -> {'PASS' if check.passed else 'FAIL'}")

# ---------------------------------------------------------------------
# 4. Why the equilibrium is unique: concavity at any profile
# ---------------------------------------------------------------------

banner("Payoff curvature")

profile = EffortProfile({"ada": 0.5, "bea": 0.6, "cal": 0.3})
for aid in field.ids:
    curv = payoff_curvature(field, profile, aid)
    crosses = ", ".join(f"{other}: {value:+.3f}"
                        for other, value in curv.cross.items())
    print(f"  {aid}: own second derivative {curv.second:+.3f} "
          f"(cross terms {crosses})")
print("own curvature is negative at every profile, which is what pins")
print("down a unique interior equilibrium.")
