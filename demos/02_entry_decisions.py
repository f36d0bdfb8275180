#!/usr/bin/env python3
"""Who keeps racing: continuation values, cutoffs, and stable fields.

Before the contest stage runs, every athlete compares the payoff from
continuing against a personal outside option built from their swim time,
swim rank, and taste for calling it a day.  A field is stable when every
member wants to stay and every outsider is happy to have left.  This
script builds a small race, finds the stable fields three different
ways, and locates the drafting level that would change one athlete's
mind.

Run it directly:

    python3 demos/02_entry_decisions.py
"""

from tricontest import (
    AthleteRecord,
    GlobalParams,
    Scenario,
    assemble_spe,
    cutoff_psi,
    enumerate_equilibrium_sets,
    iterate_continuation_operator,
    net_benefit,
)


def banner(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


# ---------------------------------------------------------------------
# 1. A race where quitting is genuinely tempting
# ---------------------------------------------------------------------

# bea swam poorly and values her outside option highly; ada and cal are
# committed.  Drafting shares taken during the swim lower the effective
# effort cost later via the multiplier 1 / (1 - eta * share).
athletes = (
    AthleteRecord(id="ada", t_swim=1790.0, r_swim=1, draft_share=0.25,
                  base_cost=1.0, prize_diff=1.2, theta=1.6),
    AthleteRecord(id="bea", t_swim=1860.0, r_swim=3, draft_share=0.0,
                  base_cost=1.1, prize_diff=1.0, theta=2.4),
    AthleteRecord(id="cal", t_swim=1815.0, r_swim=2, draft_share=0.5,
                  base_cost=0.9, prize_diff=0.9, theta=1.5),
)
race = Scenario(athletes=athletes,
                globals=GlobalParams(alpha=0.001, beta=0.01, eta=0.5))

banner("Stay-or-leave margins in the full field")
for rec in athletes:
    margin = net_benefit(race, race.ids, rec.id)
    print(f"  {rec.id}: continuation {margin.continuation:+.4f}, outside "
          f"{margin.outside:+.4f}, net {margin.value:+.4f} "
          f"({'stays' if margin.value >= 0 else 'wants out'})")

# ---------------------------------------------------------------------
# 2. Finding the stable fields
# ---------------------------------------------------------------------

banner("Stable fields")

# Pruned search of the subsets, the empty one included (all of them at worst).
stable = enumerate_equilibrium_sets(race)
print(f"enumeration: {stable}")

# The fast route iterates a keep-everyone-with-nonnegative-margin map.
outcome = iterate_continuation_operator(race)
print(f"iteration:   {outcome.members} via {outcome.method} "
      f"(trace {' -> '.join('{' + ','.join(s) + '}' for s in outcome.trace)})")

# assemble_spe packages the stable field with its solved contest,
# per-athlete actions, and realised payoffs.
for spe in assemble_spe(race, mode="all"):
    print(f"outcome {spe.members} [{spe.method}]:")
    for aid in race.ids:
        print(f"  {aid}: {spe.actions[aid]:9s} payoff {spe.payoffs[aid]:+.4f}")

# ---------------------------------------------------------------------
# 3. The multiplier that flips a decision
# ---------------------------------------------------------------------

banner("Indifference cutoffs")

# How much drafting shelter would each athlete have needed for the
# continuation decision to flip?  The cutoff routine gives the athlete's
# own indifference multiplier in closed form and compares it with the
# configured bounds.
for rec in athletes:
    result = cutoff_psi(race, race.ids, rec.id)
    if result.verdict == "interior":
        print(f"  {rec.id}: indifferent at multiplier {result.psi_star:.4f}")
    else:
        print(f"  {rec.id}: {result.verdict.replace('_', ' ')} over the "
              f"whole range")

# ---------------------------------------------------------------------
# 4. When everyone walks away
# ---------------------------------------------------------------------

banner("When everyone walks away")

# Outside options so rich that nobody's prize beats them: a lone entrant
# would net prize minus outside option < 0, so the one stable field is the
# empty one and every athlete withdraws at their outside option.
rich = tuple(
    rec.__class__(id=rec.id, t_swim=rec.t_swim, r_swim=rec.r_swim,
                  draft_share=rec.draft_share, base_cost=rec.base_cost,
                  prize_diff=rec.prize_diff, theta=rec.theta + 10.0)
    for rec in athletes
)
empty_race = Scenario(athletes=rich, globals=race.globals)
print(f"stable fields: {enumerate_equilibrium_sets(empty_race)}")
spe = assemble_spe(empty_race)[0]
print(f"outcome {spe.members} [{spe.method}]:")
for rec in rich:
    print(f"  {rec.id}: {spe.actions[rec.id]:9s} payoff {spe.payoffs[rec.id]:+.4f} "
          f"(prize {rec.prize_diff:.4f})")
