"""Construct the residue-interleaved families and audit their guarantees.

The split family crt0_set(p, q) has p members of period p*q.  Its three
promises, each checked by a verifier:

  * any two members coincide at most once per period, whatever the shifts;
  * under arbitrary shifts every member keeps at least one conflict-free 1
    (the "nobody can be silenced" property);
  * every window of 2p slots contains a column where nobody transmits.
"""

from protoseq import (crt0_set, is_ui, separation_audit, window_audit,
                      xcorr_bound_audit)

family = crt0_set(3, 5)
print("members:")
for label, seq in family:
    print(f"  {label:3s} ones={seq.ones}")

print()
print("pairwise correlation bound:",
      xcorr_bound_audit(family, 1).verdict)

rep = is_ui(family)
print(f"shift-proof conflict freedom: {rep.verdict} "
      f"({rep.samples} assignments, first shift pinned)")

rep = window_audit(family)
print(f"quiet column in every window of {rep.stats['window']}: {rep.verdict} "
      f"(longest occupied run {rep.stats['max_occupied_run']})")

print("spacing between consecutive 1s:",
      separation_audit(family).stats)

# The same audits scale up; the 5-member family has 45^4 shift assignments.
# Each member's weight, 5, exceeds the sum of its cross-correlation peaks
# against the other four, so is_ui proves "holds" without enumerating them.
big = crt0_set(5, 9)
rep = is_ui(big, jobs=4)
print(f"\ncrt0(5,9): {rep.verdict} over {rep.samples} assignments")

# A composite first factor silently breaks the correlation bound. The audit
# pinpoints the offending pair instead of just failing.
bad = xcorr_bound_audit(crt0_set(4, 7), 1)
print("crt0(4,7) correlation audit:", bad.verdict, bad.counterexample)
