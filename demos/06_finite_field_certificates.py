"""Finite-field certificates for the two geometric smoothness statements.

The characteristic-0 facts (the Lagrangian contains no decomposable
trivector; the threefold section is smooth) are certified by Groebner
bases over prime fields: a nonempty scheme over Q stays nonempty modulo
all but finitely many primes, so emptiness at two independent primes is
strong evidence while remaining an honest finite computation.
"""

import time

from kleinepw.groebner import (
    decomposable_pullback_ideal,
    gm_threefold_ideal,
    projective_empty,
    smoothness_check,
)

for p in (32003, 65537):
    t0 = time.time()
    ideal = decomposable_pullback_ideal(p)
    empty, _ = projective_empty(ideal)
    print(
        f"prime {p}: pullback cone of decomposable trivectors is empty: "
        f"{empty} ({time.time()-t0:.1f}s, {len(ideal)} quadrics in 10 variables)"
    )

for p in (32003, 65537):
    t0 = time.time()
    ok, info = smoothness_check(gm_threefold_ideal(p), 4)
    print(
        f"prime {p}: threefold section smooth: {ok} "
        f"({time.time()-t0:.1f}s, {info['minors_used']} Jacobian minors)"
    )

print("\nverdict semantics: emptiness at a single prime is evidence, not a")
print("characteristic-0 proof; the verification suite requires agreement at")
print("two primes and labels results \"verified at primes {...}\".")
