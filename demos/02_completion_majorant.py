#!/usr/bin/env python3
"""Sums with exact phase bookkeeping, and the completion majorant.

Phases are evaluated in wrapping 64-bit fixed point, so they are exact:
what you see below is floating point only from the last step, e(phase), on.  The completion majorant W dominates every prefix of the
sum, and a dual orthogonality identity reconstructs each prefix from the
twisted full-length sums.
"""

import numpy as np

import weylsums as w
from weylsums.expsum import raw_phases, reconstruct_all_prefixes


def direct_terms(polys, raw, N):
    """e(f(n)), n = 1..N, straight from the exact raw phases: an oracle independent of the sums' walker."""
    return np.exp(2j * np.pi * raw_phases(polys, raw, N) * 2.0**-64)


fam = w.classical_family(2)
unit = w.WeightSeq.unit()
rng = np.random.default_rng(42)
u = w.TorusPoint.from_reals(rng.random(2))
N = 256

print(f"point u = {u}")
trace = w.weyl_sum(fam, u, unit, N)
print(f"T(u; {N})      = {trace.value:.6f}   |T| = {abs(trace.value):.4f}")
print(f"max prefix     = {trace.prefix_max:.4f}   (sqrt N = {N**0.5:.1f})")

print()
print("completion majorant, two routes:")
naive = w.completion_naive(fam, u, unit, N)
fast = w.completion_fft(fam, u, unit, N)
print(f"  naive O(N^2)    W = {naive.W:.10f}")
print(f"  FFT O(N log N)  W = {fast.W:.10f}")
print(f"  relative gap      {abs(naive.W - fast.W) / naive.W:.2e}")
print(f"  W >= |T|: {fast.W:.2f} >= {abs(trace.value):.2f}")
print(f"  measured ratio prefix_max / W = {trace.prefix_max / fast.W:.4f}")

print()
print("prefix reconstruction from the twisted spectrum (an exact identity):")
rec = reconstruct_all_prefixes(fam, u, unit, N)
direct = np.cumsum(direct_terms(fam.polys, u.raw, N))
worst = np.abs(rec - direct).max()
print(f"  max |reconstructed - direct| over all M <= {N}: {worst:.2e}")

print()
print("certified supremum over a linear coefficient:")
u1 = w.TorusPoint.from_reals([rng.random()])
c = direct_terms(w.classical_family(1).polys, u1.raw, 128)
res = w.sup_linear_coeff(c, oversample=8)
print(f"  grid max {res.grid_max:.6f} at y = {res.argmax_y:.6f}")
print(f"  certified upper bound {res.certified_upper:.6f} "
      f"(slack {res.certified_upper - res.grid_max:.2e})")

print()
print("window sums via the exact coefficient shift:")
uu = [0.3137, 0.2719]
for M in (0, 17, 1000):
    val = w.short_interval_sum(uu, M, 64)
    print(f"  |sum over n = {M+1}..{M+64}| = {abs(val):.6f}")
