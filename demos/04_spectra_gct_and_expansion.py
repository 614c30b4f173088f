"""Walk-through: spectra of OR powers, Gershgorin enclosures, and expansion.

Eigenvalues of the adjacency matrix bound the chromatic number from both
sides (Hoffman), and the block structure of OR powers makes those spectra
predictable: Gershgorin discs over blocks and a split into block-diagonal +
cross-block parts enclose lambda_1 without ever materializing large powers.
"""

import numpy as np

from chromacode import (
    Graph,
    chromatic_bounds_spectral,
    cycle_graph,
    cycle_power_largest_eig,
    exact_chromatic_number,
    expansion_bounds,
    expansion_rate,
    gershgorin,
    graph_spectrum,
    jacobi_eigenvalues,
    lambda1_window,
    or_power,
    split_decomposition,
)

# --- the Jacobi solver agrees with numpy ----------------------------------------
g = cycle_graph(5)
ours = jacobi_eigenvalues(g.adjacency_matrix())
oracle = np.sort(np.linalg.eigvalsh(np.asarray(g.adjacency_matrix(), float)))[::-1]
print("spectrum of C5 (Jacobi):", np.round(ours, 4))
print("numpy agrees to", float(np.abs(ours - oracle).max()))

g2 = or_power(g, 2)
print("\ndistinct eigenvalues of C5^2:",
      np.round(sorted(graph_spectrum(g2).distinct()), 5))
print("closed-form lambda_1(C5^2):", cycle_power_largest_eig(5, 2))

# --- Gershgorin: scalar discs on the base, block discs on the power -------------
af1 = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])
scalar = gershgorin(af1.adjacency_matrix(), "scalar")
print("\nscalar Gershgorin intervals of A_f1:", sorted(scalar.intervals))

p2 = or_power(af1, 2)
block = gershgorin(p2.adjacency_matrix(), "block", block_size=5)
print("block-Gershgorin envelope of A_f1^2:", block.scalar_envelope)

# --- split decomposition refines the lambda_1 enclosure --------------------------
rep = split_decomposition(p2)
print(f"\nsplit: lambda_1(cross-block) = {rep.lam_gr[0]:.4f},"
      f" lambda_1(block-diagonal) = {rep.lam_fc[0]:.4f},"
      f" true lambda_1 = {rep.lam_full[0]:.4f}")
w = lambda1_window(af1, 2)
print("lambda_1 window:", w["window"], " refined:", w["refined"],
      f" (solver: {w['lambda_1']:.4f})")

# --- spectral chromatic bounds sandwich the exact number --------------------------
chi, _ = exact_chromatic_number(p2)
print(f"\nchi(A_f1^2) = {chi}")
for variant in ("hoffman-direct", "degree", "general", "gct-split"):
    repb = chromatic_bounds_spectral(variant, g=af1, n=2, power=p2)
    print(f"  {variant:15s} lower {repb.lower:8.3f}  upper {repb.upper}")

# --- expansion rates of powers ----------------------------------------------------
spec2 = graph_spectrum(g2)
lam = max(spec2.values[1], abs(spec2.values[-1]))
print("\nexpansion of C5^2 (Lambda = %.4f):" % lam)
for y in ([0], [0, 1, 2], list(range(10))):
    rate = expansion_rate(g2, y)
    b = expansion_bounds("regular", 5, 2, len(y), d=2, lam=lam)
    print(f"  |Y| = {len(y):2d}: rate {float(rate):6.3f} in [{b.lower:.3f}, {b.upper:.3f}]")
