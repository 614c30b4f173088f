"""Walk-through: OR powers of cycles and the coloring schemes for them.

The n-fold OR power encodes blocks of n source symbols: two blocks conflict
if they conflict at their first differing coordinate. Cycles are the sparsest
connected characteristic graphs, and their powers have closed-form chromatic
behavior: 2^n colors for even cycles, and the 2χ + ceil(χ/2) recursion for
odd ones.
"""

from fractions import Fraction

from chromacode import (
    cycle_graph,
    even_cycle_power_coloring,
    exact_chromatic_number,
    fractional_chromatic_cycle,
    odd_cycle_chi,
    odd_cycle_power_coloring,
    or_power,
)

# --- the power construction ---------------------------------------------------
g2 = or_power(cycle_graph(5), 2)
print("C5^2:", g2.vertex_count, "vertices,", g2.edge_count, "edges,",
      "degree", g2.degree(0), "(regular)")

# --- odd cycles: the chi recursion, confirmed exactly for small n --------------
seq = [odd_cycle_chi(m) for m in range(1, 7)]
print("\nchi(C5^n), n = 1..6:", seq)
for n in (1, 2):
    chi, _ = exact_chromatic_number(or_power(cycle_graph(5), n))
    print(f"  exact solver confirms n={n}: chi = {chi}")

# The recursive window coloring achieves the sequence constructively; compare
# against the naive product coloring that spends 3^n colors.
for n in (2, 3):
    chi, coloring = odd_cycle_power_coloring(5, n)
    gain = Fraction(3**n, chi)
    print(f"  n={n}: scheme uses {coloring.palette_size} colors "
          f"(vs 3^{n} = {3**n} naive, gain {gain} = {float(gain):.3f}x)")

# --- even cycles: parity vectors give exactly 2^n colors -----------------------
print()
for k, n in ((2, 2), (2, 3), (3, 2)):
    c = even_cycle_power_coloring(k, n)
    print(f"C{2*k}^{n}: parity coloring uses {c.palette_size} colors = 2^{n}")

# --- fractional colorings: the chi_f = V/k limit --------------------------------
print("\nb-fold colorings of C5 (independent sets have at most 2 vertices):")
for b in range(1, 5):
    res = fractional_chromatic_cycle(2, b)
    print(f"  b={b}: chi_b = {res['chi_b']} (odd-cycle bound {res['chi_b_lower']}),"
          f" chi_b/b = {Fraction(res['chi_b'], b)}")
chi_f = fractional_chromatic_cycle(2, 2)["chi_f"]
print("chi_f(C5) =", chi_f, " and chi_f(C5^2) =", chi_f**2)
