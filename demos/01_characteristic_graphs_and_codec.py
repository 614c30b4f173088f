"""Walk-through: from a function spec to a working two-source codec.

Two sources X1 in {0..3} and X2 in {0,1} are drawn uniformly, and a receiver
only wants f(x1, x2) = (x1 + x2) mod 2. Instead of shipping both sources at
full entropy (2 + 1 bits), each encoder colors its characteristic graph and
Huffman-codes the color, landing at 1 bit per source per symbol.
"""

from chromacode import (
    build_characteristic_graph,
    build_codec,
    decode_pair,
    encode_block,
    example1_spec,
    roundtrip_exhaustive,
    simulate,
)

spec, pmf = example1_spec()
print("function table (rows = x1, cols = x2):")
for row in spec.table:
    print("   ", list(row))

# The characteristic graph of a source joins two symbols whenever some
# positive-probability side value makes f differ: those symbols must never
# share a codeword.
g1 = build_characteristic_graph(spec, pmf, 1)
g2 = build_characteristic_graph(spec, pmf, 2)
print("\nG_X1 edges:", g1.edges(), "(the 4-cycle: parity classes {0,2} / {1,3})")
print("G_X2 edges:", g2.edges(), "(K2: the two symbols always matter)")

# Build the codec for blocks of n = 2 symbols. Every cell is positive, so
# each characteristic graph is complete multipartite (one part per distinct
# row, or column, of f) and a block is colored by its vector of parts; a
# lookup table on color pairs decodes f exactly.
plan = build_codec(spec, pmf, 2)
print("\nblock length n = 2")
print("palette sizes:", [c.palette_size ** plan.n for c in plan.symbol_colorings])
print("avg codeword lengths (bits/block):", [str(a) for a in plan.avg_lengths])

bits1 = encode_block(plan, 1, (3, 0))
bits2 = encode_block(plan, 2, (1, 1))
print(f"\nencode x1-block (3,0) -> {bits1!r}, x2-block (1,1) -> {bits2!r}")
print("decode ->", decode_pair(plan, bits1, bits2), "(= f applied coordinate-wise)")

count = roundtrip_exhaustive(plan)
print(f"\nexhaustive check: all {count} positive-probability block pairs round-trip")

# Monte Carlo: the empirical rate converges to the Huffman average of the
# color distribution, here exactly 1 bit per source symbol.
report = simulate(spec, pmf, n=1, samples=50_000, seed=7)
print("\nsimulated rates (bits/symbol):", [round(r, 4) for r in report.rates])
print("expected rates:", [float(r) for r in report.expected_rates])
print("lossless:", report.lossless)
