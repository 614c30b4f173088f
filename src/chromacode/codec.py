"""End-to-end two-source functional compression.

- `build_codec(spec, pmf, n)` returns a `CodecPlan` that decodes f on every
  positive block pair, or raises AmbiguityError naming the first conflicting
  block pair in (b1, b2) order, or GuardExceeded when V1^n or V2^n is past
  the power guard.  Each source colors its single symbols: under full
  support by the parts of f's rows (source 1) or columns (source 2), with no
  graph built, else by `coloring.power_coloring` of the characteristic
  graph at n = 1.  A block's color is the big-endian vector of its symbols'
  colors (`_lift_coloring`).  Vector colorings are valid on the n-block
  characteristic graph and decode at n exactly when the symbol colorings
  decode (Orlitsky & Roche 2001), so the receiver is the symbol table read
  digit by digit (`Receiver`); under full support the part vectors are the
  coarsest valid coloring of the co-normal power (Alon & Orlitsky 1996).
  No OR power is built and no χ solver runs past n = 1.  Each source's
  Huffman code is built on integer color weights over the scale D^n, for
  the common denominator D of the joint PMF.
- `encode_block` and `decode_pair` code one block; `roundtrip_exhaustive`
  checks every positive block pair and raises at the first mismatch.
- `simulate(spec, pmf, n, samples, seed)` returns, byte for byte, the report
  of drawing each block's n cells with `rng.choices` from
  `random.Random(seed)` and coding it block by block, and raises at the
  first mismatching sample in draw order.  It never imports numpy.random
  and keeps nothing from one call to the next.
"""

import json
import operator
import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import ceil, inf, lcm

import numpy as np

from .chargraph import _check_dims, build_characteristic_graph
from .coloring import Coloring, check_strategy, power_coloring
from .entropy import _huffman, entropy_bits, huffman_code
from .errors import DEFAULT_GUARD, ChromacodeError, UsageError, resolve_guard
from .orpower import check_power_guard, encode_tuple


class AmbiguityError(ChromacodeError):
    """Two positive-probability block pairs share colors but disagree on f."""

    def __init__(self, pair_a, pair_b, out_a, out_b):
        super().__init__(
            f"ambiguous color pair: blocks {pair_a} -> {out_a} but {pair_b} -> {out_b}"
        )
        self.witness = (pair_a, pair_b)


SIMULATE_CHUNK = 4096  # blocks per array pass of `simulate`


def _digits(value, base, n):
    """The n big-endian base-`base` digits of the integer `value`, as a tuple."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        value, out[i] = divmod(value, base)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Receiver(Mapping):
    """The receiver table at block length n as a read-only mapping
    {(color1, color2): outcome block}, held as the table of the symbol
    colorings: `table` is a k1 x k2 int64 array whose entry [a, b] is the
    outcome, below `base` (the spec's outcome count), of symbol colors a, b,
    or -1 where no positive cell has that color pair.  A block color is read
    as n big-endian digits, in base k1 for color1 and k2 for color2; the
    pair is a key when every digit pair has an outcome, and its value is
    the tuple of those outcomes.  The mapping has m^n keys, for the m
    entries of `table` that are not -1, and none of them is written out.
    Iteration is in (color1, color2) order.
    """

    table: np.ndarray
    base: int
    n: int

    def __getitem__(self, pair):
        try:
            c1, c2 = map(operator.index, pair)
        except (TypeError, ValueError):
            raise KeyError(pair) from None
        (k1, k2), n = self.table.shape, self.n
        if not (0 <= c1 < k1**n and 0 <= c2 < k2**n):
            raise KeyError(pair)
        out = [0] * n
        for i in range(n - 1, -1, -1):  # the digit pairs, last first
            c1, a = divmod(c1, k1)
            c2, b = divmod(c2, k2)
            out[i] = self.table.item(a, b)
        if -1 in out:
            raise KeyError(pair)
        return tuple(out)

    def __iter__(self):
        # color1's digit tuples in order, then the color2 digits present in
        # each of their rows: the keys in (color1, color2) order
        (k1, k2), n = self.table.shape, self.n
        present = [np.flatnonzero(row >= 0).tolist() for row in self.table]
        for a in product(range(k1), repeat=n):
            c1 = encode_tuple(a, k1)
            for b in product(*(present[x] for x in a)):
                yield c1, encode_tuple(b, k2)

    def __len__(self):
        return int(np.count_nonzero(self.table >= 0)) ** self.n

    def __eq__(self, other):
        # at one n and shape, tables that differ at [a, b] differ at the key of digit pairs (a, b)
        same = isinstance(other, Receiver) and self.table.shape == other.table.shape
        if same and self.n == other.n:
            return np.array_equal(self.table, other.table)
        return super().__eq__(other)


@dataclass
class CodecPlan:
    spec: object
    pmf: object
    n: int
    colorings: tuple
    codes: tuple  # Huffman code dicts keyed by color
    color_weights: tuple  # {color: integer weight over `scale`} per source, in color order
    scale: int  # D^n, for the common denominator D of the joint PMF
    avg_lengths: tuple  # exact Fractions, bits per block
    decoder: Receiver  # (color1, color2) -> outcome block tuple, read digit by digit
    inverses: tuple  # {codeword: color} per source, the receiver's codebooks

    @cached_property
    def color_pmfs(self):
        """Exact color PMFs over blocks, {color: Fraction(weight, scale)} per
        source, built on first read and kept."""
        return tuple({c: Fraction(w, self.scale) for c, w in s.items()} for s in self.color_weights)


def _outcomes(spec):
    """The spec's outcome count, the receiver's `base`."""
    return 1 + max(map(max, spec.table))


def _positive_pairs(spec, positive, n):
    """(b1, b2, outs): the positive block pairs as int64 arrays of big-endian
    block indices, in the order of their n-tuples of positive cells, and the
    n x pairs int64 array `outs`, whose row j holds f at each pair's j-th
    cell.  A cell (x1, x2) is positive where `positive[x1][x2]` is nonzero;
    the block indices come out of n Horner passes.
    """
    cells = [
        (x1, x2, spec.f(x1, x2))
        for x1 in range(spec.n1)
        for x2 in range(spec.n2)
        if positive[x1][x2]
    ]
    cx1, cx2, cout = (np.array(col, dtype=np.int64) for col in zip(*cells))
    tuples = np.indices((len(cells),) * n).reshape(n, len(cells) ** n)  # row j: digit j's cell
    b1 = b2 = np.zeros(len(cells) ** n, dtype=np.int64)
    for column in tuples:
        b1 = b1 * spec.n1 + cx1[column]
        b2 = b2 * spec.n2 + cx2[column]
    return b1, b2, cout[tuples]


def _block_weights(marginal, n):
    """Integer weights of i.i.d. n-blocks in block-index order, the repeated
    products of `marginal`, integer symbol weights over a common denominator
    D; over D^n they are the block probabilities."""
    weights = marginal
    for _ in range(n - 1):
        weights = [w * m for w in weights for m in marginal]
    return weights


def _color_weights(marginal, coloring):
    """Integer weight of each color of `coloring`, indexed by color: the sum
    of its symbols' weights in `marginal`."""
    sums = [0] * coloring.palette_size
    for c, w in zip(coloring.assignment, marginal):
        sums[c] += w
    return sums


def _cell_receiver(spec, positive, c1, c2, n=1):
    """The receiver of the vector colorings of c1, c2 at block length n, as
    a `Receiver` over the table of the symbol colorings c1, c2, filled in
    one pass over the cells in (x1, x2) order: a cell (x1, x2) with
    `positive[x1][x2]` nonzero has color pair (c1[x1], c2[x2]), key
    color1 * k2 + color2 for c2's palette size k2.  Each key keeps the
    outcome of its first cell.

    The first cell that disagrees with its key's outcome raises
    AmbiguityError, naming the key's first cell and that cell.  The witness
    is given at block length n: both block pairs start with n - 1 copies of
    the first positive cell, which makes them the first conflict, in
    (b1, b2) order, under the vector colorings of `_lift_coloring`.
    """
    palette2 = c2.palette_size
    first = {}  # key -> (x1, x2, outcome) of its first cell
    for x1, (row, color1, cells) in enumerate(zip(spec.table, c1.assignment, positive)):
        base = color1 * palette2
        for x2, (out, color2, p) in enumerate(zip(row, c2.assignment, cells)):
            if p:
                key = base + color2
                seen = first.get(key)
                if seen is None:
                    first[key] = (x1, x2, out)
                elif seen[2] != out:
                    y1, y2, ref = seen
                    z1 = next(i for i, zs in enumerate(positive) if any(zs))  # first positive cell
                    z2 = next(j for j, z in enumerate(positive[z1]) if z)
                    p1, p2, pout = ((v,) * (n - 1) for v in (z1, z2, spec.table[z1][z2]))
                    raise AmbiguityError(
                        (p1 + (y1,), p2 + (y2,)), (p1 + (x1,), p2 + (x2,)),
                        pout + (ref,), pout + (out,),
                    )
    table = np.full(c1.palette_size * palette2, -1, dtype=np.int64)
    table[list(first)] = [seen[2] for seen in first.values()]
    return Receiver(table.reshape(-1, palette2), _outcomes(spec), n)


def _integer_pmf(pmf):
    """(D, weights, marginals): the joint PMF as integer cell weights over one
    common denominator D, and their row and column sums.  Each cell is read
    once as (numerator, denominator); Fraction(p) also takes int and float
    cells exactly."""
    ratios = [
        [(p if isinstance(p, Fraction) else Fraction(p)).as_integer_ratio() for p in row]
        for row in pmf.probs
    ]
    D = lcm(*(d for row in ratios for _, d in row))
    weights = [[a * (D // d) for a, d in row] for row in ratios]
    return D, weights, ([sum(row) for row in weights], [sum(col) for col in zip(*weights)])


def _lift_coloring(coloring, n):
    """The vector coloring of n-blocks: a block's color is the big-endian
    index, in base the palette size k, of its symbols' colors (Horner over
    plain Python lists), out of k^n colors."""
    colors, k = coloring.assignment, coloring.palette_size
    for _ in range(n - 1):
        colors = [c * k + q for c in colors for q in coloring.assignment]
    return Coloring(tuple(colors), k**n)


def build_codec(spec, pmf, n, coloring_strategy="auto", guard=None):
    """Codec plan for length-n blocks.  Each cell of `pmf` counts at its exact
    value `Fraction(p)`, a float at its binary value: the color PMFs of float
    cells whose exact sum is not 1 sum to that sum to the power n.

    Each source colors single symbols, and a block takes the vector of its
    symbols' colors (module docstring).  Under full support the symbol
    coloring is the part coloring whatever the strategy; `coloring_strategy`
    must still name one of `coloring.STRATEGIES`.  With zero cells it colors
    the characteristic graph.  Raises GuardExceeded when V1^n or V2^n is past
    the power guard, before any coloring, and AmbiguityError when the symbol
    colorings do not decode.  The guard bounds each coloring's length; the
    receiver keeps the symbol colorings' table, at most V1 x V2 entries, at
    every n.
    """
    if n < 1:
        raise UsageError("block length n must be >= 1")
    _check_dims(spec, pmf)
    check_strategy(coloring_strategy)
    guard = resolve_guard(guard, DEFAULT_GUARD)  # CHROMACODE_GUARD, read once
    for V in (spec.n1, spec.n2):
        check_power_guard(V, n, guard)
    D, weights, marginals = _integer_pmf(pmf)
    if all(map(all, weights)):
        # one color per distinct row of f (source 1) or column (source 2)
        c1, c2 = (Coloring.from_list(lines) for lines in (spec.table, zip(*spec.table)))
    else:
        c1, c2 = (
            power_coloring(build_characteristic_graph(spec, pmf, s), 1, coloring_strategy, guard)[1]
            for s in (1, 2)
        )
    decoder = _cell_receiver(spec, weights, c1, c2, n)
    sums = tuple(
        dict(enumerate(_block_weights(_color_weights(m, c), n)))
        for m, c in zip(marginals, (c1, c2))
    )
    # Huffman merges the integer sums: one common scale keeps order and ties
    codes, totals = zip(*map(_color_code, sums))
    inverses = tuple({w: c for c, w in code.items()} for code in codes)
    scale = D**n
    return CodecPlan(
        spec, pmf, n, (_lift_coloring(c1, n), _lift_coloring(c2, n)), codes, sums, scale,
        tuple(Fraction(total, scale) for total in totals), decoder, inverses,
    )


def _color_code(sums):
    """(Huffman code, integer total Σ w·len) of integer color weights
    `sums`.  A color whose blocks all have zero weight sums to 0; then
    `huffman_code` warns and drops it, else `_huffman` codes the sums as
    they are."""
    if min(sums.values()) > 0:
        return _huffman([(w, c) for c, w in sums.items()])
    code, total = huffman_code(sums)
    return code, total.numerator


def encode_block(plan, source, block):
    """Codeword bits for a length-n source block."""
    if source not in (1, 2):
        raise UsageError("source must be 1 or 2")
    alphabet = plan.spec.n1 if source == 1 else plan.spec.n2
    block = tuple(block)
    if len(block) != plan.n:
        raise UsageError(f"block length {len(block)} != n = {plan.n}")
    color = plan.colorings[source - 1].assignment[encode_tuple(block, alphabet)]
    code = plan.codes[source - 1]
    if color not in code:
        raise UsageError("unsupported input: block has zero probability")
    return code[color]


def _decode_prefix(inverse, bits):
    if "" in inverse:  # single-color code: zero bits
        if bits:
            raise UsageError(f"trailing bits {bits!r} for a zero-bit code")
        return inverse[""]
    if bits not in inverse:
        raise UsageError(f"bit string {bits!r} is not a codeword")
    return inverse[bits]


def decode_pair(plan, bits1, bits2):
    """Outcome block from the two codewords, via the receiver lookup table."""
    key = (_decode_prefix(plan.inverses[0], bits1), _decode_prefix(plan.inverses[1], bits2))
    out = plan.decoder.get(key)
    if out is None:
        raise UsageError(f"unsupported input: color pair {key} has zero probability")
    return out


def roundtrip_exhaustive(plan):
    """Round-trip every positive-probability block pair; returns their count
    and raises AssertionError at the first mismatch in (b1, b2) order.

    The pairs, and f at each of their cells, come from Horner passes over
    the positive cells (`_positive_pairs`), in chunks that share their first
    n // 2 cells, so memory stays that of one chunk, about the square root
    of the pair count.  Each block is encoded once through `plan.codes` and
    decoded through `plan.inverses` (`_block_tables`), and a chunk's decoded
    color pairs are read from the receiver digit by digit (`_digit_lookup`)
    in one array pass.  A pair whose colors or digit pairs have no outcome,
    or whose outcome block differs, is replayed in (b1, b2) order by
    `encode_block` and `decode_pair`, which raise or report it as a walk
    over the pairs would.
    """
    spec, n = plan.spec, plan.n
    mismatches = _digit_lookup(plan, _block_tables(plan, 1)[0], _block_tables(plan, 2)[0])
    # a chunk per pair of the first n // 2 cells, over the pairs of the rest
    rest = n - n // 2
    heads = _positive_pairs(spec, plan.pmf.probs, n // 2)
    tail1, tail2, tail_outs = _positive_pairs(spec, plan.pmf.probs, rest)
    blocks2 = spec.n2**n
    bad = []
    for h1, h2, head_outs in zip(heads[0], heads[1], heads[2].T):
        b1, b2 = h1 * spec.n1**rest + tail1, h2 * spec.n2**rest + tail2
        wrong = mismatches(b1, b2, [*head_outs, *tail_outs])
        bad += (b1[wrong] * blocks2 + b2[wrong]).tolist()
    for p in sorted(bad):
        t1, t2 = _digits(p // blocks2, spec.n1, n), _digits(p % blocks2, spec.n2, n)
        expected = tuple(spec.f(x1, x2) for x1, x2 in zip(t1, t2))
        got = decode_pair(plan, encode_block(plan, 1, t1), encode_block(plan, 2, t2))
        if got != expected:
            raise AssertionError(f"round-trip mismatch on {t1},{t2}: {got} != {expected}")
    return heads[0].size * tail1.size


@dataclass
class RateReport:
    n: int
    samples: int
    seed: int
    strategy: str
    rates: tuple  # empirical bits per source symbol, per source
    expected_rates: tuple  # exact avg Huffman length / n, per source
    coloring_entropies: tuple  # bits per symbol of the color PMFs
    source_entropies: tuple  # H(X1), H(X2)
    lossless: bool

    def to_dict(self):
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "strategy": self.strategy,
            "rates": list(self.rates),
            "expected_rates": [float(r) for r in self.expected_rates],
            "coloring_entropies": list(self.coloring_entropies),
            "source_entropies": list(self.source_entropies),
            "lossless": self.lossless,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def _block_tables(plan, source):
    """Per block index of one source: (decoded color, codeword length, own),
    own telling whether the decoded color is the block's color.  Each codeword is
    decoded once through the plan's inverse codebook; a color without one
    decodes to the palette size, which no color pair of the receiver uses."""
    code = plan.codes[source - 1]
    inverse = plan.inverses[source - 1]
    palette = plan.colorings[source - 1].palette_size
    decoded = np.full(palette, palette, dtype=np.int64)
    lengths = np.zeros(palette, dtype=np.int64)
    for c, w in code.items():
        decoded[c] = _decode_prefix(inverse, w)
        lengths[c] = len(w)
    colors = np.array(plan.colorings[source - 1].assignment, dtype=np.int64)
    decoded = decoded[colors]
    return decoded, lengths[colors], decoded == colors


def _digit_lookup(plan, decoded1, decoded2):
    """The receiver read digit by digit, for blocks whose decoded colors are
    `decoded1` and `decoded2` (`_block_tables`), as a function
    `mismatches(b1, b2, wants)`: a bool array over the block pairs (b1, b2),
    true where the receiver's outcome at some coordinate j differs from
    wants[j], an array over the pairs or one outcome for all of them.

    The receiver's k1 x k2 table gets a row and a column of -1 appended and
    is flattened.  Each source's decoded colors are split once into n
    columns of digits, scaled to flat offsets in that table; a color without
    a codeword (decoded to the palette size) takes the appended row or
    column at every digit.  Coordinate j then costs two gathers, one add and
    one table gather, compared with wants[j]; -1 matches no outcome.
    """
    k1, k2 = plan.decoder.table.shape
    table = np.full((k1 + 1, k2 + 1), -1, dtype=np.int64)
    table[:k1, :k2] = plan.decoder.table
    table = table.ravel()
    columns = []
    for decoded, k, scale in ((decoded1, k1, k2 + 1), (decoded2, k2, 1)):
        digits = decoded[:, None] // k ** np.arange(plan.n - 1, -1, -1) % k  # big-endian
        digits[decoded == k**plan.n] = k
        columns.append(list((digits * scale).T))

    def mismatches(b1, b2, wants):
        bad = np.zeros(b1.shape, dtype=bool)
        for c1, c2, want in zip(*columns, wants):
            bad |= table[c1[b1] + c2[b2]] != want
        return bad

    return mismatches


_TOP = 1 << 53  # keys j of `random()` = j * 2^-53 run over 0 <= j < _TOP


def _first_keys(cum):
    """Per edge c, each cumulative weight of `cum` but the last, the least key
    j whose draw fl(j * 2^-53 * total), as `random() * total` rounds it, is
    >= c, or _TOP if none is.  An estimate is checked at j and j + 1; a
    bisection over all keys settles an edge where both fail."""
    total = cum[-1] + 0.0

    def value(j):
        return j * (1.0 / _TOP) * total if j < _TOP else inf

    firsts = []
    for c in cum[:-1]:
        guess = min(max(ceil(c / total * _TOP), 0), _TOP)
        hits = [j for j in (guess, guess + 1) if value(j) >= c and (j == 0 or value(j - 1) < c)]
        firsts.append(hits[0] if hits else bisect_left(range(_TOP), c, key=value))
    return np.array(firsts, dtype=np.int64)


def _cell_draw(weights):
    """`draw(rng, k)`: the cells of `rng.choices(range(len(weights)), weights,
    k=k)` as an intp array, with `rng` left where `choices` leaves it.

    `choices` spends one `random()` per draw and returns the count of edges
    <= `random() * total`.  `random()` is CPython's genrand_res53: words a, b
    of the Mersenne Twister give the key j = (a >> 5) * 2^26 + (b >> 6) over
    2^53, and `getrandbits(64 * k)` returns the next 2k words, least
    significant first.  The draw is non-decreasing in j, so a key's cell is
    the count of first keys (`_first_keys`) <= j.  Buckets are the top B bits
    of a, B = max(12, 4 + the edge count's bit length) up to 16, so under the
    cap at most 1/16 of them hold an edge.  A bucket holds its keys' common
    cell, or -1 where a first key falls strictly inside it; keys in -1 buckets
    are settled by a sorted search of the first keys.
    """
    firsts = _first_keys(list(accumulate(weights)))
    bits = min(max(12, len(firsts).bit_length() + 4), 16)
    width = 53 - bits  # a bucket holds 2^width keys
    table = np.searchsorted(firsts, np.arange(1 << bits, dtype=np.int64) << width, side="right")
    table[firsts[firsts & ((1 << width) - 1) != 0] >> width] = -1

    def draw(rng, k):
        words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
        cells = table[words[0::2] >> (32 - bits)]
        exact = np.flatnonzero(cells < 0)
        if exact.size:
            j = (words[0::2][exact].astype(np.int64) >> 5 << 26) + (words[1::2][exact] >> 6)
            cells[exact] = np.searchsorted(firsts, j, side="right")
        return cells

    return draw


def _choices(rng, weights, k):
    """`rng.choices(range(len(weights)), weights, k=k)` by `simulate`'s draw."""
    return _cell_draw(weights)(rng, k)


def simulate(spec, pmf, n, samples, seed, coloring_strategy="auto", guard=None):
    """Draw i.i.d. blocks, encode, decode, verify, and report empirical rates.

    The report, and a mismatch's AssertionError naming the first
    mismatching sample in draw order, are those of drawing each block's n
    cells with `rng.choices` from `random.Random(seed)`, coding it with
    `encode_block` and `decode_pair` and comparing with f.  Blocks go
    SIMULATE_CHUNK at a time, so memory does not grow with `samples`; every
    table is built once per call.  A sample whose blocks decode to their own
    vector colors mismatches exactly when one of its cells is bad (the
    receiver's entry at its symbol colors is not f); any other is read digit
    by digit (`_digit_lookup`).  Entropies come from integer weights.
    """
    if samples < 1:
        raise UsageError("samples must be >= 1")
    plan = build_codec(spec, pmf, n, coloring_strategy, guard=guard)
    rng = random.Random(seed)
    # cell x1 * n2 + x2 is the pair (x1, x2)
    draw = _cell_draw([float(p) for row in pmf.probs for p in row])
    cell_x1 = np.repeat(np.arange(spec.n1), spec.n2)
    cell_x2 = np.tile(np.arange(spec.n2), spec.n1)
    cell_out = np.array(spec.table).ravel()
    decoded1, lengths1, own1 = _block_tables(plan, 1)
    decoded2, lengths2, own2 = _block_tables(plan, 2)
    everywhere_own = own1.all() and own2.all()
    mismatches = None  # `_digit_lookup`, built for the first sample not own
    # block (0, ..., 0, x) ends in the digit of x's symbol color; a cell is
    # bad where the receiver's entry at its symbol colors is not f (-1 is not)
    symbols = (np.array(c.assignment[:v]) % k for c, v, k in
               zip(plan.colorings, (spec.n1, spec.n2), plan.decoder.table.shape))
    cell_bad = plan.decoder.table[np.ix_(*symbols)].ravel() != cell_out
    # the cell at coordinate j adds x1 * n1^(n-1-j) to block 1's index, kept
    # above the low `shift` bits, and x2 * n2^(n-1-j) to block 2's, kept in
    # them; both colorings are held as tuples, so the sum fits in an int64
    shift = (spec.n2**n - 1).bit_length()
    places = [(cell_x1 * spec.n1**p << shift) + cell_x2 * spec.n2**p for p in range(n - 1, -1, -1)]
    bits = [0, 0]
    for start in range(0, samples, SIMULATE_CHUNK):
        k = min(SIMULATE_CHUNK, samples - start)
        drawn = draw(rng, k * n).reshape(k, n)
        both = sum(place[cells] for place, cells in zip(places, drawn.T))
        idx1, idx2 = both >> shift, both & ((1 << shift) - 1)
        bits[0] += int(lengths1[idx1].sum())
        bits[1] += int(lengths2[idx2].sum())
        wrong = np.zeros(k, dtype=bool)
        for cells in drawn.T:
            wrong |= cell_bad[cells]
        other = () if everywhere_own else np.flatnonzero(~(own1[idx1] & own2[idx2]))
        if len(other):
            mismatches = mismatches or _digit_lookup(plan, decoded1, decoded2)
            wants = [cell_out[cells[other]] for cells in drawn.T]
            wrong[other] = mismatches(idx1[other], idx2[other], wants)
        bad = np.flatnonzero(wrong)
        if bad.size:
            row = drawn[bad[0]]
            b1, b2 = (tuple(int(x) for x in cell_x[row]) for cell_x in (cell_x1, cell_x2))
            raise AssertionError(f"decode mismatch on sample {b1},{b2}")
    D, _, marginals = _integer_pmf(pmf)
    return RateReport(
        n=n,
        samples=samples,
        seed=seed,
        strategy=coloring_strategy,
        rates=tuple(b / (samples * n) for b in bits),
        expected_rates=(plan.avg_lengths[0] / n, plan.avg_lengths[1] / n),
        coloring_entropies=tuple(
            entropy_bits(w / plan.scale for w in s.values()) / n for s in plan.color_weights
        ),
        source_entropies=tuple(entropy_bits(m / D for m in s) for s in marginals),
        lossless=True,
    )
