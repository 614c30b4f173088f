"""End-to-end two-source functional compression.

- `build_codec(spec, pmf, n)` returns a `CodecPlan` that decodes f on every
  positive block pair, or raises AmbiguityError naming the first conflicting
  block pair in (b1, b2) order, or GuardExceeded when V1^n or V2^n is past
  the power guard.  Each source colors its single symbols: under full
  support by the parts of f's rows (source 1) or columns (source 2), with no
  graph built, else its characteristic graph, by `power_coloring(g, 1, s)`:
  first-fit under `greedy`, else the least fold's level 1 (a canonical
  cycle's parity or window coloring, or the exact solver's witness).  A block's
  color is the big-endian vector of its symbols' colors, in base the palette
  size k, out of k^n.  Vector colorings are
  valid on the n-block characteristic graph and decode at n exactly when
  the symbol colorings decode (Orlitsky & Roche 2001); under full support
  the part vectors are the coarsest valid coloring of the co-normal power
  (Alon & Orlitsky 1996).  So the plan is its arrays: the symbol
  colorings, k^n color weights and codewords per source, and the k1 x k2
  receiver table of the symbol colorings, read digit by digit (`Receiver`).
  No coloring of the V^n blocks is written out, no OR power is built and
  no χ solver runs past n = 1.  Huffman codes are built on integer color
  weights over the scale D^n, for the common denominator D of the joint PMF.
- `encode_block` and `decode_pair` code one block; `roundtrip_exhaustive`
  checks every positive block pair and raises at the first mismatch.  It and
  `simulate` check block pairs, given as rows of cells, by one checker
  (`_pair_check`): a pair whose codewords decode to their own colors is
  checked cell by cell, and any other pair is decoded by `decode_pair`, the
  one reader of the receiver table.
- `simulate(spec, pmf, n, samples, seed)` returns, byte for byte, the report
  of drawing each block's n cells with `rng.choices` from
  `random.Random(seed)` and coding it block by block, and raises at the
  first mismatching sample in draw order.  It never imports numpy.random
  and keeps nothing from one call to the next.
"""

import json
import random
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import ceil, inf, lcm

from .chargraph import _characteristic_rows, _check_dims, _positive_cells
from .coloring import Coloring, check_strategy, power_coloring
from .entropy import _huffman, entropy_bits
from .errors import ChromacodeError, UsageError
from .graphs import Graph
from .orpower import check_power_guard, encode_tuple


class AmbiguityError(ChromacodeError):
    """Two positive-probability block pairs share colors but disagree on f."""

    def __init__(self, pair_a, pair_b, out_a, out_b):
        super().__init__(
            f"ambiguous color pair: blocks {pair_a} -> {out_a} but {pair_b} -> {out_b}"
        )
        self.witness = (pair_a, pair_b)


SIMULATE_CHUNK = 4096  # block pairs per array pass of `simulate` and `roundtrip_exhaustive`


class Receiver:
    """The receiver at block length n: `table` is the k1 x k2 int64 table of
    the symbol colorings, whose entry [a, b] is the outcome of symbol colors
    a, b, or -1 where no positive cell has that pair.  A block color pair is
    read as n big-endian digit pairs (`_digits`) and decodes when every
    digit pair has an outcome, to the tuple of those outcomes; `len` counts
    these m^n pairs, for the m entries of `table` that are not -1.  Read-only."""

    __slots__ = ("table", "n")

    def __init__(self, table, n):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Receiver is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"Receiver(table={self.table!r}, n={self.n!r})"

    def __len__(self):
        return int((self.table >= 0).sum()) ** self.n

    def __eq__(self, other):
        if not isinstance(other, Receiver):
            return NotImplemented
        a, b = self.table, other.table
        return self.n == other.n and a.shape == b.shape and bool((a == b).all())


class CodecPlan(namedtuple(
    "CodecPlan",
    "spec pmf n symbol_colorings codes color_weights scale avg_lengths decoder inverses",
)):
    """The codec at block length `n` for `spec` under `pmf`.  Per source: `symbol_colorings`, the
    Coloring of single symbols, palette size k; `codes`, Huffman code dicts keyed by block color,
    out of k^n; `color_weights`, {color: integer weight over `scale`} in color order;
    `avg_lengths`, exact Fractions, bits per block; `inverses`, the receiver's {codeword: color}
    codebooks.  `scale` is D^n, for the common denominator D of the joint PMF; `decoder` is the
    Receiver.  A plan keeps a `__dict__`, for `color_pmfs`."""

    @cached_property
    def color_pmfs(self):
        """Exact color PMFs over blocks, {color: Fraction(weight, scale)} per
        source, built on first read and kept."""
        return tuple({c: Fraction(w, self.scale) for c, w in s.items()} for s in self.color_weights)


def _digits(color, k, n):
    """The n big-endian base-k digits of the int `color`, below k^n, as a
    list."""
    return [color // k**p % k for p in range(n - 1, -1, -1)]


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


def _cell_receiver(cells, c1, c2, n=1):
    """The receiver of the vector colorings of c1, c2 at block length n: the
    `Receiver` whose k1 x k2 table of the symbol colorings c1, c2 is filled
    in one pass over `cells`, the positive cells (x1, x2, f(x1, x2)) in
    (x1, x2) order.  A cell has color pair (c1[x1], c2[x2]), key
    color1 * k2 + color2 for c2's palette size k2.  Each key keeps the
    outcome of its first cell; a key that no positive cell has stays -1.
    The first cell that disagrees with its key's outcome raises
    AmbiguityError, naming the key's first cell and that cell.  The witness
    is given at block length n: both block pairs start with n - 1 copies of
    the first positive cell, cells[0], which makes them the first conflict,
    in (b1, b2) order, under the vector colorings.
    """
    import numpy as np
    (a1, k1), (a2, k2) = (c1.assignment, c1.palette_size), (c2.assignment, c2.palette_size)
    table = [-1] * (k1 * k2)
    for x1, x2, out in cells:
        key = a1[x1] * k2 + a2[x2]
        seen = table[key]
        if seen != out:
            if seen < 0:
                table[key] = out
                continue
            y1, y2, _ = next(cell for cell in cells if a1[cell[0]] * k2 + a2[cell[1]] == key)
            p1, p2, pout = ((v,) * (n - 1) for v in cells[0])
            raise AmbiguityError(
                (p1 + (y1,), p2 + (y2,)), (p1 + (x1,), p2 + (x2,)),
                pout + (seen,), pout + (out,),
            )
    return Receiver(np.array(table, dtype=np.int64).reshape(k1, k2), n)


def _integer_pmf(pmf):
    """(D, weights, marginals): the joint PMF as integer cell weights over one
    common denominator D, and their row and column sums.  Each cell is read
    once as (numerator, denominator); Fraction(p) also takes int and float
    cells exactly."""
    ratios = [
        [(p if isinstance(p, Fraction) else Fraction(p)).as_integer_ratio() for p in row]
        for row in pmf.probs
    ]
    D = lcm(*{d for row in ratios for _, d in row})
    weights = [[a * (D // d) for a, d in row] for row in ratios]
    return D, weights, ([sum(row) for row in weights], [sum(col) for col in zip(*weights)])


def build_codec(spec, pmf, n, coloring_strategy="auto", guard=None):
    """Codec plan for length-n blocks.  Each cell of `pmf` counts at its exact
    value `Fraction(p)`, a float at its binary value: the color PMFs of float
    cells whose exact sum is not 1 sum to that sum to the power n.

    Each source colors single symbols, and a block takes the vector of its
    symbols' colors (module docstring).  Under full support the symbol
    coloring is the part coloring whatever the strategy; `coloring_strategy`
    must still name one of `coloring.STRATEGIES`.  With zero cells each
    characteristic graph is colored by `power_coloring(g, 1, coloring_strategy,
    guard)`, the one entry for symbol colorings.  One list of the positive cells
    decides full support, gives both characteristic graphs when there are zero
    cells, and fills the receiver table.  Raises GuardExceeded when V1^n or
    V2^n is past the power guard, before any coloring, and AmbiguityError when
    the symbol colorings do not decode.  The plan keeps the symbol colorings,
    k^n color weights and codewords per source for the symbol palette size k,
    and the symbol colorings' receiver table, at most V1 x V2 entries.
    """
    if n < 1:
        raise UsageError("block length n must be >= 1")
    _check_dims(spec, pmf)
    check_strategy(coloring_strategy)
    for V in (spec.n1, spec.n2):
        check_power_guard(V, n, guard)
    D, weights, marginals = _integer_pmf(pmf)
    cells = _positive_cells(spec.table, weights)
    if len(cells) == spec.n1 * spec.n2:
        # one color per distinct row of f (source 1) or column (source 2)
        c1, c2 = (Coloring.from_list(lines) for lines in (spec.table, zip(*spec.table)))
    else:
        c1, c2 = (
            power_coloring(Graph(len(rows), rows), 1, coloring_strategy, guard)
            for rows in _characteristic_rows(cells, spec.n1, spec.n2)
        )
    decoder = _cell_receiver(cells, c1, c2, n)
    sums = [_block_weights(_color_weights(m, c), n) for m, c in zip(marginals, (c1, c2))]
    # Huffman merges the integer sums, each positive: one common scale keeps order and ties
    codes, totals = zip(*map(_huffman, sums))
    inverses = tuple(dict(zip(code.values(), code)) for code in codes)
    scale = D**n
    return CodecPlan(
        spec, pmf, n, (c1, c2), codes, tuple(dict(enumerate(s)) for s in sums), scale,
        tuple(Fraction(total, scale) for total in totals), decoder, inverses,
    )


def encode_block(plan, source, block):
    """Codeword bits for a length-n source block."""
    if source not in (1, 2):
        raise UsageError("source must be 1 or 2")
    alphabet = plan.spec.n1 if source == 1 else plan.spec.n2
    block = tuple(block)
    if len(block) != plan.n:
        raise UsageError(f"block length {len(block)} != n = {plan.n}")
    encode_tuple(block, alphabet)  # the range check
    symbols = plan.symbol_colorings[source - 1]
    color = 0
    for x in block:
        color = color * symbols.palette_size + symbols.assignment[x]
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
    """Outcome block from the two codewords: their colors' digit pairs read
    from the receiver table.  A color outside its palette, or a digit pair
    with no outcome, raises UsageError."""
    key = (_decode_prefix(plan.inverses[0], bits1), _decode_prefix(plan.inverses[1], bits2))
    table, n = plan.decoder.table, plan.decoder.n
    (k1, k2), (c1, c2) = table.shape, key
    if 0 <= c1 < k1**n and 0 <= c2 < k2**n:
        out = tuple(map(table.item, _digits(c1, k1, n), _digits(c2, k2, n)))
        if -1 not in out:
            return out
    raise UsageError(f"unsupported input: color pair {key} has zero probability")


def _color_tables(plan, source):
    """Per block color of one source: (codeword length, own), own telling
    whether the color's codeword decodes to the color itself; a color
    without a codeword has length 0 and is not own.  Each codeword is
    decoded once through the plan's inverse codebook, so one missing from
    it raises UsageError here."""
    import numpy as np
    code, inverse = plan.codes[source - 1], plan.inverses[source - 1]
    palette = plan.symbol_colorings[source - 1].palette_size ** plan.n
    lengths = np.zeros(palette, dtype=np.int64)
    own = np.zeros(palette, dtype=bool)
    for c, w in code.items():
        own[c] = _decode_prefix(inverse, w) == c
        lengths[c] = len(w)
    return lengths, own


def _pair_check(plan):
    """(check, lengths): the block-pair check of `simulate` and
    `roundtrip_exhaustive`, and per source the codeword length of each block
    color (`_color_tables`), all built once per call.

    `check(cells)` takes a k x n array of cell ids x1 * n2 + x2, row i the
    cells of block pair i, and returns (wrong, colors1, colors2): whether
    the pair's two codewords decode to an outcome other than f, and its two
    block colors.  A pair whose colors decode to themselves is wrong exactly
    when one of its cells is bad (the receiver's entry at the cell's symbol
    colors is not f; -1 is not).  Any other pair is decoded by `decode_pair`
    from its colors' codewords in `plan.codes`; it is wrong when a color has
    no codeword, when `decode_pair` raises UsageError, or when the outcome
    is not f at its cells.
    """
    import numpy as np
    spec, n, table = plan.spec, plan.n, plan.decoder.table
    (k1, k2), (s1, s2) = table.shape, plan.symbol_colorings
    (lengths1, own1), (lengths2, own2) = _color_tables(plan, 1), _color_tables(plan, 2)
    everywhere_own = own1.all() and own2.all()
    sym1 = np.repeat(np.array(s1.assignment, dtype=np.int64), spec.n2)  # per cell
    sym2 = np.tile(np.array(s2.assignment, dtype=np.int64), spec.n1)
    cell_out = np.array(spec.table, dtype=np.int64).ravel()
    cell_bad = table[sym1, sym2] != cell_out
    # the cell at coordinate j adds c1(x1) * k1^(n-1-j) to color 1, kept above
    # the low `shift` bits, and c2(x2) * k2^(n-1-j) to color 2, kept in them;
    # each source's k^n colors are held in `plan.codes` (and its color
    # weights), so the sum, below 2 * k1^n * k2^n, fits in an int64
    shift = (k2**n - 1).bit_length()
    places = [(sym1 * k1**p << shift) + sym2 * k2**p for p in range(n - 1, -1, -1)]

    def misdecodes(color1, color2, cells):
        words = plan.codes[0].get(color1), plan.codes[1].get(color2)
        if None in words:
            return True
        try:
            return decode_pair(plan, *words) != tuple(cell_out[cells].tolist())
        except UsageError:
            return True

    def check(cells):
        both = sum(place[column] for place, column in zip(places, cells.T))
        colors1, colors2 = both >> shift, both & ((1 << shift) - 1)
        wrong = np.zeros(len(cells), dtype=bool)
        for column in cells.T:
            wrong |= cell_bad[column]
        if not everywhere_own:
            for i in np.flatnonzero(~(own1[colors1] & own2[colors2])).tolist():
                wrong[i] = misdecodes(int(colors1[i]), int(colors2[i]), cells[i])
        return wrong, colors1, colors2

    return check, (lengths1, lengths2)


def roundtrip_exhaustive(plan):
    """Round-trip every positive-probability block pair; returns their count
    and raises AssertionError at the first mismatch in (b1, b2) order.

    The pairs are the n-tuples of positive cells, taken SIMULATE_CHUNK at a
    time by their index among those tuples, so memory stays that of one
    chunk, and checked as `simulate` checks its draws (`_pair_check`).  The
    first pair found wrong in each chunk, in (b1, b2) order, is kept, and the
    kept pairs are replayed in (b1, b2) order by `encode_block` and
    `decode_pair`.  A pair is found wrong exactly when its replay raises or
    reports a mismatch, so the first replay does as a walk over the pairs
    would.
    """
    import numpy as np
    spec, n = plan.spec, plan.n
    positive = np.flatnonzero([bool(p) for row in plan.pmf.probs for p in row])
    pairs = positive.size**n
    check = _pair_check(plan)[0]
    bad = []
    for start in range(0, pairs, SIMULATE_CHUNK):
        index = np.arange(start, min(start + SIMULATE_CHUNK, pairs))
        cells = positive[np.stack(np.unravel_index(index, (positive.size,) * n), axis=1)]
        wrong = cells[check(cells)[0]]
        if wrong.size:
            blocks = np.hstack(np.divmod(wrong, spec.n2))  # rows b1 + b2
            first = blocks[np.lexsort(blocks.T[::-1])[0]].tolist()
            bad.append((tuple(first[:n]), tuple(first[n:])))
    for t1, t2 in sorted(bad):
        expected = tuple(spec.f(x1, x2) for x1, x2 in zip(t1, t2))
        got = decode_pair(plan, encode_block(plan, 1, t1), encode_block(plan, 2, t2))
        if got != expected:
            raise AssertionError(f"round-trip mismatch on {t1},{t2}: {got} != {expected}")
    return pairs


class RateReport(namedtuple(
    "RateReport",
    "n samples seed strategy rates expected_rates coloring_entropies source_entropies lossless",
)):
    """One `simulate` run.  Per source: `rates`, empirical bits per source symbol; `expected_rates`,
    the exact average Huffman length / n; `coloring_entropies`, bits per symbol of the color PMFs;
    `source_entropies`, H(X1), H(X2)."""

    __slots__ = ()

    def to_dict(self):
        """The fields by name, the exact expected rates as floats."""
        return {**self._asdict(), "expected_rates": [float(r) for r in self.expected_rates]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


_TOP = 1 << 53  # keys j of `random()` = j * 2^-53 run over 0 <= j < _TOP


def _first_keys(cum):
    """Per edge c, each cumulative weight of `cum` but the last, the least key
    j whose draw fl(j * 2^-53 * total), as `random() * total` rounds it, is
    >= c, or _TOP if none is.  An estimate is checked at j and j + 1; a
    bisection over all keys settles an edge where both fail."""
    import numpy as np
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
    import numpy as np
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


def simulate(spec, pmf, n, samples, seed, coloring_strategy="auto", guard=None):
    """Draw i.i.d. blocks, encode, decode, verify, and report empirical rates.

    The report, and a mismatch's AssertionError naming the first
    mismatching sample in draw order, are those of drawing each block's n
    cells with `rng.choices` from `random.Random(seed)`, coding it with
    `encode_block` and `decode_pair` and comparing with f.  Blocks go
    SIMULATE_CHUNK at a time, so memory does not grow with `samples`, and
    each chunk is checked by `_pair_check`, whose tables, indexed by block
    color, are built once per call.  Entropies come from integer weights.
    """
    import numpy as np
    if samples < 1:
        raise UsageError("samples must be >= 1")
    plan = build_codec(spec, pmf, n, coloring_strategy, guard=guard)
    rng = random.Random(seed)
    draw = _cell_draw([float(p) for row in pmf.probs for p in row])  # cell x1 * n2 + x2
    check, (lengths1, lengths2) = _pair_check(plan)
    bits = [0, 0]
    for start in range(0, samples, SIMULATE_CHUNK):
        k = min(SIMULATE_CHUNK, samples - start)
        drawn = draw(rng, k * n).reshape(k, n)
        wrong, colors1, colors2 = check(drawn)
        bad = np.flatnonzero(wrong)
        if bad.size:
            b1, b2 = (tuple(x.tolist()) for x in np.divmod(drawn[bad[0]], spec.n2))
            raise AssertionError(f"decode mismatch on sample {b1},{b2}")
        bits[0] += int(lengths1[colors1].sum())
        bits[1] += int(lengths2[colors2].sum())
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
