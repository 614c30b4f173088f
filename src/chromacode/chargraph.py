"""Source characteristic graphs from a function table and an exact joint PMF.

Two symbols of source 1 are joined by an edge iff some side value x2 with
positive joint probability at both makes the function differ; then they need
distinct codes.  All probabilities are exact rationals: the edge rule tests
strict positivity and must not be subject to rounding.
"""

import json
from collections import namedtuple
from fractions import Fraction

from .errors import UsageError, load_json
from .graphs import Graph


class FunctionSpec(namedtuple("FunctionSpec", "n1 n2 table")):
    """f(x1, x2) over alphabets [n1] x [n2]: `table`, n1 rows of n2 outcome ids, 0-based."""

    __slots__ = ()

    @classmethod
    def from_table(cls, table):
        if not table or not table[0] or any(len(row) != len(table[0]) for row in table):
            raise UsageError("function table must be rectangular and nonempty")
        labels = {}
        rows = []
        for row in table:
            out = []
            for label in row:
                if label not in labels:
                    labels[label] = len(labels)
                out.append(labels[label])
            rows.append(tuple(out))
        return cls(len(rows), len(rows[0]), tuple(rows))

    def f(self, x1, x2):
        return self.table[x1][x2]

    def to_dict(self):
        return {"x1": self.n1, "x2": self.n2, "f": [list(r) for r in self.table]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        try:
            spec = cls.from_table(d["f"])
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed function JSON: {exc}") from exc
        if spec.n1 != d.get("x1", spec.n1) or spec.n2 != d.get("x2", spec.n2):
            raise UsageError("declared alphabet sizes do not match table shape")
        return spec

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(load_json(s, "function"))


def _parse_rational(v):
    if isinstance(v, (str, int)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"probability {v!r} must be an exact rational ('num/den' or int)")


class JointPMF(namedtuple("JointPMF", "probs")):
    """Exact-rational joint distribution over [n1] x [n2]: `probs`, n1 rows of n2 Fractions."""

    __slots__ = ()

    def __new__(cls, probs):
        total = sum(p for row in probs for p in row)
        if total != 1:
            raise UsageError(f"joint PMF sums to {total}, not 1")
        if any(p < 0 for row in probs for p in row):
            raise UsageError("joint PMF has a negative entry")
        return super().__new__(cls, probs)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it: check the copy too
        return cls(*iterable)

    @classmethod
    def uniform(cls, n1, n2):
        if n1 < 1 or n2 < 1:
            raise UsageError("uniform PMF needs n1, n2 >= 1")
        p = Fraction(1, n1 * n2)
        return cls(tuple(tuple(p for _ in range(n2)) for _ in range(n1)))

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(Fraction(p) for p in row) for row in rows))

    @property
    def n1(self):
        return len(self.probs)

    @property
    def n2(self):
        return len(self.probs[0])

    def p(self, x1, x2):
        return self.probs[x1][x2]

    def marginal(self, source):
        if source == 1:
            return [sum(row) for row in self.probs]
        if source == 2:
            return [sum(row[j] for row in self.probs) for j in range(self.n2)]
        raise UsageError("source must be 1 or 2")

    def to_dict(self):
        return {"p": [[str(p) for p in row] for row in self.probs]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d, n1=None, n2=None):
        if not (d == "uniform" or isinstance(d, dict)):
            raise UsageError("malformed PMF JSON: expected an object with key 'p'")
        if d == "uniform" or d.get("p") == "uniform":
            if n1 is None or n2 is None:
                raise UsageError("uniform PMF shorthand needs alphabet sizes")
            return cls.uniform(n1, n2)
        try:
            probs = tuple(tuple(_parse_rational(v) for v in row) for row in d["p"])
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed PMF JSON: {exc}") from exc
        if not probs or any(len(row) != len(probs[0]) for row in probs):
            raise UsageError("PMF rows must be rectangular and nonempty")
        return cls(probs)

    @classmethod
    def from_json(cls, s, n1=None, n2=None):
        return cls.from_dict(load_json(s, "PMF"), n1, n2)


def _check_dims(spec, pmf):
    if (spec.n1, spec.n2) != (pmf.n1, pmf.n2):
        raise UsageError(
            f"dimension mismatch: f is {spec.n1}x{spec.n2}, pmf is {pmf.n1}x{pmf.n2}"
        )


def _positive_cells(table, weights):
    """The cells (x1, x2, f(x1, x2)) of `table` whose entry in `weights` is
    nonzero, in (x1, x2) order: the positive cells, as JointPMF rejects
    negative ones."""
    return [
        (x1, x2, f)
        for x1, (fs, ws) in enumerate(zip(table, weights))
        for x2, (f, w) in enumerate(zip(fs, ws))
        if w
    ]


def _characteristic_rows(cells, n1, n2):
    """Adjacency rows of both characteristic graphs, (source 1's, source
    2's), from one list of positive cells (`_positive_cells`) of an n1 x n2
    spec.  Per side value, one bitset holds the symbols positive there and
    one per outcome those of them with that outcome; symbol a's row is the
    union, over the side values where a is positive, of the symbols positive
    there whose outcome differs from a's.
    """
    positive1, positive2 = [0] * n2, [0] * n1  # side value -> symbols positive there
    agree1, agree2 = {}, {}  # f * n2 + x2 (f * n1 + x1) -> those with outcome f
    for x1, x2, f in cells:
        positive1[x2] |= 1 << x1
        positive2[x1] |= 1 << x2
        key1, key2 = f * n2 + x2, f * n1 + x1
        agree1[key1] = agree1.get(key1, 0) | 1 << x1
        agree2[key2] = agree2.get(key2, 0) | 1 << x2
    rows1, rows2 = [0] * n1, [0] * n2
    for x1, x2, f in cells:
        rows1[x1] |= positive1[x2] & ~agree1[f * n2 + x2]
        rows2[x2] |= positive2[x1] & ~agree2[f * n1 + x1]
    return rows1, rows2


def build_characteristic_graph(spec, pmf, source):
    """Characteristic graph of source 1 or 2 (see module docstring), by
    `_characteristic_rows`; each cell is tested for positivity once."""
    _check_dims(spec, pmf)
    if source not in (1, 2):
        raise UsageError("source must be 1 or 2")
    rows = _characteristic_rows(_positive_cells(spec.table, pmf.probs), spec.n1, spec.n2)[source - 1]
    return Graph(len(rows), rows)


def example1_spec():
    """f = (x1 + x2) mod 2 with X1 uniform on {0..3}, X2 uniform on {0,1}."""
    spec = FunctionSpec.from_table([[(x1 + x2) % 2 for x2 in range(2)] for x1 in range(4)])
    return spec, JointPMF.uniform(4, 2)
