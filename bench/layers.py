"""Layer probes: wrap chromacode's public functions where its modules bind them.

A probe replaces every binding of a layer function (in its own module, in the
modules that import it and in the package namespace) with a wrapper, and
restores the originals on ``uninstall``.  Two kinds exist:

* a counting probe (``timed=False``) wraps only the few low-frequency
  functions that carry exact work counters.  Untraced runs use it, so every
  run prints the same counts at a cost of a dict update per call to
  ``or_power``, ``exact_chromatic_number``, ``jacobi_eigenvalues``,
  ``build_codec``, ``simulate`` and the entropy windows;
* a timing probe (``timed=True``) wraps every layer function and records one
  span (name, start, end, parent) per call in flat arrays.  Self time of a
  span is its duration minus the durations of its direct children.

Nothing inside ``src/`` changes: spans sit at the call boundaries of each
layer, so private helpers (``encode_tuple`` inside ``encode_block``, the B&B
closure inside ``exact_chromatic_number``) count towards the enclosing layer.
"""

import sys
import time
from array import array

import numpy as np

# Layer -> (module, public function) pairs that make it up.
LAYERS = {
    "graphs.mis": [("graphs", "maximal_independent_sets")],
    "orpower.power": [("orpower", "or_power")],
    "coloring.exact": [("coloring", "exact_chromatic_number")],
    "coloring.scheme": [
        ("coloring", "even_cycle_power_coloring"),
        ("coloring", "odd_cycle_power_coloring"),
        ("coloring", "product_coloring"),
        ("coloring", "greedy_coloring"),
    ],
    "coloring.validate": [("coloring", "is_valid_coloring")],
    "chargraph.build": [("chargraph", "build_characteristic_graph")],
    "entropy.huffman": [("entropy", "huffman_code")],
    "entropy.window": [
        ("entropy", "odd_cycle_entropy_upper_bound"),
        ("entropy", "general_entropy_upper_bound"),
    ],
    "entropy.brute": [("entropy", "chromatic_entropy_bruteforce")],
    "spectral.eig": [("spectral", "jacobi_eigenvalues")],
    "spectral.split": [("spectral", "split_decomposition")],
    "spectral.gct": [("spectral", "gershgorin")],
    "spectral.bounds": [
        ("spectral", "chromatic_bounds_spectral"),
        ("spectral", "lambda1_window"),
    ],
    "expansion": [("expansion", "expansion_rate"), ("expansion", "expansion_bounds")],
    "codec.build": [("codec", "build_codec")],
    "codec.encode": [("codec", "encode_block")],
    "codec.decode": [("codec", "decode_pair")],
    "codec.simulate": [("codec", "simulate")],
    "cli.reproduce": [("cli", "cmd_reproduce")],
}


def _eig_dim3(args, result):
    values = result[0] if isinstance(result, tuple) else result
    return len(values) ** 3


# Exact work counters: layer -> (counter, amount of work done by one call).
COUNTERS = {
    "orpower.power": ("orpower.vertices_built", lambda args, r: r.vertex_count),
    "coloring.exact": ("coloring.exact.vertices", lambda args, r: len(r[1].assignment)),
    "spectral.eig": ("spectral.eig.dim3", _eig_dim3),
    "codec.build": ("codec.decoder_pairs", lambda args, r: len(r.decoder)),
    "codec.simulate": ("blocks_simulated", lambda args, r: r.samples),
}

# Refusals a layer reports by raising: layer -> (counter, exception class name).
REFUSALS = {
    "coloring.exact": ("coloring.exact.refusals", "GuardExceeded"),
    "entropy.window": ("entropy.window.failures", "AssertionError"),
}

COUNT_NAMES = tuple(c for c, _ in COUNTERS.values()) + tuple(c for c, _ in REFUSALS.values())

OP = "op"  # the span of one benchmark operation; layer spans nest inside it


class Probe:
    """Wrappers for one pass of a workload; see the module docstring."""

    def __init__(self, timed):
        self.timed = timed
        self.layers = list(LAYERS) if timed else [l for l in LAYERS if l in COUNTERS or l in REFUSALS]
        self.names = self.layers + [OP]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.active = False  # counting probe: count only while an op runs
        self._saved = []
        self._name = array("B")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    # -- installation ---------------------------------------------------------

    def install(self):
        import chromacode

        modules = [chromacode] + [
            m for name, m in sys.modules.items() if name.startswith("chromacode.")
        ]
        for lid, layer in enumerate(self.layers):
            for module, fname in LAYERS[layer]:
                f = getattr(sys.modules[f"chromacode.{module}"], fname)
                w = self._wrap(lid, layer, f)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is f:
                            self._saved.append((m, attr, f))
                            setattr(m, attr, w)
        return self

    def uninstall(self):
        for m, attr, f in reversed(self._saved):
            setattr(m, attr, f)
        self._saved.clear()

    def _wrap(self, lid, layer, f):
        counts = self.counts
        counter, amount = COUNTERS.get(layer, (None, None))
        refusal, refusal_type = REFUSALS.get(layer, (None, None))

        if not self.timed:

            def counted(*args, **kwargs):
                if not self.active:
                    return f(*args, **kwargs)
                try:
                    r = f(*args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ == refusal_type:
                        counts[refusal] += 1
                    raise
                if counter:
                    counts[counter] += amount(args, r)
                return r

            return counted

        name, parent, start, end, stack = (
            self._name, self._parent, self._start, self._end, self._stack,
        )
        clock = time.perf_counter

        # Layers without counters include encode/decode, called millions of
        # times per stream run: their wrapper does no more than record the span.
        if counter is None and refusal is None:

            def timed(*args, **kwargs):
                i = len(name)
                name.append(lid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return f(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()

            return timed

        def timed_counted(*args, **kwargs):
            i = len(name)
            name.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                r = f(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == refusal_type:
                    counts[refusal] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if counter:
                counts[counter] += amount(args, r)
            return r

        return timed_counted

    # -- one operation --------------------------------------------------------

    def run_op(self, fn):
        """Run one benchmark op inside this probe; returns fn()'s result."""
        if not self.timed:
            self.active = True
            try:
                return fn()
            finally:
                self.active = False
        i = len(self._name)
        self._name.append(len(self.layers))
        self._parent.append(-1)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        try:
            return fn()
        finally:
            self._end[i] = time.perf_counter()
            self._stack.pop()

    # -- results --------------------------------------------------------------

    def layer_table(self):
        """{name: (calls, self seconds)} over every recorded span."""
        names = np.frombuffer(self._name, dtype=np.uint8)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - children
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def span_count(self):
        return len(self._name)

    def write_spans(self, path):
        """Write every span (name id, parent index, start, end) as one .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layer_names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint8),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
        )
