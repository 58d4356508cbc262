"""Per-layer spans around the public functions of ``lqgcost``'s modules.

The library's modules bind imported names locally (``from .linalg import
solve_lyapunov``), so a function is wrapped under every module of the package
that binds it, or the calls made through that binding go uncounted.  Class
construction is traced by wrapping ``__init__``, which keeps the class object
itself (and so ``isinstance``) untouched.

Spans stay in memory, in flat arrays, until :meth:`Tracer.write` is called.
A span's self time is its duration minus the durations of the wrapped spans
nested directly inside it.
"""

import array
import functools
import gzip
import sys
import time

PACKAGE = "lqgcost"

#: ``module -> traced names``; a name that is a class traces its construction.
TRACED = {
    "linalg": ("solve_lyapunov", "classify_spectrum", "mat_exp", "van_loan_integral",
               "psd_factor"),
    "cost_lyap": ("cost_stats_lyapunov", "expected_cost_infinite", "variance_cost_infinite"),
    "cost_expm": ("cost_stats_expm", "block_exponential", "auto_cost_stats"),
    "systems": ("LtiSystem", "CostSpec"),
    "lqg": ("solve_riccati", "close_loop_full_state", "close_loop_output_feedback"),
    "moments": ("noise_gramian_finite",),
    "tune": ("minimize_variance", "objective_value", "finite_difference_gradient"),
    "simulate": ("simulate_costs",),
}

#: Every traced layer, as ``module.name``, in report order.
LAYERS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)

_ROOT = -1


class Tracer:
    """Installs the wrappers, records spans and aggregates them per layer."""

    def __init__(self):
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        self.layer = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.child_s = array.array("d")
        self._stack = [_ROOT]
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced name wherever the package binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                layer = self._index[f"{mod_name}.{name}"]
                if isinstance(original, type):
                    init = original.__init__
                    self._undo.append((original, "__init__", init))
                    original.__init__ = self._wrap(init, layer)
                    continue
                wrapper = self._wrap(original, layer)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, func, layer):
        stack = self._stack
        clock = time.perf_counter
        layers, starts, ends = self.layer, self.start, self.end
        parents, child_s = self.parent, self.child_s

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(layers)
            layers.append(layer)
            parents.append(stack[-1])
            child_s.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
                if stack[-1] != _ROOT:
                    child_s[stack[-1]] += t1 - t0

        return traced

    # -- results ------------------------------------------------------------

    def per_layer(self):
        """``{layer: (calls, self_s)}`` for every traced layer, zero when unused."""
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for layer, t0, t1, child in zip(self.layer, self.start, self.end, self.child_s):
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child
        return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYERS)}

    def count_children(self, parent_layer, child_layer):
        """Spans of ``child_layer`` whose direct parent is a ``parent_layer`` span."""
        p, c = self._index[parent_layer], self._index[child_layer]
        layers = self.layer
        return sum(1 for layer, parent in zip(layers, self.parent)
                   if layer == c and parent != _ROOT and layers[parent] == p)

    def write(self, path):
        """Write every span as gzipped CSV: span, layer, start_s, end_s, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,layer,start_s,end_s,parent\n")
            for i, (layer, t0, t1, parent) in enumerate(
                    zip(self.layer, self.start, self.end, self.parent)):
                out.write(f"{i},{LAYERS[layer]},{t0:.9f},{t1:.9f},{parent}\n")
