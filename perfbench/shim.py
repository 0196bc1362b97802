"""Traced entry point: ``python shim.py SPANS_FILE CLI_ARGS...``.

Imports the library, wraps the public functions of every measured module
(plus ``FiniteSpace.irredundant_covers`` and ``Matrix.__matmul__``) in
timing spans, then runs ``cli.main`` on the remaining arguments.  Stdout is
left to the CLI untouched.  Spans stay in memory and are written to
SPANS_FILE as JSON when the call ends:
``{"names": [...], "spans": [[name, start, end, parent], ...],
"counters": {...}}``.
"""

import inspect
import json
import sys
import time

LAYERS = ("cli", "space", "exactalg", "sheaf", "pairing", "symplectic",
          "suites")
# Per-vector and per-scalar helpers are not layer boundaries; wrapping them
# would time the wrapper, not the layer.
SKIP = {"exactalg.dot", "exactalg.add_vectors", "exactalg.scale_vector",
        "exactalg.zero_vector", "suites.rand_scalar"}

clock = time.perf_counter


class Tracer:
    """Spans and counters of one traced call."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []
        self.stack = []
        self.counters = {}

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def bump(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` updates counters
        outside the span."""
        nid = self.name_id(name)
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def wrap_rref(self, fn, rational_field):
        def counts(args, result):
            field, rows, cols = args
            self.bump("exactalg.rref.calls")
            self.bump("exactalg.rref.cells", len(rows) * cols)
            if isinstance(field, rational_field):
                bits = self.counters.get("exactalg.rref.max_bits", 0)
                for row in result[0]:
                    for a in row:
                        bits = max(bits, a.numerator.bit_length(),
                                   a.denominator.bit_length())
                self.counters["exactalg.rref.max_bits"] = bits

        span = self.wrap("exactalg.rref", fn, counts)

        def rref(field, rows_data, cols):
            # materialise the rows once so they can be counted
            if not isinstance(rows_data, (list, tuple)):
                rows_data = list(rows_data)
            return span(field, rows_data, cols)

        rref.__wrapped__ = fn
        return rref

    def install(self, pkg):
        """Replace every binding of a measured public function, in every
        module of the package and in module-level dicts such as
        ``suites.SUITES``, with its wrapper."""
        modules = {name: getattr(pkg, name) for name in LAYERS}
        exactalg = modules["exactalg"]
        after = {
            "pairing.annihilator":
                lambda args, result: self.bump("pairing.annihilator.calls"),
            "sheaf.sheafify":
                lambda args, result: self.bump("sheaf.sheafify.calls"),
        }
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                qual = "%s.%s" % (layer, attr)
                if attr.startswith("_") or qual in SKIP or \
                        not inspect.isfunction(obj) or \
                        obj.__module__ != mod.__name__:
                    continue
                if qual == "exactalg.rref":
                    replace[obj] = self.wrap_rref(obj, exactalg.RationalField)
                else:
                    replace[obj] = self.wrap(qual, obj, after.get(qual))

        for mod in list(modules.values()) + [pkg]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replace:
                            obj[key] = replace[val]

        space_cls = modules["space"].FiniteSpace
        space_cls.irredundant_covers = self.wrap(
            "space.irredundant_covers", space_cls.irredundant_covers,
            lambda args, result: (self.bump("space.irredundant_covers.calls"),
                                  self.bump("space.covers", len(result))))
        matrix_cls = exactalg.Matrix
        matrix_cls.__matmul__ = self.wrap(
            "exactalg.matmul", matrix_cls.__matmul__,
            lambda args, result: (self.bump("exactalg.matmul.calls"),
                                  self.bump("exactalg.matmul.mults",
                                            args[0].rows * args[0].cols
                                            * args[1].cols)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, handle)


def main():
    out_path = sys.argv[1]
    tracer = Tracer()
    t0 = clock()
    import sheafplectic
    import sheafplectic.cli  # noqa: F401  (imports every measured module)
    t1 = clock()
    tracer.spans.append((tracer.name_id("import"), t0, t1, -1))
    tracer.install(sheafplectic)
    try:
        return sheafplectic.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
