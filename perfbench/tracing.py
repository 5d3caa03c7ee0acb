"""Spans around dualgraph's public functions, installed from outside.

The tracer replaces each listed function, wherever a dualgraph module holds
it (the suites and the CLI import names into their own namespaces), by a
wrapper that records one span: name, start, end and parent.  Spans stay in
memory and are written out at the end.  Self time is a span's duration
minus that of its direct children.  Only spans under a timed root count
towards self time; calls and raised count every call.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# module -> public functions wrapped; "DualGraph.minus_c" is a method
WRAPPED = {
    "twigs": ("adjoint", "twig_from_inductance", "inductance", "twig_determinant"),
    "families": (
        "build_family", "classify_family", "classify_family_all",
        "predicted_k_type", "l_bound", "trivial_threshold", "figure1_graph",
    ),
    "graphs": (
        "DualGraph.minus_c", "is_negative_definite", "graph_d",
        "signed_determinant", "is_tree", "shape_report", "isomorphic",
        "contract_all", "blow_down", "blow_up_edge",
    ),
    "canonical": ("compute_dnatural", "c_pairing", "k_type_report"),
    "dgn": ("parse_dgn", "serialize_dgn"),
}
SUITES = ("fujita", "threshold", "trichotomy", "axioms", "contraction")
# remainders: the suites' own loops and the CLI's argument and JSON handling
REMAINDERS = tuple(f"verify.{s}" for s in SUITES) + ("cli",)
COUNTS = ("graphs.vertices_in", "graphs.contract_all.blowdowns", "dgn.bytes")
TIMED, EXCLUDED = "bench", "excluded"


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in function_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.raised", "count")]
    out += [(f"{r}.self_s", "s") for r in REMAINDERS]
    out += [(c, "count") for c in COUNTS]
    out += [("bench.self_s", "s"), ("bench.wall_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, timed)
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        parent = self.stack[-1] if self.stack else -1
        timed = name == TIMED or (parent >= 0 and self.spans[parent][4])
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, timed))
        self.stack.append(idx)
        self.calls[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[name] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, timed)

    def _wrap(self, name: str, fn):
        graph_layer = name.startswith("graphs.")

        def wrapper(*args, **kwargs):
            if not self.stack:  # the benchmark's own checks: not recorded
                return fn(*args, **kwargs)
            if graph_layer and not self._inside("graphs."):
                self.counts["graphs.vertices_in"] += sum(
                    len(a) for a in args[:2] if type(a).__name__ == "DualGraph"
                )
            out = self.span(name, fn, *args, **kwargs)
            if name == "graphs.contract_all":
                self.counts["graphs.contract_all.blowdowns"] += len(args[0]) - len(out)
            elif name == "dgn.parse_dgn":
                self.counts["dgn.bytes"] += len(args[0])
            elif name == "dgn.serialize_dgn":
                self.counts["dgn.bytes"] += len(out)
            return out

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _inside(self, prefix: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0].startswith(prefix)

    # -- installing -----------------------------------------------------------

    def install(self, package) -> None:
        """Replace every listed function in every loaded dualgraph module."""
        modules = [
            m for k, m in sys.modules.items()
            if k == package.__name__ or k.startswith(package.__name__ + ".")
        ]
        for mod, fns in WRAPPED.items():
            home = sys.modules[f"{package.__name__}.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(home, fn)
                wrapped = self._wrap(name, original)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, key, wrapped)

    # -- reporting ------------------------------------------------------------

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, timed) in enumerate(self.spans):
            if timed:
                out[name] += end - start - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = {}
        for name in function_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = selfs[name]
            out[f"{name}.raised"] = self.raised[name]
        for r in REMAINDERS:
            out[f"{r}.self_s"] = selfs[r]
        for c in COUNTS:
            out[c] = self.counts[c]
        out["bench.self_s"] = selfs[TIMED]
        out["bench.wall_s"] = sum(
            end - start for name, start, end, _, _ in self.spans if name == TIMED
        )
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\ttimed\n")
            for name, start, end, parent, timed in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{int(timed)}\n")
