"""One round of a workload, in a fresh interpreter.

    python3 perfbench/round.py --inputs FILE [--trace-out FILE]

Run from the root of a checkout; dualgraph is imported from src/.  Reads the
inputs that run.py wrote, times every operation of the round, checks every
output against the answers in the inputs (or against properties the methods
must have), and prints one JSON line: the speed-scaled and raw seconds of
each timed operation, the peak resident size, attempted, failed, correct and
the problems found.  With --trace-out the public functions of each module
are wrapped (see tracing.py), the per-layer metrics are printed instead of
the operation times, and the spans are written to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, "src")

import checkers as ck  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SUITE_CALLS = {
    # name -> (suite function, kernel keyword, module, kernel); the kernels
    # are passed explicitly because the suites bind them as defaults at import
    "fujita": ("verify_fujita_suite", "adjoint_fn", "twigs", "adjoint"),
    "threshold": ("verify_threshold_suite", "negdef_fn", "graphs", "is_negative_definite"),
    "trichotomy": ("verify_trichotomy_suite", "report_fn", "canonical", "k_type_report"),
    "axioms": ("verify_boundary_axioms_suite", None, None, None),
    "contraction": ("verify_contraction_suite", "blow_fn", "graphs", "blow_down"),
}
WALL_ONLY = "wall_s"  # timed operations that count in wall_s alone


class Round:
    def __init__(self, dg, inputs: dict, tracer: tracing.Tracer | None):
        self.dg = dg
        self.inp = inputs
        self.tracer = tracer
        self.times = speed.Scaled() if tracer is None else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ok = True

    # -- operations -----------------------------------------------------------

    def op(self, metric: str, fn, *args, **kwargs):
        """One timed operation; None if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.span(tracing.TIMED, fn, *args, **kwargs)
        except Exception as exc:  # counted, reported, and the round goes on
            self.failed += 1
            self.problems.append(f"{metric} raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.times is not None:
                self.times.add(metric, perf_counter() - start)

    def excluded(self, fn, *args):
        """An operation kept out of every timing: isomorphic on the ladder,
        which raises RecursionError on deep trees today.  Returns the result,
        or the exception it raised."""
        self.attempted += 1
        try:
            if self.tracer is None:
                return fn(*args)
            return self.tracer.span(tracing.EXCLUDED, fn, *args)
        except Exception as exc:  # the check below tells the known fault apart
            self.failed += 1
            return exc

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            self.ok = False

    def _in_span(self, name: str, fn):
        if self.tracer is None:
            return fn
        return lambda *a, **k: self.tracer.span(name, fn, *a, **k)

    def cli(self, metric: str, argv: list[str]) -> str | None:
        main = self._in_span("cli", self.dg.cli.main)

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            return buf.getvalue()

        return self.op(metric, run)

    # -- the three parts ------------------------------------------------------

    def suites(self) -> list:
        dg = self.dg
        reports = []
        for name, (fn_name, kw, mod, kernel) in SUITE_CALLS.items():
            budget = dg.Budget(**self.inp["budgets"][name])
            fn = self._in_span(f"verify.{name}", getattr(dg.verify, fn_name))
            args = (budget.max_len, budget.max_b_weight) if name == "fujita" else (budget,)
            kwargs = {kw: getattr(getattr(dg, mod), kernel)} if kw else {}
            reports.append((name, self.op(f"verify.{name}_s", fn, *args, **kwargs)))
        return reports

    def ladder(self) -> list:
        dg = self.dg
        outs = []
        for rung in self.inp["ladder"]:
            spec = json.dumps(rung["spec"])
            path = rung["dgn"]
            out = {
                "build": self.cli("cli.family_build_s", ["family", "build", spec]),
                "ktype": self.cli("cli.family_ktype_s", ["family", "ktype", spec]),
                "graph_ktype": self.cli("cli.graph_ktype_s", ["graph", "ktype", path]),
                "shape": self.cli("cli.graph_shape_s", ["graph", "shape", path]),
                "det": self.cli(WALL_ONLY, ["graph", "det", path]),
            }
            if rung["classify"]:
                out["classify"] = self.cli(
                    "cli.family_classify_s", ["family", "classify", path]
                )
            if rung["contract"]:
                out["contract"] = self.cli("cli.graph_contract_s", ["graph", "contract", path])
            fam = dg.FamilyInstance.from_json_dict(rung["spec"])
            out["negdef"] = self.op(
                WALL_ONLY, lambda: dg.is_negative_definite(dg.build_family(fam).minus_c())
            )
            if out["build"] is not None:
                text = json.loads(out["build"])["graph"]
                out["text"] = text
                out["round_trip"] = self.op(
                    WALL_ONLY, lambda: dg.serialize_dgn(dg.parse_dgn(text))
                )
            outs.append(out)
        bounds = []
        for rung in self.inp["bound_rungs"]:
            fam = dg.FamilyInstance.from_json_dict(rung["spec"])
            bounds.append(self.op(
                WALL_ONLY,
                lambda: dg.is_negative_definite(dg.build_family(fam, strict=False).minus_c()),
            ))
        return outs, bounds

    def corpus(self) -> list:
        dg = self.dg
        q, e = "general.query_s", "general.edit_s"
        outs = []
        for item in self.inp["corpus"]:
            out = {}
            g = out["g"] = self.op(q, dg.parse_dgn, item["dgn"])
            if g is None:
                outs.append(out)
                continue
            g0 = out["g0"] = self.op(q, g.minus_c) if item["c"] is not None else g
            out["negdef"] = self.op(q, dg.is_negative_definite, g0)
            out["d"] = self.op(q, dg.graph_d, g0)
            if item["negdef"]:
                out["alpha"] = self.op(q, dg.compute_dnatural, g0)
            if item["c"] is not None:
                out["ktype"] = self.op(q, dg.k_type_report, g)
            out["shape"] = self.op(q, dg.shape_report, g)
            if item["kind"] == "star":
                same = self.op(q, dg.parse_dgn, item["relabelled"])
                other = self.op(q, dg.parse_dgn, item["perturbed"])
                out["iso_same"] = self.op(q, dg.isomorphic, g, same)
                out["iso_other"] = self.op(q, dg.isomorphic, g, other)
                if item["c"] is not None:
                    out["family"] = self.op(q, dg.classify_family, g)
            out["round_trips"] = []
            for u, v, w in item["round_trips"]:
                up = self.op(e, dg.graphs.blow_up_edge, g, u, v, w)
                back = self.op(e, dg.blow_down, up, w) if up is not None else None
                out["round_trips"].append(back)
            blown = g0
            for u, v, w in item["blow_ups"]:
                if blown is not None:
                    blown = self.op(e, dg.graphs.blow_up_edge, blown, u, v, w)
            out["contracted"] = (
                self.op(e, dg.contract_all, blown) if blown is not None else None
            )
            outs.append(out)
        return outs

    # -- checks -----------------------------------------------------------------

    def check_suites(self, reports) -> None:
        counts = self.inp["suite_counts"]
        for name, rep in reports:
            self.check(rep is not None and rep["pass"], f"suite {name} did not pass")
            if rep is None:
                continue
            want = counts.get(name)
            self.check(
                rep["instances"] == want if want is not None else rep["instances"] > 0,
                f"suite {name}: {rep['instances']} instances, expected {want}",
            )
        dg = self.dg
        for s in self.inp["threshold_sample"]:
            spec = dg.FamilyInstance.from_json_dict(s["spec"])
            got = dg.is_negative_definite(dg.build_family(spec, strict=False).minus_c())
            self.check(
                got == s["negdef"] == s["within"],
                f"threshold sample {s['spec']}: program {got}, elimination "
                f"{s['negdef']}, l within bound {s['within']}",
            )

    def check_ladder(self, outs, bounds) -> None:
        for rung, out in zip(self.inp["ladder"], outs):
            spec, key = rung["spec"], json.dumps(rung["spec"])
            n = spec["n"]
            text = out.get("text")
            self.check(
                text is not None and text.count("\nv ") + text.startswith("v ") == rung["vertices"],
                f"{key}: DGN vertex count is not {rung['vertices']}",
            )
            self.check(out.get("round_trip") == text, f"{key}: DGN round trip differs")
            self.check(out["negdef"] is True, f"{key}: not negative definite within the bound")
            self.check(
                _field(out["ktype"], "ktype") == rung["ktype"],
                f"{key}: family ktype is not {rung['ktype']}",
            )
            self.check(
                _field(out["graph_ktype"], "ktype") == rung["ktype"],
                f"{key}: graph ktype is not {rung['ktype']}",
            )
            if "classify" in out:
                self.check(
                    _field(out["classify"], "spec") == spec,
                    f"{key}: classify did not return the generating spec",
                )
            self.check(_field(out["det"], "d") == -1, f"{key}: graph det is not -1")
            shape = _field(out["shape"], "components")
            self.check(
                shape is not None and sorted(c["kind"] for c in shape) == rung["shape"],
                f"{key}: shape kinds are not {rung['shape']}",
            )
            if "contract" in out:
                g = _field(out["contract"], "graph")
                ws = sorted(int(ln.split()[2]) for ln in (g or "").splitlines()
                            if ln.startswith("v "))
                self.check(ws == [-n, 0], f"{key}: contract ended at weights {ws}")
        for rung, got in zip(self.inp["bound_rungs"], bounds):
            self.check(
                got == rung["negdef"],
                f"{rung['spec']}: negdef {got}, expected {rung['negdef']}",
            )

    def isomorphic_ladder(self) -> None:
        """isomorphic(g, g with ids reversed) on every rung, untimed."""
        dg = self.dg
        for rung in self.inp["ladder"]:
            with open(rung["dgn"]) as fh:
                g = dg.parse_dgn(fh.read())
            top = max(g.vertex_ids) + 1
            h = dg.DualGraph(
                {top - v: w for v, w in g.weights.items()},
                [(top - u, top - v) for u, v in g.edges],
                top - g.c,
            )
            got = self.excluded(dg.isomorphic, g, h)
            self.check(
                got is True or isinstance(got, RecursionError),
                f"{json.dumps(rung['spec'])}: isomorphic to its relabelling gave {got}",
            )

    def check_corpus(self, outs) -> None:
        dg = self.dg
        for k, (item, out) in enumerate(zip(self.inp["corpus"], outs)):
            tag = f"corpus graph {k} ({item['kind']})"
            weights = {v: w for v, w in item["weights"]}
            edges = [tuple(x) for x in item["edges"]]
            c = item["c"]
            off_w, off_e = ck.minus(weights, edges, c) if c is not None else (weights, edges)
            self.check(out.get("negdef") == item["negdef"], f"{tag}: negdef")
            self.check(out.get("d") == item["det"], f"{tag}: det {out.get('d')} != {item['det']}")
            if item["negdef"]:
                alpha = out.get("alpha")
                self.check(
                    alpha is not None and ck.residual_ok(off_w, off_e, alpha.coefficients),
                    f"{tag}: adjunction residual",
                )
            if c is not None:
                kt = out.get("ktype")
                want = Fraction(item["pairing"])
                self.check(
                    kt is not None and kt[1] == want
                    and kt[0].value == ck.ktype_of_pairing(want),
                    f"{tag}: k-type {kt}, pairing should be {want}",
                )
            sr = out.get("shape")
            self.check(
                sr is not None and sorted(x.kind for x in sr.components) == item["shape"],
                f"{tag}: shape kinds",
            )
            if item["kind"] == "star":
                self.check(out.get("iso_same") is True, f"{tag}: not isomorphic to relabelling")
                self.check(out.get("iso_other") is False, f"{tag}: isomorphic to perturbed copy")
                fam = out.get("family")
                if isinstance(fam, dg.FamilyInstance):
                    self.check(
                        dg.isomorphic(dg.build_family(fam), out["g"]),
                        f"{tag}: recognized as {fam} but not its instance",
                    )
                elif c is not None:
                    self.check(isinstance(fam, dg.NotInList), f"{tag}: classify gave {fam}")
            for back in out.get("round_trips", []):
                self.check(back == out.get("g"), f"{tag}: blow-up/blow-down round trip")
            self.check(
                out.get("contracted") == out.get("g0"),
                f"{tag}: contract_all did not undo the blow-ups",
            )

    # -- the round ----------------------------------------------------------------

    def run(self) -> dict:
        reports = self.suites()
        ladder, bounds = self.ladder()
        corpus = self.corpus()
        if self.times is not None:
            self.times.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.isomorphic_ladder()
        self.check_suites(reports)
        self.check_ladder(ladder, bounds)
        self.check_corpus(corpus)
        out = {"peak_rss_mb": peak_rss_mb}
        if self.tracer is not None:
            metrics = out["metrics"] = self.tracer.metrics()
            wall = metrics["bench.wall_s"]
            selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
            self.check(
                abs(selfs - wall) <= 1e-9 * wall,
                f"self times add up to {selfs} s, not the traced {wall} s",
            )
        else:
            out.update(ops=self.times.metrics, seconds=self.times.scaled,
                       raw_seconds=self.times.raw)
        return {
            **out,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.ok,
            "problems": self.problems[:20],
        }


def _field(text: str | None, key: str):
    if text is None:
        return None
    return json.loads(text).get(key)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    import dualgraph
    import dualgraph.cli  # noqa: F401  (not imported by the package itself)

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install(dualgraph)
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    result = Round(dualgraph, inputs, tracer).run()
    if tracer is not None:
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
