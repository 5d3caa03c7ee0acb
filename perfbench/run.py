"""dualgraph's benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Set-up writes the workload's inputs, made
from the seed, under perfbench/out/, and times fresh interpreters importing
dualgraph.  Then whole rounds run one after another, each in a fresh
interpreter (perfbench/round.py), until --seconds have passed; a round
checks every output it produced.  The last line of stdout is one JSON
object: correct, attempted, failed, and the metrics (with --trace 1, the
per-layer metrics of traced rounds, medians over the rounds).  The lines
before it list every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

OUT = os.path.join("perfbench", "out")
SETUP_STARTS = 7
ROUND_TIMEOUT_S = 150
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("verify.fujita_s", "s"), ("verify.threshold_s", "s"),
    ("verify.trichotomy_s", "s"), ("verify.axioms_s", "s"),
    ("verify.contraction_s", "s"),
    ("cli.family_build_s", "s"), ("cli.family_ktype_s", "s"),
    ("cli.family_classify_s", "s"), ("cli.graph_ktype_s", "s"),
    ("cli.graph_contract_s", "s"), ("cli.graph_shape_s", "s"),
    ("general.query_s", "s"), ("general.edit_s", "s"),
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_seconds() -> tuple[float, float]:
    """Median time of a fresh interpreter importing dualgraph, scaled to the
    machine's speed (see speed.py) and raw."""
    scaled, raw = [], []
    ref = speed.reference_s()
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import dualgraph"], env=_env(), check=True
        )
        raw.append(time.perf_counter() - start)
        after = speed.reference_s()
        scaled.append(raw[-1] * speed.NOMINAL_S / ((ref + after) / 2))
        ref = after
    return statistics.median(scaled), statistics.median(raw)


def one_round(inputs_path: str, trace_path: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--inputs", inputs_path]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(
        cmd, env=_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_medians(rounds: list[dict]) -> tuple[dict, float]:
    """Each timed metric as the sum over its operations of the operation's
    median over the rounds (every round runs the same operations), and the
    same for the unscaled wall time.  A burst of load that slows a few
    operations in one round is dropped rather than added in."""
    ops = rounds[0]["ops"]
    if any(r["ops"] != ops for r in rounds):
        raise SystemExit("rounds ran different operations")
    times: dict[str, float] = {}
    raw_wall = 0.0
    for i, metric in enumerate(ops):
        scaled = statistics.median(r["seconds"][i] for r in rounds)
        raw_wall += statistics.median(r["raw_seconds"][i] for r in rounds)
        times["wall_s"] = times.get("wall_s", 0.0) + scaled
        if metric != "wall_s":
            times[metric] = times.get(metric, 0.0) + scaled
    return times, raw_wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "dualgraph", "__init__.py")):
        sys.stderr.write("run from the root of a dualgraph checkout (no src/dualgraph)\n")
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = args.workload
    dgn_dir = os.path.join(OUT, f"dgn-{args.workload}")
    os.makedirs(dgn_dir, exist_ok=True)
    inputs_path = os.path.join(OUT, f"inputs-{tag}.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs.build(args.workload, args.seed, dgn_dir), fh)
    setup_s, raw_setup_s = setup_seconds()
    trace_path = os.path.join(OUT, f"trace-{tag}.tsv") if args.trace else None

    # whole rounds until the next one would end nearer past the time than
    # short of it
    rounds = []
    start = time.perf_counter()
    elapsed = 0.0
    while not rounds or elapsed + elapsed / len(rounds) / 2 < args.seconds:
        rounds.append(one_round(inputs_path, trace_path))
        elapsed = time.perf_counter() - start

    for r in rounds:
        for p in r["problems"]:
            sys.stderr.write(f"problem: {p}\n")
    if args.trace:
        names = tracing.metric_names()
        values = {
            name: statistics.median(r["metrics"][name] for r in rounds)
            for name, _ in names
        }
    else:
        names = END_TO_END
        values, raw_wall = op_medians(rounds)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  rounds = {len(rounds)}")
    if not args.trace:
        print(f"{args.workload}  unscaled: setup_s = {raw_setup_s:.6g} s, "
              f"wall_s = {raw_wall:.6g} s")
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
