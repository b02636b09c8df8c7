"""eqvlab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py                       # every workload, untraced
    python3 bench/run.py --workload containment --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload kernel-laws --trace 1
    python3 bench/run.py --self-check --seed 7

Every workload runs single-threaded in fresh Python processes started one
after another (``bench/worker.py``); a ``corpus-cli`` pass is one process.
A run repeats the workload's pool of operations in cycles until the time is
up.

Times are reported at reference speed.  A shared machine runs the same code
up to half again slower for minutes at a time, which no number of repeats
averages away.  So the worker runs a fixed block of pure-Python rational
arithmetic (``worker.reference_block``) after every operation, and each
operation's time is divided by the mean time of the five blocks around it
over ``REFERENCE_NS``.  Raw figures and the slowdown factor are printed
beside the scaled ones.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced and half traced, prints the
per-layer metrics, and writes the spans to ``bench/out/``.  ``--self-check``
runs one seed twice and requires every exact count to repeat.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracer import LAYERS
from worker import finished

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("containment", "corpus-cli", "kernel-laws")
SETUP_LAUNCHES = 7  # setup_s is the median over this many fresh interpreters
MIN_CYCLES = {"containment": 1, "corpus-cli": 4, "kernel-laws": 1}  # corpus: >= 100 operations
DEADLINE_S = 170  # per workload; a run has to end within 180 s
REFERENCE_NS = 2_000_000  # one reference block on an otherwise idle machine
# fixed hash seed: set and dict iteration orders, and so the work done, repeat
ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def launch(workload, seed, mode, seconds, min_cycles, trace, deadline, cwd=None) -> dict:
    """Start one worker process, wait for it, and return its report."""
    started = time.monotonic()
    argv = [sys.executable, str(WORKER), workload, str(seed), mode,
            str(seconds), str(min_cycles), "1" if trace else "0"]
    try:
        proc = subprocess.run(argv, cwd=cwd, env=ENV, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ran past the deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    refs = report.get("ref_ns") or [t for c in report["cycles"] for t in c["ref_ns"]]
    report["setup_s"] = (report["ready_at"] - started) / slowdown(refs)
    return report


def slowdown(ref_ns) -> float:
    """How many times slower than nominal the machine ran these reference blocks."""
    return statistics.fmean(ref_ns) / REFERENCE_NS


def op_slowdowns(cycle) -> list[float]:
    """Per operation, the slowdown over the blocks run two before to two after it."""
    refs = cycle["ref_ns"]
    return [slowdown(refs[max(0, i - 2):i + 3]) for i in range(len(refs))]


def run_workload(workload, seed, seconds, min_cycles, trace, setup_launches, deadline):
    """All processes of one measurement; returns (setup samples, worker reports)."""
    setups, reports = [], []
    if workload == "corpus-cli":
        OUT.mkdir(parents=True, exist_ok=True)
        # the oracle's state files go here, never to the caller's directory
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            started = time.monotonic()
            while not finished(len(reports), time.monotonic() - started, seconds, min_cycles):
                reports.append(launch(workload, seed, "run", 0, 1, trace, deadline, cwd=scratch))
    else:
        for _ in range(setup_launches - 1):
            setups.append(launch(workload, seed, "setup", 0, 0, False, deadline)["setup_s"])
        reports.append(launch(workload, seed, "run", seconds, min_cycles, trace, deadline))
    setups += [r["setup_s"] for r in reports]
    return setups, reports


def end_to_end(setups, reports) -> tuple[dict, dict]:
    """Metric values, plus the facts needed to read them."""
    cycles = [c for r in reports for c in r["cycles"]]
    samples = [t / f / 1e6 for c in cycles for t, f in zip(c["latency_ns"], op_slowdowns(c))]
    attempted = len(samples)
    failed = sum(not ok for c in cycles for ok in c["ok"])
    raw_s = sum(t for c in cycles for t in c["latency_ns"]) / 1e9
    values = {
        "ops_per_s": attempted / (sum(samples) / 1e3),
        "latency_p50_ms": statistics.median(samples),
        "latency_p90_ms": statistics.quantiles(samples, n=10)[8],
        "fail_ratio": failed / attempted,
        "output_terms": sum(cycles[0]["terms"]),
        "peak_rss_mb": max(r["rss_kb"] for r in reports) / 1024,
        "setup_s": statistics.median(setups),
    }
    facts = {
        "ops": len(cycles[0]["latency_ns"]), "cycles": len(cycles),
        "attempted": attempted, "failed": failed,
        "raw_ops_per_s": attempted / raw_s,
        "slowdown": slowdown([t for c in cycles for t in c["ref_ns"]]),
        "setup_launches": len(setups),
        "terms_repeat": all(c["terms"] == cycles[0]["terms"] for c in cycles),
        "errors": [e for r in reports for e in r["errors"]][:5],
    }
    return values, facts


def per_layer(reports) -> tuple[dict, dict]:
    """Per-cycle self time (at reference speed) and counts for every wrapped
    layer function."""
    by_cycle: dict = defaultdict(lambda: defaultdict(Counter))
    top_ns = op_ns = 0
    spans_total = 0
    for k, report in enumerate(reports):
        spans, counts = report["spans"], report["counts"]
        spans_total += len(spans)
        factors = [op_slowdowns(c) for c in report["cycles"]]
        child = [0] * len(spans)
        for _name, start, end, parent, _op, _cycle in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, op, cycle) in enumerate(spans):
            f = factors[cycle][op]
            c = by_cycle[(k, cycle)][name]
            c["calls"] += 1
            c["self_ns"] += (end - start - child[idx]) / f
            c["incl_ns"] += (end - start) / f
            if str(idx) in counts:
                kind, amount = counts[str(idx)]
                c[kind] += amount
            if parent < 0:
                top_ns += (end - start) / f
        op_ns += sum(t / f for c, fs in zip(report["cycles"], factors)
                     for t, f in zip(c["latency_ns"], fs))
    keys = sorted(by_cycle)
    names = sorted({layer[0] for layer in LAYERS} | {"expressions.arith"})

    def exact(name, field):
        seen = {by_cycle[k][name][field] for k in keys}
        if len(seen) > 1:
            raise BenchError(f"{name} {field} differs between cycles: {sorted(seen)}")
        return seen.pop() if seen else 0

    values = {}
    for name in names:
        values[f"{name}.self_s"] = statistics.median(by_cycle[k][name]["self_ns"] for k in keys) / 1e9
        values[f"{name}.calls"] = exact(name, "calls")
        values[f"{name}.terms_out"] = exact(name, "terms")
    instantiations = values["oracle.instantiate.calls"]
    points = exact("oracle.check_identity", "points")
    values["oracle.points_per_attempt"] = points / instantiations if instantiations else 0.0
    parse_ns = sum(by_cycle[k]["parser.parse_expression"]["incl_ns"] for k in keys)
    chars = exact("parser.parse_expression", "chars")
    values["parser.parse_expression.chars_per_s"] = chars * len(keys) / (parse_ns / 1e9) if parse_ns else 0.0
    values["trace.coverage"] = top_ns / op_ns
    facts = {"spans": spans_total, "cycles": len(keys), "op_s_per_cycle": op_ns / 1e9 / len(keys)}
    return values, facts


def write_spans(workload, seed, reports) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for proc, report in enumerate(reports):
            for name, start, end, parent, op, cycle in report["spans"]:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op, "cycle": cycle,
                                    "process": proc}) + "\n")
    return path


def pick(values: dict, specs: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def show(workload, seed, metrics: dict, facts: dict) -> None:
    print(f"{workload}  seed {seed}: {facts['ops']} operations x {facts['cycles']} cycles, "
          f"{facts['failed']} of {facts['attempted']} failed; machine ran "
          f"{facts['slowdown']:.2f}x the reference block time, times below are scaled back")
    notes = {
        "ops_per_s": f"raw {facts['raw_ops_per_s']:.4g} 1/s",
        "latency_p50_ms": f"n={facts['attempted']}",
        "latency_p90_ms": f"n={facts['attempted']}",
        "fail_ratio": f"{facts['failed']} of {facts['attempted']}",
        "output_terms": "one cycle" + ("" if facts["terms_repeat"] else ", NOT repeated by later cycles"),
        "setup_s": f"median of {facts['setup_launches']} fresh interpreters",
    }
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    for err in facts["errors"]:
        print(f"  error: {err}")


def measure(workload, seed, seconds, trace, spec) -> dict:
    """One workload's run: returns the result object for the last output line."""
    deadline = time.monotonic() + DEADLINE_S
    if not trace:
        setups, reports = run_workload(workload, seed, seconds, MIN_CYCLES[workload], False,
                                       SETUP_LAUNCHES, deadline)
        values, facts = end_to_end(setups, reports)
        show(workload, seed, pick(values, spec["e2e"] + [spec["fail_ratio"]]), facts)
        metrics = pick(values, spec["e2e"])
    else:
        setups, plain = run_workload(workload, seed, seconds / 2, 1, False, 1, deadline)
        values, facts = end_to_end(setups, plain)
        show(workload, seed, pick(values, spec["e2e"] + [spec["fail_ratio"]]), facts)
        traced_setups, traced = run_workload(workload, seed, seconds / 2, 1, True, 1, deadline)
        traced_values, traced_facts = end_to_end(traced_setups, traced)
        layers, layer_facts = per_layer(traced)
        layers["trace.overhead_ratio"] = values["ops_per_s"] / traced_values["ops_per_s"]
        path = write_spans(workload, seed, traced)
        print(f"  traced: {layer_facts['spans']} spans over {layer_facts['cycles']} cycles "
              f"-> {path.relative_to(ROOT)}")
        print(f"  trace.overhead_ratio {layers['trace.overhead_ratio']:.3f}   "
              f"trace.coverage {layers['trace.coverage']:.3f}")
        total = layer_facts["op_s_per_cycle"]
        shares = sorted(((v / total, k[:-7]) for k, v in layers.items()
                         if k.endswith(".self_s") and v > 0), reverse=True)
        for share, name in shares:
            print(f"    {share:6.1%}  {name}")
        facts["failed"] += traced_facts["failed"]
        facts["attempted"] += traced_facts["attempted"]
        facts["terms_repeat"] &= traced_facts["terms_repeat"]
        metrics = pick(layers, spec["per_layer"])
    return {
        "correct": facts["failed"] == 0 and facts["terms_repeat"],
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": metrics,
    }


def self_check(workloads, seed) -> bool:
    """Run each workload twice on one seed; every exact count must repeat."""
    same = True
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        seen = []
        for _ in range(2):
            setups, reports = run_workload(workload, seed, 0, 1, True, 1, deadline)
            values, _ = end_to_end(setups, reports)
            layers, _ = per_layer(reports)
            exact = {k: v for k, v in layers.items() if k.endswith((".calls", ".terms_out"))}
            exact["output_terms"] = values["output_terms"]
            seen.append(exact)
        diff = sorted(k for k in seen[0] if seen[0][k] != seen[1][k])
        same &= not diff
        print(f"self-check {workload} seed {seed}: output_terms {seen[0]['output_terms']}, "
              f"{len(seen[0])} exact counts, " + (f"DIFFER: {diff}" if diff else "identical"))
    return same


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "eqvlab" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no eqvlab sources (src/eqvlab, corpus/) under {ROOT}", file=sys.stderr)
        return 2
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        if args.self_check:
            return 0 if self_check(workloads, args.seed) else 1
        spec = {
            "e2e": bench["end_to_end"],
            "per_layer": bench["per_layer"],
            "fail_ratio": {"name": "fail_ratio", "unit": "ratio"},
        }
        results = {w: measure(w, args.seed, args.seconds, args.trace, spec) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
