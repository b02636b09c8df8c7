"""One benchmark process: build a workload's inputs, then run timed cycles.

    python3 bench/worker.py WORKLOAD SEED MODE SECONDS MIN_CYCLES TRACE

MODE ``setup`` stops once the inputs are built and times a few reference
blocks; ``run`` repeats the pool until SECONDS have passed and at least
MIN_CYCLES cycles are done, timing one reference block after every
operation.  The process prints one JSON object on standard output.
``ready_at`` is ``time.monotonic()`` when the inputs were ready, which the
parent compares with its own clock reading taken before starting the
process (the monotonic clock is shared by all processes of the machine).
"""

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REFERENCE_BLOCKS = 20


def reference_block() -> int:
    """Nanoseconds for a fixed block of rational polynomial arithmetic.

    The block does the kind of work eqvlab's kernel does (dicts of exponent
    tuples to ``Fraction``) without calling eqvlab, so its time tracks how
    fast the machine runs at the moment and nothing else.
    """
    rng = Random(0)
    a, b = ({(rng.randrange(6), rng.randrange(6), rng.randrange(3)):
             Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(25)}
            for _ in range(2))
    t0 = time.perf_counter_ns()
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[k] = out.get(k, 0) + ca * cb
    sorted(out.items())
    return time.perf_counter_ns() - t0


def finished(done: int, elapsed: float, seconds: float, min_cycles: int) -> bool:
    """Stop once another cycle of the mean length would overrun SECONDS."""
    return done >= min_cycles and elapsed * (done + 1) / done > seconds


def main(argv) -> int:
    name, seed, mode, seconds, min_cycles, trace = argv
    seed, seconds, min_cycles, trace = int(seed), float(seconds), int(min_cycles), trace == "1"
    out = sys.stdout

    import eqvlab
    import workloads

    if Path(eqvlab.__file__).resolve().parent != ROOT / "src" / "eqvlab":
        raise ImportError(f"eqvlab resolved to {eqvlab.__file__}, not this checkout's src/")
    build, run_op, check = workloads.WORKLOADS[name]
    inputs = build(seed)
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if mode == "setup":
        result["ref_ns"] = [reference_block() for _ in range(SETUP_REFERENCE_BLOCKS)]
        out.write(json.dumps(result) + "\n")
        return 0

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(workloads)
    clock = time.perf_counter_ns
    cycles = []
    errors = []
    started = time.monotonic()
    while True:
        if cycles:
            inputs = None  # free the last pool first, so peak memory holds one pool
            inputs = build(seed)
        if tracer:
            tracer.cycle = len(cycles)
        lat, ok, sizes, refs = [], [], [], []
        for i, inp in enumerate(inputs):
            if tracer:
                tracer.begin(i)
            t0 = clock()
            try:
                res = run_op(inp)
                raised = None
            except (Exception, SystemExit) as exc:  # argparse exits; both count as failed
                raised = exc
            t1 = clock()
            if tracer:
                tracer.end()
            good, size = False, 0
            if raised is None:
                try:
                    good, size = check(inp, res)
                except Exception as exc:  # an unreadable result counts as wrong
                    raised = exc
            if not good and len(errors) < 5:
                why = "wrong answer" if raised is None else f"{type(raised).__name__}: {raised}"
                errors.append(f"op {i}: {why}")
            lat.append(t1 - t0)
            ok.append(good)
            sizes.append(size)
            refs.append(reference_block())
        cycles.append({"latency_ns": lat, "ok": ok, "terms": sizes, "ref_ns": refs})
        if finished(len(cycles), time.monotonic() - started, seconds, min_cycles):
            break
    result.update(
        cycles=cycles,
        errors=errors,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer:
        result.update(spans=tracer.spans, counts=tracer.counts)
    out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
