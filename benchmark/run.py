"""Benchmark of exactcurves: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload octic-germ --seed 0 --seconds 10 \
        --trace 0

Run from anywhere; the program is imported from `src/` of the checkout that
holds this file.  With `--trace 0` the run measures the end-to-end metrics
of BENCHMARK.json with no wrappers installed; with `--trace 1` it runs
untraced rounds, then traced repetitions of setup plus round, and reports
the per-layer metrics of BENCHMARK.json per repetition.  Times of the
end-to-end metrics are scaled to a nominal host speed (see `pace.py`).
`--seconds` defaults to `run_seconds` of BENCHMARK.json.  The last line of
standard output is the JSON result; results, round times and a sample of
the span records are also written under `benchmark/out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import pace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# fresh interpreters per run whose median is setup_s
SETUP_PROBES = 11

# A probe pays what a user's process pays before its first verdict:
# interpreter start, importing the program, building the inputs.  It
# reports readiness on stdout; the parent stops its clock on that line.
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4])); "
         "print('ready', flush=True)")


def setup_seconds(workload, seed):
    """Median over fresh interpreters of the time of start-up plus setup,
    each scaled by the host speed read just before and after it."""
    times = []
    for _ in range(SETUP_PROBES):
        chunks = [pace.timed_chunk() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload,
             str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe for {workload} failed "
                               f"(exit {code})")
        chunks += [pace.timed_chunk() for _ in range(3)]
        times.append((t1 - t0) * pace.CHUNK_NOMINAL_S / median(chunks))
    return median(times)


def timed_rounds(wl, state, seconds):
    """Whole rounds until `seconds` have passed (at least one).

    Each round is paced (`pace.Pacer`), judged as soon as it is timed, and
    its outputs are dropped before the next round, so peak memory does not
    grow with the number of rounds.  Returns (one finished Pacer per round,
    one verdict per operation, outputs of the last round).
    """
    paced, oks = [], []
    start = time.perf_counter()
    while True:
        with pace.Pacer() as p:
            out = wl.round(state)
        paced.append(p)
        oks.extend(wl.judge(state, out))
        if time.perf_counter() - start >= seconds:
            return paced, oks, out
        del out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seed, seconds):
    setup_s = setup_seconds(wl.name, seed)
    state = wl.setup(seed)
    paced, oks, last = timed_rounds(wl, state, seconds)
    rss = peak_rss_mb()
    problems = wl.independent_checks(state, last)
    values = {"wall_s": median(p.paced_s for p in paced),
              "setup_s": setup_s, "peak_rss_mb": rss}
    return oks, problems, values, _round_record(paced)


def _round_record(paced):
    return {"paced_s": [p.paced_s for p in paced],
            "wall_s": [p.wall_s for p in paced],
            "chunk_s": [p.chunks for p in paced]}


def run_traced(wl, seed, seconds, units):
    """Untraced rounds for `seconds`, then traced repetitions of setup plus
    round for `seconds`; layer values are per repetition."""
    from layertrace import Tracer, layer_value
    state = wl.setup(seed)
    paced, oks, _ = timed_rounds(wl, state, seconds)
    plain_walls = [p.wall_s for p in paced]

    tracer = Tracer()
    traced_walls = []
    covered = 0.0   # round time under a layer span, below the outermost
    tracer.install()
    try:
        start = time.perf_counter()
        while not traced_walls or time.perf_counter() - start < seconds:
            with tracer.span("setup"):
                state = wl.setup(seed)
            covered0 = tracer.layer_seconds
            t0 = time.perf_counter()
            out = wl.round(state, tracer)
            traced_walls.append(time.perf_counter() - t0)
            covered += tracer.layer_seconds - covered0
            oks.extend(wl.judge(state, out))
    finally:
        tracer.uninstall()
    problems = wl.independent_checks(state, out)
    reps = len(traced_walls)
    values = {}
    for name in units:
        if name == "trace.uncovered_pct":
            values[name] = 100.0 * max(0.0, 1.0 - covered / sum(traced_walls))
        elif name == "trace.overhead_pct":
            values[name] = 100.0 * (median(traced_walls) /
                                    median(plain_walls) - 1.0)
        elif name == "round.wall_s":
            values[name] = median(plain_walls)
        elif name == "pace.chunk_ms":
            values[name] = 1e3 * median(c for p in paced for c in p.chunks)
        else:
            values[name] = layer_value(tracer, name, reps)
    extra = {"untraced_rounds": _round_record(paced),
             "traced_round_walls": traced_walls,
             "spans": tracer.spans, "spans_dropped": tracer.dropped}
    return oks, problems, values, extra


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}})


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "exactcurves" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}/exactcurves",
              file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    sys.path[:0] = [str(SRC), str(BENCH)]
    # the build: byte-compile the program once per checkout, so no probe
    # or round pays for compiling
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    import workloads
    import exactcurves
    if Path(exactcurves.__file__).resolve().parent != SRC / "exactcurves":
        print("benchmark: exactcurves resolved outside this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        oks, problems, values, extra = run_traced(
            wl, args.seed, args.seconds, units)
    else:
        oks, problems, values, extra = run_untraced(
            wl, args.seed, args.seconds)
    attempted, failed = len(oks), oks.count(False)
    correct = not problems
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    for name in units:
        print(f"{name:40s} {values[name]!r} {units[name]}")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    line = result_line(correct, attempted, failed, values, units)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    kind = "trace" if args.trace else "rounds"
    (OUT / f"{kind}-{tag}.json").write_text(json.dumps(extra) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
