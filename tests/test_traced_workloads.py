"""One traced round of each benchmark workload, as `benchmark/run.py
--trace 1` takes it: the layer tracer (benchmark/layertrace.py) wraps its
targets by name and refuses to install when the program has lost one, so a
renamed or removed target fails here before it fails a traced run.  The
benchmark's files are imported and left unchanged."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layertrace  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_gives_published_verdicts(name):
    wl = workloads.WORKLOADS[name]
    # loaded untraced first, as in a traced run, so every module the round
    # calls through is there to wrap
    wl.setup(0)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            state = wl.setup(0)
        verdicts = wl.judge(state, wl.round(state, tracer))
    finally:
        tracer.uninstall()
    assert verdicts and all(verdicts)
    assert tracer.totals
