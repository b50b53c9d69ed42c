"""Self-tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest benchmark/test_benchmark.py
"""

import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layertrace  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7]
    tr = layertrace.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    tr.enter("a")
    tr.enter("b")
    tr.exit()
    tr.enter("c")
    tr.enter("b")
    tr.exit()
    tr.exit()
    tr.exit()
    assert tr.totals == {"a": [1, 10, 3], "b": [2, 4, 4], "c": [1, 4, 3]}
    # a is outermost: the 3 s of its own time are not under a layer span
    assert tr.layer_seconds == 7
    assert [s[1:] for s in tr.spans] == [
        ("b", 1, 4, 1), ("b", 6, 7, 3), ("c", 5, 9, 1), ("a", 0, 10, None)]


def test_layer_value_reads_calls_self_inclusive_and_counters():
    tr = layertrace.Tracer(clock=FakeClock([0, 1, 3, 4]))
    with tr.span("checks.x"):
        with tr.span("fields.mul"):
            pass
    tr.count("elim.leaves", 4)
    tr.peak("abelian.matrix_rows", 7)
    tr.peak("abelian.matrix_rows", 5)
    assert layertrace.layer_value(tr, "fields.mul.calls") == 1
    assert layertrace.layer_value(tr, "fields.mul.s") == 2
    assert layertrace.layer_value(tr, "checks.x.s") == 4   # inclusive
    assert layertrace.layer_value(tr, "elim.leaves") == 4
    assert layertrace.layer_value(tr, "fields.inv.s") == 0
    # per repetition: counts stay whole when they divide, peaks undivided
    assert layertrace.layer_value(tr, "elim.leaves", 2) == 2
    assert layertrace.layer_value(tr, "fields.mul.calls", 2) == 0.5
    assert layertrace.layer_value(tr, "checks.x.s", 2) == 2
    assert layertrace.layer_value(tr, "abelian.matrix_rows", 2) == 7


def test_install_wraps_every_binding_and_uninstall_restores():
    from exactcurves import elim, multipoly, singular
    from exactcurves.fields import FieldElement, NumberField
    orig_res, orig_mul = multipoly.resultant, FieldElement.__mul__
    tr = layertrace.Tracer()
    tr.install()
    try:
        assert singular.resultant is multipoly.resultant is not orig_res
        assert elim.resultant is multipoly.resultant
        assert FieldElement.__rmul__ is FieldElement.__mul__ is not orig_mul
        K = NumberField("a", [Fraction(-2), 0, 1])
        a = K.gen()
        assert a * a == 2
    finally:
        tr.uninstall()
    assert multipoly.resultant is singular.resultant is orig_res
    assert FieldElement.__mul__ is FieldElement.__rmul__ is orig_mul
    assert tr.counters["fields.mul.calls.d1"] == 1
    assert tr.totals["fields.mul"][0] == 1


def test_install_refuses_targets_the_program_no_longer_has():
    from exactcurves import fields
    tr = layertrace.Tracer()
    with pytest.raises(LookupError) as err:
        tr.install(targets=[
            ("gone", "exactcurves.fields", "no_such_function", None),
            ("gone", "exactcurves.fields", "NoSuchClass.method", None),
            ("fields.inv", "exactcurves.fields", "FieldElement.inverse",
             None)])
    assert "exactcurves.fields.no_such_function" in str(err.value)
    assert "exactcurves.fields.NoSuchClass.method" in str(err.value)
    # nothing was installed
    assert not tr._patches
    assert not hasattr(fields.FieldElement.inverse, "__wrapped__")


def test_pacer_scales_each_stretch_by_the_chunk_that_ends_it():
    nominal = pace.CHUNK_NOMINAL_S
    # the host runs at half speed: every chunk takes twice its nominal time
    chunks = iter([2 * nominal])
    # enter at 0; the tick ends a 2 s stretch, its chunk ends at 3; exit at 5
    p = pace.Pacer(interval=1e6, clock=FakeClock([0, 2, 3, 5]),
                   timed=lambda: next(chunks))
    with p:
        p.tick()
    assert p.chunks == [2 * nominal]
    assert p.wall_s == 4
    # both stretches, 2 s each, count at nominal speed as 1 s each
    assert p.paced_s == 2
    assert signal.getsignal(signal.SIGALRM) is not p.tick


def test_pacer_ticks_on_its_own_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer(interval=0.01) as p:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(p.chunks) >= 3
    assert 0 < p.wall_s < 0.25 and p.paced_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_median_of_odd_and_even_counts():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_result_line_has_exactly_the_contract_keys():
    units = {"wall_s": "s", "setup_s": "s"}
    line = run.result_line(True, 13, 0, {"wall_s": 1.25, "setup_s": 0.5},
                           units)
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"] == {"wall_s": {"value": 1.25, "unit": "s"},
                              "setup_s": {"value": 0.5, "unit": "s"}}


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert {f"checks.{c}.s" for c in workloads.MANIFEST_CHECKS} <= names
    spans = {t[0] for t in layertrace.TARGETS}
    for n in names:
        base = n.rsplit(".", 1)[0]
        if n.endswith((".s", ".calls")) and not n.startswith("checks."):
            assert base in spans, n


def test_relabel_keeps_the_abelianization():
    from exactcurves.groups import CORPUS, abelianization
    p = CORPUS["g_symp"]
    q = workloads.relabel(p, 5)
    assert sorted(q.generators) == sorted(p.generators)
    assert abelianization(q) == abelianization(p)
    assert workloads._sympy_invariants(q) == "Z/8"


def test_rank_mod_p_and_describe():
    rows = [[2, 0, 0], [0, 3, 0], [0, 0, 0]]
    assert workloads._rank_mod_p(rows, 3, 2) == 1
    assert workloads._rank_mod_p(rows, 3, 3) == 1
    assert workloads._rank_mod_p(rows, 3, 5) == 2
    assert workloads._describe(9, [2] * 5 + [4]) == "Z^9 + (Z/2)^5 + Z/4"
    assert workloads._describe(0, [8]) == "Z/8"


def test_certificate_properties_hold_and_catch_a_wrong_note():
    from exactcurves.multipoly import MultiPoly
    from exactcurves.singular import CurveGerm, certify_composite
    u, v = (MultiPoly.var(("u", "v"), n) for n in ("u", "v"))
    # branches u = s*v + v^2, s*v + v^2 + v^3, s*v - v^2: contacts (2, 2, 3)
    for s in (0, 2):
        w = u - s * v
        germ = CurveGerm((w - v**2) * (w - v**2 - v**3) * (w + v**2))
        cert = certify_composite(germ, 8)
        assert cert.contacts == (2, 2, 3)
        assert workloads._certificate_properties(germ.f, cert) == []
        cert.notes = [n.replace(": 6 ", ": 7 ") for n in cert.notes]
        assert len(workloads._certificate_properties(germ.f, cert)) == 1
