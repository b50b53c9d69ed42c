"""The benchmark's workloads: inputs from a seed, rounds, and checks.

Each workload offers
- `setup(seed)`: import the program and build the round's inputs (this is
  what `setup_s` times in fresh interpreters);
- `round(state, tracer=None)`: run one round of operations, returning raw
  outputs (the only part `wall_s` times); a given tracer receives the
  benchmark's own spans around calls into the program;
- `judge(state, outputs)`: one bool per operation, True when its verdict
  equals the paper's published value;
- `independent_checks(state, outputs)`: a list of failure messages from
  checks made apart from the program (sympy, or modular ranks written
  here) or from properties the method must have; run outside the timed
  region.

Only stdlib is imported at module level, so a setup probe pays for nothing
but the program and its inputs.  sympy and numpy load lazily in the checks.
"""

from __future__ import annotations

import json
import random
import re
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "exactcurves" / "data"


def _reset_program_state():
    """Make a round pay what a fresh process pays: parse the corpus curves
    again and number generated extensions from w1 again."""
    from exactcurves import curves, singular
    curves._CORPUS_CACHE.clear()
    singular._EXT_COUNTER[0] = 0


# ---------------------------------------------------------------------------
# octic-germ
# ---------------------------------------------------------------------------

AXIS_POINTS = ((1, 0, 0), (0, 1, 0))


class OcticGerm:
    """Composite certification of one axis germ of the Appendix-B octic.

    The seed picks one of the four (mapping, axis point) germs: the mapping
    is seed mod 2, the point [1:0:0] or [0:1:0] is (seed // 2) mod 2, so
    seed 0 is the first published mapping at [1:0:0].  Traced runs count
    identical field operations for the germs, so the seed changes the
    input and not the work.
    """

    name = "octic-germ"
    truncation = 8

    @staticmethod
    def setup(seed):
        from exactcurves import curves
        mapping = curves.appendix_b_mappings()[seed % 2]
        report = curves.assemble_appendix_b(mapping)
        point = tuple(map(Fraction, AXIS_POINTS[seed // 2 % 2]))
        germ = curves.projective_germ(report["F"], point)
        return {"F": report["F"], "germ": germ}

    @classmethod
    def round(cls, state, tracer=None):
        from exactcurves.singular import certify_composite
        _reset_program_state()
        return [certify_composite(state["germ"], cls.truncation)]

    @staticmethod
    def judge(state, outputs):
        # published: three smooth branches through a triple point with one
        # common tangent and pairwise contact orders (2, 2, 3)
        cert = outputs[0]
        return [cert.verdict == "COMPOSITE_3BRANCH"
                and tuple(cert.contacts or ()) == (2, 2, 3)
                and cert.multiplicity == 3]

    @staticmethod
    def independent_checks(state, outputs):
        from exactcurves import curves
        failures = []
        germ = state["germ"]
        if min(sum(e) for e in germ.f.terms) != 3:
            failures.append("octic germ: lowest degree of the chart "
                            "polynomial is not 3")
        # F is sigma-swap symmetric, so the [0:1:0] chart is the [1:0:0]
        # chart with sigma (zeta -> -1 - zeta) applied to every
        # coefficient: the two axis germs are conjugate and must certify
        # alike.  sigma is applied to raw coordinates here.
        charts = []
        for pt in AXIS_POINTS:
            g = curves.projective_germ(state["F"], tuple(map(Fraction, pt)))
            charts.append({e: _coords(c) for e, c in g.original.terms.items()})
        if charts[1] != {e: _sigma(c) for e, c in charts[0].items()}:
            failures.append("octic germ: the [0:1:0] chart is not the "
                            "sigma-conjugate of the [1:0:0] chart")
        return failures + _certificate_properties(germ.f, outputs[0])


LINE_NOTE = re.compile(r"intersection of the common tangent line with the "
                       r"germ: (\d+)")


def _certificate_properties(f, cert):
    """Properties the composite certificate must have at a triple point with
    one tangent: its tangent cone is the cubic part of the chart and equals
    c*L^3 for its reported L; and the tangent line L = 0 meets the germ
    (order in the line's parameter of f restricted to it) as often as the
    certificate's note adds up from the branch expansions."""
    failures = []
    cone = {e: c for e, c in f.terms.items() if sum(e) == 3}
    if cert.tangent_cone is None or cert.tangent_cone.terms != cone:
        failures.append("octic germ: the certificate's tangent cone is not "
                        "the cubic part of the chart")
    lin = cert.cone_power_of.terms if cert.cone_power_of else {}
    al, be = lin.get((1, 0), 0), lin.get((0, 1), 0)
    cube = {(3 - k, k): binom * al ** (3 - k) * be ** k
            for k, binom in enumerate((1, 3, 3, 1))}
    key = (3, 0) if al else (0, 3)
    if not cube[key] or any(
            cone.get(e, 0) * cube[key] != cone.get(key, 0) * t
            for e, t in cube.items()):
        failures.append("octic germ: the tangent cone is not c*L^3 for the "
                        "certificate's L")
        return failures
    # parametrise L = 0 as (u, v) = (-be*t, al*t); sum the terms of f by
    # the degree of t and find the lowest degree with a nonzero sum
    by_degree = {}
    for (i, j), c in f.terms.items():
        by_degree[i + j] = (by_degree.get(i + j, 0)
                            + c * (-be) ** i * al ** j)
    order = min((n for n, c in by_degree.items() if c), default=None)
    note = next((m for m in map(LINE_NOTE.search, cert.notes) if m), None)
    if note is None or order is None or int(note.group(1)) != order:
        failures.append(f"octic germ: the tangent line meets the chart "
                        f"{order} times, the certificate's branches say "
                        f"{note and note.group(1)}")
    return failures


def _coords(c):
    """Nested coordinate tuple of a tower element (Fractions at the leaves)."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    return tuple(_coords(x) for x in c.coords)


def _sigma(c):
    """a + b*zeta -> (a - b) - b*zeta on coordinates over Q(eta)."""
    a, b = c
    return (tuple(x - y for x, y in zip(a, b)), tuple(-y for y in b))


# ---------------------------------------------------------------------------
# derived-series
# ---------------------------------------------------------------------------

DERIVED_EXPECTED = ["Z/8", "Z/3", "(Z/2)^6", "Z^9 + (Z/2)^5 + Z/4"]


class DerivedSeries:
    """derived_series_quotients(g_symp, 4) on the published presentation.

    The seed does not change the timed input.  An isomorphic relabelling
    (`relabel`) sends the level-4 dense remnant of the sparse invariants
    into coefficient blow-up (past 6 GB), so relabelled presentations are
    only checked to levels 1-3, outside the timed region.
    """

    name = "derived-series"

    @staticmethod
    def setup(seed):
        from exactcurves.groups import CORPUS
        return {"presentation": CORPUS["g_symp"], "seed": seed}

    @staticmethod
    def round(state, tracer=None):
        from exactcurves.groups import derived_series_quotients
        return [derived_series_quotients(state["presentation"],
                                         len(DERIVED_EXPECTED))]

    @staticmethod
    def judge(state, outputs):
        res = outputs[0]
        got = [q.describe() for q in res["quotients"]]
        complete = res["status"] == "complete"
        return [complete and i < len(got) and got[i] == want
                for i, want in enumerate(DERIVED_EXPECTED)]

    @staticmethod
    def independent_checks(state, outputs):
        failures = []
        pres = outputs[0]["presentations"]
        if len(pres) != 4:
            return ["derived series: expected 4 presentations"]
        # levels 1-3 by sympy's Smith normal form
        for level in range(3):
            got = _sympy_invariants(pres[level])
            if got != DERIVED_EXPECTED[level]:
                failures.append(f"derived series level {level + 1}: sympy "
                                f"SNF gives {got}")
        # level 4: the kernel is the raw Schreier presentation, so it has
        # index * (k - 1) + 1 generators (index 64, k generators above)
        big, above = pres[3], pres[2]
        if len(big.generators) != 64 * (len(above.generators) - 1) + 1:
            failures.append("derived series level 4: Schreier generator "
                            "count is not 64*(k-1)+1")
        # Z^9 + (Z/2)^5 + Z/4: corank 9 over GF(3) and GF(p) (no odd
        # torsion), corank 9 + 6 over GF(2)
        rows = _exponent_rows(big)
        n = len(big.generators)
        coranks = {p: n - _rank_mod_p(rows, n, p) for p in (2, 3, 32003)}
        if coranks != {2: 15, 3: 9, 32003: 9}:
            failures.append(f"derived series level 4: coranks mod p "
                            f"{coranks}, expected {{2: 15, 3: 9, 32003: 9}}")
        # an isomorphic relabelling has the same quotients (levels 1-3)
        from exactcurves.groups import derived_series_quotients
        other = relabel(state["presentation"], state["seed"] + 1)
        got = [q.describe() for q in
               derived_series_quotients(other, 3)["quotients"]]
        if got != DERIVED_EXPECTED[:3]:
            failures.append(f"derived series: relabelled presentation "
                            f"gives {got}")
        return failures


def relabel(p, seed):
    """An isomorphic presentation: generators and relators permuted, each
    relator rotated cyclically."""
    from exactcurves.groups import GroupWord, Presentation
    rng = random.Random(seed)
    gens = list(p.generators)
    rng.shuffle(gens)
    rels = []
    for r in p.relators:
        letters = list(r.letters)
        k = rng.randrange(len(letters))
        rels.append(GroupWord(letters[k:] + letters[:k]))
    rng.shuffle(rels)
    return Presentation(gens, rels, p.notes)


def _exponent_rows(p):
    index = {g: j for j, g in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row = [0] * len(index)
        for name, e in r.letters:
            row[index[name]] += e
        rows.append(row)
    return rows


def _describe(rank, torsion):
    """The program's AbelianInvariants.describe format, written apart."""
    parts = [f"Z^{rank}" if rank > 1 else "Z"] if rank else []
    counts = {}
    for t in torsion:
        counts[t] = counts.get(t, 0) + 1
    for t in sorted(counts):
        k = counts[t]
        parts.append(f"(Z/{t})^{k}" if k > 1 else f"Z/{t}")
    return " + ".join(parts) if parts else "0"


def _sympy_invariants(p):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    rows = _exponent_rows(p) or [[0] * len(p.generators)]
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
    return _describe(len(p.generators) - len(diag),
                     [d for d in diag if d > 1])


_RANK_CHUNK = 128   # rows reduced together in _rank_mod_p


def _rank_mod_p(rows, ncols, p):
    """Rank of an integer matrix over GF(p), for p < 2**20, ncols < 2**13.

    Rows are reduced a chunk at a time against a reduced echelon basis,
    then eliminated within the chunk.  The chunk-by-basis product runs in
    float64, which is exact here: its sums stay below ncols * p**2 < 2**53.
    """
    import numpy as np
    a = np.array(rows, dtype=np.int64).reshape(-1, ncols) % p
    basis = np.zeros((0, ncols), dtype=np.int64)
    pivots = []
    for start in range(0, a.shape[0], _RANK_CHUNK):
        c = a[start:start + _RANK_CHUNK]
        if pivots:
            prod = c[:, pivots].astype(np.float64) @ basis.astype(np.float64)
            c = (c - prod.astype(np.int64) % p) % p
        while True:
            nz = np.argwhere(c)
            if not len(nz):
                break
            r, col = nz[0]
            row = c[r] * pow(int(c[r, col]), -1, p) % p
            c = (c - np.outer(c[:, col], row)) % p
            basis = (basis - np.outer(basis[:, col], row)) % p
            basis = np.vstack([basis, row])
            pivots.append(col)
    return len(pivots)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

# The default `exactcurves verify` manifest without its two `deep` checks,
# fixed here so the workload stays the same work when tags change.
MANIFEST_CHECKS = [
    "monodromy-presentation", "monodromy-commutation", "order24-group",
    "derived-series-main", "derived-series-companion", "kernel-consistency",
    "octic-certification", "octic-rederivation", "deltoid-suite",
    "power-map-mechanism", "octic-family-assembly", "quartic-smoothness",
    "real-root-count",
]

C82_SOLUTION_MINPOLY = "y^4 + 2/9*y^2 + 1/33"


class Manifest:
    """One serial pass of the 13 default manifest checks.

    Seed 0 runs them in manifest order; any other seed shuffles the order.
    Each pass starts from an empty corpus cache.
    """

    name = "manifest"

    @staticmethod
    def setup(seed):
        from exactcurves import checks
        ids = list(MANIFEST_CHECKS)
        if seed:
            random.Random(seed).shuffle(ids)
        return {"ids": ids, "run_check": checks.run_check}

    @staticmethod
    def round(state, tracer=None):
        _reset_program_state()
        run_check = state["run_check"]
        out = []
        for cid in state["ids"]:
            with tracer.span(f"checks.{cid}") if tracer else nullcontext():
                out.append(run_check(cid))
        return out

    @staticmethod
    def judge(state, outputs):
        # each check compares against the published values it states in
        # its details' "expected" fields
        return [e["status"] == "pass" and
                all(d.get("ok", True) for d in e["details"].values()
                    if isinstance(d, dict))
                for e in outputs]

    @staticmethod
    def independent_checks(state, outputs):
        return _quartic_smooth_by_groebner() + _rederivation_by_sympy()


def _curve_text(name):
    return json.loads((DATA / "curves.json").read_text())[name]["poly"]


def _sympify(text):
    import sympy
    return sympy.sympify(text.replace("^", "**"))


def _quartic_smooth_by_groebner():
    """c82_quartic: its partials have no common zero in any affine chart."""
    import sympy
    x, y, z = sympy.symbols("x y z")
    f = _sympify(_curve_text("c82_quartic"))
    partials = [sympy.diff(f, v) for v in (x, y, z)]
    for v in (x, y, z):
        rest = [w for w in (x, y, z) if w is not v]
        chart = [sympy.expand(p.subs(v, 1)) for p in partials]
        if list(sympy.groebner(chart, *rest, order="grevlex")) != [1]:
            return [f"c82_quartic: partials share a zero in chart {v}=1"]
    return []


def _rederivation_by_sympy():
    """The program's off-axis solution of the c82 system, substituted into
    the c82 partials (chart z = 1), is zero modulo the published minimal
    polynomial of its coordinate y."""
    import sympy
    from exactcurves.curves import c82_singular_system
    from exactcurves.elim import make_root, solve_system
    names, polys = c82_singular_system()
    rep = solve_system(make_root(names, polys), order=["x"])
    if len(rep["solutions"]) != 1:
        return ["octic-rederivation: expected exactly one solution"]
    sol = rep["solutions"][0]
    w = sympy.Symbol("w")
    vals = {v: sum(sympy.Rational(c.numerator, c.denominator) * w ** i
                   for i, c in enumerate(_coords(sol["assignment"][v])))
            for v in ("x", "y")}
    x, y, z = sympy.symbols("x y z")
    f = _sympify(_curve_text("c82"))
    minpoly = _sympify(C82_SOLUTION_MINPOLY).subs(y, w)
    for v in (x, y, z):
        val = sympy.diff(f, v).subs(z, 1).subs({x: vals["x"], y: vals["y"]})
        if sympy.rem(sympy.expand(val), minpoly, w) != 0:
            return [f"octic-rederivation: d/d{v} of c82 does not vanish "
                    "at the solution"]
    return []


WORKLOADS = {w.name: w for w in (OcticGerm, DerivedSeries, Manifest)}
