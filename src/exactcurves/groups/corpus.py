"""The named presentations used throughout the toolkit.

All of them concern the deltoid-with-tangent-lines arrangement and its
quotients:

- ``gdl``: complement group of the deltoid plus two cusp tangents, from
  braid monodromy (two full twists) with the projective-closure relation.
- ``gsdl``: same with the two line meridians forced to commute.
- ``g0``: the free product of two 3-strand braid groups in which the
  monodromy commutation check runs.
- ``g_orb22``: orbifold quotient of ``gsdl`` with all three line
  meridians of order 2.
- ``g_symp``: the 4-generator presentation of the index-4 kernel of
  ``g_orb22`` onto (Z/2)^2.
- ``g2``: 3-generator companion group with the same low derived-series
  quotients but a smaller third one.
- ``cremona24``: order-24 quotient of ``gsdl`` obtained by identifying
  the three line meridians and making them involutions.
"""

from __future__ import annotations

from .braids import BraidWord
from .presentation import Presentation, PresentationError, \
    quotient_by_relations, zvk_presentation

TAU1 = BraidWord(4, (2, 1, 2, 1))     # full twist around the first cusp
TAU2 = BraidWord(4, (2, 3, 2, 3))     # full twist around the second cusp


def _build():
    gdl = zvk_presentation(4, [("l1", TAU1), ("l2", TAU2)], infinity=True)
    gsdl = quotient_by_relations(
        gdl, ["l1^-1*l2^-1*l1*l2"], note="lines commute")
    g0 = Presentation(
        ["c1", "c2", "c3", "c4"],
        ["c1*c2*c1*c2^-1*c1^-1*c2^-1", "c3*c4*c3*c4^-1*c3^-1*c4^-1"],
        notes="free product of two 3-strand braid groups")
    g_orb22 = quotient_by_relations(
        gsdl, ["l1^2", "l2^2", "linf^2"], note="order-2 line meridians")
    g_symp = Presentation(
        ["c1", "c2", "c3", "c4"],
        ["c2^-1*c4^-1*c2*c4",
         "c1^-1*c3^-1*c1*c3",
         "c1*c2*c1*c2^-1*c1^-1*c2^-1",
         "c3*c2*c3*c2^-1*c3^-1*c2^-1",
         "c3*c4*c3*c4^-1*c3^-1*c4^-1",
         "c2*c1*c3*c4*c2*c1*c3*c4"],
        notes="index-4 kernel of g_orb22 onto (Z/2)^2, stated form")
    g2 = Presentation(
        ["x", "y", "z"],
        ["x^-1*z^-1*x*z",
         "x*y*x*y^-1*x^-1*y^-1",
         "y*z*y*z^-1*y^-1*z^-1",
         "x*y^2*z*x*y^2*z"],
        notes="3-generator companion group")
    cremona24 = quotient_by_relations(
        gsdl, ["l1*l2^-1", "l1*linf^-1", "l1^2"],
        note="lines identified and squared; order 24")
    return {"gdl": gdl, "gsdl": gsdl, "g0": g0, "g_orb22": g_orb22,
            "g_symp": g_symp, "g2": g2, "cremona24": cremona24}


CORPUS = _build()

# images of the g_orb22 generators under the surjection onto (Z/2)^2
# whose kernel is (claimed to be) g_symp
ORB22_TO_Z2Z2 = {"c1": (0, 0), "c2": (0, 0), "c3": (0, 0), "c4": (0, 0),
                 "l1": (1, 0), "l2": (0, 1), "linf": (1, 1)}


def get(name: str) -> Presentation:
    if name not in CORPUS:
        raise PresentationError(
            f"unknown group {name!r}; corpus: {sorted(CORPUS)}")
    return CORPUS[name]
