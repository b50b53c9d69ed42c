"""Tests for the finitely presented group engine."""

import itertools
import os
import random
import subprocess
import sys

import pytest

from exactcurves.groups import (
    CORPUS, ORB22_TO_Z2Z2, TAU1, TAU2,
    AbelianInvariants, BraidError, BraidWord, CosetError, FiniteGroup,
    GroupWord, HomError, Presentation, PresentationError, RewriteError,
    WordError, abelianization, abelianization_with_images, artin_act,
    count_homs, derived_series_quotients, g0_equal, g0_is_trivial,
    quotient_by_relations, rs_kernel, smith_normal_form, standard_target,
    todd_coxeter, tietze_simplify, verify_g0_relations, word,
)
from exactcurves.groups import abelian, rewriting
from exactcurves.groups.abelian import _back_substitute, _reduce_packed
from exactcurves.groups.burau import G0Error


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

class TestWords:
    def test_free_reduction_on_construction(self):
        w = GroupWord([("a", 1), ("b", 1), ("b", -1), ("a", -1)])
        assert w.is_identity()

    def test_text_round_trip(self):
        t = "l2^-1*c4*l2*c2^-1"
        assert word(t).to_text() == t

    def test_exponent_run_length(self):
        assert word("x^3*y^-2").to_text() == "x^3*y^-2"
        assert word("x^3*y^-2").letters == (
            ("x", 1), ("x", 1), ("x", 1), ("y", -1), ("y", -1))

    def test_names_must_be_identifiers(self):
        # a stray bracket is not read as part of a generator name
        with pytest.raises(WordError, match=r"'\(c1'"):
            word("(c1")
        with pytest.raises(WordError, match=r"'\(c2\)'"):
            todd_coxeter(CORPUS["cremona24"]).word_permutation("(c2)")

    def test_identity_text(self):
        assert word("1").is_identity()
        assert GroupWord().to_text() == "1"

    def test_mul_inverse(self):
        u, v = word("a*b"), word("b^-1*c")
        assert (u * v).to_text() == "a*c"
        assert (u * u.inverse()).is_identity()

    def test_pow(self):
        assert (word("a*b") ** 2).to_text() == "a*b*a*b"
        assert (word("a") ** -3).to_text() == "a^-3"

    def test_substituted(self):
        w = word("x*y^-1")
        out = w.substituted({"x": word("a*b"), "y": word("b")})
        assert out.to_text() == "a"

    def test_bad_exponent(self):
        with pytest.raises(WordError):
            GroupWord([("a", 2)])
        with pytest.raises(WordError):
            word("a^b")


def _naive_reduce(letters):
    """Free reduction by deleting the first cancelling pair until none is
    left (the reference for the stack reduction of `GroupWord`)."""
    ls = [tuple(let) for let in letters]
    k = 0
    while k < len(ls) - 1:
        if ls[k][0] == ls[k + 1][0] and ls[k][1] == -ls[k + 1][1]:
            del ls[k:k + 2]
            k = 0
        else:
            k += 1
    return tuple(ls)


def _naive_inverse(letters):
    return [(n, -e) for n, e in reversed(letters)]


def _random_letters(rng, length):
    return [(rng.choice("abc"), rng.choice([1, -1])) for _ in range(length)]


@pytest.mark.parametrize("seed", range(4))
def test_words_match_naive_reference(seed):
    rng = random.Random(7000 + seed)
    for _ in range(100):
        a = _random_letters(rng, rng.randint(0, 12))
        b = _random_letters(rng, rng.randint(0, 12))
        u, v = GroupWord(a), GroupWord(b)
        assert u.letters == _naive_reduce(a)
        assert (u * v).letters == _naive_reduce(a + b)
        assert u.inverse().letters == _naive_reduce(_naive_inverse(a))
        k = rng.randint(-3, 3)
        base = a if k >= 0 else _naive_inverse(a)
        assert (u ** k).letters == _naive_reduce(base * abs(k))
        images = {g: _random_letters(rng, rng.randint(0, 4))
                  for g in rng.sample("abc", 2)}
        expanded = []
        for n, e in a:
            img = images.get(n, [(n, 1)])
            expanded += img if e == 1 else _naive_inverse(img)
        got = u.substituted({g: GroupWord(w) for g, w in images.items()})
        assert got.letters == _naive_reduce(expanded)


class TestWordLetters:
    def test_tuple_letters_are_kept(self):
        letters = [("a", 1), ("b", -1), ("b", -1), ("a", 1)]
        w = GroupWord(letters)
        assert all(x is y for x, y in zip(w.letters, letters))
        tail = GroupWord(letters[1:])
        assert (w * tail).letters[-1] is letters[-1]

    def test_list_letters_become_tuples(self):
        w = GroupWord([["a", 1], ["b", -1], ("b", 1), ["c", 1]])
        assert w.letters == (("a", 1), ("c", 1))
        assert all(type(let) is tuple for let in w.letters)
        assert hash(w) == hash(word("a*c"))

    def test_exponent_two_still_raises(self):
        with pytest.raises(WordError):
            GroupWord([("a", 1), ("b", 2)])
        with pytest.raises(WordError):
            GroupWord([["a", 2]])

    def test_schreier_letters_are_shared(self):
        ker = rs_kernel(CORPUS["g_orb22"], (2, 2), ORB22_TO_Z2Z2,
                        simplify=False)
        objects = {id(let) for r in ker.relators for let in r.letters}
        assert len(objects) <= 2 * len(ker.generators)


# ---------------------------------------------------------------------------
# braids and the Artin action
# ---------------------------------------------------------------------------

class TestBraids:
    def test_letter_range(self):
        with pytest.raises(BraidError):
            BraidWord(3, (3,))
        with pytest.raises(BraidError):
            BraidWord(3, (0,))

    def test_mul_concatenates(self):
        b = BraidWord(4, (2, 1))
        assert (b * _braid_inverse(b)).letters == (2, 1, -1, -2)
        assert (b * b).letters == (2, 1, 2, 1)
        with pytest.raises(BraidError):
            b * BraidWord(3, (1,))

    def test_identity_braid_acts_trivially(self):
        w = word("x1*x2^-1*x3")
        assert artin_act(BraidWord(4), w) == w

    def test_generator_convention(self):
        x1, x2 = word("x1"), word("x2")
        assert artin_act(BraidWord(2, (1,)), x1) == word("x1*x2*x1^-1")
        assert artin_act(BraidWord(2, (1,)), x2) == x1
        assert artin_act(BraidWord(2, (-1,)), x1) == x2
        assert artin_act(BraidWord(2, (-1,)), x2) == word("x2^-1*x1*x2")

    def test_inverse_action_round_trip_simple(self):
        w = word("x1*x3^-1*x2")
        b = BraidWord(4, (2, -1, 3))
        assert artin_act(_braid_inverse(b), artin_act(b, w)) == w

    def test_out_of_range_generator_name(self):
        with pytest.raises(BraidError):
            artin_act(BraidWord(2, (1,)), word("x3"))

    def test_strand_count_read_from_braid(self):
        s3 = BraidWord(4, (3,))
        assert artin_act(s3, word("x3")) == word("x3*x4*x3^-1")
        assert artin_act(s3, word("x4")) == word("x3")
        assert artin_act(s3, word("x1*x2")) == word("x1*x2")

    def test_first_twist_images(self):
        # (s2*s1)^2 conjugation data for the first line
        imgs = {f"c{i}": artin_act(TAU1, word(f"c{i}"), "c")
                for i in range(1, 5)}
        assert imgs["c1"] == word("c1*c2*c3*c2^-1*c1^-1")
        assert imgs["c2"] == word("c1*c2*c1*c2^-1*c1^-1")
        assert imgs["c3"] == word("c1*c2*c1^-1")
        assert imgs["c4"] == word("c4")

    def test_second_twist_images(self):
        # (s2*s3)^2 conjugation data for the second line
        imgs = {f"c{i}": artin_act(TAU2, word(f"c{i}"), "c")
                for i in range(1, 5)}
        assert imgs["c1"] == word("c1")
        assert imgs["c2"] == word("c2*c3*c4*c3*c4^-1*c3^-1*c2^-1")
        assert imgs["c3"] == word("c2*c3*c4*c3^-1*c2^-1")
        assert imgs["c4"] == word("c2")


def _braid_inverse(b):
    return BraidWord(b.n, [-k for k in reversed(b.letters)])


def _random_braid(rng, n, length):
    return BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                         for _ in range(length)])


def _random_word(rng, n, length):
    return GroupWord([(f"x{rng.randint(1, n)}", rng.choice([1, -1]))
                      for _ in range(length)])


class TestArtinProperties:
    def test_automorphism_round_trip_100(self):
        rng = random.Random(421)
        for _ in range(100):
            n = rng.randint(2, 5)
            b = _random_braid(rng, n, rng.randint(1, 6))
            w = _random_word(rng, n, rng.randint(0, 8))
            assert artin_act(_braid_inverse(b), artin_act(b, w)) == w

    def test_product_preservation_100(self):
        rng = random.Random(422)
        for _ in range(100):
            n = rng.randint(2, 5)
            b = _random_braid(rng, n, rng.randint(1, 6))
            u = _random_word(rng, n, rng.randint(0, 6))
            v = _random_word(rng, n, rng.randint(0, 6))
            assert artin_act(b, u * v) == artin_act(b, u) * artin_act(b, v)

    def test_total_product_fixed_100(self):
        rng = random.Random(423)
        for _ in range(100):
            n = rng.randint(2, 5)
            b = _random_braid(rng, n, rng.randint(1, 8))
            c = GroupWord()
            for i in range(1, n + 1):
                c = c * word(f"x{i}")
            assert artin_act(b, c) == c


# ---------------------------------------------------------------------------
# presentations and the monodromy builder
# ---------------------------------------------------------------------------

class TestPresentation:
    def test_duplicate_generators(self):
        with pytest.raises(PresentationError):
            Presentation(["a", "a"], [])

    def test_unknown_generator_in_relator(self):
        with pytest.raises(PresentationError):
            Presentation(["a"], ["a*b"])

    def test_identity_relators_dropped(self):
        p = Presentation(["a"], ["a*a^-1"])
        assert p.relators == ()

    def test_quotient_appends(self):
        p = Presentation(["a"], [])
        q = quotient_by_relations(p, ["a^2"])
        assert q.relators == (word("a^2"),)
        with pytest.raises(PresentationError):
            quotient_by_relations(p, ["b"])

    def test_quotient_trivial_relator_noop(self):
        p = Presentation(["a"], [])
        q = quotient_by_relations(p, [GroupWord()])
        assert q.relators == ()


class TestMonodromyPresentation:
    def test_rank_one_no_lines_is_free(self):
        from exactcurves.groups import zvk_presentation
        p = zvk_presentation(1, [])
        assert p.generators == ("c1",)
        assert p.relators == ()

    def test_two_strand_full_twist_hand_derived(self):
        from exactcurves.groups import zvk_presentation
        p = zvk_presentation(2, [("l", BraidWord(2, (1, 1)))])
        rels = set(p.relators)
        # sigma_1^2 sends c1 to c1*c2*c1*c2^-1*c1^-1 and c2 to c1*c2*c1^-1
        assert word(
            "l^-1*c1*l*c1*c2*c1^-1*c2^-1*c1^-1") in rels
        assert word("l^-1*c2*l*c1*c2^-1*c1^-1") in rels
        assert len(rels) == 2

    def test_strand_mismatch(self):
        from exactcurves.groups import zvk_presentation
        with pytest.raises(BraidError):
            zvk_presentation(3, [("l", BraidWord(2, (1,)))])

    def test_full_arrangement_presentation(self):
        p = CORPUS["gdl"]
        assert p.generators == ("c1", "c2", "c3", "c4", "l1", "l2", "linf")
        expected = [
            "l1^-1*c1*l1*c1*c2*c3^-1*c2^-1*c1^-1",
            "l1^-1*c2*l1*c1*c2*c1^-1*c2^-1*c1^-1",
            "l1^-1*c3*l1*c1*c2^-1*c1^-1",
            "l1^-1*c4*l1*c4^-1",
            "l2^-1*c1*l2*c1^-1",
            "l2^-1*c2*l2*c2*c3*c4*c3^-1*c4^-1*c3^-1*c2^-1",
            "l2^-1*c3*l2*c2*c3*c4^-1*c3^-1*c2^-1",
            "l2^-1*c4*l2*c2^-1",
            "c1*c2*c3*c4*l1*l2*linf",
        ]
        assert [r.to_text() for r in p.relators] == expected


# ---------------------------------------------------------------------------
# word problem in the free product of two braid factors
# ---------------------------------------------------------------------------

class TestFreeProductWordProblem:
    def test_burau_detects_braid_relator(self):
        assert g0_is_trivial(word("c1*c2*c1*c2^-1*c1^-1*c2^-1"))
        assert not g0_is_trivial(word("c1*c2*c1*c2^-1*c1^-1*c2"))

    def test_corpus_relators_trivial(self):
        # the corpus presentation and the factor tables describe one group
        for r in CORPUS["g0"].relators:
            assert g0_is_trivial(r)

    def test_braid_relator_words_trivial(self):
        assert g0_is_trivial(word("c1*c2*c1*c2^-1*c1^-1*c2^-1"))
        assert g0_is_trivial(word("c3*c4*c3*c4^-1*c3^-1*c4^-1"))

    def test_cross_factor_word_nontrivial(self):
        assert not g0_is_trivial(word("c1*c3*c1^-1*c3^-1"))

    def test_syllable_merge_after_inner_cancellation(self):
        w = word("c1*c3*c4*c3*c4^-1*c3^-1*c4^-1*c1^-1")
        assert g0_is_trivial(w)

    def test_equal(self):
        assert g0_equal(word("c1*c2*c1"), word("c2*c1*c2"))
        assert not g0_equal(word("c1"), word("c2"))

    def test_unknown_generator(self):
        with pytest.raises(G0Error):
            g0_is_trivial(word("x"))

    def test_monodromy_commutation(self):
        assert verify_g0_relations() is True

    def test_monodromy_commutation_control_fails(self):
        assert verify_g0_relations(tau2=BraidWord(4, (2, 2))) is False


_G0_FACTORS = (("c1", "c2"), ("c3", "c4"))


def _random_g0_word(rng, names, length):
    return GroupWord([(rng.choice(names), rng.choice([1, -1]))
                      for _ in range(length)])


def _b3_trivial(w):
    """Oracle for a one-factor word: the Artin action of B_3 on x1..x3
    is faithful, so the braid is trivial iff it fixes each x_i."""
    sigma = {"c1": 1, "c2": 2, "c3": 1, "c4": 2}
    b = BraidWord(3, [sigma[n] * e for n, e in w.letters])
    return all(artin_act(b, word(f"x{i}")) == word(f"x{i}")
               for i in (1, 2, 3))


def _nontrivial_in(rng, names):
    while True:
        w = _random_g0_word(rng, names, rng.randint(1, 8))
        if not _b3_trivial(w):
            return w


@pytest.mark.parametrize("seed", range(100))
def test_g0_word_problem_planted(seed):
    rng = random.Random(70_000 + seed)
    names = _G0_FACTORS[0] + _G0_FACTORS[1]
    relators = CORPUS["g0"].relators
    # products of conjugates of the braid relators are trivial
    planted = GroupWord()
    for _ in range(rng.randint(1, 4)):
        u = _random_g0_word(rng, names, rng.randint(0, 6))
        r = rng.choice(relators)
        r = r if rng.random() < 0.5 else r.inverse()
        planted = planted * u * r * u.inverse()
    assert g0_is_trivial(planted)
    # a nonzero exponent sum in either factor is nontrivial
    w = planted * _random_g0_word(rng, names, rng.randint(1, 10))
    if all(sum(e for n, e in w.letters if n in f) == 0
           for f in _G0_FACTORS):
        w = w * word(rng.choice(names))
    assert not g0_is_trivial(w)
    # [a, b] with nontrivial a, b from different factors is nontrivial;
    # b is half the time a's copy, which commutes with a inside one B_3
    a = _nontrivial_in(rng, _G0_FACTORS[0])
    if rng.random() < 0.5:
        b = a.substituted({"c1": word("c3"), "c2": word("c4")})
    else:
        b = _nontrivial_in(rng, _G0_FACTORS[1])
    assert not g0_is_trivial(a * b * a.inverse() * b.inverse())
    # one-factor words of length <= 12 agree with the Artin action
    f = rng.choice(_G0_FACTORS)
    u = _random_g0_word(rng, f, rng.randint(0, 3))
    if rng.random() < 0.5:
        r = next(r for r in relators if r.generators() <= set(f)).letters
        k = rng.randrange(len(r))
        core = GroupWord(r[k:] + r[:k])
    else:
        core = _random_g0_word(rng, f, rng.randint(0, 6))
    w = u * core * u.inverse()
    assert len(w) <= 12
    assert g0_is_trivial(w) == _b3_trivial(w)
    # Delta^4 = (s1 s2)^6 generates the kernel of B_3 -> SL(2, Z); it and
    # Delta^2 are nontrivial, also when conjugated
    for x, y in _G0_FACTORS:
        u = _random_g0_word(rng, names, rng.randint(0, 4))
        for k in (3, 6):
            delta = word("*".join([f"{x}*{y}"] * k))
            assert not g0_is_trivial(u * delta * u.inverse())


# ---------------------------------------------------------------------------
# Smith normal form and abelianization
# ---------------------------------------------------------------------------

def _det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * _det(minor)
    return total


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col))
             for col in zip(*B)] for row in A]


class TestSmithNormalForm:
    def test_identity(self):
        diag, _D, _U, _V = smith_normal_form([[1, 0], [0, 1]])
        assert diag == [1, 1]

    def test_hand_example(self):
        diag, _D, _U, _V = smith_normal_form([[2, 4], [6, 8]])
        assert diag == [2, 4]

    def test_zero_matrix(self):
        diag, _D, _U, _V = smith_normal_form([[0]])
        assert diag == []

    def test_invariants_validation(self):
        with pytest.raises(ValueError):
            AbelianInvariants(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianInvariants(0, (1,))
        with pytest.raises(ValueError):
            AbelianInvariants(-1, ())

    def test_describe(self):
        assert AbelianInvariants(9, (2, 2, 2, 2, 2, 4)).describe() == \
            "Z^9 + (Z/2)^5 + Z/4"
        assert AbelianInvariants(0, ()).describe() == "trivial"
        assert AbelianInvariants(1, (2,)).describe() == "Z + Z/2"

    def test_order(self):
        assert AbelianInvariants(0, (2, 4)).order() == 8
        assert AbelianInvariants(1, ()).order() is None

    def test_transform_round_trip_120(self):
        rng = random.Random(77)
        for _ in range(120):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            M = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            diag, D, U, V = smith_normal_form(M)
            P = _mat_mul(_mat_mul(U, M), V)
            for i in range(r):
                for j in range(c):
                    expect = diag[i] if i == j and i < len(diag) else 0
                    assert P[i][j] == expect
            assert abs(_det(U)) == 1
            assert abs(_det(V)) == 1
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_shuffle_invariance_100(self):
        rng = random.Random(78)
        for _ in range(100):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            M = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
            diag, _D, _U, _V = smith_normal_form(M)
            rows = M[:]
            rng.shuffle(rows)
            cols = list(range(c))
            rng.shuffle(cols)
            N = [[row[j] for j in cols] for row in rows]
            diag2, _D, _U, _V = smith_normal_form(N)
            assert diag == diag2


class TestAbelianization:
    def test_free_rank_two(self):
        assert abelianization(Presentation(["a", "b"], [])) == \
            AbelianInvariants(2, ())

    def test_main_corpus_group(self):
        assert abelianization(CORPUS["g_symp"]).describe() == "Z/8"

    def test_companion_group(self):
        assert abelianization(CORPUS["g2"]).describe() == "Z/8"

    def test_order24_quotient(self):
        assert abelianization(CORPUS["cremona24"]).describe() == "Z/8"

    def test_images(self):
        p = Presentation(["a", "b"], ["a^-1*b^-1*a*b", "b^2"])
        inv, images = abelianization_with_images(p)
        assert inv == AbelianInvariants(1, (2,))
        # torsion coordinate first, then the free coordinate
        assert images["b"][0] % 2 == 1
        assert images["a"][0] % 2 == 0

    def test_trivial_presentation(self):
        assert abelianization(Presentation([], [])) == \
            AbelianInvariants(0, ())


def _power(name, k):
    """The word name^k."""
    return GroupWord([(name, 1 if k > 0 else -1)] * abs(k))


def _relation_presentation(M):
    """Presentation of Z^c / rowspace(M): generator x_j per column, one
    relator per row with exponent sums given by the row."""
    names = [f"x{j}" for j in range(len(M[0]))]
    rels = []
    for row in M:
        w = GroupWord()
        for name, e in zip(names, row):
            w = w * _power(name, e)
        rels.append(w)
    return Presentation(names, rels)


def _random_relation_matrix(rng, kind):
    """Sparse integer rows of one of three kinds: rank-deficient (fewer
    independent rows than columns), non-unit (no +-1 entries at all), or
    with duplicate (and negated duplicate) rows."""
    c = rng.randint(1, 9)
    units = kind != "non-unit"
    values = ([1, -1, 1, -1, 2, -3, 4] if units else [2, -2, 3, 4, -6, 9])
    rows = []
    for _ in range(rng.randint(1, 10)):
        row = [0] * c
        for j in rng.sample(range(c), rng.randint(1, min(c, 4))):
            row[j] = rng.choice(values)
        rows.append(row)
    if kind == "rank-deficient":
        rows = rows[:max(1, c - 1 - rng.randrange(3))]
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.choice([1, -1, 2])
            rows.append([x + k * y for x, y in zip(a, b)])
    elif kind == "duplicates":
        for _ in range(rng.randint(1, 5)):
            row = rng.choice(rows)
            rows.append(list(row) if rng.random() < 0.5 else
                        [-x for x in row])
    rng.shuffle(rows)
    return rows


def _sympy_invariants(M, c):
    """Invariants of Z^c / rowspace(M), read off sympy's Smith form."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    if not M:
        return AbelianInvariants(c, ())
    S = sympy_snf(Matrix(M), domain=ZZ)
    ref = sorted(abs(S[i, i]) for i in range(min(S.shape)) if S[i, i])
    return AbelianInvariants(c - len(ref), [d for d in ref if d > 1])


def _invariants_checked(M, got=None):
    """`got`, by default the abelianization of the relation matrix M,
    asserted equal to the invariants read off the dense Smith form of M and
    off sympy's."""
    c = len(M[0])
    if got is None:
        got = abelianization(_relation_presentation(M))
    diag = smith_normal_form(M)[0]
    assert got == AbelianInvariants(c - len(diag), [d for d in diag if d > 1])
    assert got == _sympy_invariants(M, c)
    return got


@pytest.mark.parametrize("seed", range(120))
def test_sparse_invariants_match_smith_forms(seed):
    rng = random.Random(seed)
    kind = ("rank-deficient", "non-unit", "duplicates")[seed % 3]
    _invariants_checked(_random_relation_matrix(rng, kind))


def _schreier_like_matrix(rng):
    """A tall sparse relation matrix shaped like a Schreier one: 4 to 5 rows
    per column, over 90% of the entries +-1.  Two rows in three have two
    entries (more for a block below) on the first columns only; the others
    have five to eight, one of them on the last `late` columns, so those
    columns are left to a later level of the sparse invariants.  Each row
    is a sum of blocks: single entries, or (v, -v) pairs and, when m > 0,
    runs of m equal entries +-1, so that every row sum is 0 mod m and the
    cokernel maps onto Z/m (onto Z when m = 0)."""
    c = rng.randint(8, 14)
    late = rng.randint(2, c // 2)
    m = rng.choice((None, 0, 2, 3, 4))
    rows = []
    for i in range(rng.randint(4 * c, 5 * c)):
        if i % 3:
            cols = rng.sample(range(c - late), c - late)
            n = 2
        else:
            cols = [rng.randrange(c - late, c)]
            cols += rng.sample([j for j in range(c) if j != cols[0]], c - 1)
            n = rng.randint(5, 8)
        values = []
        while len(values) < n:
            v = (rng.choice((1, -1)) if rng.random() < 0.95
                 else rng.choice((2, -2, 3, -3)))
            block = ([v] if m is None else
                     [v // abs(v)] * m if m and rng.random() < 0.3
                     else [v, -v])
            if len(values) + len(block) > len(cols):
                break
            values += block
        row = [0] * c
        for j, v in zip(cols, values):
            row[j] = v
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(100))
def test_sparse_invariants_of_tall_matrices(seed, monkeypatch):
    M = _schreier_like_matrix(random.Random(seed))
    entries = [v for row in M for v in row if v]
    assert len(M) >= 4 * len(M[0])
    assert sum(v in (1, -1) for v in entries) >= 0.9 * len(entries)
    # the short-half split and the packed pass run on at least two levels
    packed_levels = []

    def reduce_packed(q, rows):
        packed_levels.append(len(q))
        return _reduce_packed(q, rows)
    monkeypatch.setattr(abelian, "_reduce_packed", reduce_packed)
    _invariants_checked(M)
    assert len(packed_levels) >= 2


def _planted_sum_rows(t):
    """Pivot rows e_c - e_3 (c = 0, 1, 2), a row (a0, a1, a2, 0) of positive
    entries summing to t, which reduces to t*e_3 and so meets the slot
    bound (L1 norm t, times max |q| = 1) with equality, and a row that
    reduces to zero.  The cokernel is Z/t."""
    a = [t // 3, t // 3, t - 2 * (t // 3)]
    return [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1], a + [0],
            [1, 1, -2, 0]]


@pytest.mark.parametrize("t", [2**7 - 1, 2**7, 2**15 - 1, 2**15,
                               2**63 - 1, 2**63])
def test_packed_pass_reads_back_entries_at_the_slot_bound(t):
    # 2^(W-1) - 1 is the largest entry a slot of W bits holds, and 2^(W-1)
    # needs the next width.  Rows come back once up to sign, signed so that
    # their last nonzero entry is positive.
    row = dict(enumerate(_planted_sum_rows(t)[3][:3]))
    negated = {j: -v for j, v in row.items()}
    for q in (-1, 1):
        pivots = [(c, 1, {3: q}) for c in range(3)]
        assert _reduce_packed(_back_substitute(pivots),
                              [row, negated]) == [{3: t}]
    # a presentation would spell out t letters, so the rows go in directly
    rows = _planted_sum_rows(t)
    got = abelian._invariants_sparse(
        [{j: v for j, v in enumerate(r) if v} for r in rows], 4)
    assert _invariants_checked(rows, got) == AbelianInvariants(0, [t])


def test_rows_reducing_to_negatives_are_kept_once():
    # columns 0, 1 are pivots (e_0 + e_3, e_1 - e_2); the long rows are not
    # negatives of each other but reduce to 3*e_2 - e_3 and e_3 - 3*e_2,
    # which are kept once, with the last nonzero entry positive
    r1, r2 = {0: 1, 1: 1, 2: 2}, {0: 1, 1: -1, 2: -2, 3: 2}
    pivots = [(0, 1, {3: 1}), (1, 1, {2: -1})]
    assert _reduce_packed(_back_substitute(pivots),
                          [dict(r1), dict(r2)]) == [{2: -3, 3: 1}]
    M = [[1, 0, 0, 1], [0, 1, -1, 0], [1, 1, 2, 0], [1, -1, -2, 2]]
    assert _invariants_checked(M) == AbelianInvariants(1, ())


def _images_case(seed):
    """Seed 0: free of rank three, with no relators.  Seed 1: the trivial
    group <a, b | a*b, a*b^2>.  Other seeds: a presentation on two to four
    generators with one to four random relators, each completed by powers
    of the first generators so that it maps to 0 under a surjection onto
    Z/2, Z/3, Z/4 or Z/2 x Z/2; for odd seeds, the raw Schreier kernel of
    that surjection."""
    if seed == 0:
        return Presentation(["a", "b", "c"], [])
    if seed == 1:
        return Presentation(["a", "b"], ["a*b", "a*b^2"])
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(rng.randint(2, 4))]
    moduli = rng.choice([(2,), (3,), (4,), (2, 2)])
    images = {g: (tuple(int(i == k) for k in range(len(moduli)))
                  if i < len(moduli) else
                  tuple(rng.randrange(m) for m in moduli))
              for i, g in enumerate(names)}
    rels = []
    for _ in range(rng.randint(1, 4)):
        w = GroupWord([(rng.choice(names), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 8))])
        for k, m in enumerate(moduli):
            s = sum(images[g][k] * e for g, e in w.letters) % m
            w = w * _power(names[k], -s)
        rels.append(w)
    p = Presentation(names, rels)
    if seed % 2 == 0:
        return p
    return rs_kernel(p, moduli, images, simplify=False)


@pytest.mark.parametrize("seed", range(100))
def test_images_match_sympy(seed):
    p = _images_case(seed)
    inv, images = abelianization_with_images(p)
    gens = p.generators
    M = [[sum(e for g, e in r.letters if g == h) for h in gens]
         for r in p.relators]
    assert inv == _sympy_invariants(M, len(gens))
    # torsion residues first, then free coordinates (modulus 0)
    moduli = list(inv.torsion) + [0] * inv.rank
    for g in gens:
        assert len(images[g]) == len(moduli)
        assert all(0 <= x < m for x, m in zip(images[g], inv.torsion))
    # every relator maps to 0
    for row in M:
        for k, m in enumerate(moduli):
            total = sum(v * images[g][k] for v, g in zip(row, gens))
            assert (total % m if m else total) == 0
    # onto: with the torsion relations the images span Z^len(moduli)
    if moduli:
        torsion_rows = [[d * (i == k) for k in range(len(moduli))]
                        for i, d in enumerate(inv.torsion)]
        assert _sympy_invariants([list(images[g]) for g in gens]
                                 + torsion_rows, len(moduli)) == \
            AbelianInvariants(0, ())


# The level-4 quotient of g_symp once sent the dense remnant of the sparse
# invariants into coefficient blow-up (past 6 GB on a relabelled input).
# These cases run in a child whose address space is capped, so such a
# blow-up ends in MemoryError instead of running unbounded.
CHILD_ADDRESS_SPACE = 2 << 30   # bytes
LEVEL4 = "Z^9 + (Z/2)^5 + Z/4"


def relabel(p, seed):
    """An isomorphic presentation: generators and relators permuted, each
    relator rotated cyclically."""
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


def level4_of_relabelled(seed):
    res = derived_series_quotients(relabel(CORPUS["g_symp"], seed), 4)
    return res["quotients"][-1].describe()


def level4_over_unsimplified_level3():
    """abelianization of the raw Schreier presentation of the level-4
    kernel, taken over the raw (not Tietze-simplified) level-3 kernel."""
    def kernel(p, simplify):
        inv, images = abelianization_with_images(p)
        k = len(inv.torsion)
        return rs_kernel(p, inv.torsion,
                         {g: v[:k] for g, v in images.items()},
                         simplify=simplify)
    big = kernel(kernel(kernel(CORPUS["g_symp"], True), False), False)
    assert (len(big.generators), len(big.relators)) == (577, 4416)
    return abelianization(big).describe()


def _in_bounded_child(call, budget):
    """Value of `call` (an expression over this module) evaluated in a child
    process with a capped address space; asserts it took under `budget`
    seconds there."""
    import exactcurves
    src = os.path.dirname(os.path.dirname(exactcurves.__file__))
    code = ("import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, "
            f"({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE}))\n"
            "import test_groups\n"
            "t0 = time.monotonic()\n"
            f"value = test_groups.{call}\n"
            "print(time.monotonic() - t0)\n"
            "print(value)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    elapsed, value = proc.stdout.splitlines()
    assert float(elapsed) < budget, \
        f"{call} took {float(elapsed):.1f}s, over the {budget}s budget"
    return value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_level4_of_relabelled_presentation(seed):
    assert _in_bounded_child(f"level4_of_relabelled({seed})", 30) == LEVEL4


def test_level4_over_unsimplified_level3_kernel():
    assert _in_bounded_child("level4_over_unsimplified_level3()",
                             30) == LEVEL4


# ---------------------------------------------------------------------------
# kernels, Tietze, derived series
# ---------------------------------------------------------------------------

class TestKernelPresentation:
    def test_free_rank_formula_trivial_case(self):
        ker = rs_kernel(Presentation(["a", "b"], []), (2,),
                        {"a": (1,), "b": (1,)}, simplify=False)
        assert len(ker.generators) == 3
        assert ker.relators == ()

    def test_non_surjective_rejected(self):
        with pytest.raises(RewriteError, match="index 2"):
            rs_kernel(Presentation(["a"], []), (2, 2), {"a": (1, 0)})

    def test_empty_moduli_is_identity(self):
        p = CORPUS["g_symp"]
        assert rs_kernel(p, (), {g: () for g in p.generators}) is p

    def test_bad_modulus(self):
        with pytest.raises(RewriteError):
            rs_kernel(Presentation(["a"], []), (1,), {"a": (0,)})

    def test_nielsen_schreier_rank_100(self):
        rng = random.Random(91)
        for _ in range(100):
            n = rng.randint(2, 4)
            names = [f"a{i}" for i in range(n)]
            k = rng.randint(1, 2)
            moduli = tuple(sorted(rng.choice([2, 2, 3, 4])
                                  for _ in range(k)))
            # force surjectivity: the first k generators hit the basis
            images = {}
            for i, g in enumerate(names):
                if i < k:
                    v = [0] * k
                    v[i] = 1
                    images[g] = tuple(v)
                else:
                    images[g] = tuple(rng.randrange(m) for m in moduli)
            m = 1
            for d in moduli:
                m *= d
            ker = rs_kernel(Presentation(names, []), moduli, images,
                            simplify=False)
            assert len(ker.generators) == 1 + m * (n - 1)
            assert ker.relators == ()

    def test_kernel_abelianization_consistency(self):
        ker = rs_kernel(CORPUS["g_orb22"], (2, 2), ORB22_TO_Z2Z2)
        assert abelianization(ker).describe() == "Z/8"


def _schreier_by_words(p, moduli, images):
    """Generators and relators of the kernel of p onto prod Z/moduli, built
    from words: a shortlex Schreier transversal, and one generator
    y1, y2, ... per (coset t, generator g) in that order whose word
    rep(t)*g*rep(t*g)^-1 does not reduce to 1.  The reference that
    `rs_kernel`, which reads the same generators off the transversal's
    tree edges, is checked against."""
    residues = list(itertools.product(*(range(m) for m in moduli)))
    index = {r: i for i, r in enumerate(residues)}

    def act(t, g, e):
        return index[tuple((x + e * y) % m for x, y, m
                           in zip(residues[t], images[g], moduli))]

    rep = {0: GroupWord()}
    queue = [0]
    while queue:
        nxt = []
        for t in queue:
            for g in p.generators:
                for e in (1, -1):
                    u = act(t, g, e)
                    if u not in rep:
                        rep[u] = rep[t] * GroupWord([(g, e)])
                        nxt.append(u)
        queue = nxt
    names = {}
    for t in range(len(residues)):
        for g in p.generators:
            w = rep[t] * GroupWord.gen(g) * rep[act(t, g, 1)].inverse()
            if not w.is_identity():
                names[t, g] = f"y{len(names) + 1}"
    relators = []
    for r in p.relators:
        for t in range(len(residues)):
            out, s = [], t
            for g, e in r.letters:
                u = act(s, g, e)
                y = names.get((s, g) if e == 1 else (u, g))
                if y:
                    out.append((y, e))
                s = u
            rr = GroupWord(out)
            if not rr.is_identity():
                relators.append(rr)
    return list(names.values()), relators


def test_schreier_generators_match_transversal_words_orb22():
    p = CORPUS["g_orb22"]
    ker = rs_kernel(p, (2, 2), ORB22_TO_Z2Z2, simplify=False)
    assert (list(ker.generators), list(ker.relators)) == \
        _schreier_by_words(p, (2, 2), ORB22_TO_Z2Z2)


@pytest.mark.parametrize("name, levels", [("cremona24", 2), ("g2", 3),
                                          ("g_orb22", 2), ("g_symp", 3)])
def test_schreier_generators_match_transversal_words(name, levels):
    # the kernels of the derived series, each taken over the simplified
    # one above it, are compared raw
    p = CORPUS[name]
    for level in range(levels):
        if level:
            p = tietze_simplify(ker)
        inv, images = abelianization_with_images(p)
        if inv.order() == 1:
            break
        k = len(inv.torsion)
        images = {g: v[:k] for g, v in images.items()}
        ker = rs_kernel(p, inv.torsion, images, simplify=False)
        assert (list(ker.generators), list(ker.relators)) == \
            _schreier_by_words(p, inv.torsion, images)


@pytest.mark.parametrize("seed", range(2, 40))
def test_schreier_generators_match_transversal_words_random(seed):
    # onto the torsion of the abelianization, where there is one
    p = _images_case(seed)
    inv, images = abelianization_with_images(p)
    k = len(inv.torsion)
    images = {g: v[:k] for g, v in images.items()}
    if k:
        ker = rs_kernel(p, inv.torsion, images, simplify=False)
        assert (list(ker.generators), list(ker.relators)) == \
            _schreier_by_words(p, inv.torsion, images)


class TestKernelImages:
    """Each generator needs an image with one residue per modulus; a
    shorter image used to be truncated into a wrong coset table."""

    P = Presentation(["a", "b", "c"], ["a^2", "b^2", "c^2", "a^-1*b^-1*a*b"])
    IMAGES = {"a": (1, 0), "b": (0, 1), "c": (1, 1)}

    def test_full_images(self):
        ker = rs_kernel(self.P, (2, 2), self.IMAGES)
        assert abelianization(ker).describe() == "Z^2"

    @pytest.mark.parametrize("image", [(1,), (1, 0, 1)])
    def test_image_of_wrong_length_rejected(self, image):
        with pytest.raises(RewriteError, match="image of a has"):
            rs_kernel(self.P, (2, 2), dict(self.IMAGES, a=image))

    def test_missing_image_rejected(self):
        images = {"a": (1, 0), "b": (0, 1)}
        with pytest.raises(RewriteError, match="generator c has no image"):
            rs_kernel(self.P, (2, 2), images)


class TestTietze:
    def test_eliminates_defined_generator(self):
        p = Presentation(["a", "b"], ["b*a^-1"])
        q = tietze_simplify(p)
        assert len(q.generators) == 1
        assert q.relators == ()

    def test_abelianization_preserved_simple(self):
        p = Presentation(["a", "b"], ["a^-1*b^-1*a*b", "b^2"])
        assert abelianization(tietze_simplify(p)) == abelianization(p)

    def test_abelianization_preserved_on_corpus(self):
        for name, p in CORPUS.items():
            q = tietze_simplify(p)
            assert abelianization(q) == abelianization(p), name

    def test_duplicate_relators_removed(self):
        p = Presentation(["a"], ["a^2", "a^2", "a^-2"])
        q = tietze_simplify(p)
        assert len(q.relators) == 1

    def test_move_log_attached(self):
        p = Presentation(["a", "b"], ["b*a^-1"])
        q = tietze_simplify(p)
        assert any("eliminated" in line for line in q.tietze_log)


class TestDerivedSeries:
    def test_infinite_abelianization_stops(self):
        res = derived_series_quotients(Presentation(["a"], []), 2)
        assert [q.describe() for q in res["quotients"]] == ["Z"]
        assert res["status"] == "stopped: infinite abelianization at level 1"

    def test_depth_validation(self):
        with pytest.raises(RewriteError):
            derived_series_quotients(Presentation(["a"], []), 0)

    def test_main_group_first_three_levels(self):
        res = derived_series_quotients(CORPUS["g_symp"], 3)
        assert [q.describe() for q in res["quotients"]] == \
            ["Z/8", "Z/3", "(Z/2)^6"]
        assert res["status"] == "complete"

    def test_companion_group_full_depth(self):
        res = derived_series_quotients(CORPUS["g2"], 4)
        assert [q.describe() for q in res["quotients"]] == \
            ["Z/8", "Z/3", "(Z/2)^4", "Z^3 + Z/2"]
        assert res["status"] == "complete"

    def test_order24_quotient_depth_two(self):
        res = derived_series_quotients(CORPUS["cremona24"], 2)
        assert [q.describe() for q in res["quotients"]] == ["Z/8", "Z/3"]

    def test_kernel_before_last_rewriting_stays_raw(self):
        # Tietze runs only on the level-2 kernel; level 3 is the raw
        # (10 gens, 69 relators) kernel, and level 4 the 64-fold rewriting
        # of it: 64 * (10 - 1) + 1 generators
        res = derived_series_quotients(CORPUS["g_symp"], 4)
        assert [len(q.generators) for q in res["presentations"]] == \
            [4, 4, 10, 577]

    def test_smith_form_sees_no_more_rows_than_columns(self, monkeypatch):
        shapes = []

        def spy(M):
            shapes.append((len(M), len(M[0])))
            return smith_normal_form(M)
        monkeypatch.setattr(abelian, "smith_normal_form", spy)
        res = derived_series_quotients(CORPUS["g_orb22"], 3)
        assert [q.describe() for q in res["quotients"]] == \
            ["(Z/2)^2 + Z/8", "Z/3", "(Z/2)^6"]
        assert shapes and all(r <= c for r, c in shapes)

    def test_generator_limit_on_raw_kernel(self):
        # the raw kernel of <a1..a9 | a_i^2> along (Z/2)^9 has
        # 512 * 8 + 1 = 4097 generators, over the limit, so it is
        # simplified, and the walk stops on its infinite abelianization
        p = Presentation([f"a{i}" for i in range(1, 10)],
                         [f"a{i}^2" for i in range(1, 10)])
        res = derived_series_quotients(p, 3)
        assert [q.describe() for q in res["quotients"]] == \
            ["(Z/2)^9", "Z^1793"]
        assert res["status"] == \
            "stopped: infinite abelianization at level 2"

    @pytest.mark.parametrize("limit, status, gens", [
        (500, "complete", [4, 4, 7, 385]),
        (300, "stopped: generator limit exceeded", [4, 4, 7])])
    def test_generator_limit_over_raw_kernel(self, monkeypatch, limit,
                                             status, gens):
        # over the raw level-3 kernel of g_symp the level-4 kernel would
        # have 577 generators, over the simplified one 385: with the limit
        # between the two the walk completes over the simplified kernel,
        # and below both it stops, as it did on simplified kernels
        monkeypatch.setattr(rewriting, "DERIVED_MAX_GENERATORS", limit)
        res = derived_series_quotients(CORPUS["g_symp"], 4)
        assert res["status"] == status
        assert [len(q.generators) for q in res["presentations"]] == gens
        assert [q.describe() for q in res["quotients"]] == \
            ["Z/8", "Z/3", "(Z/2)^6", "Z^9 + (Z/2)^5 + Z/4"][:len(gens)]

    def test_perfect_group_stops(self):
        # the binary icosahedral presentation is perfect
        p = Presentation(["s", "t"],
                         ["s^3*t^-1*s^-1*t^-1*s^-1",
                          "t^4*s^-1*t^-1*s^-1"])
        res = derived_series_quotients(p, 3)
        assert res["status"] == "stopped: perfect group at level 1"


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------

class TestCosetEnumeration:
    def test_cyclic_order_eight(self):
        ct = todd_coxeter(Presentation(["x"], ["x^8"]))
        assert ct.n_cosets == 8

    def test_order24_quotient(self):
        ct = todd_coxeter(CORPUS["cremona24"])
        assert ct.n_cosets == 24

    def test_element_identities_in_order24(self):
        ct = todd_coxeter(CORPUS["cremona24"])
        assert ct.element_order("c2") == 8
        assert ct.elements_equal("c2*c3^-1", "c2*c3*c2*c3*c2*c3*c2*c3")

    def test_relators_act_trivially(self):
        ct = todd_coxeter(CORPUS["cremona24"])
        for r in CORPUS["cremona24"].relators:
            assert ct.word_permutation(r) == tuple(range(ct.n_cosets))

    def test_truncated_braid_orders(self):
        braid_rel = "x*y*x*y^-1*x^-1*y^-1"
        orders = {}
        for k in (2, 3):
            p = Presentation(["x", "y"], [braid_rel, f"x^{k}"])
            orders[k] = todd_coxeter(p).n_cosets
        assert orders == {2: 6, 3: 24}

    def test_truncated_braid_agrees_with_hom_count(self):
        # the k=2 truncation is the symmetric group on three letters
        p = Presentation(["x", "y"], ["x*y*x*y^-1*x^-1*y^-1", "x^2"])
        s3 = Presentation(["a", "b"], ["a^2", "b^2", "a*b*a*b*a*b"])
        for target in ("S3", "S4", "D4", "Q8"):
            assert count_homs(p, target) == count_homs(s3, target)

    def test_cap_exceeded(self):
        with pytest.raises(CosetError):
            todd_coxeter(Presentation(["a"], []), max_cosets=10)

    def test_cap_validation(self):
        with pytest.raises(CosetError):
            todd_coxeter(Presentation(["x"], ["x^2"]), max_cosets=0)

    def test_trivial_group(self):
        ct = todd_coxeter(Presentation(["x"], ["x"]))
        assert ct.n_cosets == 1


# ---------------------------------------------------------------------------
# hom counting
# ---------------------------------------------------------------------------

class TestHomCounting:
    def test_standard_target_orders(self):
        assert standard_target("S3").order == 6
        assert standard_target("S4").order == 24
        assert standard_target("D4").order == 8
        assert standard_target("Q8").order == 8
        assert standard_target("Z8").order == 8

    def test_quaternion_unique_involution(self):
        q8 = standard_target("Q8")
        involutions = [a for a in range(1, q8.order)
                       if q8.mult[a][a] == 0]
        assert len(involutions) == 1

    def test_cyclic_to_cyclic(self):
        z8 = Presentation(["x"], ["x^8"])
        assert count_homs(z8, "Z2") == 2

    def test_free_to_symmetric(self):
        assert count_homs(Presentation(["a", "b"], []), "S3") == 36

    def test_trivial_source(self):
        assert count_homs(Presentation([], []), "S4") == 1

    def test_cap(self, monkeypatch):
        import exactcurves.groups.homs as homs
        monkeypatch.setattr(homs, "TARGET_MAX_ORDER", 10)
        with pytest.raises(HomError):
            count_homs(Presentation(["a"], []), "S4")

    def test_unknown_target(self):
        with pytest.raises(HomError):
            standard_target("M11")

    def test_bad_table(self):
        with pytest.raises(HomError):
            FiniteGroup("bad", [[0, 1], [1, 1]])

    def test_table_rows_and_columns_must_be_permutations(self):
        # identity 0 and an inverse for each element, but row 1 maps both
        # 1 and 2 to 0: no group, and class weights would be wrong on it
        with pytest.raises(HomError):
            FiniteGroup("planted", [[0, 1, 2], [1, 0, 0], [2, 0, 1]])

    def test_kernel_matches_stated_presentation(self):
        ker = rs_kernel(CORPUS["g_orb22"], (2, 2), ORB22_TO_Z2Z2)
        stated = CORPUS["g_symp"]
        for target in ("S3", "S4", "D4", "Q8"):
            assert count_homs(ker, target) == count_homs(stated, target)


def _enumerated_homs(p, target):
    """|Hom(p, target)| by trying all |T|^n maps of the generators."""
    index = {g: i for i, g in enumerate(p.generators)}
    mult, inv = target.mult, target.inv
    total = 0
    for images in itertools.product(range(target.order),
                                    repeat=len(p.generators)):
        for r in p.relators:
            acc = 0
            for name, e in r.letters:
                x = images[index[name]]
                acc = mult[acc][x if e == 1 else inv[x]]
            if acc:
                break
        else:
            total += 1
    return total


def _random_presentation(rng):
    """1-3 generators and 0-3 relators of 1-6 letters."""
    gens = ["a", "b", "c"][:rng.randint(1, 3)]
    relators = ["*".join(rng.choice(gens) + rng.choice(["", "^-1"])
                         for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(0, 3))]
    return Presentation(gens, relators)


@pytest.mark.parametrize("seed", range(100))
def test_hom_counts_match_enumeration(seed):
    rng = random.Random(60_000 + seed)
    p = _random_presentation(rng)
    targets = ["S3", "D4", "Q8", "Z4"]
    if len(p.generators) <= 2:
        targets.append("S4")
    for name in targets:
        target = standard_target(name)
        assert count_homs(p, target) == _enumerated_homs(p, target), name
