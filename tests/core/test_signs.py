"""Two-row sign-vector semantics vs. concrete relations."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attrs import AttrList, attrlist
from repro.core.dependency import compat, equiv, od
from repro.core.satisfaction import satisfies_naive
from repro.core.signs import (
    compile_od,
    enumerate_sign_vectors,
    lex_sign,
    materialize,
    od_holds,
    sign_vector_of_pair,
    statement_holds,
    violates,
)

NAMES = ("A", "B", "C")
sign_vectors = st.fixed_dictionaries({n: st.sampled_from([-1, 0, 1]) for n in NAMES})
side = st.lists(st.sampled_from(NAMES), max_size=3, unique=True).map(AttrList)
ods = st.builds(od, side, side)


class TestLexSign:
    def test_empty_list(self):
        assert lex_sign({"A": 1}, AttrList()) == 0

    def test_first_nonzero_decides(self):
        sigma = {"A": 0, "B": -1, "C": 1}
        assert lex_sign(sigma, attrlist("A,B,C")) == -1
        assert lex_sign(sigma, attrlist("C,B")) == 1

    def test_all_zero(self):
        assert lex_sign({"A": 0, "B": 0}, attrlist("A,B")) == 0


class TestOdHolds:
    def test_equality_propagation(self):
        sigma = {"A": 0, "B": 1}
        assert not od_holds(sigma, od("A", "B"))

    def test_agreeing_signs(self):
        sigma = {"A": -1, "B": -1}
        assert od_holds(sigma, od("A", "B"))

    def test_rhs_zero_ok(self):
        sigma = {"A": -1, "B": 0}
        assert od_holds(sigma, od("A", "B"))

    def test_opposite_signs_fail(self):
        sigma = {"A": -1, "B": 1}
        assert not od_holds(sigma, od("A", "B"))


class TestAgainstMaterialization:
    """The sign abstraction must agree exactly with Definition 4 on the
    materialized two-row relation — the lemma the whole oracle rests on."""

    @settings(max_examples=300)
    @given(sign_vectors, ods)
    def test_od_agreement(self, sigma, dependency):
        relation = materialize(sigma, AttrList(NAMES))
        assert od_holds(sigma, dependency) == satisfies_naive(relation, dependency)

    @settings(max_examples=150)
    @given(sign_vectors, side, side)
    def test_statement_agreement(self, sigma, x, y):
        relation = materialize(sigma, AttrList(NAMES))
        for statement in (equiv(x, y), compat(x, y)):
            assert statement_holds(sigma, statement) == satisfies_naive(
                relation, statement
            )

    @settings(max_examples=100)
    @given(sign_vectors)
    def test_roundtrip_through_pair(self, sigma):
        relation = materialize(sigma, AttrList(NAMES))
        s, t = relation.rows
        assert sign_vector_of_pair(relation, s, t) == dict(sigma)


class TestCompiled:
    @settings(max_examples=200)
    @given(sign_vectors, ods)
    def test_compiled_matches_interpreted(self, sigma, dependency):
        # ``violates`` is the check the oracle's search runs inline.
        index = {name: i for i, name in enumerate(NAMES)}
        compiled = compile_od(dependency.lhs, dependency.rhs, index)
        signs = tuple(sigma[n] for n in NAMES)
        assert violates(signs, compiled) == (not od_holds(sigma, dependency))


class TestEnumeration:
    def test_count(self):
        assert sum(1 for _ in enumerate_sign_vectors(["A", "B"])) == 9

    def test_covers_all(self):
        seen = {tuple(sigma.values()) for sigma in enumerate_sign_vectors(["A", "B"])}
        assert (-1, 1) in seen and (0, 0) in seen and len(seen) == 9
