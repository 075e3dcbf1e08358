"""Oracle memoization: cached answers must be bit-identical to uncached
ones (witnesses included), fast paths must be sound, caches must be bounded.
Also the search's deterministic cost (``stats()["nodes"]``) and the witness
contract: a counterexample is *a* refuting two-row model, not a fixed one."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attrs import AttrList
from repro.core.dependency import compat, equiv, od
from repro.core.inference import ODTheory, TooManyAttributes
from repro.core.relation import Relation
from repro.core.satisfaction import satisfies_naive
from repro.core.signs import statement_holds
from repro.workloads.random_instances import random_od, random_od_set

NAMES = ("A", "B", "C", "D", "E")


class TestCacheParity:
    """Memoized implies()/counterexample() over a randomized theory corpus
    agree exactly with a cache-disabled oracle — and with themselves when
    asked twice (the second answer coming from the cache)."""

    def test_randomized_corpus(self):
        rng = random.Random(0x0D)
        for trial in range(40):
            premises = random_od_set(NAMES, count=rng.randint(0, 4), rng=rng)
            cached = ODTheory(premises)
            uncached = ODTheory(premises, result_cache_size=0)
            goals = [random_od(NAMES, rng=rng) for _ in range(6)]
            for goal in goals + goals:  # second pass: answers from the cache
                assert cached.implies(goal) == uncached.implies(goal), (
                    premises,
                    goal,
                )
                cw = cached.counterexample(goal)
                uw = uncached.counterexample(goal)
                if cw is None:
                    assert uw is None
                else:
                    assert uw is not None
                    assert cw.attributes == uw.attributes
                    assert cw.rows == uw.rows

    def test_disabled_cache_never_stores(self):
        theory = ODTheory([od("A", "B")], result_cache_size=0)
        theory.implies(od("A", "C"))
        theory.implies(od("A", "C"))
        stats = theory.stats()
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0
        assert stats["enumerations"] == 2
        assert stats["result_cache_size"] == 0


class TestCounters:
    def test_repeat_query_hits(self):
        theory = ODTheory([od("A", "B"), od("B", "C")])
        goal = od("A", "C")
        assert theory.implies(goal)
        before = theory.stats()
        assert theory.implies(goal)
        after = theory.stats()
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["enumerations"] == before["enumerations"]
        assert after["hit_rate"] > 0

    def test_canonicalization_shares_entries(self):
        theory = ODTheory([od("A", "B")])
        assert theory.implies(od("A", "A,B"))
        before = theory.stats()
        # normalization makes [A,A] |-> [A,A,B,B] the same canonical goal
        assert theory.implies(od("A,A", "A,A,B,B"))
        after = theory.stats()
        assert after["cache_hits"] == before["cache_hits"] + 1

    def test_trivial_fast_path(self):
        theory = ODTheory([od("A", "B")])
        before = theory.stats()
        assert theory.implies(od("A,B", "A"))  # Reflexivity: rhs prefixes lhs
        assert theory.implies(equiv("A,B,B", "A,B"))  # Normalization
        after = theory.stats()
        assert after["fast_path"] == before["fast_path"] + 2
        assert after["enumerations"] == before["enumerations"]

    def test_constant_fast_path_learns(self):
        theory = ODTheory([od("", "A"), od("B", "C")])
        assert theory.is_constant("A")  # enumerates once, learns A constant
        before = theory.stats()
        # [B] |-> [B, A]: dropping the known constant A leaves rhs = prefix
        assert theory.implies(od("B", "B,A"))
        after = theory.stats()
        assert after["fast_path"] == before["fast_path"] + 1
        assert after["enumerations"] == before["enumerations"]
        assert after["known_constants"] >= 1

    def test_reset_stats_keeps_cache(self):
        theory = ODTheory([od("A", "B")])
        theory.implies(od("B", "A"))
        theory.reset_stats()
        stats = theory.stats()
        assert stats["implies_calls"] == 0
        assert stats["result_cache_size"] == 1
        theory.implies(od("B", "A"))
        assert theory.stats()["cache_hits"] == 1


class TestBoundedCaches:
    def test_result_cache_is_lru_bounded(self):
        theory = ODTheory([od("A", "B")], result_cache_size=4)
        for i in range(10):
            theory.implies(od("A", f"X{i}"))
        assert theory.stats()["result_cache_size"] <= 4

    def test_budget_guard_still_raises_every_time(self):
        premises = [od("a0", f"a{i}") for i in range(1, 12)]
        theory = ODTheory(premises, max_attributes=5)
        for _ in range(2):  # the raise must not be cached away
            with pytest.raises(TooManyAttributes):
                theory.implies(od("a0", "a1"))


class TestWitnessSoundness:
    """Cached witnesses stay genuine counterexamples."""

    def test_witness_refutes_and_models_theory(self):
        rng = random.Random(7)
        for _ in range(20):
            premises = random_od_set(NAMES, count=rng.randint(0, 3), rng=rng)
            theory = ODTheory(premises)
            goal = random_od(NAMES, rng=rng)
            for _ in range(2):  # second call is served by the cache
                witness = theory.counterexample(goal)
                if witness is None:
                    assert theory.implies(goal)
                    continue
                assert not satisfies_naive(witness, goal)
                for premise in premises:
                    assert satisfies_naive(witness, premise)


class TestSearchNodes:
    """``stats()["nodes"]`` — sign assignments tried — pinned on two fixed
    instances.  For scale: a DFS in alphabetical order that checks the goal
    only at the leaves tries 4296 and 34914 on them."""

    def test_chain_of_sixteen(self):
        theory = ODTheory(
            [od(f"c{i}", f"c{i + 1}") for i in range(15)], max_attributes=40
        )
        assert theory.implies(od("c0", "c15"))
        assert theory.stats()["nodes"] == 394

    def test_hard_random_theory_over_twelve_attributes(self):
        names = [chr(ord("A") + i) for i in range(12)]
        rng = random.Random(234)
        premises = random_od_set(names, 12, 2, rng)
        goal = random_od(names, 2, rng)
        theory = ODTheory(premises)
        assert theory.implies(goal)
        assert theory.stats()["nodes"] == 13298

    def test_cache_hits_and_fast_paths_search_nothing(self):
        theory = ODTheory([od("A", "B")])
        theory.implies(od("B", "A"))
        nodes = theory.stats()["nodes"]
        theory.implies(od("B", "A"))
        theory.implies(od("A,B", "A"))
        assert theory.stats()["nodes"] == nodes > 0


SIX = ("A", "B", "C", "D", "E", "F")
lists = st.lists(st.sampled_from(SIX), max_size=3, unique=True)
ods = st.builds(od, lists, lists)
statements = st.one_of(ods, st.builds(equiv, lists, lists), st.builds(compat, lists, lists))


def _component(premises, goal) -> set:
    """The goal's attributes plus every attribute linked to them through
    premises that share an attribute: what the search must enumerate."""
    component = set(goal.attributes)
    grown = True
    while grown:
        grown = False
        for premise in premises:
            attrs = premise.attributes
            if attrs & component and not attrs <= component:
                component |= attrs
                grown = True
    return component


def _negated(witness: Relation) -> Relation:
    """The witness with every sign negated (row ``s`` mirrored about ``t``)."""
    s, t = witness.rows
    return Relation(witness.attributes, [tuple(2 * b - a for a, b in zip(s, t)), t])


class TestWitnessContract:
    """Random theories over ≤ 6 attributes: the verdict does not depend on
    memoization or on the search, and every witness is a refutation whose
    sign-negated mirror is one too."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ods, max_size=5), statements)
    def test_verdicts_and_witnesses(self, premises, goal):
        theory = ODTheory(premises)
        implied = theory.implies(goal)
        assert ODTheory(premises, result_cache_size=0).implies(goal) == implied
        names = AttrList(sorted(theory.attributes | goal.attributes))
        assert implied == all(
            statement_holds(model, goal) for model in theory.models(names)
        )
        witness = theory.counterexample(goal)
        assert (witness is None) == implied
        if witness is None:
            return
        for relation in (witness, _negated(witness)):
            assert not satisfies_naive(relation, goal)
            assert all(satisfies_naive(relation, p) for p in premises)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ods, max_size=5), ods)
    def test_budget_counts_the_goal_component(self, premises, goal):
        if goal.rhs.normalized().is_prefix_of(goal.lhs.normalized()):
            return  # trivially true: answered without a search
        size = len(_component(premises, goal))
        ODTheory(premises, max_attributes=size).implies(goal)  # within budget
        with pytest.raises(TooManyAttributes):
            ODTheory(premises, max_attributes=size - 1).implies(goal)
