"""Theorem 16/17 — soundness and completeness — as executable experiments.

* Soundness of every rule on a full instantiation grid lives in
  ``test_implication_exhaustive.py``, beside its own brute force.
* Completeness over FDs (Theorem 16): the OD oracle agrees exactly with
  Armstrong closure on FD implication.
* Completeness over ODs (Theorem 17): for random theories, the constructed
  Armstrong relation separates implied from non-implied ODs.
"""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.armstrong import paper_armstrong
from repro.core.attrs import AttrList
from repro.core.dependency import FunctionalDependency, od
from repro.core.inference import ODTheory
from repro.core.satisfaction import satisfies
from repro.fd.closure import attribute_closure, fd_implies
from repro.workloads.random_instances import random_od_set

NAMES = ("A", "B", "C")

fd_sides = st.lists(st.sampled_from(NAMES), max_size=2, unique=True)
fds = st.builds(FunctionalDependency, fd_sides, fd_sides)


class TestFDCompleteness:
    """Theorem 16: the OD system decides FD implication exactly."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(fds, max_size=3), fds)
    def test_oracle_matches_armstrong_closure(self, premises, goal):
        oracle = ODTheory(premises).implies(goal)
        classical = fd_implies(premises, goal)
        assert oracle == classical

    def test_armstrong_axioms_derivable(self):
        from repro.fd.bridge import armstrong_rules_via_ods

        for x, y, z in itertools.permutations((("A",), ("B",), ("C",)), 3):
            assert armstrong_rules_via_ods(x, y, z) == (True, True, True)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(fds, max_size=3), st.sets(st.sampled_from(NAMES), max_size=2))
    def test_fd_closure_matches(self, premises, base):
        theory = ODTheory(premises)
        expected = attribute_closure(base, premises) & set(NAMES) | set(base)
        got = theory.fd_closure(base)
        # the classical closure may mention attributes outside the theory;
        # compare on the mentioned universe plus the base
        universe = set(theory.attributes) | set(base)
        assert got == (expected & universe) | set(base)


class TestODCompleteness:
    """Theorem 17 at random theories: the Armstrong table is a perfect
    separator for implication."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_theories(self, seed):
        rng = random.Random(seed)
        premises = random_od_set(NAMES, count=rng.randint(1, 3), rng=rng)
        theory = ODTheory(premises)
        table = paper_armstrong(theory, AttrList(NAMES))
        for premise in premises:
            assert satisfies(table, premise)
        # exhaustive over short candidate ODs
        lists = [
            AttrList(p)
            for k in range(0, 3)
            for p in itertools.permutations(NAMES, k)
        ]
        for lhs in lists:
            for rhs in lists:
                candidate = od(lhs, rhs)
                assert satisfies(table, candidate) == theory.implies(candidate), (
                    f"M={premises}, candidate={candidate}"
                )
