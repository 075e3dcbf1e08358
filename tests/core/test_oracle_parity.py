"""The refutation search answers exactly as it did, and as brute force does.

Two nets for changes to the uncached core of :class:`ODTheory`:

* **Parity digest.**  A seeded family of theories over 8, 10 and 12
  attributes — ``random_od_set`` ODs with ``↔``, ``~`` and FD premises
  mixed in, half of the theories sparse enough to split into several
  attribute components — is asked mixed goals.  Every verdict, every ``(names,
  signs)`` witness the search returns, the ``nodes`` it spent per goal and
  the theory's final ``stats()`` go into one SHA-256 digest.  The committed
  digest was computed with the search as it stood before the per-theory
  component index and the inline premise checks; any change that tries
  values in another order or cuts another subtree changes it.
* **Brute force.**  Random theories over 5–7 attributes, where the goal's
  component is usually a strict part of the schema, are checked against a
  ``3^n`` enumeration of two-row models written from Definitions 4 and 5
  alone.  It shares no code with the oracle, the way a black-box checker
  shares none with the system it judges.
  ``test_implication_exhaustive.py`` stops at 4 attributes, where a
  component bug rarely has room to show.
"""
from __future__ import annotations

import hashlib
import itertools
import random

from repro.core.dependency import (
    FunctionalDependency,
    OrderCompatibility,
    OrderDependency,
    OrderEquivalence,
    compat,
    equiv,
    fd,
)
from repro.core.inference import ODTheory
from repro.core.satisfaction import satisfies_naive
from repro.workloads.random_instances import random_attrlist, random_od, random_od_set

#: SHA-256 of the family's answers (see ``_family_records``).
FAMILY_DIGEST = "677f6961b954eb47c3969b3b16873ecf6cb70049cee4098e3a7b9a4e16c27d95"


def _mixed(names, rng):
    """A random ``↔``, ``~`` or FD statement over lists of length ≤ 2."""
    x = random_attrlist(names, 2, rng)
    y = random_attrlist(names, 2, rng)
    kind = rng.randrange(3)
    if kind == 0:
        return equiv(x, y)
    if kind == 1:
        return compat(x, y)
    return fd(x, y)


def _goal(names, rng):
    return random_od(names, 3, rng) if rng.random() < 0.7 else _mixed(names, rng)


def _family():
    """``(premises, goals)`` per theory: 16 theories each at 8, 10 and 12
    attributes, alternately sparse (``n // 3`` ODs) and as dense as the
    benchmark's family (``n`` ODs), each plus two mixed statements and
    asked 15 goals."""
    rng = random.Random(0x5EED)
    for size in (8, 10, 12):
        names = [chr(ord("A") + i) for i in range(size)]
        for k in range(16):
            premises = random_od_set(names, size if k % 2 else size // 3, 2, rng)
            premises += [_mixed(names, rng) for _ in range(2)]
            rng.shuffle(premises)
            goals = [_goal(names, rng) for _ in range(15)]
            yield premises, goals


def _family_records():
    records = []
    for premises, goals in _family():
        theory = ODTheory(premises)
        for goal in goals + goals[:3]:  # the repeats are answered by the cache
            before = theory.stats()["nodes"]
            records.append((str(goal), theory._decide(goal), theory.stats()["nodes"] - before))
        records.append(tuple(sorted(theory.stats().items())))
    return records


def test_family_digest_unchanged():
    digest = hashlib.sha256(repr(_family_records()).encode()).hexdigest()
    assert digest == FAMILY_DIGEST, digest


def _fixed_point(ods, goal_attrs):
    """The goal's component by closing its attributes under "shares an
    attribute with a premise", and the premises inside it."""
    component = set(goal_attrs)
    changed = True
    while changed:
        changed = False
        for dependency in ods:
            attrs = dependency.attributes
            if attrs & component and not attrs <= component:
                component |= attrs
                changed = True
    used = tuple(d for d in ods if d.attributes and d.attributes <= component)
    return frozenset(component), used


def test_component_lookup_equals_the_fixed_point():
    for premises, goals in _family():
        theory = ODTheory(premises)
        for goal in goals:
            goal_attrs = frozenset(goal.attributes)
            component, used = theory._relevant_premises(goal_attrs)
            expected = _fixed_point(theory.ods, goal_attrs)
            assert (component, tuple(theory.ods[i] for i in used)) == expected


def test_family_has_several_components():
    # The digest only guards the component index if theories split.
    split = 0
    for premises, _ in _family():
        ods = ODTheory(premises).ods
        mentioned = frozenset().union(*(d.attributes for d in ods))
        split += _fixed_point(ods, {min(mentioned)})[0] != mentioned
    assert split >= 20, split  # 25 of the 48 split


# ----------------------------------------------------------------------
# Brute force on 5–7 attributes
# ----------------------------------------------------------------------
def _first(vector, positions) -> int:
    for p in positions:
        if vector[p]:
            return vector[p]
    return 0


class Models:
    """Every two-row model over ``names`` as one of the ``3^n`` sign vectors;
    a statement's meaning is the set of vector indices it holds on."""

    def __init__(self, names) -> None:
        self.index = {name: i for i, name in enumerate(names)}
        self.vectors = list(itertools.product((-1, 0, 1), repeat=len(names)))

    def _od(self, lhs, rhs) -> frozenset:
        x_at = [self.index[a] for a in lhs]
        y_at = [self.index[a] for a in rhs]
        held = set()
        for i, v in enumerate(self.vectors):
            x, y = _first(v, x_at), _first(v, y_at)
            if y == 0 or y == x:  # Definition 4, both orders of the pair
                held.add(i)
        return frozenset(held)

    def holds(self, statement) -> frozenset:
        if isinstance(statement, OrderDependency):
            return self._od(statement.lhs, statement.rhs)
        if isinstance(statement, OrderEquivalence):
            return self._od(statement.lhs, statement.rhs) & self._od(
                statement.rhs, statement.lhs
            )
        if isinstance(statement, OrderCompatibility):  # Definition 5
            xy, yx = statement.lhs + statement.rhs, statement.rhs + statement.lhs
            return self._od(xy, yx) & self._od(yx, xy)
        if isinstance(statement, FunctionalDependency):
            x_at = [self.index[a] for a in statement.lhs]
            y_at = [self.index[a] for a in statement.rhs]
            return frozenset(
                i
                for i, v in enumerate(self.vectors)
                if any(v[p] for p in x_at) or not any(v[p] for p in y_at)
            )
        raise TypeError(statement)


def test_brute_force_agreement_five_to_seven_attributes():
    rng = random.Random(0xB0F)
    refuted = implied = 0
    for size in (5, 6, 7):
        names = [chr(ord("A") + i) for i in range(size)]
        models = Models(names)
        everything = frozenset(range(len(models.vectors)))
        for _ in range(12):
            premises = random_od_set(names, rng.randint(1, size - 2), 2, rng)
            premises += [_mixed(names, rng) for _ in range(rng.randint(0, 2))]
            theory = ODTheory(premises)
            base = everything
            for premise in premises:
                base &= models.holds(premise)
            for _ in range(12):
                goal = _goal(names, rng)
                expected = base <= models.holds(goal)
                assert theory.implies(goal) == expected, (premises, goal)
                witness = theory.counterexample(goal)
                if expected:
                    implied += 1
                    assert witness is None
                    continue
                refuted += 1
                assert not satisfies_naive(witness, goal), (premises, goal)
                for premise in premises:
                    assert satisfies_naive(witness, premise), (premises, goal, premise)
    assert implied > 50 and refuted > 50, (implied, refuted)
