"""Every small implication instance, checked against an independent brute force.

The oracle (:class:`repro.core.inference.ODTheory`) decides ``M ⊨ θ`` with a
pruned search over two-row sign vectors.  This file judges it from outside,
the way a black-box checker judges a system: it has its own ``3^n``
enumeration of two-row models (:class:`Models`) and imports nothing from
``repro.core.signs`` or the oracle's internals.  Inside the bounds below it
enumerates instead of sampling, so a wrong verdict, witness, proof or rule
on a small instance cannot hide.

Bounds, stated once:

* **3 attributes** ``A, B, C``, every list of length ≤ 2 (10 lists, 100
  ODs): every premise set of at most two ODs, against every one of the 100
  goals.  An OD whose right side is a prefix of its left side holds in every
  model (checked here by the brute force), so it is a premise set on its
  own and never half of a pair.  The empty and every single-premise theory
  are also asked every ``X ↔ Y`` and ``X ~ Y`` over the same lists.
* **4 attributes** ``A–D``, every list of length ≤ 2 (17 lists, 289 ODs):
  every single premise against every goal.
* **Proofs**: every implied goal of the empty theory and of every
  single-premise theory on 3 attributes goes to ``prove`` with a small
  budget (``PROOF_BUDGET``); every proof it returns must pass
  ``check_proof``.
* **Rules**: every ``AXIOMS``, ``STRUCTURAL`` and ``THEOREMS`` entry, each
  list parameter ranging over the 10 lists of the 3-attribute grid (Chain
  with one or two links), is sound: every model of the premises is a model
  of the conclusion.

Four things are checked: ``implies()`` holds exactly when no sign vector
refutes the goal; ``satisfies_naive`` accepts every premise and rejects the
goal on every ``counterexample()``; ``check_proof`` accepts every proof; and
every rule is sound.
"""
from __future__ import annotations

import itertools

import pytest

from repro.core.attrs import AttrList
from repro.core.axioms import AXIOMS, STRUCTURAL, InvalidRuleApplication
from repro.core.dependency import (
    OrderCompatibility,
    OrderDependency,
    OrderEquivalence,
    compat,
    equiv,
    od,
)
from repro.core.inference import ODTheory
from repro.core.proofs import check_proof
from repro.core.prover import prove
from repro.core.satisfaction import satisfies_naive
from repro.core.theorems import THEOREMS

#: ``prove`` budget: small enough that a failing search stays cheap.
PROOF_BUDGET = {"max_len": 2, "max_statements": 100}


def grid(names, longest=2) -> list:
    """Every duplicate-free list over ``names`` of length ≤ ``longest``."""
    return [
        AttrList(p) for k in range(longest + 1) for p in itertools.permutations(names, k)
    ]


def every_od(names) -> list:
    """``X ↦ Y`` for every pair of lists of the grid over ``names``."""
    return [od(x, y) for x, y in itertools.product(grid(names), repeat=2)]


def _lex_sign(vector, positions) -> int:
    for p in positions:
        if vector[p]:
            return vector[p]
    return 0


class Models:
    """Every two-row model over ``names``, as the ``3^n`` sign vectors.

    A statement's meaning is the bitmask of the vectors it holds on (bit
    ``i`` for vector ``i``), so ``M ⊨ θ`` is ``mask(M) & ~mask(θ) == 0``.
    Only Definitions 4 and 5 are used: an OD ``X ↦ Y`` holds on two rows
    when their comparison on ``Y`` is equal or agrees with the one on ``X``
    (taking both orders of the pair), ``↔`` is two ODs and ``X ~ Y`` is
    ``XY ↔ YX``.
    """

    def __init__(self, names) -> None:
        self.index = {name: i for i, name in enumerate(names)}
        self.vectors = list(itertools.product((-1, 0, 1), repeat=len(names)))
        self.everything = (1 << len(self.vectors)) - 1
        self._lex = {}
        self._od = {}

    def lex(self, attrs) -> tuple:
        """The comparison sign of the two rows on ``attrs``, per vector."""
        # A repeated attribute never decides a comparison (its first
        # occurrence compared equal), so it is dropped from the memo key.
        key = tuple(dict.fromkeys(attrs))
        signs = self._lex.get(key)
        if signs is None:
            positions = [self.index[a] for a in key]
            signs = self._lex[key] = tuple(_lex_sign(v, positions) for v in self.vectors)
        return signs

    def od(self, lhs, rhs) -> int:
        key = (tuple(lhs), tuple(rhs))
        mask = self._od.get(key)
        if mask is None:
            mask = 0
            for bit, (x, y) in enumerate(zip(self.lex(lhs), self.lex(rhs))):
                if (y == 0) if x == 0 else (y in (0, x)):
                    mask |= 1 << bit
            self._od[key] = mask
        return mask

    def mask(self, statement) -> int:
        if isinstance(statement, OrderDependency):
            return self.od(statement.lhs, statement.rhs)
        if isinstance(statement, OrderEquivalence):
            x, y = statement.lhs, statement.rhs
            return self.od(x, y) & self.od(y, x)
        if isinstance(statement, OrderCompatibility):
            x, y = statement.lhs, statement.rhs
            return self.od(x + y, y + x) & self.od(y + x, x + y)
        raise TypeError(f"no brute-force meaning for {statement!r}")

    def models(self, statements) -> int:
        mask = self.everything
        for statement in statements:
            mask &= self.mask(statement)
        return mask

    def implied(self, premises, goal) -> bool:
        return self.models(premises) & ~self.mask(goal) == 0


class _Naive:
    """``satisfies_naive`` memoized on the witness's value (it is pure)."""

    def __init__(self) -> None:
        self._seen = {}

    def __call__(self, relation, statement) -> bool:
        key = (tuple(relation.attributes), tuple(relation.rows), statement)
        verdict = self._seen.get(key)
        if verdict is None:
            verdict = self._seen[key] = satisfies_naive(relation, statement)
        return verdict


def _check_theory(models, naive, premises, goals) -> int:
    """Every goal against one premise set; returns how many were implied."""
    theory = ODTheory(premises)
    base = models.models(premises)
    implied = 0
    for goal in goals:
        expected = base & ~models.mask(goal) == 0
        assert theory.implies(goal) == expected, (premises, goal)
        if expected:
            implied += 1
            assert theory.counterexample(goal) is None, (premises, goal)
            continue
        witness = theory.counterexample(goal)
        assert witness is not None and len(witness) == 2, (premises, goal)
        assert not naive(witness, goal), (premises, goal, witness.rows)
        for premise in premises:
            assert naive(witness, premise), (premises, goal, premise, witness.rows)
    return implied


def _premise_sets(ods, models) -> list:
    """The empty set, every single OD, and every pair of non-trivial ODs."""
    everything = models.everything
    trivial = [d for d in ods if models.mask(d) == everything]
    nontrivial = [d for d in ods if models.mask(d) != everything]
    for dependency in trivial:  # the reason trivial ODs are never paired
        assert dependency.rhs.is_prefix_of(dependency.lhs), dependency
    return (
        [()]
        + [(d,) for d in ods]
        + list(itertools.combinations(nontrivial, 2))
    )


def test_three_attributes_every_pair_of_premises():
    names = ("A", "B", "C")
    ods = every_od(names)
    assert len(ods) == 100
    models, naive = Models(names), _Naive()
    sets = _premise_sets(ods, models)
    assert len(sets) == 1 + 100 + 75 * 74 // 2
    implied = sum(_check_theory(models, naive, premises, ods) for premises in sets)
    # Both verdicts are well represented, so neither side is vacuous.
    assert 0.2 < implied / (len(sets) * len(ods)) < 0.8


def test_three_attributes_equivalence_and_compatibility_goals():
    # A ↔ or ~ goal is a conjunction of ODs: the search must refute it as
    # soon as one conjunct fails, and only then.
    names = ("A", "B", "C")
    pairs = list(itertools.product(grid(names), repeat=2))
    goals = [kind(x, y) for kind in (equiv, compat) for x, y in pairs]
    models, naive = Models(names), _Naive()
    for premises in [()] + [(d,) for d in every_od(names)]:
        _check_theory(models, naive, premises, goals)


def test_four_attributes_every_single_premise():
    names = ("A", "B", "C", "D")
    ods = every_od(names)
    assert len(ods) == 289
    models, naive = Models(names), _Naive()
    for premises in [()] + [(d,) for d in ods]:
        _check_theory(models, naive, premises, ods)


def test_every_proof_found_checks():
    names = ("A", "B", "C")
    ods = every_od(names)
    models = Models(names)
    found = 0
    for premises in [()] + [(d,) for d in ods]:
        for goal in ods:
            if not models.implied(premises, goal):
                continue
            proof = prove(premises, goal, **PROOF_BUDGET)
            if proof is None:
                continue
            assert check_proof(proof), (premises, goal)
            assert tuple(proof.assumptions) == premises
            assert proof.conclusion == goal, (premises, goal, proof.conclusion)
            found += 1
    assert found > 1000


# ----------------------------------------------------------------------
# Rule soundness on the full grid
# ----------------------------------------------------------------------
_STATEMENTS = (OrderDependency, OrderEquivalence, OrderCompatibility)


def _chain_premises(x, links, z) -> list:
    """OD6's premises: ``X ~ Y₁``, ``Yᵢ ~ Yᵢ₊₁``, ``Yₙ ~ Z``, ``YᵢX ~ YᵢZ``."""
    steps = [x, *links, z]
    return [compat(a, b) for a, b in zip(steps, steps[1:])] + [
        compat(y + x, y + z) for y in links
    ]


def _rule_instances(lists) -> dict:
    """Rule name -> the argument tuples of its instances over ``lists``."""
    def each(k):
        return itertools.product(lists, repeat=k)

    def permutations(attrs):
        return [AttrList(p) for p in itertools.permutations(attrs)]

    return {
        # OD1–OD6
        "Reflexivity": ((x, y) for x, y in each(2)),
        "Prefix": ((od(x, y), z) for x, y, z in each(3)),
        "Normalization": each(4),
        "Transitivity": ((od(x, y), od(y, z)) for x, y, z in each(3)),
        "Suffix": ((od(x, y),) for x, y in each(2)),
        "Chain": (
            (_chain_premises(x, links, z), x, links, z)
            for x, z in each(2)
            for k in (1, 2)
            for links in each(k)
        ),
        # structural
        "EquivIntro": ((od(x, y), od(y, x)) for x, y in each(2)),
        "EquivLeft": ((equiv(x, y),) for x, y in each(2)),
        "EquivRight": ((equiv(x, y),) for x, y in each(2)),
        "EquivTrans": ((equiv(x, y), equiv(u, v)) for x, y, u, v in each(4)),
        "CompatIntro": ((equiv(x + y, y + x), x, y) for x, y in each(2)),
        "CompatElim": ((compat(x, y),) for x, y in each(2)),
        # Theorems 2–15 and the FrontReplace / Normalize macros
        "Union": ((od(x, y), od(x, z)) for x, y, z in each(3)),
        "Augmentation": ((od(x, y), z) for x, y, z in each(3)),
        "FrontReplace": ((equiv(x, y), w) for x, y, w in each(3)),
        "Shift": ((equiv(x, y), od(v, w)) for x, y, v, w in each(4)),
        "Decomposition": ((od(x, y + z), y) for x, y, z in each(3)),
        "Replace": ((equiv(x, y), z, w) for x, y, z, w in each(4)),
        "Eliminate": ((od(x, y), w, v, u) for x, y, w, v, u in each(5)),
        "LeftEliminate": ((od(x, y), z, w) for x, y, z, w in each(4)),
        "Drop": ((od(x, v + u + t), od(v, u)) for x, v, u, t in each(4)),
        "Path": ((od(x, u + t), od(u, v)) for x, u, t, v in each(4)),
        "Partition": ((od(z, x), od(z, y)) for z, x, y in each(3)),
        "DownwardClosure": ((compat(x, y + z), y) for x, y, z in each(3)),
        "Permutation": (
            (od(x, x + y), xp, yp)
            for x, y in each(2)
            for xp in permutations(x)
            for yp in permutations(y)
        ),
        "Compose": ((od(x, x + y), compat(x, y)) for x, y in each(2)),
        "FDFacet": ((od(x, y),) for x, y in each(2)),
        "CompatFacet": ((od(x, y),) for x, y in each(2)),
        "Normalize": (
            (kind(x + y, y + z),)
            for kind in (od, equiv, compat)
            for x, y, z in each(3)
        ),
    }


def test_every_rule_sound_on_full_grid():
    names = ("A", "B", "C")
    models = Models(names)
    registry = {**AXIOMS, **STRUCTURAL, **THEOREMS}
    instances = _rule_instances(grid(names))
    assert set(instances) == set(registry), "a rule has no instance generator"
    for name, rule in registry.items():
        applied = 0
        for args in instances[name]:
            try:
                conclusion = rule(*args)
            except InvalidRuleApplication:
                continue
            premises = [a for a in args if isinstance(a, _STATEMENTS)]
            if name == "Chain":
                premises = args[0]
            assert models.implied(premises, conclusion), (name, args, conclusion)
            applied += 1
        assert applied, f"{name} never applied on the grid"


@pytest.mark.parametrize(
    "premises, goal, expected",
    [
        ([], od("A,B", "A"), True),  # Reflexivity
        ([], od("A", "A,B"), False),
        ([od("A", "B"), od("B", "C")], od("A", "C"), True),  # Transitivity
        ([od("A", "B"), od("B", "C")], od("C", "A"), False),
        ([od("A", "B")], od("A", "A,B"), True),  # the FD facet
        ([od("A,B", "C")], od("A", "C"), False),  # no left decomposition
        ([compat("A", "B")], equiv("A,B", "B,A"), True),  # Definition 5
    ],
)
def test_brute_force_on_textbook_cases(premises, goal, expected):
    assert Models(("A", "B", "C")).implied(premises, goal) == expected
