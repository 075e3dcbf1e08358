"""The proof-search prover: soundness, completeness on easy goals,
certificate validity."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attrs import AttrList
from repro.core.dependency import equiv, od
from repro.core.inference import ODTheory
from repro.core.proofs import check_proof
from repro.core.prover import decide, prove

NAMES = ("A", "B", "C")
side = st.lists(st.sampled_from(NAMES), max_size=2, unique=True).map(AttrList)
ods = st.builds(od, side, side)


class TestProve:
    def test_transitive_chain(self):
        proof = prove([od("A", "B"), od("B", "C")], od("A", "C"))
        assert proof is not None
        assert check_proof(proof)

    def test_given_goal(self):
        proof = prove([od("A", "B")], od("A", "B"))
        assert proof is not None and check_proof(proof)

    def test_reflexivity_goal(self):
        proof = prove([], od("A,B", "A"))
        assert proof is not None and check_proof(proof)

    def test_union_style_goal(self):
        proof = prove([od("A", "B"), od("A", "C")], od("A", "B,C"))
        assert proof is not None and check_proof(proof)

    def test_example1_equivalence(self):
        goal = equiv("C,B,A", "C,A")  # with A |-> B: LeftEliminate shape
        proof = prove([od("A", "B")], goal)
        assert proof is not None
        assert check_proof(proof)

    def test_unprovable_returns_none(self):
        assert prove([od("A", "B")], od("B", "A"), max_statements=2000) is None


class TestDecide:
    def test_refutation_carries_witness(self):
        verdict = decide([od("A", "B")], od("B", "A"))
        assert not verdict.implied
        assert verdict.counterexample is not None
        assert len(verdict.counterexample.rows) == 2

    def test_implication_carries_proof(self):
        verdict = decide([od("A", "B"), od("B", "C")], od("A", "C"))
        assert verdict.implied and verdict.proof is not None
        assert check_proof(verdict.proof)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(ods, max_size=2), ods)
    def test_agrees_with_oracle(self, premises, goal):
        verdict = decide(premises, goal, max_statements=4000)
        assert verdict.implied == ODTheory(premises).implies(goal)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(ods, max_size=2), ods)
    def test_found_proofs_always_check(self, premises, goal):
        """Soundness of search: anything proved replays through the kernel
        and is oracle-implied."""
        proof = prove(premises, goal, max_statements=4000)
        if proof is not None:
            assert check_proof(proof)
            assert ODTheory(premises).implies(goal)
