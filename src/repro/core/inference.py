"""The OD implication oracle: an exact theorem prover for order dependencies.

The paper lists an efficient *theorem prover* — deciding whether a set of
prescribed ODs ``M`` logically implies a candidate OD — as the first item of
future work.  This module supplies one, exact and complete, built on the
two-row small-model property (:mod:`repro.core.signs`):

    ``M ⊨ θ``  iff  every sign vector satisfying ``M`` satisfies ``θ``.

The enumeration is exponential in the number of *mentioned* attributes
(consistent with the later coNP-completeness result for OD implication).  The
search is goal-directed DFS over the attributes of the goal's connected
component:

* **goal attributes first**, in order of first appearance in the canonical
  goals, then the rest of the component in sorted order;
* **goals decided early**: once the last goal attribute is assigned every
  goal's two lexicographic signs are fixed, so a subtree where all goals
  hold is cut (no extension refutes them), and below a refuted goal only
  premise satisfiability is left to find;
* **premises pruned early**: each premise is checked at the position of
  its last attribute, so a partial assignment that already falsifies one
  loses its whole subtree;
* **sign symmetry**: swapping the two rows negates every sign and
  preserves every OD, and the all-zero vector satisfies everything, so
  until the first non-zero sign only ``0`` and ``+1`` are tried.

A cold decision redoes only the work that depends on its goal.  The first
search of a theory builds its **component index** once: a union-find over
premise attributes, mapping each attribute to its component and each
component to its premises (in premise order), each premise normalized to a
pair of name tuples — reflexive and repeated premises are never checked.
The goal's component is then a lookup, not a fixed point over the premises.
Premises and goals are compiled against the goal's position order to
``(lhs_positions, rhs_positions)`` pairs, and the DFS checks premises
**inline**: a premise fails iff its rhs's first non-zero sign is non-zero
and differs from its lhs's (:func:`repro.core.signs.violates`, without the
call).

Schema-scale problems (≤ 16 or so attributes) decide in well under a second;
``stats()["nodes"]`` counts the sign assignments tried, a cost that does not
depend on the host.

Besides yes/no answers the oracle produces **counterexample witnesses**: a
concrete two-row relation satisfying ``M`` and falsifying ``θ``, which is how
the library *shows its work* and how the test suite cross-validates every
derived theorem in :mod:`repro.core.theorems`.  A witness is *a* refuting
model, the first the search above reaches; callers may rely on it being
accepted by :func:`repro.core.satisfaction.satisfies_naive` (premises hold,
goal fails), not on which model it is.

**Memoization.**  A theory is immutable, so implication answers are too:
every query is canonicalized (component ODs normalized per the
Normalization axiom, trivially-true components dropped) and the refutation
result — ``None`` for implied, else the exact ``(names, signs)`` witness
tuple — is kept in a bounded LRU keyed on that canonical form.  Repeated
planner probes over the same query template therefore short-circuit without
re-enumerating sign vectors, and memoized answers (including counterexample
witnesses) are bit-identical to uncached ones because the cache stores the
search's own output.  Fast paths answer trivial/prefix/constant-reducible
goals before the cache is even consulted; :meth:`ODTheory.stats` exposes
hit/miss/fast-path counters for EXPLAIN output and benchmarks.
"""
from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .attrs import EMPTY, AttrList, attrlist
from .dependency import (
    FunctionalDependency,
    OrderCompatibility,
    OrderDependency,
    OrderEquivalence,
    Statement,
    expand_all,
    to_ods,
)
from .relation import Relation
from .signs import compile_od, materialize, violates

__all__ = [
    "ODTheory",
    "implies",
    "counterexample",
    "is_trivial",
    "constants",
    "irreducible_cover",
]

#: Refuse enumeration beyond this many attributes by default (3^18 ≈ 4e8).
DEFAULT_MAX_ATTRIBUTES = 18

#: Default bound on memoized implication results per theory.
DEFAULT_RESULT_CACHE_SIZE = 4096

_MISS = object()

#: Signs tried at a position: ``_FIRST_SIGN`` while every earlier sign is 0
#: (row-swap symmetry fixes the first non-zero sign to +1), else all three.
_FIRST_SIGN = (0, 1)
_ANY_SIGN = (0, -1, 1)


class _LRUCache:
    """A small bounded mapping with least-recently-used eviction."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[tuple, object]" = OrderedDict()

    def get(self, key, default=None):
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


def _normalized(dependency: OrderDependency) -> Tuple[tuple, tuple]:
    """Both sides as name tuples, repeats dropped (the Normalization axiom)."""
    return tuple(dict.fromkeys(dependency.lhs)), tuple(dict.fromkeys(dependency.rhs))


class TooManyAttributes(RuntimeError):
    """Raised when an implication problem exceeds the enumeration budget."""


class ODTheory:
    """A set of prescribed dependency statements with an implication oracle.

    Wraps a collection of statements (ODs, equivalences, compatibilities,
    FDs — anything :func:`repro.core.dependency.to_ods` understands) and
    answers implication queries against it.  Answers are memoized per
    canonical goal, so repeated queries are cheap.
    """

    def __init__(
        self,
        statements: Iterable[Statement] = (),
        max_attributes: int = DEFAULT_MAX_ATTRIBUTES,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
    ) -> None:
        self.statements: tuple = tuple(statements)
        self.ods: tuple = expand_all(self.statements)
        self.max_attributes = max_attributes
        self._universe = frozenset().union(
            *(dependency.attributes for dependency in self.ods)
        ) if self.ods else frozenset()
        self._result_cache_size = result_cache_size
        #: canonical goal set -> None (implied) | (names, signs) refutation.
        #: ``result_cache_size=0`` disables memoization entirely (used by
        #: tests to cross-check cached answers against fresh searches).
        self._result_cache: Optional[_LRUCache] = (
            _LRUCache(result_cache_size) if result_cache_size > 0 else None
        )
        #: attributes proven constant ([] ↦ [A]) by earlier queries; lets
        #: the constant fast path reduce goals without touching the oracle.
        self._known_constants: set = set()
        #: :meth:`_component_index`, built by the first search.
        self._components: Optional[tuple] = None
        self._counters: Dict[str, int] = {
            "implies_calls": 0,
            "fast_path": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "enumerations": 0,
            "nodes": 0,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> frozenset:
        """Every attribute mentioned by some premise."""
        return self._universe

    def __len__(self) -> int:
        return len(self.ods)

    def extended(self, statements: Iterable[Statement]) -> "ODTheory":
        """A new theory with additional premises (caches start fresh — the
        premises changed, so memoized answers would be unsound — but keep
        this theory's cache configuration)."""
        return ODTheory(
            self.statements + tuple(statements),
            self.max_attributes,
            result_cache_size=self._result_cache_size,
        )

    def stats(self) -> Dict[str, object]:
        """Oracle instrumentation: call, fast-path, cache and search counters.

        ``hit_rate`` is over result-cache lookups only (fast-path answers
        never reach the cache); the raw counters are what the planner diffs
        to attribute oracle work to a single plan.  ``nodes`` is the number
        of sign assignments the refutation searches tried: the search's
        deterministic cost, independent of the host's speed.
        """
        out: Dict[str, object] = dict(self._counters)
        lookups = self._counters["cache_hits"] + self._counters["cache_misses"]
        out["hit_rate"] = self._counters["cache_hits"] / lookups if lookups else 0.0
        out["result_cache_size"] = (
            len(self._result_cache) if self._result_cache is not None else 0
        )
        out["known_constants"] = len(self._known_constants)
        return out

    def reset_stats(self) -> None:
        """Zero the counters (caches are kept — they stay sound)."""
        for key in self._counters:
            self._counters[key] = 0

    # ------------------------------------------------------------------
    # Core decision procedure
    # ------------------------------------------------------------------
    def _attribute_order(self, extra: frozenset) -> tuple:
        return tuple(sorted(self._universe | extra))

    def _component_index(self) -> tuple:
        """The theory's attribute components, built on the first search.

        A union-find over premise attributes (quick-find: every attribute
        maps to its component's attribute set, and a premise merges the
        sets of the attributes it mentions).  Returns ``(component_of,
        premises, compiled)``:

        * ``component_of`` maps each premise attribute to its component;
        * ``premises[c]`` is the indices, in ``self.ods`` order, of the
          premises that mention some attribute of component ``c``;
        * ``compiled[i]`` is premise ``i`` as a ``(lhs, rhs)`` pair of
          normalized name tuples, or ``None`` when it never needs checking:
          its normalized rhs prefixes its lhs, so it holds on every sign
          vector (Reflexivity) and only joins components, or an earlier
          premise has the same normalized sides.
        """
        if self._components is not None:
            return self._components
        normalized = [_normalized(dependency) for dependency in self.ods]
        component_of: Dict[str, frozenset] = {}
        for lhs, rhs in normalized:
            merged = frozenset(lhs + rhs).union(
                *(component_of.get(name, ()) for name in lhs + rhs)
            )
            for name in merged:
                component_of[name] = merged
        premises: Dict[frozenset, list] = {}
        compiled: list = []
        seen = set()
        for i, premise in enumerate(normalized):
            lhs, rhs = premise
            if lhs or rhs:
                premises.setdefault(component_of[(lhs + rhs)[0]], []).append(i)
            if lhs[: len(rhs)] == rhs or premise in seen:
                compiled.append(None)
            else:
                seen.add(premise)
                compiled.append(premise)
        self._components = (
            component_of,
            {component: tuple(indices) for component, indices in premises.items()},
            tuple(compiled),
        )
        return self._components

    def _relevant_premises(self, goal_attrs: frozenset) -> tuple:
        """The goal's connected component and the indices, in ``self.ods``
        order, of the premises inside it.

        Sound *and* complete filtering: a two-row model over the component
        extends to a full model by zeroing every other attribute (all-equal
        signs satisfy any OD), so disconnected premises can never block a
        counterexample.  This keeps implication queries exponential only in
        the *relevant* attribute count, not the schema width.  The component
        is the goal's attributes plus every premise component one of them
        belongs to — a lookup in :meth:`_component_index`, equal to closing
        the goal's attributes under "shares an attribute with a premise".
        """
        component_of, premises, _ = self._component_index()
        touched = {component_of[a] for a in goal_attrs if a in component_of}
        component = frozenset(goal_attrs).union(*touched)
        if len(touched) == 1:
            return component, premises[next(iter(touched))]
        return component, tuple(sorted(i for c in touched for i in premises[c]))

    @staticmethod
    def _canonical_goals(statement: Statement) -> Tuple[tuple, ...]:
        """The statement's canonical form: a sorted, duplicate-free tuple of
        ``(lhs, rhs)`` column tuples, one per non-trivial component OD.

        Both sides are normalized (sound by the Normalization axiom) and
        components whose normalized rhs prefixes their lhs are dropped —
        they hold on every instance (Reflexivity), so they never decide the
        conjunction nor change which sign vectors refute it.
        """
        goals = set()
        for dependency in to_ods(statement):
            lhs, rhs = _normalized(dependency)
            if lhs[: len(rhs)] != rhs:
                goals.add((lhs, rhs))
        return tuple(sorted(goals))

    def _constant_reduced_trivial(self, goals: Tuple[tuple, ...]) -> bool:
        """True when dropping known-constant attributes (sign forced 0 in
        every model, so they never influence a lexicographic comparison)
        makes every goal component trivial-by-prefix."""
        constants = self._known_constants
        if not constants:
            return False
        for lhs, rhs in goals:
            reduced_lhs = tuple(a for a in lhs if a not in constants)
            reduced_rhs = tuple(a for a in rhs if a not in constants)
            if reduced_rhs != reduced_lhs[: len(reduced_rhs)]:
                return False
        return True

    def _decide(self, statement: Statement) -> Optional[tuple]:
        """Memoized refutation search over the canonicalized statement.

        Returns ``None`` when implied, else the ``(names, signs)`` witness
        tuple — always the same tuple the uncached search would produce.
        """
        self._counters["implies_calls"] += 1
        goals = self._canonical_goals(statement)
        if not goals:
            self._counters["fast_path"] += 1
            return None
        if self._constant_reduced_trivial(goals):
            self._counters["fast_path"] += 1
            return None
        if self._result_cache is not None:
            found = self._result_cache.get(goals, _MISS)
            if found is not _MISS:
                self._counters["cache_hits"] += 1
                return found
            self._counters["cache_misses"] += 1
        result = self._search_refutation(goals)
        if self._result_cache is not None:
            self._result_cache.put(goals, result)
        if result is None:
            for lhs, rhs in goals:
                if not lhs:  # [] ↦ rhs implied: every rhs attribute is constant
                    self._known_constants.update(rhs)
        return result

    def _search_refutation(self, goals: Tuple[tuple, ...]) -> Optional[tuple]:
        """The exact, goal-directed DFS over sign vectors (uncached core).

        Positions are the goal attributes in order of first appearance in
        ``goals``, then the rest of their connected component, sorted.  A
        premise is checked at the position of its last attribute.  The goals
        are checked once, at the position of the last goal attribute: where
        they all hold the subtree is cut, and below it only a premise-
        satisfying completion is searched for.  Until the first non-zero
        sign only ``0`` and ``+1`` are tried, since negating every sign of a
        refutation gives another one.

        Returns ``(names, signs)`` — a sign tuple satisfying the theory but
        falsifying some goal — or ``None`` when the goals are implied.
        """
        self._counters["enumerations"] += 1
        goal_names = tuple(
            dict.fromkeys(name for lhs, rhs in goals for name in lhs + rhs)
        )
        component, used = self._relevant_premises(frozenset(goal_names))
        names = goal_names + tuple(sorted(component.difference(goal_names)))
        if len(names) > self.max_attributes:
            raise TooManyAttributes(
                f"{len(names)} attributes exceed the enumeration budget "
                f"({self.max_attributes}); raise max_attributes explicitly"
            )
        index = {name: i for i, name in enumerate(names)}
        targets = tuple(compile_od(lhs, rhs, index) for lhs, rhs in goals)
        # Bucket each premise at its trigger position, so the DFS checks it
        # exactly once per partial assignment.
        compiled = self._component_index()[2]
        buckets: List[list] = [[] for _ in names]
        for i in used:
            if compiled[i] is not None:
                lhs, rhs = check = compile_od(*compiled[i], index)
                buckets[max(lhs + rhs)].append(check)

        decided = len(goal_names) - 1
        last = len(names) - 1
        signs = [0] * len(names)
        nodes = 0

        def dfs(position: int, values: tuple) -> Optional[tuple]:
            nonlocal nodes
            checks = buckets[position]
            for value in values:
                nodes += 1
                signs[position] = value
                # ``violates`` inline: a premise fails iff its rhs's first
                # non-zero sign is non-zero and differs from its lhs's.
                for lhs, rhs in checks:
                    for p in rhs:
                        r = signs[p]
                        if r:
                            break
                    else:
                        continue  # rhs all equal: holds
                    for p in lhs:
                        l = signs[p]
                        if l:
                            break
                    else:
                        break  # lhs all equal, rhs not: fails
                    if l != r:
                        break  # opposite signs: fails
                else:  # every premise triggered at this position holds
                    if position == decided and not any(
                        violates(signs, goal) for goal in targets
                    ):
                        continue  # no extension can refute these goals
                    if position == last:
                        return tuple(signs)
                    found = dfs(position + 1, _ANY_SIGN if value else values)
                    if found is not None:
                        return found
            return None

        found = dfs(0, _FIRST_SIGN)
        self._counters["nodes"] += nodes
        if found is None:
            return None
        return (names, found)

    def implies(self, statement: Statement) -> bool:
        """Exact logical implication: does every model of the theory satisfy
        the statement?  Memoized — see the module docstring."""
        return self._decide(statement) is None

    def counterexample(self, statement: Statement) -> Optional[Relation]:
        """A two-row relation satisfying the theory and falsifying the
        statement, or ``None`` when the statement is implied.

        The witness is *a* refuting model — whichever one the search reaches
        first — not a canonical one: callers may rely on
        :func:`~repro.core.satisfaction.satisfies_naive` accepting every
        premise on it and rejecting the statement, and on repeated calls
        returning the same witness, but not on which model it is."""
        refutation = self._decide(statement)
        if refutation is None:
            return None
        names, signs = refutation
        sigma = dict(zip(names, signs))
        # Attributes outside the relevant component take equal values (sign
        # 0), which satisfies every OD, so the witness models the whole
        # theory, not just the filtered premises.
        for name in self._universe:
            sigma.setdefault(name, 0)
        return materialize(sigma, AttrList(sorted(sigma)))

    def entails_all(self, statements: Iterable[Statement]) -> bool:
        """Check several statements at once."""
        return all(self.implies(statement) for statement in statements)

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def is_constant(self, attribute: str) -> bool:
        """Definition 18: ``A`` is constant iff ``[] ↦ [A]`` is implied."""
        return self.implies(OrderDependency(EMPTY, AttrList([attribute])))

    def constants(self) -> frozenset:
        """Every mentioned attribute forced to a single value."""
        return frozenset(a for a in self._universe if self.is_constant(a))

    def order_compatible(self, lhs, rhs) -> bool:
        """Is ``lhs ~ rhs`` implied (Definition 5)?"""
        return self.implies(OrderCompatibility(attrlist(lhs), attrlist(rhs)))

    def equivalent(self, lhs, rhs) -> bool:
        """Is ``lhs ↔ rhs`` implied?"""
        return self.implies(OrderEquivalence(attrlist(lhs), attrlist(rhs)))

    def fd_holds(self, dependency: "FunctionalDependency | str") -> bool:
        """Is the FD implied?  Uses the Theorem 13 OD encoding."""
        if isinstance(dependency, str):
            from .dependency import parse_statement

            parsed = parse_statement(dependency)
            if not isinstance(parsed, FunctionalDependency):
                raise TypeError(f"not an FD: {dependency!r}")
            dependency = parsed
        return self.implies(dependency)

    def fd_closure(self, attributes: Iterable[str]) -> frozenset:
        """The FD-closure of an attribute set under the theory's FD facets.

        ``A ∈ closure(W)`` iff ``W ↦ W ++ [A]`` is implied — by Theorem 13
        that is exactly the classical ``W → A``.
        """
        base = AttrList(sorted(set(attributes)))
        closed = set(base)
        for attribute in sorted(self._universe - set(base)):
            candidate = OrderDependency(base, base + [attribute])
            if self.implies(candidate):
                closed.add(attribute)
        return frozenset(closed)

    def compatibility_graph(self) -> Dict[str, frozenset]:
        """Adjacency of single attributes under implied pairwise ``~``.

        Used by the empty-context swap construction (Figure 9 / Lemma 12) and
        exposed for diagnostics: two attributes in the same connected
        component can never receive an empty-context swap.
        """
        names = sorted(self._universe)
        adjacency: Dict[str, set] = {name: set() for name in names}
        for a, b in itertools.combinations(names, 2):
            if self.order_compatible(AttrList([a]), AttrList([b])):
                adjacency[a].add(b)
                adjacency[b].add(a)
        return {name: frozenset(neighbors) for name, neighbors in adjacency.items()}

    def models(self, attributes: Sequence[str] = ()) -> Iterator[Dict[str, int]]:
        """Yield every sign vector over the universe (plus ``attributes``)
        satisfying the theory.  Basis of the canonical Armstrong relation."""
        names = self._attribute_order(frozenset(attributes))
        if len(names) > self.max_attributes:
            raise TooManyAttributes(
                f"{len(names)} attributes exceed the enumeration budget"
            )
        index = {name: i for i, name in enumerate(names)}
        premises = tuple(compile_od(dep.lhs, dep.rhs, index) for dep in self.ods)
        for combo in itertools.product((-1, 0, 1), repeat=len(names)):
            if not any(violates(combo, premise) for premise in premises):
                yield dict(zip(names, combo))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ODTheory({len(self.statements)} statements, {len(self._universe)} attributes)"


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
def implies(premises: Iterable[Statement], statement: Statement) -> bool:
    """One-shot implication check: ``premises ⊨ statement``."""
    return ODTheory(premises).implies(statement)


def counterexample(
    premises: Iterable[Statement], statement: Statement
) -> Optional[Relation]:
    """One-shot counterexample search."""
    return ODTheory(premises).counterexample(statement)


def is_trivial(statement: Statement) -> bool:
    """Is the statement satisfied by *every* instance (implied by ∅)?

    For example ``XY ↦ X`` (Reflexivity) is trivial; ``X ↦ XY`` is not.
    """
    return ODTheory(()).implies(statement)


def constants(premises: Iterable[Statement]) -> frozenset:
    """Attributes forced constant by the premises (Definition 18)."""
    return ODTheory(premises).constants()


def irreducible_cover(statements: Iterable[Statement]) -> tuple:
    """A non-redundant subset equivalent to the input (Definition 9 sense).

    Greedily removes any statement implied by the remainder; the result
    implies (and is implied by) the original set.  Deterministic given
    input order; analogous to an FD minimal cover at the statement level.
    """
    working = list(statements)
    index = 0
    while index < len(working):
        candidate = working[index]
        rest = working[:index] + working[index + 1:]
        if ODTheory(tuple(rest)).implies(candidate):
            working = rest
        else:
            index += 1
    return tuple(working)
