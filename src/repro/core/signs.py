"""Two-row sign-vector semantics for order dependencies.

Order dependencies are *pairwise* constraints: Definition 4 quantifies over
pairs of tuples.  Consequently the class of OD-satisfying instances is closed
under subrelations, and if ``M ⊭ θ`` then some **two-row** instance satisfies
``M`` and falsifies ``θ``.

A two-row instance ``{s, t}`` interacts with lexicographic comparison only
through the per-attribute comparison *signs* ``sign(s[A] vs t[A]) ∈ {-1,0,+1}``.
This module abstracts a two-row instance into such a **sign vector** and gives
exact, cheap evaluation of any OD against it:

* ``lex_sign(σ, X)`` — the comparison of the two rows on list ``X`` is the
  sign of the first attribute of ``X`` with a non-zero sign (0 if none);
* ``od_holds(σ, X ↦ Y)`` — considering both ordered pairs ``(s,t)`` and
  ``(t,s)``, the OD holds iff ``lex_sign(σ, Y)`` is 0 or equals
  ``lex_sign(σ, X)``.

These two facts make OD implication decidable by enumerating the ``3^n`` sign
vectors over the mentioned attributes (:mod:`repro.core.inference`), matching
the problem's known coNP-hardness while staying fast at schema scale.
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterator, Mapping, Sequence

from .attrs import AttrList, attrlist
from .dependency import OrderDependency, Statement, to_ods
from .relation import Relation

__all__ = [
    "SignVector",
    "lex_sign",
    "od_holds",
    "statement_holds",
    "enumerate_sign_vectors",
    "materialize",
    "sign_vector_of_pair",
    "compile_od",
    "violates",
]

#: A sign vector: attribute name -> -1, 0, or +1.
SignVector = Mapping[str, int]


def lex_sign(sigma: SignVector, attrs: AttrList) -> int:
    """Comparison sign of the two rows on list ``attrs``.

    The first attribute with a non-zero sign decides; if every attribute in
    the list compares equal (or the list is empty) the result is 0.
    """
    for name in attrs:
        sign = sigma[name]
        if sign:
            return sign
    return 0


def od_holds(sigma: SignVector, dependency: OrderDependency) -> bool:
    """Does the two-row instance described by ``sigma`` satisfy the OD?

    Writing ``cX = lex_sign(σ, X)`` and ``cY = lex_sign(σ, Y)``:

    * if ``cX == 0`` both rows are equal on ``X`` so ``s ≼_X t`` and
      ``t ≼_X s``; the OD then demands equality on ``Y``, i.e. ``cY == 0``;
    * if ``cX != 0`` only one ordered pair triggers the implication and the
      OD demands ``cY ∈ {0, cX}``.
    """
    c_lhs = lex_sign(sigma, dependency.lhs)
    c_rhs = lex_sign(sigma, dependency.rhs)
    if c_lhs == 0:
        return c_rhs == 0
    return c_rhs == 0 or c_rhs == c_lhs


def statement_holds(sigma: SignVector, statement: Statement) -> bool:
    """Does the two-row instance satisfy the statement (OD, ↔, ~, FD)?"""
    return all(od_holds(sigma, dependency) for dependency in to_ods(statement))


def enumerate_sign_vectors(attributes: Sequence[str]) -> Iterator[Dict[str, int]]:
    """Yield every sign vector over the given attributes (``3^n`` of them)."""
    names = list(attributes)
    for combo in itertools.product((-1, 0, 1), repeat=len(names)):
        yield dict(zip(names, combo))


def materialize(
    sigma: SignVector, attributes: "AttrList | Sequence[str]", name: str = "witness"
) -> Relation:
    """Build a concrete two-row relation realizing the sign vector.

    Row ``s`` holds the sign itself and row ``t`` holds 0 in every column,
    so that ``sign(s[A] vs t[A]) = sign(σ[A] vs 0) = σ[A]`` exactly.
    """
    attributes = attrlist(attributes)
    s = tuple(sigma[a] for a in attributes)
    t = tuple(0 for _ in attributes)
    return Relation(attributes, [s, t], name=name)


def sign_vector_of_pair(relation: Relation, s, t) -> Dict[str, int]:
    """The sign vector abstracting the ordered pair ``(s, t)`` of rows."""
    out: Dict[str, int] = {}
    for attribute in relation.attributes:
        i = relation.column_position(attribute)
        if s[i] < t[i]:
            out[attribute] = -1
        elif t[i] < s[i]:
            out[attribute] = 1
        else:
            out[attribute] = 0
    return out


def compile_od(
    lhs: Sequence[str], rhs: Sequence[str], index: Mapping[str, int]
) -> tuple:
    """``lhs ↦ rhs`` as ``(lhs_positions, rhs_positions)`` into sign tuples
    laid out by ``index``: the form the implication oracle checks."""
    position = index.__getitem__
    return tuple(map(position, lhs)), tuple(map(position, rhs))


def violates(signs: Sequence[int], compiled: tuple) -> bool:
    """Does the sign tuple falsify a compiled OD?

    It does iff the rhs's first non-zero sign is non-zero and differs from
    the lhs's (0 when every lhs sign is 0) — :func:`od_holds` on positions.
    The oracle's search runs this same test inline.
    """
    lhs, rhs = compiled
    for position in rhs:
        c_rhs = signs[position]
        if c_rhs:
            break
    else:
        return False
    for position in lhs:
        c_lhs = signs[position]
        if c_lhs:
            return c_lhs != c_rhs
    return True
