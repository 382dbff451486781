"""Lowering: a validated AST onto the ``Query``/``Relation`` layer.

The statement's atoms are bound to stored relations from a *source* —
a :class:`repro.dynamic.catalog.Catalog` or a plain mapping of name →
:class:`~repro.storage.relation.Relation`.  Each atom becomes a
``Relation`` wrapper that

* shares the stored relation's (possibly writable) index — no copy, so
  a catalog-backed query always sees current data, and
* renames the attributes to the atom's *variables*, which is what makes
  the natural join of the lowered query compute the conjunctive query.

Self-joins work by aliasing: a relation appearing in several atoms gets
distinct atom names (``R``, ``R__2``, ...) so the core ``Query`` (which
requires unique atom names) accepts the result.

Schema errors — unknown relation, arity mismatch — are raised here as
:class:`~repro.lang.ast.ValidationError`, separately from the parser's
shape errors, so callers can distinguish "bad query text" from "query
does not fit this catalog".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple, Union

from repro.core.query import Query
from repro.lang.ast import QueryStatement, ValidationError
from repro.storage.relation import Relation


#: Anything atoms can be bound against.
SchemaSource = Union["Catalog", Mapping[str, Relation]]


def _resolve(source, name: str):
    """The stored Relation for ``name``, or None."""
    if hasattr(source, "relation"):  # Catalog-like
        try:
            return source.relation(name)
        except KeyError:
            return None
    return source.get(name)


def validate(statement: QueryStatement, source) -> None:
    """Check the statement against the source's schemas.

    Raises :class:`ValidationError` on the first unknown relation or
    atom/relation arity mismatch.  Cheap (no index access), so the
    serving layer runs it at ``prepare`` time.
    """
    for atom in statement.body:
        stored = _resolve(source, atom.relation)
        if stored is None:
            raise ValidationError(
                f"unknown relation {atom.relation!r} in atom "
                f"{atom.unparse()}"
            )
        if len(atom.args) != stored.arity:
            raise ValidationError(
                f"arity mismatch in atom {atom.unparse()}: relation "
                f"{atom.relation!r} has {stored.arity} attribute(s) "
                f"({', '.join(stored.attributes)})"
            )


@dataclass
class LoweredQuery:
    """A statement bound to stored relations, ready for planning."""

    statement: QueryStatement
    query: Query
    #: atom alias (Query atom name) -> source relation name
    alias_of: Dict[str, str]

    @property
    def output_variables(self) -> Tuple[str, ...]:
        """The variables the result is reported over.

        Head variables for projection queries; for aggregate heads,
        every body variable (the aggregate is computed over the full
        join by the executor).
        """
        if self.statement.aggregate is not None:
            return tuple(self.statement.variables())
        return self.statement.head_vars


def lower(statement: QueryStatement, source) -> LoweredQuery:
    """Bind each atom to its stored relation and build the core Query."""
    validate(statement, source)
    used_aliases: set = set()
    relations: List[Relation] = []
    alias_of: Dict[str, str] = {}
    occurrences: Dict[str, int] = {}
    for atom in statement.body:
        stored = _resolve(source, atom.relation)
        occurrences[atom.relation] = occurrences.get(atom.relation, 0) + 1
        alias = atom.relation
        k = occurrences[atom.relation]
        if k > 1:
            alias = f"{atom.relation}__{k}"
        while alias in used_aliases:
            k += 1
            alias = f"{atom.relation}__{k}"
        used_aliases.add(alias)
        alias_of[alias] = atom.relation
        relations.append(
            Relation.from_index(alias, atom.args, stored.index)
        )
    return LoweredQuery(
        statement=statement, query=Query(relations), alias_of=alias_of
    )
