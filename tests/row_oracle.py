"""The row-at-a-time reference evaluator: the columnar engine's test oracle.

:func:`evaluate_rows` is the original evaluator, kept verbatim: it
materializes one assignment dict per full-join row and an eager
:class:`~repro.engine.evaluate.Witness` per row, sharing nothing with the
columnar join but the join order.  It returns a :class:`RowResult` -- a
plain witness list, never packed -- and the two provenance questions the
parity tests ask of it are answered by :func:`participating_refs` and
:func:`outputs_removed_by`, straight off that list.

:class:`RowEngineContext` runs the whole solver stack over the oracle: every
evaluation a solver issues (including the Universe/Decompose sub-instances)
goes through :func:`evaluate_rows`, and the witness list is then packed into
columns the solvers can read.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.data.database import Database
from repro.data.relation import Row, TupleRef
from repro.engine.columnar import ColumnarProvenance, RelationIndex
from repro.engine.evaluate import (
    EngineContext,
    QueryResult,
    Witness,
    _join_order,
    join_order_plan,
)
from repro.query.cq import ConjunctiveQuery


class RowResult:
    """The oracle's answer: output rows plus an eager witness list."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        output_rows: List[Row],
        witnesses: List[Witness],
        witness_outputs: List[int],
        output_index: Optional[Dict[Row, int]] = None,
    ) -> None:
        self.query = query
        self.output_rows = output_rows
        self.witnesses = witnesses
        self.witness_outputs = witness_outputs
        self.output_index = (
            output_index
            if output_index is not None
            else {row: i for i, row in enumerate(output_rows)}
        )


def participating_refs(rows: RowResult) -> Set[TupleRef]:
    """Input tuples used by at least one witness."""
    refs: Set[TupleRef] = set()
    for witness in rows.witnesses:
        refs.update(witness.refs)
    return refs


def outputs_removed_by(rows: RowResult, removed: Iterable[TupleRef]) -> int:
    """Outputs all of whose witnesses use a removed tuple."""
    removed_set = set(removed)
    alive = [0] * len(rows.output_rows)
    for witness, out in zip(rows.witnesses, rows.witness_outputs):
        if not removed_set.intersection(witness.refs):
            alive[out] += 1
    return sum(1 for count in alive if count == 0)


def evaluate_rows(
    query: ConjunctiveQuery,
    database: Database,
    max_witnesses: Optional[int] = None,
) -> RowResult:
    """The original row-at-a-time evaluator (never cached, never packed)."""
    database.validate_against(query)

    vacuum_refs: List[TupleRef] = []
    for atom in query.atoms:
        if atom.is_vacuum:
            relation = database.relation(atom.name)
            if len(relation) == 0:
                return RowResult(query, [], [], [])
            vacuum_refs.append(TupleRef(atom.name, ()))

    non_vacuum = [a for a in query.atoms if not a.is_vacuum]
    if not non_vacuum:
        witness = Witness(tuple(vacuum_refs))
        return RowResult(query, [()], [witness], [0])

    order = _join_order(
        ConjunctiveQuery(query.head, tuple(non_vacuum), name=query.name)
    )
    ordered_atoms = [non_vacuum[i] for i in order]

    # Partial results: (assignment dict, list of TupleRefs so far).
    partials: List[Tuple[Dict[str, object], List[TupleRef]]] = [({}, [])]
    for atom in ordered_atoms:
        relation = database.relation(atom.name)
        positions = [relation.attribute_index(a) for a in atom.attributes]
        # Every partial assigns exactly the same attribute set, so the shared
        # (join) attributes can be read off the first partial.
        bound_attrs = set(partials[0][0]) if partials else set()
        shared = [a for a in atom.attributes if a in bound_attrs]

        # Hash the relation on the shared attributes.
        index: Dict[Tuple, List[Tuple[Row, TupleRef]]] = {}
        for row in relation:
            atom_values = tuple(row[i] for i in positions)
            key = tuple(
                atom_values[atom.attributes.index(a)] for a in shared
            )
            index.setdefault(key, []).append((atom_values, TupleRef(atom.name, row)))

        new_partials: List[Tuple[Dict[str, object], List[TupleRef]]] = []
        for assignment, refs in partials:
            key = tuple(assignment[a] for a in shared)
            for atom_values, ref in index.get(key, ()):  # type: ignore[arg-type]
                new_assignment = dict(assignment)
                ok = True
                for attr, value in zip(atom.attributes, atom_values):
                    if attr in new_assignment and new_assignment[attr] != value:
                        ok = False
                        break
                    new_assignment[attr] = value
                if ok:
                    new_partials.append((new_assignment, refs + [ref]))
        partials = new_partials
        if max_witnesses is not None and len(partials) > max_witnesses:
            raise RuntimeError(
                f"join of {query.name} exceeded max_witnesses={max_witnesses}"
            )
        if not partials:
            break

    output_rows: List[Row] = []
    output_index: Dict[Row, int] = {}
    witnesses: List[Witness] = []
    witness_outputs: List[int] = []
    head = query.head
    for assignment, refs in partials:
        out_row = tuple(assignment[a] for a in head)
        if out_row not in output_index:
            output_index[out_row] = len(output_rows)
            output_rows.append(out_row)
        witnesses.append(Witness(tuple(refs) + tuple(vacuum_refs)))
        witness_outputs.append(output_index[out_row])

    return RowResult(query, output_rows, witnesses, witness_outputs, output_index)


def pack_rows(rows: RowResult, database: Database) -> QueryResult:
    """The oracle's witness list packed into the columns solvers consume.

    Tuple IDs come from a fresh :class:`RelationIndex` per atom and the
    columns follow the witness list verbatim, so everything downstream sees
    the row engine's witnesses, in the row engine's order.
    """
    query = rows.query
    non_vacuum = [atom for atom in query.atoms if not atom.is_vacuum]
    names = tuple(non_vacuum[i].name for i in join_order_plan(query))
    indexes = [RelationIndex(database.relation(name)) for name in names]
    columns = [
        [index.ids[witness.refs[position].values] for witness in rows.witnesses]
        for position, index in enumerate(indexes)
    ]
    vacuum = rows.witnesses[0].refs[len(names):] if rows.witnesses else ()
    provenance = ColumnarProvenance(
        query,
        names,
        indexes,
        columns,
        list(rows.witness_outputs),
        rows.output_rows,
        rows.output_index,
        tuple(vacuum),
    )
    return QueryResult(
        query,
        rows.output_rows,
        list(rows.witness_outputs),
        rows.output_index,
        provenance=provenance,
    )


class RowEngineContext(EngineContext):
    """An engine context whose every evaluation runs the row oracle.

    Activate it with ``use_context`` to run a solver end to end on the
    reference engine.  Nothing is cached.
    """

    def evaluate(  # type: ignore[override]
        self,
        query: ConjunctiveQuery,
        database: Database,
        max_witnesses: Optional[int] = None,
        use_cache: bool = True,
        order: Optional[Sequence[int]] = None,
        query_key: Optional[Hashable] = None,
    ) -> QueryResult:
        self.evaluations += 1
        return pack_rows(evaluate_rows(query, database, max_witnesses), database)
