"""Recombining per-shard packed provenance into one serial-identical result.

The serial columnar join emits witnesses in **lexicographic order of the
join-order tid tuple**: the first atom's tuples start partial rows in tid
order, and every later build/probe (and every cross-product step) expands
existing partials in order, appending matches in ascending tid order.  Each
shard runs the same join over a subsequence of the parent's interned rows,
and its tid maps are strictly increasing, so after translation to global
tids every shard's witness stream is *sorted* under the same lexicographic
key -- and the shards' key sets are disjoint (a witness lives in exactly one
shard).

Merging is therefore a sort of the concatenated streams by global tid tuple
(Timsort exploits the pre-sorted runs), after which output rows are
re-deduplicated in first-witness order -- exactly how the serial engine
builds them.  The merged :class:`~repro.engine.evaluate.QueryResult` is
byte-identical to the serial engine's: same output row order, same witness
order, same packed ``tid`` columns over the same shared interning tables.
Every downstream consumer (greedy, singleton, set cover, flow, the delta
semijoins and the evaluation cache) is agnostic to how the result was
produced.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.relation import Row, TupleRef
from repro.engine.backend import (
    Backend,
    Column,
    NumpyBackend,
    is_ndarray,
    python_backend,
)
from repro.engine.columnar import ColumnarProvenance, RelationIndex
from repro.engine.evaluate import QueryResult
from repro.parallel.partition import ShardResult
from repro.query.cq import ConjunctiveQuery


def _merge_numpy(
    backend: NumpyBackend, shard_results: Sequence[ShardResult]
) -> Optional[Tuple[List[Column], List[Row]]]:
    """Vectorized merge: concatenate shard matrices, lexsort by tid tuple.

    Returns ``(sorted columns, per-witness output rows in sorted order)``.
    Witness tid tuples are unique across shards (a witness *is* its tid
    tuple), so the lexicographic sort is a total order and matches the
    stable tuple sort of the Python path exactly.
    """
    np = backend.np
    matrices = []
    row_lists: List[Row] = []
    for ref_columns, output_rows, witness_outputs in shard_results:
        if not len(witness_outputs):
            continue
        matrices.append(np.stack(ref_columns, axis=1))
        row_lists.extend(output_rows[out] for out in witness_outputs)
    if not matrices:
        return None
    merged = np.concatenate(matrices) if len(matrices) > 1 else matrices[0]
    atom_count = merged.shape[1]
    # np.lexsort keys: last key is primary, so feed the columns reversed.
    order = np.lexsort(tuple(merged[:, a] for a in range(atom_count - 1, -1, -1)))
    columns = [np.ascontiguousarray(merged[order, a]) for a in range(atom_count)]
    sorted_rows = [row_lists[i] for i in order.tolist()]
    return columns, sorted_rows


def merge_shard_results(
    query: ConjunctiveQuery,
    atom_names: Tuple[str, ...],
    indexes: Sequence[RelationIndex],
    shard_results: Sequence[ShardResult],
    vacuum_refs: Tuple[TupleRef, ...] = (),
    backend: Optional[Backend] = None,
) -> QueryResult:
    """One serial-identical :class:`QueryResult` from per-shard results.

    ``indexes`` are the parent's interning tables (one per entry of
    ``atom_names``, in join order); every shard's ``ref_columns`` must
    already be translated to those global tids.  ``backend`` selects the
    merge kernels: the NumPy path concatenates the shard tid matrices and
    lexsorts them as arrays instead of sorting Python tuples.
    """
    backend = backend or python_backend()
    merged = None
    if backend.is_numpy and any(
        len(columns) and is_ndarray(columns[0]) for columns, _, _ in shard_results
    ):
        merged = _merge_numpy(backend, shard_results)

    if merged is not None:
        columns, sorted_rows = merged
        output_rows: List[Row] = []
        output_index: Dict[Row, int] = {}
        witness_outputs: List[int] = []
        get = output_index.get
        # Output rows are re-deduplicated in first-witness order -- exactly
        # how the serial engine builds them; rows are object tuples, so the
        # factorize loop stays Python on both backends.
        for row in sorted_rows:
            index = get(row)
            if index is None:
                index = len(output_rows)
                output_index[row] = index
                output_rows.append(row)
            witness_outputs.append(index)
        provenance = ColumnarProvenance(
            query,
            atom_names,
            list(indexes),
            columns,
            backend.id_column(witness_outputs),
            output_rows,
            output_index,
            vacuum_refs,
        )
        return QueryResult(
            query,
            output_rows,
            witness_outputs,
            output_index,
            provenance=provenance,
        )

    items: List[Tuple[Tuple[int, ...], Row]] = []
    for ref_columns, output_rows, witness_outputs in shard_results:
        if not len(witness_outputs):
            continue
        rows = output_rows
        for tids, out in zip(zip(*ref_columns), witness_outputs):
            items.append((tids, rows[out]))
    if not items:
        provenance = ColumnarProvenance(
            query,
            atom_names,
            indexes,
            [backend.empty_ids() for _ in atom_names],
            backend.empty_ids(),
            [],
            {},
            vacuum_refs,
        )
        return QueryResult(query, [], [], None, provenance=provenance)
    items.sort(key=itemgetter(0))

    ref_columns: List[List[int]] = [[] for _ in atom_names]
    appends = [column.append for column in ref_columns]
    output_rows: List[Row] = []
    output_index: Dict[Row, int] = {}
    witness_outputs: List[int] = []
    get = output_index.get
    for tids, row in items:
        for position, tid in enumerate(tids):
            appends[position](tid)
        index = get(row)
        if index is None:
            index = len(output_rows)
            output_index[row] = index
            output_rows.append(row)
        witness_outputs.append(index)

    provenance = ColumnarProvenance(
        query,
        atom_names,
        list(indexes),
        ref_columns,
        witness_outputs,
        output_rows,
        output_index,
        vacuum_refs,
    )
    return QueryResult(
        query,
        output_rows,
        witness_outputs,
        output_index,
        provenance=provenance,
    )


__all__ = ["merge_shard_results"]
