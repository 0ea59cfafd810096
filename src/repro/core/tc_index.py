"""Temporal Containment Index (TC-Index, §IV-A) and TC-Query.

For each k ∈ [3, kmax] the index stores ``I_k = (E_k, D_k)``:

* ``E_k`` — the edges of the static k-truss, sorted by k-span *descending*
  (ties broken by edge id for determinism);
* ``D_k`` — the distinct k-spans occurring in ``E_k`` with the offset of the
  first edge carrying each value.

TC-Query(k, δ): binary-search the largest recorded k-span ≤ δ in ``D_k``
(O(log δmax)) and return the suffix of ``E_k`` from its offset — every
scanned edge belongs to the answer, so the scan is output-optimal
(Theorem 2: O(log δmax + |T_{k,δ}|)).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .kspan import KspanTable, check_query


@dataclass
class _MapStructure:
    """I_k: the per-k sequence + offset directory."""

    edge_ids: np.ndarray  # E_k as edge ids, k-span descending
    uniq_spans_asc: list[int]  # distinct k-spans, ascending (for bisect)
    offsets: list[int]  # offsets[i]: first entry in E_k with k-span uniq_spans_asc[i]


def _build_map(spans_k: np.ndarray) -> _MapStructure:
    """Materialize one I_k = (E_k, D_k) from a per-edge k-span column."""
    ids = np.flatnonzero(spans_k >= 0)
    # descending k-span; stable on edge id
    order = np.argsort(-spans_k[ids], kind="stable")
    ids = ids[order]
    ids.setflags(write=False)  # query results are views of E_k
    # the spans are descending, so each value's first occurrence starts its run
    uniq, offsets = np.unique(spans_k[ids], return_index=True)
    return _MapStructure(ids, uniq.tolist(), offsets.tolist())


class TCIndex:
    """Map-structured index over all (k, δ)-trusses."""

    def __init__(self, table: KspanTable):
        self.edges = table.edges
        self.kmax = table.kmax
        self.delta_max = table.delta_max
        self.maps: dict[int, _MapStructure] = {
            k: _build_map(table.spans[k]) for k in range(3, table.kmax + 1)
        }

    def refresh(self, table: KspanTable, changed_ks: list[int]) -> None:
        """§VI index update: re-place edges of the maps whose k-spans changed.

        The k-span table has already been patched by
        :func:`repro.core.maintenance.update_kspan_table`; only the listed
        I_k (plus any new levels from a kmax increase) are rebuilt.
        """
        self.edges = table.edges
        new_levels = list(range(self.kmax + 1, table.kmax + 1))
        self.kmax = table.kmax
        self.delta_max = table.delta_max
        for k in set(changed_ks) | set(new_levels):
            self.maps[k] = _build_map(table.spans[k])

    # -- query ---------------------------------------------------------------
    def query_ids(self, k: int, delta: float) -> np.ndarray:
        """Edge ids of T_{k,δ} — a single suffix scan of E_k."""
        check_query(k, delta)
        if k <= 2:
            return np.arange(len(self.edges))
        if k > self.kmax:
            return np.zeros(0, dtype=np.int64)
        m = self.maps[k]
        if not m.uniq_spans_asc:
            return np.zeros(0, dtype=np.int64)
        # largest recorded k-span ≤ δ
        i = bisect.bisect_right(m.uniq_spans_asc, delta) - 1
        if i < 0:
            return np.zeros(0, dtype=np.int64)
        return m.edge_ids[m.offsets[i]:]

    def query(self, k: int, delta: float) -> set[tuple[int, int]]:
        return {self.edges[int(e)] for e in self.query_ids(k, delta)}

    # -- statistics (Table II) -------------------------------------------------
    def total_edges(self) -> int:
        """Total stored edge entries: Σ_k |E_k|."""
        return sum(len(m.edge_ids) for m in self.maps.values())

    def avg_entries(self) -> float:
        """Average number of distinct k-span entries per map (|D_k|)."""
        if not self.maps:
            return 0.0
        return float(np.mean([len(m.uniq_spans_asc) for m in self.maps.values()]))

    def space_bytes(self) -> int:
        """Byte model: 8 B per E_k entry (edge as 2×int32) + 12 B per D_k
        entry (k-span int32 + offset int64)."""
        return sum(
            8 * len(m.edge_ids) + 12 * len(m.uniq_spans_asc)
            for m in self.maps.values()
        )
