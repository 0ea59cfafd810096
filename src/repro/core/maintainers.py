"""Maintained indexes: TC-IM and DC-IM (§VI, Fig. 16 comparison units).

Each maintainer owns the graph, the k-span table, and one index structure.
``insert`` runs the filter-and-verification update on the table and then
patches the index, acting only when some k-span changed:

* **TC-IM** rebuilds the I_k maps of the levels whose k-spans changed, plus
  any new level ("changing the positions of the edges" at per-level
  granularity);
* **DC-IM** re-derives the arborescence/tree from the patched table — the
  "additional structural adjustments" the paper cites for DC-Index being
  slightly slower to maintain — when some k-span changed or kmax / δmax
  moved. The re-derivation is the full ``DCIndex`` build: numpy over the
  (k, δ) grid and one sort of the payload entries, with no per-edge loop
  and no node objects.
  No triangle or peeling work is redone in either case; that is what the
  rebuild baseline (MBA from scratch) pays per update.
"""
from __future__ import annotations

from .dc_index import DCIndex
from .kspan import KspanTable
from .maintenance import MaintenanceStats, update_kspan_table
from .mba import mba
from .model import TemporalGraph
from .tc_index import TCIndex


class TCMaintainer:
    """TC-Index kept current under a stream of temporal-edge insertions."""

    def __init__(self, g: TemporalGraph, table: KspanTable | None = None):
        self.g = g
        self.table = table if table is not None else mba(g)
        self.index = TCIndex(self.table)
        g.eid, g.nbr  # built on first use: here, not in the first insertion

    def insert(self, u: int, v: int, t: int) -> MaintenanceStats:
        stats = update_kspan_table(self.g, self.table, u, v, t)
        if stats.kind != "noop":
            self.index.refresh(self.table, stats.changed_ks)
        return stats


class DCMaintainer:
    """DC-Index kept current under a stream of temporal-edge insertions."""

    def __init__(self, g: TemporalGraph, table: KspanTable | None = None):
        self.g = g
        self.table = table if table is not None else mba(g)
        self.index = DCIndex(self.table)
        g.eid, g.nbr  # built on first use: here, not in the first insertion

    def insert(self, u: int, v: int, t: int) -> MaintenanceStats:
        stats = update_kspan_table(self.g, self.table, u, v, t)
        idx, table = self.index, self.table
        if stats.changed_ks or (idx.kmax, idx.delta_max) != (table.kmax, table.delta_max):
            self.index = DCIndex(table)  # structural re-derivation
        return stats


def rebuild_from_scratch(g: TemporalGraph) -> KspanTable:
    """The baseline an index-maintenance update is compared against:
    re-enumerate triangles and run MBA on the whole graph."""
    fresh = TemporalGraph.from_flat(g.to_flat())
    return mba(fresh)
