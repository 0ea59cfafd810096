"""Shared test helpers."""
import numpy as np
import pandas as pd

from repro.core.kspan import KspanTable
from repro.core.mba import OnDrop, _MbaState, _sweep
from repro.core.model import TemporalGraph
from repro.tgraph.schema import pack_flat_pdf


def span_map(table: KspanTable) -> dict:
    """Edge-keyed view of the table (edge ids differ between maintained and
    rebuilt tables, edge keys do not)."""
    out = {}
    for i, e in enumerate(table.edges):
        out[e] = {
            "trn": int(table.trn[i]),
            "spans": {
                k: int(table.spans[k][i])
                for k in range(3, table.kmax + 1)
                if table.spans[k][i] >= 0
            },
        }
    return out


def mba_with_delta_trace(
    g: TemporalGraph, probe_deltas: list[int]
) -> dict[int, np.ndarray]:
    """The maintained trussness array of MBA's sweep right after each probe δ.

    Returns {δ: trn_δ} where trn_δ counts only triangles with mts ≤ δ —
    cross-checked against a fresh decomposition at each probe.
    """
    state = _MbaState(g)
    probes = sorted(set(probe_deltas))  # ascending: pop the largest first
    out: dict[int, np.ndarray] = {}

    def on_group(d: int) -> OnDrop:
        while probes and probes[-1] >= d:
            out[probes.pop()] = np.asarray(state.trn, dtype=np.int64)
        return lambda e, k: None

    _sweep(state, g.triangles().mts, on_group)
    for d in probes:
        out[d] = np.asarray(state.trn, dtype=np.int64)
    return out


def flat_pdf_to_packed_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Packed pandas frame ``(src, dst, ts)`` with ``ts`` as lists of ints."""
    src, dst, ts = pack_flat_pdf(pdf)
    return pd.DataFrame({"src": src, "dst": dst, "ts": [x.tolist() for x in ts]})
