"""Shared test helpers."""
import numpy as np
import pandas as pd

from repro.core.dc_index import DCIndex
from repro.core.kspan import KspanTable
from repro.core.model import TemporalGraph
from repro.core.tc_index import TCIndex
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


def _static_trusses(g: TemporalGraph):
    """Yield (k, alive, inside) for k = 3, 4, … while the static k-truss is
    non-empty: its edge mask, peeled here from the previous level's (an
    edge goes while it is in < k−2 triangles inside), and the mask of the
    triangles inside it."""
    te, k = g.triangles().tri_e, 3
    alive = np.ones(g.m, dtype=bool)
    while True:
        while True:
            inside = alive[te].all(axis=1)
            keep = alive & (np.bincount(te[inside].ravel(), minlength=g.m) >= k - 2)
            if np.array_equal(keep, alive):
                break
            alive = keep
        if not alive.any():
            return
        yield k, alive, inside
        k += 1


def _local_update(g: TemporalGraph, k: int, alive: np.ndarray, inside: np.ndarray):
    """F at level k: F(s)(e) is the (k−2)-th smallest max(mts ∆, s(a), s(b))
    over e's triangles ∆ = {e, a, b} inside the static k-truss ``alive``."""
    tri = g.triangles()
    t = tri.tri_e[inside]
    own, a, b = t.ravel(), t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()
    mts = np.repeat(tri.mts[inside], 3)
    # sorting (edge << 32 | value) orders each edge's values in its run
    pick = np.searchsorted(np.sort(own), np.flatnonzero(alive)) + k - 3

    def f(s: np.ndarray) -> np.ndarray:
        val = np.maximum(mts, np.maximum(s[a], s[b]))
        out = s.copy()
        out[alive] = np.sort(own << 32 | val)[pick] & 0xFFFFFFFF
        return out

    return f


def kspan_fixpoint(g: TemporalGraph) -> dict[int, np.ndarray]:
    """The k-span table as the least fixpoint of F, by Kleene iteration from 0.

    For a fixpoint s of F (:func:`_local_update`), every {e : s(e) ≤ δ} is
    a (k, δ)-subgraph, so s ≥ k-spn; the k-spans are a fixpoint, and F is
    monotone, so F^j(0) rises to them exactly. Shares no code with MBA, DBA
    or ``decomph``: the static k-truss is peeled here.
    Returns {k: spans} with −1 for edges outside the static k-truss.
    """
    out = {}
    for k, alive, inside in _static_trusses(g):
        f = _local_update(g, k, alive, inside)
        s = np.zeros(g.m, dtype=np.int64)
        while not np.array_equal(nxt := f(s), s):
            s = nxt
        out[k] = np.where(alive, s, -1)
    return out


def assert_kspan_fixpoint(g: TemporalGraph, table: KspanTable) -> None:
    """One application of F on every level leaves ``table`` as it is, its
    levels are exactly the static k-trusses of ``g``, and trn, kmax and δmax
    agree. Necessary for ``table`` to be g's k-span table, not sufficient:
    F has fixpoints above the least one."""
    tri = g.triangles()
    assert list(table.edges) == list(g.edges)
    assert table.delta_max == (int(tri.mts.max()) if tri.n else 0)
    trn = np.full(g.m, 2, dtype=np.int64)
    for k, alive, inside in _static_trusses(g):
        s = table.spans[k]
        assert np.array_equal(s >= 0, alive), k
        assert np.array_equal(_local_update(g, k, alive, inside)(s), s), k
        trn[alive] = k
    assert table.kmax == int(trn.max())
    assert np.array_equal(table.trn, trn)


def flat_pdf_to_packed_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Packed pandas frame ``(src, dst, ts)`` with ``ts`` as lists of ints."""
    src, dst, ts = pack_flat_pdf(pdf)
    return pd.DataFrame({"src": src, "dst": dst, "ts": [x.tolist() for x in ts]})


def hold_out(flat: pd.DataFrame, edges: set) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Split ``flat`` into (rows not on ``edges``, every row on ``edges``)."""
    lo = np.minimum(flat["u"], flat["v"])
    hi = np.maximum(flat["u"], flat["v"])
    on = np.array([(a, b) in edges for a, b in zip(lo, hi)], dtype=bool)
    return flat[~on], flat[on]


def assert_same_tree(got: DCIndex, want: DCIndex) -> None:
    """Node keys and order, parents, payloads (values, dtype, read-only),
    lookup rows, root, kmax, δmax and the Table II figures all agree."""
    assert (got.root, got.kmax, got.delta_max) == (want.root, want.kmax, want.delta_max)
    assert list(got.nodes) == list(want.nodes)
    for key, node in want.nodes.items():
        mine = got.nodes[key]
        assert mine.parent == node.parent, key
        assert mine.edge_ids.dtype == node.edge_ids.dtype, key
        assert np.array_equal(mine.edge_ids, node.edge_ids), key
        assert not mine.edge_ids.flags.writeable, key
    assert got.rows == want.rows
    assert got.total_edges() == want.total_edges()
    assert got.space_bytes() == want.space_bytes()


def assert_same_maps(got: TCIndex, want: TCIndex) -> None:
    """Every I_k = (E_k, D_k) agrees, and so do kmax and δmax."""
    assert (got.kmax, got.delta_max) == (want.kmax, want.delta_max)
    assert sorted(got.maps) == sorted(want.maps)
    for k, m in want.maps.items():
        mine = got.maps[k]
        assert np.array_equal(mine.edge_ids, m.edge_ids), k
        assert (mine.uniq_spans_asc, mine.offsets) == (m.uniq_spans_asc, m.offsets), k
