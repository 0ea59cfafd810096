"""Shared test helpers."""
from repro.core.kspan import KspanTable


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
