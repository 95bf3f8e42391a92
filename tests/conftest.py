from __future__ import annotations

import csv
import io

import hypothesis.strategies as st

from tabaudit.exact import HypergeomParams
from tabaudit.tables import DatasetDiff, StratifiedTable, Table2x2


def rel_close(got, expected, tol=1e-4):
    """Relative agreement against a published 6-significant-figure value."""
    return abs(float(got) - expected) <= tol * abs(expected)


#: Any JSON value: scalars, and lists and objects of them.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=12,
)

cell_counts = st.integers(min_value=0, max_value=60)

tables = st.builds(Table2x2, cell_counts, cell_counts, cell_counts, cell_counts)

positive_tables = st.builds(
    Table2x2,
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)


@st.composite
def stratified_tables(draw, min_strata=1, max_strata=4):
    n = draw(st.integers(min_value=min_strata, max_value=max_strata))
    strata = tuple((f"S{i}", draw(tables)) for i in range(n))
    return StratifiedTable(strata, name="random")


# Fixtures and oracles built from the public types: no part of the package
# needs them, so they live with the tests.

def scaled(t: Table2x2, factor: int) -> Table2x2:
    """``t`` with every cell multiplied by ``factor``."""
    return Table2x2(t.a * factor, t.b * factor, t.c * factor, t.d * factor,
                    row_labels=t.row_labels, col_labels=t.col_labels)


def support(params: HypergeomParams) -> range:
    """Every outcome the hypergeometric draw of ``params`` can take."""
    lo = max(0, params.draws + params.successes - params.population)
    return range(lo, min(params.draws, params.successes) + 1)


def to_csv_text(s: StratifiedTable) -> str:
    """``s`` in the dataset CSV format, with its header row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["stratum", "a", "b", "c", "d"])
    writer.writerows([label, t.a, t.b, t.c, t.d] for label, t in s.strata)
    return out.getvalue()


def apply_diff(a: StratifiedTable, delta: DatasetDiff) -> StratifiedTable:
    """``a`` with each stratum's cell deltas added: the inverse of ``diff(a, b)`` in ``b``."""
    strata = []
    for (label, t), d in zip(a.strata, delta.strata):
        (da, db), (dc, dd) = d.cells
        strata.append((label, Table2x2(t.a + da, t.b + db, t.c + dc, t.d + dd,
                                       row_labels=t.row_labels, col_labels=t.col_labels)))
    return StratifiedTable(tuple(strata), name=a.name)
