from __future__ import annotations

import hypothesis.strategies as st

from tabaudit.tables import StratifiedTable, Table2x2


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
