"""``SeriesChannel.to_dict`` rounds like the per-value ``_sig`` reference.

``to_dict`` formats each distinct bit pattern of the column array once
and indexes the results back; this checks it against ``_sig`` applied
value by value, compared through ``repr`` so the sign of zero counts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs.timeseries import SeriesChannel, _sig

COLUMNS = ("t", "dt", "mean", "min", "max")

EDGE_VALUES = (
    0.0,
    -0.0,
    float("inf"),
    -float("inf"),
    float("nan"),
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-310,
    1.7976931348623157e308,
    -1e300,
    0.1,
    1.23456785,
)

values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-1e6, max_value=1e6),
)


@st.composite
def column_arrays(draw):
    """A ``(5, n)`` array whose values repeat from a small pool."""
    pool = draw(st.lists(values, min_size=1, max_size=12))
    n = draw(st.integers(min_value=0, max_value=40))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=5 * n,
            max_size=5 * n,
        )
    )
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(5, n)


@settings(max_examples=300, deadline=None)
@given(column_arrays())
def test_to_dict_matches_per_value_sig(cols):
    channel = SeriesChannel("x", capacity=64)
    channel.add_block(cols.T)
    doc = channel.to_dict()
    got = [[repr(v) for v in doc[name]] for name in COLUMNS]
    want = [[repr(_sig(v)) for v in col] for col in cols.tolist()]
    assert got == want
    assert all(type(v) is float for name in COLUMNS for v in doc[name])
