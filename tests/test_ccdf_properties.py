"""Property test of the empirical CCDF on positive incomes with ties."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from incomefit import IncomeSample, build_ccdf  # noqa: E402

# draws from a small pool of distinct incomes, so most samples hold ties
tied_incomes = st.lists(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=200))


@settings(max_examples=200, deadline=None)
@given(tied_incomes)
def test_knots_and_fractions_match_direct_count(incomes):
    values = np.array(incomes)
    ccdf = build_ccdf(IncomeSample(values))
    knots = ccdf.incomes
    assert np.all(np.diff(knots) > 0)
    assert ccdf.fractions.tolist() == [np.mean(values >= m) for m in knots]
    assert np.array_equal(ccdf.evaluate(knots), ccdf.fractions)
