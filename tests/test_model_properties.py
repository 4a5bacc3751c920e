"""Property tests of the model CCDF over random parameters and incomes.

The CCDF never rises with income, its body and tail meet at the
crossover, and the direct log CCDF is the log of the CCDF.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from incomefit import TwoClassParams, model_ccdf  # noqa: E402
from oracle import model_log_ccdf  # noqa: E402

params = st.builds(TwoClassParams,
                   st.floats(1e-4, 0.5, exclude_min=True, exclude_max=True),
                   st.floats(1.0, 1e5, exclude_min=True, exclude_max=True),
                   st.floats(1.01, 5.0, exclude_min=True, exclude_max=True))
incomes = st.lists(st.floats(0.0, 1e9), min_size=1, max_size=50)


def around_crossover(p: TwoClassParams) -> list[float]:
    """The crossover and its floating-point neighbours on either side."""
    m_c = p.crossover
    return [np.nextafter(m_c, 0.0), m_c, np.nextafter(m_c, np.inf)]


@settings(max_examples=300, deadline=None)
@given(params, incomes)
def test_ccdf_non_increasing(p, ms):
    m = np.sort(np.array(ms + around_crossover(p)))
    assert np.all(np.diff(model_ccdf(p, m)) <= 0.0)


@settings(max_examples=300, deadline=None)
@given(params)
def test_ccdf_continuous_at_crossover(p):
    below, at, _ = around_crossover(p)
    assert model_ccdf(p, below) == pytest.approx(model_ccdf(p, at), rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(params, incomes)
def test_log_ccdf_is_log_of_ccdf(p, ms):
    m = np.array(ms + around_crossover(p))
    ccdf = model_ccdf(p, m)
    kept = np.isfinite(ccdf) & (ccdf > 0.0)
    np.testing.assert_allclose(model_log_ccdf(p, m)[kept], np.log(ccdf[kept]),
                               rtol=1e-12, atol=1e-15)
