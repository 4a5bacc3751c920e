"""Property tests of the correlation t-test p-value over random rho and n.

The p-value lies in [0, 1], depends on rho only through |rho|, and does
not rise as |rho| grows at a fixed number of points. It is computed to
within about 1e-12 relative for n up to 200, so two values of |rho| a
rounding error apart may give p-values in either order; the order is
checked to 1e-11 relative.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from incomefit.series import _t_test_p  # noqa: E402

rhos = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
counts = st.integers(3, 200)


@settings(max_examples=500, deadline=None)
@given(rhos, rhos, counts)
def test_p_value_bounded_symmetric_and_falling(rho_a, rho_b, n):
    lo, hi = sorted((abs(rho_a), abs(rho_b)))
    p_lo, p_hi = _t_test_p(lo, n), _t_test_p(hi, n)
    assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0
    assert _t_test_p(-rho_a, n) == _t_test_p(rho_a, n)
    assert p_hi <= p_lo or math.isclose(p_hi, p_lo, rel_tol=1e-11, abs_tol=1e-300)
