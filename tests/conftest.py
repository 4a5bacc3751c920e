"""Test-session set-up shared by every test module."""

# ``import incomefit`` defaults the BLAS libraries to one thread, which numpy
# reads only when it is first imported; some test modules import scipy first.
import incomefit  # noqa: F401
