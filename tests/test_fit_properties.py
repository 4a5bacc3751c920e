"""Property tests of whole fits.

``fit_sample`` and the ``fit`` command either fit any sample of finite
positive doubles, or raise (exit 1 with) a ``ValueError`` that says what
is wrong with it. Neither emits a RuntimeWarning: the test suite turns
one into an error, which neither catches.

A fit does not depend on the currency: incomes times c give the same
top fraction and Pareto index, and T and the crossover times c, to the
search's resolution.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from incomefit import (FitSettings, IncomeSample, TwoClassParams, fit_sample,  # noqa: E402
                       sample_incomes)
from incomefit.fitting import FitError  # noqa: E402
from incomefit.cli import main  # noqa: E402

TINY = FitSettings(k=50, n_candidates=6, max_iters=4, refine_every=2, refine_max_steps=4)
TINY_FLAGS = ["--k", "50", "--n-candidates", "6", "--max-iters", "4", "--refine-every", "2",
              "--refine-max-steps", "4"]

# any positive double, mixed with moderate incomes so that many samples fit
incomes = st.lists(st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                             st.floats(min_value=1.0, max_value=1e6)),
                   min_size=2, max_size=40)


# capsys holds no state between examples: each reads and clears it
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=incomes)
@example(values=[8.988465674311579e+307, 8.98846567431158e+307, 5.0])   # the total overflows
@example(values=[2.2250738585e-313, 5e-324])   # subnormal incomes and temperatures
@example(values=[1e-323, 5e-324])   # incomes under 1e-9: the model curve starts at the least
def test_any_positive_sample_fits_or_names_its_error(values, capsys):
    try:
        fit_sample(IncomeSample(values), TINY, seed=1)
    except ValueError as exc:
        assert str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "incomes.csv"
        data.write_text("income\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
        code = main(["fit", str(data), "--out-dir", str(Path(tmp) / "out"), "--seed", "1",
                     *TINY_FLAGS])
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code:
        assert err.startswith("error: ") and len(err) > len("error: \n")


# A power of two scales every income, the sample mean and so the search box
# exactly; only the loss's logarithms round differently, by about 1e-16. The
# search turns that into differences as large as its own resolution wherever it
# meets a near-tie: in a scan of 1000 such fits, up to 1e-6 relative, and above
# 1e-9 in a few. A fit in another basin differs in p by about one sample
# income's share, 1/2000. With k = 50 a tail of one class point leaves alpha
# free to 1e-4, so these fits take k = 500.
SCALING = replace(TINY, k=500)
SCALING_REL = 1e-5


@settings(deadline=None, max_examples=60)
@given(lam=st.floats(0.02, 0.15), temperature=st.floats(500.0, 5000.0),
       alpha=st.floats(1.3, 2.5), seed=st.integers(0, 2**32 - 1), j=st.integers(-20, 20))
def test_currency_scaling(lam, temperature, alpha, seed, j):
    sample = sample_incomes(TwoClassParams(lam, temperature, alpha), 2000, seed=seed)
    c = 2.0 ** j
    try:
        base = fit_sample(sample, SCALING, seed=1)
    except FitError:                # a majority in the tail, whatever the currency
        with pytest.raises(FitError):
            fit_sample(IncomeSample(sample.values * c), SCALING, seed=1)
        return
    scaled = fit_sample(IncomeSample(sample.values * c), SCALING, seed=1)
    assert scaled.params.lam == pytest.approx(base.params.lam, rel=SCALING_REL)
    assert scaled.params.alpha == pytest.approx(base.params.alpha, rel=SCALING_REL)
    assert scaled.params.temperature == pytest.approx(c * base.params.temperature,
                                                      rel=SCALING_REL)
    assert scaled.crossover == pytest.approx(c * base.crossover, rel=SCALING_REL)
