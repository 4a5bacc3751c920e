"""Property test: any sample of finite positive doubles fits or names why not.

``fit_sample`` and the ``fit`` command either fit the sample, or raise
(exit 1 with) a ``ValueError`` that says what is wrong with it. Neither
emits a RuntimeWarning: the test suite turns one into an error, which
neither catches.
"""

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from incomefit import FitSettings, IncomeSample, fit_sample  # noqa: E402
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
