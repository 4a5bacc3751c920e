"""The ridge scan that seeds every swarm, and the basin misses it mends."""

import numpy as np
import pytest

from incomefit import FitContext, FitSettings, IncomeSample, TwoClassParams, sample_incomes, search
from incomefit.fitting import P_MAX, RIDGE_P_MIN, RIDGE_POINTS, fit_group, ridge_seed
from incomefit.objective import SENTINEL_LOSS, stacked_objective

# acceptance criterion 8's fit settings
CRITERION_8 = FitSettings(k=2000, n_candidates=24, max_iters=80, refine_every=20,
                          refine_max_steps=40)


@pytest.fixture(scope="module")
def context():
    return FitContext(sample_incomes(TwoClassParams(0.1, 1800.0, 1.8), 20_000, seed=3), 1000)


class TestRidgeSeed:
    def test_in_box_and_best_of_the_coarse_scan(self, context):
        box = CRITERION_8.search_box(context.mean)
        seed = ridge_seed(context, box)
        assert np.all((box[:, 0] <= seed) & (seed <= box[:, 1]))
        coarse = context.ridge(np.linspace(RIDGE_P_MIN, P_MAX, RIDGE_POINTS), box)
        value, = stacked_objective([context], [seed[None]])
        assert value <= stacked_objective([context], [coarse]).min()

    def test_top_fraction_is_p_inside_the_temperature_range(self, context):
        box = CRITERION_8.search_box(context.mean)
        p, _, temperature = seed = ridge_seed(context, box)
        assert box[2, 0] < temperature < box[2, 1]
        assert context.loss_at(*seed).params.lam == pytest.approx(p, rel=1e-12)

    def test_none_when_every_point_is_degenerate(self):
        # one CCDF knot: no income lies below any crossover
        context = FitContext(IncomeSample([7.0] * 60), 50)
        assert ridge_seed(context, CRITERION_8.search_box(context.mean)) is None

    def test_is_candidate_zero_of_the_swarm(self, context):
        box = CRITERION_8.search_box(context.mean)
        seed = ridge_seed(context, box)
        first = next(search(box, CRITERION_8, 5, start=seed))
        plain = next(search(box, CRITERION_8, 5))
        assert np.array_equal(first[0], seed)
        assert np.array_equal(first[1:], plain[1:])

    def test_every_fit_ends_no_worse_than_its_seed(self, context):
        box = CRITERION_8.search_box(context.mean)
        value, = stacked_objective([context], [ridge_seed(context, box)[None]])
        assert value < SENTINEL_LOSS
        for result in fit_group([context] * 3, CRITERION_8, [0, 1, 2]):
            assert result.value <= value


def test_fits_find_the_basin_of_the_generating_model():
    # at criterion 4's truth, swarms started at random ended 1 of these 40 fits
    # above the generating model's loss and 11 near the p = 0.2 wall
    truth = TwoClassParams(0.1, 1800.0, 1.8)
    above = at_edge = 0
    for s in range(7000, 7040):
        context = FitContext(sample_incomes(truth, 100_000, seed=s), CRITERION_8.k)
        result, = fit_group([context], CRITERION_8, [s])
        above += result.value > context.loss_at(truth.lam, truth.alpha, truth.temperature).total
        at_edge += result.x[0] > 0.15
    assert above == 0
    assert at_edge <= 3
