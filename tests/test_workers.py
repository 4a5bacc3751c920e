"""The worker count changes no result: records, output trees, drop lines and errors.

Each check runs at one worker (the in-process path), at two (forked
workers) and at the count the affinity mask gives, which is one under
``taskset -c 0`` and the CPU count elsewhere.
"""

import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from incomefit import (FitSettings, IncomeSample, TwoClassParams, _pool, bootstrap,
                       build_series, run_validation, sample_incomes)
from incomefit import series as series_module
from incomefit.cli import main
from incomefit.fitting import FitError

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes need the fork start method")

TINY = ["--k", "200", "--n-candidates", "8", "--max-iters", "12", "--refine-every", "6",
        "--refine-max-steps", "10"]
TINY_SETTINGS = FitSettings(k=200, n_candidates=8, max_iters=12, refine_every=6,
                            refine_max_steps=10)
COUNTS = (1, 2, None)                   # None: the host's own count


@pytest.fixture()
def at_workers(monkeypatch):
    """Run ``fn`` with the pool's CPU count forced to ``count`` (``None`` keeps it)."""
    def run(count, fn, *args):
        with monkeypatch.context() as patch:
            if count is not None:
                patch.setattr(_pool, "cpu_count", lambda: count)
            return fn(*args)
    return run


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _pid(shared, item):
    return os.getpid()


def test_two_workers_are_other_processes(at_workers):
    assert at_workers(1, _pool.map_in_order, _pid, [0, 1, 2], None) == [os.getpid()] * 3
    assert os.getpid() not in at_workers(2, _pool.map_in_order, _pid, [0, 1, 2], None)


def test_validation_records_equal(at_workers):
    sample = sample_incomes(TwoClassParams(0.08, 1800.0, 1.5), 2_000, seed=5)
    summaries = [at_workers(n, run_validation, sample, 6, TINY_SETTINGS, 3) for n in COUNTS]
    for other in summaries[1:]:
        assert other.replicas == summaries[0].replicas
        assert other.stats == summaries[0].stats


@pytest.fixture(scope="module")
def strata_csv(tmp_path_factory):
    rng = np.random.default_rng(31)
    path = tmp_path_factory.mktemp("workers") / "strata.csv"
    rows = [f"{v!r},{g}" for v, g in zip((rng.exponential(900.0, 900) + 1.0).tolist(),
                                         rng.choice(["a", "b", "c"], 900))]
    path.write_text("\n".join(["income,g", *rows, "500,d"]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("stratify", [[], ["--stratify-by", "g"]])
def test_bootstrap_trees_identical(stratify, strata_csv, tmp_path, at_workers, capsys):
    outputs = []
    for n in COUNTS:
        out = tmp_path / f"out{n}"
        code = at_workers(n, main, ["bootstrap", str(strata_csv), *stratify, "-R", "5",
                                    "--seed", "2", "--out-dir", str(out), *TINY])
        outputs.append((code, capsys.readouterr(), tree(out)))
    assert outputs[0][0] == 0
    assert all(other == outputs[0] for other in outputs[1:])


def write_years(tmp_path: Path, years=(2001, 2002, 2003, 2004)) -> list[str]:
    args = []
    for i, year in enumerate(years):
        sample = sample_incomes(TwoClassParams(0.08, 1500.0 + 50 * i, 1.6 + 0.05 * i),
                                1_500, seed=year)
        path = tmp_path / f"{year}.csv"
        path.write_text("income\n" + "".join(f"{v!r}\n" for v in sample.ascending.tolist()),
                        encoding="utf-8")
        args.append(f"--year={year}={path}")
    defl = tmp_path / "defl.csv"
    defl.write_text("year,index\n" + "".join(f"{y},{90 + 3 * i}\n"
                                            for i, y in enumerate(years)), encoding="utf-8")
    return [*args, "--deflators", str(defl), "--reference-year", str(years[-1])]


def run_series(at_workers, capsys, tmp_path, args):
    results = []
    for n in COUNTS:
        out = tmp_path / f"series{n}"
        code = at_workers(n, main, ["series", *args, "--seed", "4", "--out-dir", str(out),
                                    *TINY])
        results.append((code, capsys.readouterr(), tree(out) if out.exists() else None))
    assert all(other == results[0] for other in results[1:])
    return results[0]


def test_series_trees_identical(tmp_path, at_workers, capsys):
    code, captured, files = run_series(at_workers, capsys, tmp_path, write_years(tmp_path))
    assert code == 0 and captured.out == "fitted 4 years\n"
    assert set(files) == {"series.csv", "correlations.txt", "regression.txt",
                          "gini_pair.csv", "tail_pair.csv"}


def test_unusable_year_same_error(tmp_path, at_workers, capsys):
    args = write_years(tmp_path)
    (tmp_path / "2003.csv").write_text("income\n-1\n", encoding="utf-8")
    code, captured, _ = run_series(at_workers, capsys, tmp_path, args)
    assert code == 1
    assert captured.err.startswith(f"error: no usable incomes in {tmp_path / '2003.csv'}")


def test_read_error_beats_fit_error_and_earliest_year_wins(tmp_path, at_workers, capsys,
                                                            monkeypatch):
    def no_fit(*args, **kwargs):
        raise FitError("no fit here")

    monkeypatch.setattr(series_module, "solution", no_fit)
    args = write_years(tmp_path)
    (tmp_path / "2003.csv").write_text("income\n0\n", encoding="utf-8")
    code, captured, _ = run_series(at_workers, capsys, tmp_path, args)
    assert code == 1
    assert captured.err.startswith(f"error: no usable incomes in {tmp_path / '2003.csv'}")
    (tmp_path / "2002.csv").unlink()
    code, captured, _ = run_series(at_workers, capsys, tmp_path, args)
    assert code == 1
    assert captured.err == f"error: [Errno 2] No such file or directory: " \
                           f"'{tmp_path / '2002.csv'}'\n"


@pytest.fixture(scope="module")
def year_samples():
    return {year: sample_incomes(TwoClassParams(0.08, 1500.0 + 50 * i, 1.6 + 0.05 * i),
                                 1_500, seed=year)
            for i, year in enumerate((2001, 2002, 2003, 2004))}


def test_build_series_records_equal(year_samples, at_workers):
    deflators = {year: 90.0 + 3 * i for i, year in enumerate(year_samples)}
    records = [at_workers(n, build_series, year_samples, deflators, 2004, TINY_SETTINGS,
                          4) for n in COUNTS]
    assert [r.year for r in records[0]] == [2001, 2002, 2003, 2004]
    assert all(other == records[0] for other in records[1:])


def test_build_series_records_equal_at_any_group_size(year_samples, at_workers, monkeypatch):
    """Group caps of 1, 2, 10 and Y, on 1 and 2 workers, give the same records."""
    deflators = {year: 90.0 + 3 * i for i, year in enumerate(year_samples)}
    records = []
    for group_max in (1, 2, 10, len(year_samples)):
        monkeypatch.setattr(_pool, "GROUP_MAX", group_max)
        for n in (1, 2):
            records.append(at_workers(n, build_series, year_samples, deflators, 2004,
                                      TINY_SETTINGS, 4))
    assert [r.year for r in records[0]] == [2001, 2002, 2003, 2004]
    assert all(other == records[0] for other in records[1:])


def test_build_series_earliest_failed_fit_wins(year_samples, at_workers, monkeypatch):
    solution = series_module.solution
    failing = {year_samples[year].mean: year for year in (2002, 2004)}

    def fail_some(context, result):
        if context.mean in failing:
            raise FitError(f"no fit for {failing[context.mean]}")
        return solution(context, result)

    monkeypatch.setattr(series_module, "solution", fail_some)
    deflators = dict.fromkeys(year_samples, 1.0)
    for group_max in (1, 4):            # alone, and 2002 with its group-mates
        monkeypatch.setattr(_pool, "GROUP_MAX", group_max)
        for n in (1, 2):
            with pytest.raises(FitError, match="^no fit for 2002$"):
                at_workers(n, build_series, year_samples, deflators, 2001, TINY_SETTINGS)


def test_drop_lines_in_replica_order(at_workers, monkeypatch, caplog):
    pair = bootstrap.bootstrap_pair

    def fail_some(sample, seed):
        # the resampling stream of replica r is child 0 of child r: spawn key (r, 0)
        if seed.spawn_key[0] in (1, 4):
            raise FitError(f"forced drop of replica {seed.spawn_key[0]}")
        return pair(sample, seed)

    monkeypatch.setattr(bootstrap, "bootstrap_pair", fail_some)
    sample = sample_incomes(TwoClassParams(0.08, 1800.0, 1.5), 2_000, seed=6)
    expected = ["replica 1 dropped: forced drop of replica 1",
                "replica 4 dropped: forced drop of replica 4"]
    for n in COUNTS:
        caplog.clear()
        summary = at_workers(n, run_validation, sample, 6, TINY_SETTINGS, 1)
        assert [r.replica for r in summary.replicas] == [0, 2, 3, 5]
        assert caplog.messages == expected


@pytest.mark.parametrize("sample, kept", [
    (sample_incomes(TwoClassParams(0.08, 1800.0, 1.5), 2_000, seed=7), 12),
    (IncomeSample([5.0, 5.0, 5.0, 9.0]), 6),    # a replica that resamples only the 5s drops
], ids=["two-class", "ties"])
def test_validation_records_equal_at_any_group_size(sample, kept, at_workers, monkeypatch,
                                                    caplog):
    """Group caps of 1, 2, 10 and R, on 1 and 2 workers, give the same records and drops."""
    replicas = 12
    outcomes = []
    for group_max in (1, 2, 10, replicas):
        monkeypatch.setattr(_pool, "GROUP_MAX", group_max)
        for n in (1, 2):
            caplog.clear()
            summary = at_workers(n, run_validation, sample, replicas, TINY_SETTINGS, 8)
            outcomes.append((summary.replicas, summary.stats, caplog.messages))
    assert all(other == outcomes[0] for other in outcomes[1:])
    assert len(outcomes[0][0]) == kept


def _fail_first(marker_dir, item):
    if item == 0:
        raise ValueError("item 0 failed")
    time.sleep(0.2)
    (marker_dir / str(item)).touch()
    return item


def test_first_error_stops_the_remaining_items(tmp_path, at_workers):
    with pytest.raises(ValueError, match="^item 0 failed$"):
        at_workers(2, _pool.map_in_order, _fail_first, list(range(8)), tmp_path)
    # items 1 and 2 were running when item 0 failed; the executor had queued more
    assert len(list(tmp_path.iterdir())) < 3
