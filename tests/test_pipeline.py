"""CSV ingestion, command outputs, determinism and the CLI surface."""

import csv
import filecmp
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from incomefit import (
    DatasetSpec,
    FitSettings,
    TwoClassParams,
    cmd_baseline,
    cmd_bootstrap,
    cmd_fit,
    cmd_series,
    cmd_synth,
    empirical_gini,
    ingest,
    model_ccdf,
    sample_incomes,
)
import incomefit
from incomefit import pipeline as pipeline_module
from incomefit import series as series_module
from incomefit.cli import _resolve_settings, build_parser, main

QUICK = FitSettings(k=800, n_candidates=16, max_iters=50, refine_every=15,
                    refine_max_steps=30)


def write_csv(path: Path, rows: list[str]):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture()
def mixed_csv(tmp_path):
    path = tmp_path / "mixed.csv"
    write_csv(path, [
        "income,gender",
        "0,woman",
        "100,woman",
        ",man",
        "200,man",
        "abc,woman",
        "150,woman",
    ])
    return path


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "model.csv"
    cmd_synth(TwoClassParams(0.10, 1800.0, 1.8), 20_000, seed=77, out_path=out)
    return out


class TestIngest:
    def test_drop_policy_and_counts(self, mixed_csv):
        result = ingest(DatasetSpec(str(mixed_csv), "income"))
        assert sorted(result.sample.values.tolist()) == [100.0, 150.0, 200.0]
        assert result.n_rows == 6
        assert result.dropped == {"filtered": 0, "missing": 1, "unparseable": 1,
                                  "nonfinite": 0, "nonpositive": 1}

    def test_nonfinite_incomes_have_their_own_reason(self, tmp_path):
        path = tmp_path / "nonfinite.csv"
        write_csv(path, ["income", "inf", "nan", "1e400", "-5", "10", "20"])
        result = ingest(DatasetSpec(str(path), "income"))
        assert sorted(result.sample.values.tolist()) == [10.0, 20.0]
        assert result.dropped["nonfinite"] == 3
        assert result.dropped["nonpositive"] == 1

    def test_category_filter(self, mixed_csv):
        result = ingest(DatasetSpec(str(mixed_csv), "income",
                                    filters={"gender": "woman"}))
        assert sorted(result.sample.values.tolist()) == [100.0, 150.0]
        assert result.dropped["filtered"] == 2

    def test_stratified_samples(self, tmp_path):
        path = tmp_path / "strata.csv"
        write_csv(path, ["income,g", "10,a", "20,a", "30,b", "40,b", "50,b"])
        result = ingest(DatasetSpec(str(path), "income", stratify_by="g"))
        assert set(result.strata) == {"a", "b"}
        assert result.strata["a"].n == 2
        assert result.strata["b"].n == 3

    def test_values_kept_exactly(self, tmp_path):
        path = tmp_path / "exact.csv"
        values = ["100.07", "1234.5600000001", "3.141592653589793", "17"]
        write_csv(path, ["income"] + values)
        result = ingest(DatasetSpec(str(path), "income"))
        assert sorted(result.sample.values.tolist()) == sorted(float(v) for v in values)

    def test_round_trip_synth(self, synth_csv):
        result = ingest(DatasetSpec(str(synth_csv), "income"))
        original = sample_incomes(TwoClassParams(0.10, 1800.0, 1.8), 20_000, seed=77)
        assert result.sample.n == 20_000
        assert np.array_equal(result.sample.values, original.values)

    def test_missing_column_rejected(self, mixed_csv):
        with pytest.raises(ValueError, match="wages"):
            ingest(DatasetSpec(str(mixed_csv), "wages"))

    def test_all_rows_dropped_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["income", "0", "-5", ""])
        with pytest.raises(ValueError):
            ingest(DatasetSpec(str(path), "income"))

    def test_peak_memory_a_few_times_the_file(self, tmp_path):
        """Splitting 2e5 rows in blocks keeps the traced peak under 5 times the file."""
        path = tmp_path / "big.csv"
        values = np.random.default_rng(3).exponential(1000.0, 200_000).tolist()
        write_csv(path, ["income", *map(repr, values)])
        tracemalloc.start()
        try:
            ingest(DatasetSpec(str(path), "income"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * path.stat().st_size


class TestCmdSynth:
    def test_zero_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_synth(TwoClassParams(0.1, 1000.0, 1.8), 0, 1, tmp_path / "x.csv")

    def test_row_count_round_trip(self, tmp_path):
        out = tmp_path / "n.csv"
        cmd_synth(TwoClassParams(0.1, 1000.0, 1.8), 500, 3, out)
        assert ingest(DatasetSpec(str(out), "income")).sample.n == 500

    def test_exponential_limit_gini(self, tmp_path):
        out = tmp_path / "expo.csv"
        cmd_synth(TwoClassParams(1e-9, 1000.0, 2.0), 100_000, 5, out)
        sample = ingest(DatasetSpec(str(out), "income")).sample
        assert empirical_gini(sample) == pytest.approx(0.5, abs=0.01)

    def test_unwritable_path_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_synth(TwoClassParams(0.1, 1000.0, 1.8), 5, 1,
                      tmp_path / "missing_dir" / "x.csv")


class TestCmdFit:
    def test_outputs_and_recovery(self, synth_csv, tmp_path):
        out = tmp_path / "fit_out"
        fit = cmd_fit(DatasetSpec(str(synth_csv), "income"), out, QUICK, seed=5)
        for name in ("report.txt", "ccdf_points.csv", "model_curve.csv",
                     "markers.csv", "trace.tsv"):
            assert (out / name).exists()
        assert abs(fit.params.temperature / 1800.0 - 1.0) < 0.05
        report = (out / "report.txt").read_text()
        assert "top_fraction" in report and "[loss]" in report

    def test_pareto_region_error_dominates(self, synth_csv, tmp_path):
        fit = cmd_fit(DatasetSpec(str(synth_csv), "income"),
                      tmp_path / "regions", QUICK, seed=5)
        assert fit.rmsle_pareto >= fit.rmsle_exponential

    def test_region_errors_recombine_to_total(self, synth_csv, tmp_path):
        fit = cmd_fit(DatasetSpec(str(synth_csv), "income"),
                      tmp_path / "recombine", QUICK, seed=5)
        n = fit.n_exponential + fit.n_pareto
        combined = np.sqrt((fit.n_exponential * fit.rmsle_exponential ** 2
                            + fit.n_pareto * fit.rmsle_pareto ** 2) / n)
        assert combined == pytest.approx(fit.loss.rmsle, rel=1e-9)

    def test_plot_curve_consistent_with_report_params(self, synth_csv, tmp_path):
        out = tmp_path / "curve"
        fit = cmd_fit(DatasetSpec(str(synth_csv), "income"), out, QUICK, seed=5)
        rows = (out / "model_curve.csv").read_text().strip().splitlines()[1:]
        incomes = np.array([float(r.split(",")[0]) for r in rows])
        fractions = np.array([float(r.split(",")[1]) for r in rows])
        assert np.allclose(fractions, model_ccdf(fit.params, incomes), rtol=1e-12)
        assert len(rows) == 1000  # 500 points per branch

    def test_byte_identical_outputs_for_same_seed(self, synth_csv, tmp_path):
        spec = DatasetSpec(str(synth_csv), "income")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cmd_fit(spec, out1, QUICK, seed=9)
        cmd_fit(spec, out2, QUICK, seed=9)
        for name in ("report.txt", "ccdf_points.csv", "model_curve.csv",
                     "markers.csv", "trace.tsv"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_final_best_is_the_last_traced_loss(self, synth_csv, tmp_path):
        out = tmp_path / "final"
        cmd_fit(DatasetSpec(str(synth_csv), "income"), out, QUICK, seed=5)
        report = (out / "report.txt").read_text().splitlines()
        final_best, = [line.split(" = ", 1)[1] for line in report
                       if line.startswith("final_best = ")]
        last_row = (out / "trace.tsv").read_text().splitlines()[-1]
        assert final_best == last_row.split("\t")[1]

    def test_fitted_params_are_python_floats(self, synth_csv, tmp_path):
        fit = cmd_fit(DatasetSpec(str(synth_csv), "income"), tmp_path / "floats", QUICK, seed=5)
        for value in (fit.params.lam, fit.params.temperature, fit.params.alpha):
            assert type(value) is float


    def test_numeric_fields_parse_as_float(self, synth_csv, tmp_path):
        out = tmp_path / "plain"
        cmd_fit(DatasetSpec(str(synth_csv), "income"), out, QUICK, seed=5)
        text_fields = {"path", "income_column", "filters", "stratify_by",
                       "crossover_clamped", "name", "branch"}
        values = []
        for line in (out / "report.txt").read_text().splitlines():
            if " = " in line:
                key, value = line.split(" = ", 1)
                values.append((key, value))
        for name in ("ccdf_points.csv", "model_curve.csv", "markers.csv", "trace.tsv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh, delimiter="\t" if name.endswith(".tsv") else ","))
            values += [(key, value) for row in rows[1:] for key, value in zip(rows[0], row)]
        numeric = [(key, value) for key, value in values if key not in text_fields]
        assert len(numeric) > 1000
        for key, value in numeric:
            float(value)  # raises on np.float64(...) and other wrapped forms


def section_layout(path: Path) -> list[tuple[str, list[str]]]:
    """The ``[section]`` titles of a report and each one's keys, in file order."""
    layout = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            layout.append((line[1:-1], []))
        elif line:
            layout[-1][1].append(line.split(" = ", 1)[0])
    return layout


def header_row(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


class TestOutputLayout:
    """The columns, sections and keys that scripts reading the outputs rely on."""

    TINY = FitSettings(k=800, n_candidates=8, max_iters=10, refine_every=0)
    CONFIG = ["k", "n_candidates", "max_iters", "refine_every", "refine_max_steps",
              "alpha_max", "seed"]
    INDICATORS = ["crossover", "top_fraction", "temperature", "pareto_index", "gini",
                  "train_rmsle", "test_rmsle"]
    MODEL = ["top_fraction", "temperature", "pareto_index", "crossover_income"]

    @pytest.fixture(scope="class")
    def out(self, synth_csv, tmp_path_factory):
        out = tmp_path_factory.mktemp("layout")
        rng = np.random.default_rng(3)
        strat = out / "strat.csv"
        write_csv(strat, ["income,color", *(f"{v},{c}" for v, c in
                                            zip(rng.exponential(1200.0, 600) + 1.0, "xy" * 300))])
        for year in (2001, 2002, 2003):
            cmd_synth(TwoClassParams(0.08, 1500.0, 1.6), 3_000, year, out / f"{year}.csv")
        write_csv(out / "defl.csv", ["year,index", "2001,50.0", "2002,75.0", "2003,100.0"])
        spec = DatasetSpec(str(synth_csv), "income")
        cmd_fit(spec, out / "fit", self.TINY, seed=1)
        cmd_bootstrap(spec, 2, out / "boot", self.TINY, seed=1)
        cmd_bootstrap(DatasetSpec(str(strat), "income", stratify_by="color"), 2,
                      out / "strat", self.TINY, seed=1)
        cmd_baseline(spec, 0.05, out / "base", self.TINY, seed=1)
        cmd_series({y: DatasetSpec(str(out / f"{y}.csv"), "income") for y in (2001, 2002, 2003)},
                   out / "defl.csv", 2003, out / "series", self.TINY, seed=1)
        return out

    def test_series_header(self, out):
        assert header_row(out / "series" / "series.csv") == [
            "year", "top_fraction", "temperature", "temperature_deflated", "pareto_index",
            "crossover", "crossover_deflated", "gini_theoretical", "gini_empirical"]

    @pytest.mark.parametrize("name", ["boot/replicas.csv", "strat/replicas_x.csv",
                                      "strat/replicas_y.csv"])
    def test_replicas_header(self, out, name):
        assert header_row(out / name) == ["replica", *self.INDICATORS]

    @pytest.mark.parametrize("name", ["boot/summary.txt", "strat/summary_x.txt"])
    def test_summary_sections(self, out, name):
        stats = ["mean", "std", "ci_low", "ci_high", "cv"]
        assert section_layout(out / name) == [
            ("replicas", ["requested", "effective"]),
            *((indicator, stats) for indicator in self.INDICATORS),
            ("config", self.CONFIG)]

    def test_correlations_sections(self, out):
        keys = ["rho", "rho_std", "p_value", "n"]
        assert section_layout(out / "series" / "correlations.txt") == [
            ("pareto_index_vs_top_fraction", keys),
            ("empirical_vs_theoretical_gini", keys),
            ("config", self.CONFIG)]

    def test_regression_sections(self, out):
        assert section_layout(out / "series" / "regression.txt") == [
            ("empirical_gini_on_theoretical_gini",
             ["slope", "slope_se", "intercept", "intercept_se", "residual_se",
              "rho", "p_value", "n"]),
            ("config", self.CONFIG)]

    def test_baseline_sections(self, out):
        keys = [*self.MODEL, "train_rmsle"]
        assert section_layout(out / "base" / "baseline.txt") == [
            ("optimal", keys), ("fixed_proportion", keys), ("config", self.CONFIG)]

    def test_report_dataset_and_parameters(self, out):
        layout = dict(section_layout(out / "fit" / "report.txt"))
        assert layout["dataset"] == [
            "path", "income_column", "filters", "stratify_by", "rows_read", "incomes_used",
            "dropped_filtered", "dropped_missing", "dropped_unparseable", "dropped_nonfinite",
            "dropped_nonpositive"]
        assert layout["parameters"] == [*self.MODEL, "search_fraction", "crossover_clamped"]
        assert layout["config"] == self.CONFIG


class TestCmdBootstrap:
    def test_summary_and_replica_table(self, synth_csv, tmp_path):
        out = tmp_path / "boot"
        summaries = cmd_bootstrap(DatasetSpec(str(synth_csv), "income"), 4, out,
                                  QUICK, seed=2)
        assert summaries["all"].n_effective == 4
        summary_text = (out / "summary.txt").read_text()
        assert "[config]" in summary_text and "seed = 2" in summary_text
        lines = (out / "replicas.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 replicas
        assert lines[0].startswith("replica,crossover,top_fraction")

    def test_stratified_two_summaries(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "strat.csv"
        rows = ["income,color"]
        for v in rng.exponential(1000.0, 400) + 1.0:
            rows.append(f"{v},x")
        for v in rng.exponential(1500.0, 400) + 1.0:
            rows.append(f"{v},y")
        write_csv(path, rows)
        out = tmp_path / "strat_out"
        quick = FitSettings(k=200, n_candidates=12, max_iters=30, refine_every=0)
        summaries = cmd_bootstrap(DatasetSpec(str(path), "income", stratify_by="color"),
                                  3, out, quick, seed=4)
        assert set(summaries) == {"x", "y"}
        assert (out / "summary_x.txt").exists()
        assert (out / "summary_y.txt").exists()
        assert (out / "replicas_x.csv").exists()

    @pytest.mark.parametrize("category", ["a/b", "../esc"])
    def test_category_with_path_separator_rejected_before_fitting(
            self, category, tmp_path, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("a replica was fitted before the category was rejected")

        monkeypatch.setattr(pipeline_module, "run_validation", no_fit)
        path = tmp_path / "strat.csv"
        write_csv(path, ["income,g"] + [f"{100.0 + i},{g}" for i in range(20)
                                        for g in ("0first", category)])
        out = tmp_path / "out"
        code = main(["bootstrap", str(path), "--stratify-by", "g", "-R", "2",
                     "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert repr(category) in err and "path separator" in err
        assert list(out.iterdir()) == []


class TestCmdSeries:
    def test_two_year_run(self, tmp_path):
        for year, seed in ((2001, 1), (2002, 2), (2003, 3)):
            cmd_synth(TwoClassParams(0.08, 1500.0, 1.6), 5_000, seed,
                      tmp_path / f"{year}.csv")
        write_csv(tmp_path / "defl.csv",
                  ["year,index", "2001,50.0", "2002,75.0", "2003,100.0"])
        specs = {y: DatasetSpec(str(tmp_path / f"{y}.csv"), "income")
                 for y in (2001, 2002, 2003)}
        out = tmp_path / "series_out"
        series = cmd_series(specs, tmp_path / "defl.csv", 2003, out, QUICK, seed=0)
        assert [r.year for r in series.records] == [2001, 2002, 2003]
        rec = series.records[0]
        assert rec.temperature_deflated == pytest.approx(2.0 * rec.temperature)
        for name in ("series.csv", "correlations.txt", "regression.txt",
                     "gini_pair.csv", "tail_pair.csv"):
            assert (out / name).exists()

    def test_missing_deflator_named(self, tmp_path):
        cmd_synth(TwoClassParams(0.08, 1500.0, 1.6), 3_000, 1, tmp_path / "y.csv")
        write_csv(tmp_path / "defl.csv", ["year,index", "2019,100.0"])
        specs = {2007: DatasetSpec(str(tmp_path / "y.csv"), "income"),
                 2008: DatasetSpec(str(tmp_path / "y.csv"), "income"),
                 2009: DatasetSpec(str(tmp_path / "y.csv"), "income")}
        with pytest.raises(ValueError, match="2007"):
            cmd_series(specs, tmp_path / "defl.csv", 2019, tmp_path / "o", QUICK)


class TestSeriesInput:
    """Bad series input exits 1 before any year is fitted."""

    GOOD = ["year,index", "2001,50.0", "2002,75.0", "2003,100.0"]

    @pytest.fixture()
    def run_series(self, tmp_path, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("a year was fitted before the input was rejected")

        monkeypatch.setattr(series_module, "fit_sample", no_fit)
        for year in (2001, 2002, 2003):
            cmd_synth(TwoClassParams(0.08, 1500.0, 1.6), 300, year, tmp_path / f"{year}.csv")

        def run(deflator_rows, years=(2001, 2002, 2003)):
            defl = tmp_path / "defl.csv"
            defl.write_text("".join(row + "\n" for row in deflator_rows), encoding="utf-8")
            code = main(["series", *(f"--year={y}={tmp_path / f'{y}.csv'}" for y in years),
                         "--deflators", str(defl), "--reference-year", "2003",
                         "--out-dir", str(tmp_path / "out")])
            return code, capsys.readouterr().err

        return run

    def test_empty_deflator_file(self, run_series):
        code, err = run_series([])
        assert code == 1 and "empty" in err

    def test_year_without_index(self, run_series):
        code, err = run_series(self.GOOD[:2] + ["2002"] + self.GOOD[3:])
        assert code == 1 and "needs an integer year and a numeric index" in err

    def test_duplicate_year(self, run_series):
        code, err = run_series(self.GOOD + ["2002,80.0"])
        assert code == 1 and "duplicate year 2002" in err

    def test_zero_index(self, run_series):
        code, err = run_series(self.GOOD[:2] + ["2002,0"] + self.GOOD[3:])
        assert code == 1 and "positive and finite" in err and "2002" in err

    def test_negative_index(self, run_series):
        code, err = run_series(self.GOOD[:3] + ["2003,-100.0"])
        assert code == 1 and "positive and finite" in err and "2003" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_index(self, run_series, value):
        code, err = run_series(self.GOOD[:1] + [f"2001,{value}"] + self.GOOD[2:])
        assert code == 1 and "positive and finite" in err and "2001" in err

    def test_fewer_than_three_years(self, run_series):
        code, err = run_series(self.GOOD, years=(2002, 2003))
        assert code == 1 and "at least 3 years" in err

    @pytest.mark.parametrize("years, message", [
        ((2001, 2002, 2003, 2003), "--year 2003 given more than once"),
        (("20x1", 2002, 2003), "--year needs an integer year"),
    ])
    def test_bad_year_rejected_before_any_file_is_read(self, run_series, monkeypatch,
                                                       years, message):
        def no_read(*args, **kwargs):
            raise AssertionError("a file was read before the years were checked")

        monkeypatch.setattr(pipeline_module, "ingest", no_read)
        monkeypatch.setattr(pipeline_module, "read_deflators", no_read)
        code, err = run_series(self.GOOD, years=years)
        assert code == 1 and message in err

    def test_bad_index_rejected_before_ingest(self, run_series, monkeypatch):
        def no_ingest(*args, **kwargs):
            raise AssertionError("a year was read before the deflators were checked")

        monkeypatch.setattr(pipeline_module, "ingest", no_ingest)
        code, err = run_series(self.GOOD[:2] + ["2002,0"] + self.GOOD[3:])
        assert code == 1 and "positive and finite" in err and "2002" in err


class TestCli:
    SETTINGS = {"k", "n_candidates", "max_iters", "refine_every", "refine_max_steps",
                "alpha_max"}
    REMOVED = ["p_max", "alpha_min", "t_lower_scale", "t_upper_scale"]

    def test_settings_surface(self, synth_csv, tmp_path):
        parsed = vars(build_parser().parse_args(["fit", "data.csv"]))
        flags = set(parsed) - {"command", "data", "income_col", "filter", "out_dir",
                               "config", "seed"}
        out = tmp_path / "surface"
        cmd_fit(DatasetSpec(str(synth_csv), "income"), out, QUICK, seed=1)
        report = (out / "report.txt").read_text().split("[config]\n", 1)[1]
        config_keys = {line.split(" = ")[0] for line in report.splitlines() if " = " in line}
        assert flags == self.SETTINGS
        assert config_keys - {"seed"} == self.SETTINGS
        assert {f.name for f in fields(FitSettings)} == self.SETTINGS

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_box_flag_rejected(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "data.csv", f"--{name.replace('_', '-')}", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["c1", *REMOVED])
    def test_unknown_config_key(self, synth_csv, tmp_path, capsys, key):
        cfg = tmp_path / "swarm.json"
        cfg.write_text(json.dumps({"k": 400, key: 1.5}))
        code = main(["fit", str(synth_csv), "--out-dir", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, config, name", [
        (["--k", "1"], None, "k"),
        (["--n-candidates", "1"], None, "n_candidates"),
        (["--max-iters", "0"], None, "max_iters"),
        (["--refine-every", "-1"], None, "refine_every"),
        (["--refine-max-steps", "-1"], None, "refine_max_steps"),
        (["--alpha-max", "inf"], None, "alpha_max"),
        (["--alpha-max", "nan"], None, "alpha_max"),
        (["--alpha-max", "1"], None, "alpha_max"),
        ([], '{"alpha_max": 1e999}', "alpha_max"),
    ])
    def test_bad_setting_rejected_before_any_output(self, synth_csv, tmp_path, capsys,
                                                    flags, config, name):
        if config is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(config)
            flags = [*flags, "--config", str(cfg)]
        code = main(["fit", str(synth_csv), "--out-dir", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {name} must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, named", [
        ('{"k": null}', "config key k"),
        ('{"k": [5]}', "config key k"),
        ("[1, 2]", "JSON object"),
    ])
    def test_bad_config_value_or_shape(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code = main(["fit", str(tmp_path / "data.csv"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("text, key", [
        ('{"max_iters": 3.9}', "max_iters"),
        ('{"max_iters": true}', "max_iters"),
        ('{"n_candidates": "4"}', "n_candidates"),
    ])
    def test_config_value_of_wrong_json_type(self, synth_csv, tmp_path, capsys, text, key):
        cfg = tmp_path / "typed.json"
        cfg.write_text(text)
        code = main(["fit", str(synth_csv), "--out-dir", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: config key {key}: ")
        assert not (tmp_path / "o").exists()

    def test_float_config_key_takes_an_integer(self, tmp_path):
        cfg = tmp_path / "int.json"
        cfg.write_text('{"alpha_max": 4, "k": 500, "seed": 4}')
        settings, seed = _resolve_settings(
            build_parser().parse_args(["fit", "data.csv", "--config", str(cfg)]))
        assert settings.alpha_max == 4.0 and type(settings.alpha_max) is float
        assert settings.k == 500 and seed == 4

    def test_short_row_under_stratify_by(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        write_csv(data, ["income,g", "100,a", "200,a", "3", "400,b"])
        code = main(["bootstrap", str(data), "--stratify-by", "g", "-R", "2",
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "short.csv" in err
        assert "line 4" in err and "'g'" in err

    @pytest.mark.parametrize("marked", ["income", "deflators"])
    def test_byte_order_mark_accepted(self, tmp_path, marked):
        # spreadsheet "CSV UTF-8" exports begin with one
        years = (2001, 2002, 2003)
        for year in years:
            path = cmd_synth(TwoClassParams(0.08, 1500.0, 1.6), 400, year,
                             tmp_path / f"{year}.csv")
            if marked == "income":
                path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        defl = tmp_path / "defl.csv"
        defl.write_text("year,index\n2001,50.0\n2002,75.0\n2003,100.0\n",
                        encoding="utf-8-sig" if marked == "deflators" else "utf-8")
        out = tmp_path / "out"
        code = main(["series", *(f"--year={y}={tmp_path / f'{y}.csv'}" for y in years),
                     "--deflators", str(defl), "--reference-year", "2003",
                     "--out-dir", str(out), "--k", "100", "--n-candidates", "6",
                     "--max-iters", "5", "--refine-every", "0"])
        assert code == 0
        with open(out / "series.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["year"] for row in rows] == ["2001", "2002", "2003"]
        assert float(rows[0]["temperature_deflated"]) == pytest.approx(
            2.0 * float(rows[0]["temperature"]))

    @pytest.mark.parametrize("header, flags, named", [
        ("income,income", [], "income"),
        ("income,g,g", ["--filter", "g=a"], "g"),
        ("income,g,g", ["--stratify-by", "g"], "g"),
    ])
    def test_header_naming_a_used_column_twice(self, tmp_path, capsys, header, flags, named):
        data = tmp_path / "twice.csv"
        write_csv(data, [header, "1,5,a", "2,6,a", "3,7,a"])
        code = main(["bootstrap", str(data), *flags, "-R", "2",
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and f"column {named!r} appears 2 times" in err

    def test_filter_column_named_twice(self, synth_csv, tmp_path, capsys):
        code = main(["fit", str(synth_csv), "--filter", "sex=a", "--filter", "sex=b",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "--filter names column 'sex' more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_import_leaves_out_scipy_stats(self):
        src = str(Path(incomefit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        probe = "import sys, incomefit.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_cli_import_and_bootstrap_leave_out_scipy(self, tmp_path):
        src = str(Path(incomefit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        data = tmp_path / "small.csv"
        probe = (
            "import sys, incomefit.cli\n"
            "from incomefit import FitSettings, TwoClassParams, cmd_bootstrap, cmd_synth\n"
            "from incomefit.pipeline import DatasetSpec\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            f"cmd_synth(TwoClassParams(0.1, 1500.0, 1.7), 300, seed=3, out_path={str(data)!r})\n"
            f"cmd_bootstrap(DatasetSpec({str(data)!r}, 'income'), 2, {str(tmp_path / 'o')!r},\n"
            "              FitSettings(k=50, n_candidates=6, max_iters=5, refine_every=2))\n"
            "print(loaded())\n")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[0] == "[]"
        assert result.stdout.splitlines()[-1] == "[]"

    def test_oversized_csv_field(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        write_csv(data, ["income", "100", "9" * 200_000, "200"])
        code = main(["fit", str(data), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "line 3" in err

    def test_tiny_stratum_reported(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        data = tmp_path / "strata.csv"
        write_csv(data, ["income,g", *(f"{v},a" for v in rng.exponential(900.0, 300) + 1.0),
                         "500,b"])
        out_dir = tmp_path / "strata_out"
        code = main(["bootstrap", str(data), "--stratify-by", "g", "-R", "2",
                     "--out-dir", str(out_dir), "--k", "100", "--n-candidates", "6",
                     "--max-iters", "5", "--refine-every", "0"])
        assert code == 0
        assert "b: skipped, 1 income(s), need at least 3" in capsys.readouterr().out
        assert (out_dir / "summary_a.txt").exists()
        assert not (out_dir / "summary_b.txt").exists()

    def test_two_income_stratum_skipped(self, tmp_path, capsys, caplog):
        # ingest keeps it, but a bootstrap split cannot leave 2 of 2 incomes out of bag
        rng = np.random.default_rng(12)
        data = tmp_path / "strata.csv"
        write_csv(data, ["income,g", *(f"{v},a" for v in rng.exponential(900.0, 300) + 1.0),
                         "500,c", "700,c"])
        out_dir = tmp_path / "strata_out"
        code = main(["bootstrap", str(data), "--stratify-by", "g", "-R", "2",
                     "--out-dir", str(out_dir), "--k", "100", "--n-candidates", "6",
                     "--max-iters", "5", "--refine-every", "0"])
        assert code == 0
        assert "c: skipped, 2 income(s), need at least 3" in capsys.readouterr().out
        assert "dropped" not in caplog.text
        assert (out_dir / "summary_a.txt").exists()
        assert not (out_dir / "summary_c.txt").exists()
        assert not (out_dir / "replicas_c.csv").exists()

    def test_skip_lines_in_category_order(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        data = tmp_path / "strata.csv"
        write_csv(data, ["income,g", "100,a", "200,b", "300,b", "400,c",
                         *(f"{v},d" for v in rng.exponential(900.0, 300) + 1.0)])
        code = main(["bootstrap", str(data), "--stratify-by", "g", "-R", "2",
                     "--out-dir", str(tmp_path / "o"), "--k", "100", "--n-candidates", "6",
                     "--max-iters", "5", "--refine-every", "0"])
        assert code == 0
        skips = [line for line in capsys.readouterr().out.splitlines() if "skipped" in line]
        assert skips == ["a: skipped, 1 income(s), need at least 3",
                         "b: skipped, 2 income(s), need at least 3",
                         "c: skipped, 1 income(s), need at least 3"]

    def test_no_usable_stratum_rejected(self, tmp_path, capsys):
        data = tmp_path / "strata.csv"
        write_csv(data, ["income,g", "100,a", "200,b", "300,b", "400,c"])
        out_dir = tmp_path / "o"
        code = main(["bootstrap", str(data), "--stratify-by", "g", "-R", "2",
                     "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "no --stratify-by category holds at least 3 incomes" in err
        assert list(out_dir.iterdir()) == []

    def test_two_income_sample_rejected(self, tmp_path, capsys, caplog):
        data = tmp_path / "two.csv"
        write_csv(data, ["income", "100", "200"])
        out_dir = tmp_path / "two_out"
        code = main(["bootstrap", str(data), "-R", "2", "--out-dir", str(out_dir)])
        assert code == 1
        assert "need at least 3 incomes to leave 2 out of bag, got 2" in capsys.readouterr().err
        assert "dropped" not in caplog.text
        assert list(out_dir.iterdir()) == []

    def test_synth_then_fit_exit_codes(self, tmp_path, capsys):
        data = tmp_path / "cli.csv"
        code = main(["synth", "--top-fraction", "0.1", "--temperature", "1500",
                     "--pareto-index", "1.7", "-n", "8000", "--seed", "3",
                     "-o", str(data)])
        assert code == 0
        out_dir = tmp_path / "cli_fit"
        code = main(["fit", str(data), "--out-dir", str(out_dir),
                     "--k", "500", "--n-candidates", "12", "--max-iters", "40",
                     "--seed", "1"])
        assert code == 0
        assert (out_dir / "report.txt").exists()
        printed = capsys.readouterr().out
        assert "temperature=" in printed

    def test_config_file_with_cli_override(self, tmp_path):
        data = tmp_path / "cfg.csv"
        main(["synth", "--top-fraction", "0.1", "--temperature", "1500",
              "--pareto-index", "1.7", "-n", "6000", "--seed", "4", "-o", str(data)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 400, "n_candidates": 10, "max_iters": 30, "seed": 8}')
        out_dir = tmp_path / "cfg_out"
        code = main(["fit", str(data), "--out-dir", str(out_dir),
                     "--config", str(cfg), "--max-iters", "35"])
        assert code == 0
        report = (out_dir / "report.txt").read_text()
        assert "k = 400" in report            # from config file
        assert "max_iters = 35" in report     # CLI beats config
        assert "seed = 8" in report           # from config file

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_baseline_command(self, tmp_path, capsys):
        data = tmp_path / "base.csv"
        main(["synth", "--top-fraction", "0.1", "--temperature", "1500",
              "--pareto-index", "1.7", "-n", "20000", "--seed", "6", "-o", str(data)])
        out_dir = tmp_path / "base_out"
        code = main(["baseline", str(data), "--out-dir", str(out_dir),
                     "--k", "800", "--n-candidates", "16", "--max-iters", "50",
                     "--seed", "2"])
        assert code == 0
        assert (out_dir / "baseline.txt").exists()
        printed = capsys.readouterr().out
        assert "baseline rmsle=" in printed
