"""Command-line interface: fit, bootstrap, baseline, series, synth."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .fitting import FitSettings
from .model import TwoClassParams
from .pipeline import (
    DatasetSpec,
    cmd_baseline,
    cmd_bootstrap,
    cmd_fit,
    cmd_series,
    cmd_synth,
)

_SETTING_FLAGS = {f.name: type(f.default) for f in fields(FitSettings)}


def _add_settings_args(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("fit configuration")
    for name, typ in _SETTING_FLAGS.items():
        group.add_argument(f"--{name.replace('_', '-')}", dest=name,
                           type=typ, default=None)
    group.add_argument("--config", default=None,
                       help="JSON file with fit configuration; CLI flags override it")
    group.add_argument("--seed", type=int, default=None)


def _resolve_settings(args) -> tuple[FitSettings, int]:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        types = dict(_SETTING_FLAGS, seed=int)
        for key, val in loaded.items():
            if key not in types:
                raise ValueError(f"unknown config key: {key}")
            # an int key takes a JSON integer; a float key, an integer or a float
            accepted = (int, float) if types[key] is float else int
            if isinstance(val, bool) or not isinstance(val, accepted):
                raise ValueError(f"config key {key}: {val!r} is not {types[key].__name__}")
            values[key] = types[key](val)
    for name in [*_SETTING_FLAGS, "seed"]:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    seed = values.pop("seed", 0)
    return FitSettings(**values), seed


def _add_dataset_args(parser: argparse.ArgumentParser, with_strata: bool = True):
    parser.add_argument("data", help="CSV file with a header row")
    parser.add_argument("--income-col", default="income",
                        help="name of the income column (default: income)")
    parser.add_argument("--filter", action="append", default=[],
                        metavar="COL=VALUE",
                        help="keep only rows where COL equals VALUE (repeatable)")
    if with_strata:
        parser.add_argument("--stratify-by", default=None,
                            help="categorical column to split into per-category runs")


def _parse_filters(pairs) -> dict[str, str]:
    filters = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"filter must look like COL=VALUE, got {pair!r}")
        col, val = pair.split("=", 1)
        if col in filters:
            raise ValueError(f"--filter names column {col!r} more than once")
        filters[col] = val
    return filters


def _spec_from_args(args) -> DatasetSpec:
    return DatasetSpec(
        path=args.data,
        income_column=args.income_col,
        filters=_parse_filters(args.filter),
        # fit and baseline have no --stratify-by
        stratify_by=getattr(args, "stratify_by", None),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incomefit",
        description="Fit a continuous exponential-body/Pareto-tail income "
                    "distribution and compute inequality indicators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one dataset and emit report plus plot data")
    _add_dataset_args(p_fit, with_strata=False)
    p_fit.add_argument("--out-dir", default="out")
    _add_settings_args(p_fit)

    p_boot = sub.add_parser("bootstrap", help="bootstrap validation with out-of-bag error")
    _add_dataset_args(p_boot)
    p_boot.add_argument("--replicas", "-R", type=int, default=1000)
    p_boot.add_argument("--out-dir", default="out")
    _add_settings_args(p_boot)

    p_base = sub.add_parser("baseline", help="compare against a fixed tail proportion")
    _add_dataset_args(p_base, with_strata=False)
    p_base.add_argument("--tail-fraction", type=float, default=0.05)
    p_base.add_argument("--out-dir", default="out")
    _add_settings_args(p_base)

    p_series = sub.add_parser("series", help="per-year fits with deflation and correlations")
    p_series.add_argument("--year", action="append", required=True,
                          metavar="YEAR=PATH", help="dataset for one year (repeatable)")
    p_series.add_argument("--income-col", default="income")
    p_series.add_argument("--filter", action="append", default=[], metavar="COL=VALUE")
    p_series.add_argument("--deflators", required=True,
                          help="CSV with year,index columns")
    p_series.add_argument("--reference-year", type=int, required=True)
    p_series.add_argument("--out-dir", default="out")
    _add_settings_args(p_series)

    p_synth = sub.add_parser("synth", help="generate a synthetic income CSV from the model")
    p_synth.add_argument("--top-fraction", type=float, required=True)
    p_synth.add_argument("--temperature", type=float, required=True)
    p_synth.add_argument("--pareto-index", type=float, required=True)
    p_synth.add_argument("-n", "--size", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            settings, seed = _resolve_settings(args)
            fit = cmd_fit(_spec_from_args(args), args.out_dir, settings, seed)
            print(f"top_fraction={fit.params.lam:.6g} "
                  f"temperature={fit.params.temperature:.6g} "
                  f"pareto_index={fit.params.alpha:.6g} "
                  f"crossover={fit.crossover:.6g} loss={fit.loss.total:.6g}")
        elif args.command == "bootstrap":
            settings, seed = _resolve_settings(args)
            summaries = cmd_bootstrap(_spec_from_args(args),
                                      args.replicas, args.out_dir, settings, seed)
            for name, summary in summaries.items():
                print(f"{name}: effective replicas {summary.n_effective}/{summary.n_requested}")
        elif args.command == "baseline":
            settings, seed = _resolve_settings(args)
            fit, base = cmd_baseline(_spec_from_args(args), args.tail_fraction,
                                     args.out_dir, settings, seed)
            print(f"optimal rmsle={fit.loss.rmsle:.6g} "
                  f"baseline rmsle={base.train_rmsle:.6g}")
        elif args.command == "series":
            settings, seed = _resolve_settings(args)
            specs = {}
            for pair in args.year:
                if "=" not in pair:
                    raise ValueError(f"--year must look like YEAR=PATH, got {pair!r}")
                year, path = pair.split("=", 1)
                try:
                    year = int(year)
                except ValueError:
                    raise ValueError(f"--year needs an integer year, got {pair!r}") from None
                if year in specs:
                    raise ValueError(f"--year {year} given more than once")
                specs[year] = DatasetSpec(path=path, income_column=args.income_col,
                                          filters=_parse_filters(args.filter))
            records = cmd_series(specs, args.deflators, args.reference_year,
                                 args.out_dir, settings, seed)
            print(f"fitted {len(records)} years")
        elif args.command == "synth":
            params = TwoClassParams(args.top_fraction, args.temperature,
                                    args.pareto_index)
            path = cmd_synth(params, args.size, args.seed, args.output)
            print(f"wrote {args.size} incomes to {path}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
