"""Seeded input generation for the incomefit benchmark.

Incomes are drawn by inverse-transform sampling of the two-class law
(exponential body below the crossover, Pareto tail above it), written
here with numpy alone so that the recovery checks test the program
against a sampler that is not its own.

Regenerate every workload's inputs with

    python3 perfbench/gen.py --seed 1 --out perfbench/work/inputs
"""

from __future__ import annotations

import argparse
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# bootstrap-2e5: the truth of the coverage criterion, sharper body/tail contrast
BOOT_TRUTH = (0.05, 1800.0, 1.4)            # (lam, T, alpha)
BOOT_N = 200_000

# series-8y: yearly files of a stratified survey
SERIES_YEARS = tuple(range(2012, 2020))
SERIES_ROWS = 150_000
SERIES_REFERENCE_YEAR = 2019
WOMAN_SHARE = 0.5
COLORS = ("white", "brown", "black")
COLOR_SHARES = (0.45, 0.45, 0.10)

# stream tags, so each workload and year draws from its own stream
_BOOT, _SERIES, _DEFLATORS, _DRIFT = range(1, 5)


def two_class_draws(rng: np.random.Generator, lam: float, temperature: float,
                    alpha: float, n: int) -> np.ndarray:
    """Inverse transform of CCDF(m) = exp(-m/T) below m_c, lam*(m/m_c)**-alpha above."""
    u = 1.0 - rng.random(n)                  # (0, 1]
    m_c = temperature * math.log(1.0 / lam)
    out = np.empty(n)
    body = u >= lam
    out[body] = -temperature * np.log(u[body])
    out[~body] = m_c * (u[~body] / lam) ** (-1.0 / alpha)
    return out


def _write(path: Path, text: str):
    """Write and flush to disk, so that write-back does not slow the first command."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _write_income_csv(path: Path, incomes: np.ndarray):
    _write(path, "income\n" + "\n".join(map(repr, incomes.tolist())) + "\n")


@dataclass
class Inputs:
    """What a workload feeds the CLI, and what the checks compare against."""

    paths: dict[str, Path]
    women_by_year: dict[int, np.ndarray] = field(default_factory=dict)
    deflators: dict[int, float] = field(default_factory=dict)


def bootstrap_inputs(seed: int, out: Path) -> Inputs:
    incomes = two_class_draws(np.random.default_rng([seed, _BOOT]), *BOOT_TRUTH, BOOT_N)
    path = out / "bootstrap.csv"
    _write_income_csv(path, incomes)
    return Inputs({"data": path})


def deflator_table(seed: int) -> dict[int, float]:
    """Price index, 100 in the first year, 3-8% inflation a year."""
    rng = np.random.default_rng([seed, _DEFLATORS])
    inflation = 0.03 + 0.05 * rng.random(len(SERIES_YEARS) - 1)
    index = 100.0 * np.concatenate(([1.0], np.cumprod(1.0 + inflation)))
    return {year: float(v) for year, v in zip(SERIES_YEARS, index)}


def yearly_truth(seed: int, deflators: dict[int, float]) -> dict[int, tuple[float, float, float]]:
    """Women's (lam, nominal T, alpha) per year.

    The top fraction falls while the Pareto index rises, the joint drift
    of the paper's series, and the real temperature grows slowly; each
    parameter carries a 1% seeded jitter.
    """
    rng = np.random.default_rng([seed, _DRIFT])
    jitter = 1.0 + 0.01 * rng.standard_normal((len(SERIES_YEARS), 3))
    ref = deflators[SERIES_REFERENCE_YEAR]
    truth = {}
    for i, year in enumerate(SERIES_YEARS):
        lam = (0.060 - 0.002 * i) * jitter[i, 0]
        real_t = (1400.0 + 25.0 * i) * jitter[i, 1]
        alpha = (1.50 + 0.04 * i) * jitter[i, 2]
        truth[year] = (lam, real_t * deflators[year] / ref, alpha)
    return truth


def series_inputs(seed: int, out: Path) -> Inputs:
    deflators = deflator_table(seed)
    truth = yearly_truth(seed, deflators)
    paths: dict[str, Path] = {}
    women_by_year = {}
    for year in SERIES_YEARS:
        rng = np.random.default_rng([seed, _SERIES, year])
        woman = rng.random(SERIES_ROWS) < WOMAN_SHARE
        color = rng.choice(len(COLORS), size=SERIES_ROWS, p=COLOR_SHARES)
        lam, temperature, alpha = truth[year]
        incomes = np.empty(SERIES_ROWS)
        incomes[woman] = two_class_draws(rng, lam, temperature, alpha, int(woman.sum()))
        # men: a larger tail and a hotter body
        incomes[~woman] = two_class_draws(rng, 1.3 * lam, 1.3 * temperature, 0.9 * alpha + 0.1,
                                          int((~woman).sum()))
        women_by_year[year] = incomes[woman]
        sex = np.where(woman, "woman", "man").tolist()
        colors = [COLORS[c] for c in color.tolist()]
        lines = [f"{i},{s},{c},{v!r}" for i, (s, c, v)
                 in enumerate(zip(sex, colors, incomes.tolist()), start=1)]
        path = out / f"series_{year}.csv"
        _write(path, "id,sex,color,income\n" + "\n".join(lines) + "\n")
        paths[str(year)] = path
    deflator_path = out / "deflators.csv"
    _write(deflator_path, "year,index\n" + "".join(f"{y},{v!r}\n" for y, v in deflators.items()))
    paths["deflators"] = deflator_path
    return Inputs(paths, women_by_year=women_by_year, deflators=deflators)


GENERATORS = {
    "bootstrap-2e5": bootstrap_inputs,
    "series-8y": series_inputs,
}


def generate(workload: str, seed: int, out: Path) -> Inputs:
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, out)


def main():
    parser = argparse.ArgumentParser(description="Write every workload's inputs for one seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="perfbench/work/inputs")
    args = parser.parse_args()
    for name in GENERATORS:
        inputs = generate(name, args.seed, Path(args.out) / name)
        for path in inputs.paths.values():
            print(path)


if __name__ == "__main__":
    main()
