"""Run the incomefit CLI in-process with a span around every call into a layer.

    python3 -X importtime perfbench/traced.py --metrics M.json --spans S.json -- <cli args>

The wrappers live here and are bound over the program's names at run
time; nothing inside ``src/`` is instrumented. Loss evaluations are
counted, not spanned, through a ``FitContext`` subclass that the
program builds wherever it builds a context. Span times are inclusive:
``ingest`` contains the ``IncomeSample`` it builds, ``fit`` contains
the swarm. The spans themselves go to ``--spans`` for self-time
analysis.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, after=None):
        """Time ``fn`` under ``name``; ``after(result, args)`` may record counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def total(self, name: str) -> float:
        """Time under ``name``, counting a span nested in a same-named one once."""
        seconds = 0.0
        for name_, start, end, parent in self.spans:
            if name_ != name:
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                seconds += end - start
        return seconds

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def rebind(original, replacement):
    """Point every incomefit module's name for ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "incomefit":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def instrument(tracer: Tracer):
    from incomefit import bootstrap, ccdf, fitting, objective, pipeline, series, swarm

    counts = tracer.counts
    refine_first: list[float] = []          # first loss seen inside the current refine

    ccdf.IncomeSample.__init__ = tracer.wrap("ccdf.sample", ccdf.IncomeSample.__init__)
    rebind(ccdf.build_ccdf, tracer.wrap("ccdf.build", ccdf.build_ccdf))

    base = objective.FitContext

    class CountingContext(base):
        __init__ = tracer.wrap("objective.context", base.__init__)

        def objective(self, x):
            start = perf_counter()
            value = base.objective(self, x)
            counts["objective.eval_s"] += perf_counter() - start
            counts["objective.evals"] += 1
            if value >= objective.SENTINEL_LOSS:
                counts["objective.sentinel_evals"] += 1
            if tracer._stack and tracer.spans[tracer._stack[-1]][0] == "swarm.refine":
                counts["swarm.refine_evals"] += 1
                if not refine_first:
                    refine_first.append(value)
            return value

    rebind(base, CountingContext)

    def after_ingest(result, args):
        counts["pipeline.ingest_rows"] += result.n_rows

    step = tracer.wrap("swarm.iter", swarm.step)

    def counted_step(state, *args, **kwargs):
        before = state.informant_redraws
        result = step(state, *args, **kwargs)
        counts["swarm.redraws"] += state.informant_redraws - before
        return result

    def after_refine(result, args):
        if refine_first and math.isfinite(result[1]):
            counts["swarm.refine_gain"] += refine_first[0] - result[1]
        refine_first.clear()

    def after_validation(summary, args):
        counts["bootstrap.replicas"] += summary.n_effective
        counts["bootstrap.dropped"] += summary.n_requested - summary.n_effective

    rebind(pipeline.ingest, tracer.wrap("pipeline.ingest", pipeline.ingest, after_ingest))
    rebind(swarm.initialize, tracer.wrap("swarm.iter", swarm.initialize))
    rebind(swarm.step, counted_step)
    rebind(swarm.refine, tracer.wrap("swarm.refine", swarm.refine, after_refine))
    rebind(fitting.fit_sample, tracer.wrap("fitting.fit", fitting.fit_sample))
    rebind(bootstrap.bootstrap_pair, tracer.wrap("bootstrap.resample", bootstrap.bootstrap_pair))
    rebind(bootstrap._class_rmsle, tracer.wrap("bootstrap.oob", bootstrap._class_rmsle))
    rebind(bootstrap.run_validation,
           tracer.wrap("bootstrap.validation", bootstrap.run_validation, after_validation))
    rebind(series.build_series, tracer.wrap("series.build", series.build_series))
    for fn in (series.pearson, series.affine_regression):
        rebind(fn, tracer.wrap("series.stats", fn))
    for fn in (pipeline.write_fit_report, pipeline.write_plot_data,
               pipeline._write_sections, pipeline._write_csv):
        rebind(fn, tracer.wrap("pipeline.write", fn))


def layer_metrics(tracer: Tracer, import_s: float, process_s: float) -> dict[str, float]:
    c = tracer.counts
    ingest_s = tracer.total("pipeline.ingest")
    evals = c["objective.evals"]
    return {
        "import.s": import_s,
        "pipeline.ingest_s": ingest_s,
        "pipeline.ingest_rows": c["pipeline.ingest_rows"],
        "pipeline.ingest_rows_per_s": c["pipeline.ingest_rows"] / ingest_s if ingest_s else 0.0,
        "pipeline.write_s": tracer.total("pipeline.write"),
        "ccdf.sample_s": tracer.total("ccdf.sample"),
        "ccdf.build_s": tracer.total("ccdf.build"),
        "objective.context_s": tracer.total("objective.context"),
        "objective.evals": evals,
        "objective.eval_us": 1e6 * c["objective.eval_s"] / evals if evals else 0.0,
        "objective.sentinel_evals": c["objective.sentinel_evals"],
        "swarm.iter_s": tracer.total("swarm.iter"),
        "swarm.redraws": c["swarm.redraws"],
        "swarm.refine_s": tracer.total("swarm.refine"),
        "swarm.refine_calls": tracer.count("swarm.refine"),
        "swarm.refine_evals": c["swarm.refine_evals"],
        "swarm.refine_gain": c["swarm.refine_gain"],
        "fitting.fit_s": tracer.total("fitting.fit"),
        "fitting.fits": tracer.count("fitting.fit"),
        "bootstrap.resample_s": tracer.total("bootstrap.resample"),
        "bootstrap.oob_s": tracer.total("bootstrap.oob"),
        "bootstrap.validation_s": tracer.total("bootstrap.validation"),
        "bootstrap.replicas": c["bootstrap.replicas"],
        "bootstrap.dropped": c["bootstrap.dropped"],
        "series.build_s": tracer.total("series.build"),
        "series.stats_s": tracer.total("series.stats"),
        "trace.process_s": process_s,
    }


def main() -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import_start = perf_counter()
    from incomefit import cli
    import_s = perf_counter() - import_start

    tracer = Tracer()
    instrument(tracer)
    code = cli.main(cli_args)
    metrics = layer_metrics(tracer, import_s, perf_counter() - start)
    with open(args.metrics, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump([{"name": n, "start": s - start, "end": e - start, "parent": p}
                   for n, s, e, p in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
