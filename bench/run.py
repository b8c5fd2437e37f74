"""defifix benchmark: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload formula-solve --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/`. The
run first times fresh interpreters that import defifix and build the
workload's fields (setup_s). It then times every item of the workload
(at least 100, see workloads.py) once per pass, pass after pass, until
about --seconds of wall time have gone; an item's latency is its median
pass. Timings are CPU seconds scaled by a calibration of the host's
speed taken between items (clock.py says why). After each timing the
item's outputs are checked, untimed, against a reference the program
does not compute.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with passes that record spans around every call into a layer,
adds the probes (probes.py), prints the per-layer metrics and the
tracing overhead, and writes the spans and the full layer report to
.bench_out/. The last line of stdout is always one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
readable table that also gives failed_frac. Metric names and units are
in ../BENCHMARK.json; layers.json adds, for each per-layer metric, the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from random import Random
from time import perf_counter

from clock import REFERENCE_S, calibrate, cpu_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
CALIBRATE_EVERY = 0.2  # CPU seconds of items between two calibrations
RAISED = object()  # stands for the output of an item that raised

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "output_chars": "chars",
    "peak_rss_mb": "MB",
}


class Measured:
    """Timings of one run: every execution of every item, in CPU seconds
    scaled to the reference host speed (clock.py)."""

    def __init__(self, items: list):
        self.items = items
        # equal items are one input: their executions are pooled
        self.samples: dict = {item: [] for item in items}
        self.failed: Counter = Counter()  # layer -> wrong or raising executions
        self.calibrations: list[float] = []
        self.chars = 0
        self.passes = 0

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples.values())

    def latencies(self) -> list[float]:
        """Each item's median execution in the run. The calibration leaves
        errors both ways, so the median is steadier than the fastest."""
        return [statistics.median(self.samples[item]) for item in self.items]

    @property
    def rate(self) -> float:
        lat = self.latencies()
        return len(lat) / sum(lat)


def run_pass(wl, order: list, m: Measured, tr) -> None:
    """Time every item once, in the given order, checking each output.
    The host is calibrated before the first item, after the last, and
    whenever CALIBRATE_EVERY CPU seconds of items have run since the last
    calibration; an item's time is scaled by the mean of the calibrations
    on either side of it."""
    cal = [calibrate()]
    segments: list[list] = [[]]  # (item, CPU seconds) between calibrations
    since = 0.0
    for item in order:
        tr.item = m.attempted + sum(map(len, segments))  # one id per execution of an item
        t0 = cpu_seconds()
        try:
            with tr.span("item"):
                out = wl.run(item, tr)
        except Exception:  # one bad item is counted, the run goes on
            out = RAISED
            traceback.print_exc(file=sys.stderr)
            layer, tr.raised_in = tr.raised_in or "item", None
            m.failed[layer.split(".")[0]] += 1
        took = cpu_seconds() - t0
        segments[-1].append((item, took))
        since += took
        if out is not RAISED:
            layer = wl.check(item, out)
            if layer:
                print(f"wrong output from {layer} on {item!r:.200}", file=sys.stderr)
                m.failed[layer] += 1
            elif m.passes == 0:
                m.chars += wl.chars(item, out)
        if since >= CALIBRATE_EVERY:
            cal.append(calibrate())
            segments.append([])
            since = 0.0
    if segments[-1]:
        cal.append(calibrate())
    for i, segment in enumerate(segments):
        scale = 2 * REFERENCE_S / (cal[i] + cal[i + 1]) if segment else 0
        for item, took in segment:
            m.samples[item].append(took * scale)
    m.calibrations += cal
    m.passes += 1


def measure(wl, seed: int, seconds: float, tracers: list) -> list[Measured]:
    """Run passes over the workload's items, each in a seed-shuffled order,
    until about `seconds` of wall time have gone. With several tracers the
    passes take turns among them, so that each is exposed alike to the
    machine's slow spells; each gets its own Measured."""
    items = wl.items(seed)
    order = list(items)
    rng = Random(seed)
    runs = [Measured(items) for _ in tracers]
    turns = list(zip(runs, tracers))
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for m, tr in turns:
            rng.shuffle(order)
            run_pass(wl, order, m, tr)
        turns.reverse()
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return runs
        if now - start > 3 * seconds:  # a much slower program still ends in time
            return runs


def setup_seconds(wl) -> float:
    """Median CPU time, scaled like the items', of fresh interpreters that
    import defifix (its CLI for cli-calls) and build the workload's fields."""
    module = "defifix.cli" if wl.name == "cli-calls" else "defifix"
    code = (
        "import importlib, sys; sys.path.insert(0, sys.argv[1]); importlib.import_module(sys.argv[2]); "
        "from defifix.fields import make_field; [make_field(s) for s in sys.argv[3:]]"
    )
    argv = [sys.executable, "-c", code, str(ROOT / "src"), module, *wl.specs]
    runs = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = cpu_seconds()
        subprocess.run(argv, cwd=ROOT, check=True)
        took = cpu_seconds() - t0
        after = calibrate()
        runs.append(took * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(runs)


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(wl, m: Measured, setup: float) -> dict:
    deciles = statistics.quantiles(m.latencies(), n=10)
    return {
        "setup_s": setup,
        "items_per_s": m.rate,
        "item_ms_p50": deciles[4] * 1e3,
        "item_ms_p90": deciles[8] * 1e3,
        "output_chars": m.chars / len(m.items),
        "peak_rss_mb": peak_rss_mb(wl),
    }


def layer_metrics(wl, tr, base: Measured, traced: Measured) -> dict:
    """Every per-layer number of a traced run, keyed by metric name."""
    import probes
    from workloads import cli_env

    out = {}
    busy = sum(sum(s) for s in traced.samples.values())
    for name, (calls, self_s) in tr.self_times().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.self_pct"] = 100 * self_s / busy
    for name, values in tr.notes.items():
        out[name] = statistics.mean(values)
    for layer in ("normalize", "neighbourhood", "compiler", "cli", "formulas", "schemas", "curve_lab"):
        out[f"{layer}.failed"] = base.failed[layer] + traced.failed[layer]
    out["trace.items_per_s_untraced"] = base.rate
    out["trace.items_per_s_traced"] = traced.rate
    out["trace.overhead_pct"] = 100 * (base.rate - traced.rate) / base.rate
    out["host.speed"] = REFERENCE_S / statistics.median(base.calibrations + traced.calibrations)
    items = wl.items(0)
    out.update(probes.fields(wl, wl.probe_rationals(items)))
    out.update(probes.terms(wl.probe_terms(items), wl))
    out.update(probes.neighbourhoods(wl.probe_neighbourhoods(items)))
    with open(HERE / "expected" / "cli.json", encoding="utf-8") as handle:
        calls = json.load(handle)
    out.update(probes.cli(calls, cli_env(), ROOT))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "defifix" / "__init__.py").is_file():
        print(f"defifix sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    setup = setup_seconds(wl)

    if not args.trace:
        runs = measure(wl, args.seed, args.seconds, [NullTracer()])
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(wl, runs[0], setup).items()}
    else:
        with open(HERE / "layers.json", encoding="utf-8") as handle:
            declared = json.load(handle)
        tr = Tracer()
        runs = base, traced = measure(wl, args.seed, args.seconds, [NullTracer(), tr])
        report = layer_metrics(wl, tr, base, traced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{wl.name}-seed{args.seed}"
        tr.dump(f"{stem}-spans.json")
        with open(f"{stem}-layers.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        for name in sorted(report):
            print(f"  {name:40s} {report[name]:.6g}")
        metrics = {d["name"]: (report.get(d["name"], 0), d["unit"]) for d in declared}

    attempted = sum(m.attempted for m in runs)
    failed = sum(sum(m.failed.values()) for m in runs)
    last = runs[-1]
    print(f"{'failed_frac':42s} {failed / attempted:.6g} ratio")
    print(f"  {'items':40s} {len(last.items)}, {last.passes} passes, {last.attempted} timings, "
          f"{len(last.items) - int(0.9 * len(last.items))} items beyond p90, "
          f"host speed {REFERENCE_S / statistics.median(last.calibrations):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
