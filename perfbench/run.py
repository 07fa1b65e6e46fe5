"""zonocert benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload regular-ladder --seed 1 --seconds 24 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it installs hooks around zonocert's functions and reports
per-layer times and work counts instead.  Either way every output is
checked, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.  See perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
CHILD_RUNS = 9
MIN_PASSES = 3
OVERHEAD_PAIRS = 2
# instance_tail_s is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120
MODULES = ("ratgeom", "dicing", "zonotope", "parallelohedron", "jsonio", "cli")
# Times are CPU seconds of the process that does the work.  The loop is
# single-threaded and CPU-bound, so on an idle machine this equals wall
# time; unlike wall time it leaves out CPU that a virtual machine's host
# takes away, which made fixed-input wall times wander by a fifth from
# run to run.
clock = time.process_time


class Failures:
    """Attempted and failed instances, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, bad: list[str]):
        self.attempted += 1
        if bad:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(bad)}")


def load_expect() -> dict:
    return json.loads((HERE / "expect.json").read_text(encoding="utf-8"))


def import_zonocert() -> SimpleNamespace:
    """Import zonocert afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "zonocert" or m.startswith("zonocert.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("zonocert")
    if Path(pkg.__file__).resolve().parent != (SRC / "zonocert").resolve():
        raise RuntimeError(f"zonocert imported from {pkg.__file__}, not src/")
    return SimpleNamespace(**{m: importlib.import_module(f"zonocert.{m}")
                              for m in MODULES})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ZONOCERT_RENDER_DIGITS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: list[str]) -> tuple[float, int, str]:
    """Run one child to completion: its CPU seconds, exit code, stdout."""
    t0 = _children_cpu()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return _children_cpu() - t0, proc.returncode, proc.stdout


def run_pass(wl, instances, tracer, failures, pins, *, oracle=False,
             digests=None, detail=False):
    """Run one pass, timing each instance, then check every output.

    Returns (pass seconds, [instance seconds]).  Checks run after the pass,
    outside the timed region and with tracing paused.
    """
    results = []
    t_pass = clock()
    for inst in instances:
        tracer.set_instance(inst.name, detail)
        t0 = clock()
        try:
            out, err = wl.run(inst, tracer), None
        except Exception:  # an unexpected exception is a failed instance
            out, err = None, traceback.format_exc(limit=3)
        results.append((inst, out, err, clock() - t0))
    elapsed = clock() - t_pass
    with tracer.pause():
        for inst, out, err, _ in results:
            if err is not None:
                failures.record(inst.name, [f"exception: {err}"])
                continue
            try:
                bad = wl.check(inst, out, pins, oracle)
            except Exception:
                bad = [f"check raised: {traceback.format_exc(limit=3)}"]
            if digests is not None:
                for doc, text in wl.documents(inst, out).items():
                    key = f"{inst.name}/{doc}"
                    if sha256(text) != digests.get(key):
                        bad.append(f"digest of {key} differs from expect.json")
            failures.record(inst.name, bad)
    return elapsed, [r[3] for r in results]


def run_child_verb(wl, failures, digests) -> float:
    """One ``python -m zonocert.cli <verb>`` child, checked; its CPU time."""
    secs, code, stdout = run_child(["-m", "zonocert.cli", *wl.child_argv()])
    bad = []
    if code != 0:
        bad.append(f"child exit code {code}")
    if sha256(stdout) != digests.get("child"):
        bad.append("child stdout digest differs from expect.json")
    failures.record("child " + wl.child_argv()[0], bad)
    return secs


def pass_count(wl, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / wl.pass_seconds))


def run_probe(probe, tracer, failures, detail):
    """The traced run's layer probe, recorded as one more instance."""
    tracer.set_instance(probe.name, detail)
    try:
        out = probe.run(tracer)
    except Exception:  # an unexpected exception is a failed instance
        failures.record(probe.name,
                        [f"exception: {traceback.format_exc(limit=3)}"])
        return
    with tracer.pause():
        try:
            bad = probe.check(out)
        except Exception:
            bad = [f"check raised: {traceback.format_exc(limit=3)}"]
    failures.record(probe.name, bad)


def timed_passes(wl, tracer, failures, pins, digests, passes, children,
                 probe=None):
    """The reference pass, then passes with weights drawn from the seed.

    Only whole passes run, so every instance kind has the same number of
    samples.  The first seeded pass also runs the exact oracle checks.
    The CLI children run between passes, spread over the run, so that a
    slow spell of the machine does not land on all of them.  A traced
    run gives each pass the layer probe after its timed region.
    """
    pass_times, inst_times, stats, child_times = [], [], [], []
    child_after = [int((i + 0.5) * passes / children) for i in range(children)]
    for rep in range(passes):
        if rep == 0:
            instances, extra = wl.reference_pass(), {"digests": digests}
        else:
            with tracer.pause():  # building inputs is not the program's work
                instances = wl.make_pass(rep)
            extra = {"oracle": rep == 1}
        elapsed, times = run_pass(wl, instances, tracer, failures, pins,
                                  detail=(rep == 0), **extra)
        if probe is not None:
            run_probe(probe, tracer, failures, rep == 0)
        stats.append(tracer.new_pass())
        pass_times.append(elapsed)
        inst_times.append(times)
        for _ in range(child_after.count(rep)):
            child_times.append(run_child_verb(wl, failures, digests))
    return pass_times, inst_times, stats, child_times


def tail_sample(values) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With TAIL_BEYOND or fewer
    samples, as in a smoke run, it is the maximum.
    """
    xs = sorted(values)
    beyond = TAIL_BEYOND if len(xs) > TAIL_BEYOND else 0
    k = len(xs) - 1 - beyond
    return xs[k], 100 * (k + 1) / len(xs), beyond


def end_to_end(wl, setup_times, pass_times, inst_times, child_times, out):
    """End-to-end metrics; ``inst_times`` holds one list per pass.

    instance_p50_s is the median over passes of each pass's median
    instance.  The sorted instance times fall into one band per input
    kind, and with an even number of kinds the median of all samples sits
    between two bands, where it moved up to twice as much as wall_s from
    run to run; the pass medians move with wall_s.
    """
    flat = [t for times in inst_times for t in times]
    n = len(flat)
    tail, p, beyond = tail_sample(flat)
    p50 = statistics.median(statistics.median(times) for times in inst_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "wall_s": (statistics.median(pass_times), "s",
                   f"median of {len(pass_times)} passes"),
        "instances_per_s": (n / sum(pass_times), "1/s",
                            f"{n} instances in {sum(pass_times):.2f} s"),
        "instance_p50_s": (p50, "s", f"median of {len(inst_times)} pass "
                                     f"medians, {n} instances"),
        "instance_tail_s": (tail, "s",
                            f"p{p:.1f} of {n} instances, {beyond} beyond it"),
        "cli_process_s": (statistics.median(child_times), "s",
                          f"median of {len(child_times)} child processes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB", "ru_maxrss of this process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<18} {value:12.6f} {unit:<5} {note}", file=out)
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def tracing_overhead(wl, tracer, failures, pins, first_rep) -> float:
    """Median of traced minus untraced time of one pass on the same inputs.

    The tracer must be installed.  Each pair runs one seeded pass twice,
    with and without the hooks, the order alternating from pair to pair
    so that a drift of the machine's speed cancels.
    """
    diffs = []
    for i in range(OVERHEAD_PAIRS):
        with tracer.pause():
            instances = wl.make_pass(first_rep + i)
        times = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                times[traced], _ = run_pass(wl, instances, tracer, failures,
                                            pins)
                tracer.new_pass()
            else:
                tracer.uninstall()
                times[traced], _ = run_pass(wl, instances,
                                            tracing.NullTracer(), failures,
                                            pins)
        diffs.append(times[True] - times[False])
    tracer.install()
    return statistics.median(diffs)


def _median(stats, fn):
    return statistics.median(fn(st) for st in stats)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(stats, import_times, trace_wall, overhead):
    """Per-layer metrics of the traced passes.

    A time is the median over passes of its per-pass sum.  A count comes
    from the reference pass, whose inputs are the same in every run, so it
    repeats exactly whatever the seed.
    """
    m = {}
    ref = stats[0]

    def timed(name, calls=False):
        m[f"{name}.s"] = (_median(stats, lambda st: st.incl[name]), "s")
        if calls:
            m[f"{name}.calls"] = (ref.calls[name], "count")

    def child(key, parent, hook):
        m[key] = (ref.child_calls[(parent, hook)], "count")

    def tally(key, unit="count"):
        m[key] = (ref.tallies[key], unit)

    for name in ("rank", "kernel_line", "inverse", "det", "hnf",
                 "lattice_contains"):
        timed(f"ratgeom.{name}", calls=True)
    timed("dicing.normal_set")
    timed("dicing.edge_set")
    child("dicing.edge_set.subsets", "dicing.edge_set", "ratgeom.rank")
    child("dicing.edge_set.full_rank", "dicing.edge_set", "ratgeom.kernel_line")
    tally("dicing.edge_set.lines")
    m["dicing.edge_set.yield"] = (_ratio(m["dicing.edge_set.lines"][0],
                                         m["dicing.edge_set.subsets"][0]),
                                  "ratio")
    timed("dicing.unimodular_rep")
    child("dicing.tu.minors", "dicing.tu", "ratgeom.bareiss_det")
    timed("zonotope.build")
    timed("zonotope.facets")
    child("zonotope.facets.subsets", "zonotope.facets", "ratgeom.rank")
    tally("zonotope.facets.pairs")
    m["zonotope.facets.yield"] = (_ratio(m["zonotope.facets.pairs"][0],
                                         m["zonotope.facets.subsets"][0]),
                                  "ratio")
    timed("zonotope.ridges")
    child("zonotope.ridges.subsets", "zonotope.ridges", "ratgeom.rank")
    tally("zonotope.ridges.flats")
    timed("zonotope.vertices_oracle")
    tally("zonotope.vertices_oracle.sums")
    timed("parallelohedron.certify")
    for stage in ("lattice", "zone_vectors", "facet_vectors", "n_equals_e",
                  "basis"):
        timed(f"parallelohedron.{stage}")
    timed("parallelohedron.quadratic_form", calls=True)
    m["parallelohedron.certify.stage_share"] = (_median(stats, lambda st: _ratio(
        st.stage_in_certify, st.incl["parallelohedron.certify"])), "ratio")
    timed("parallelohedron.verify")
    timed("parallelohedron.cell_oracle")
    tally("parallelohedron.cell_oracle.lattice_points")
    timed("parallelohedron.delone")
    timed("jsonio.parse")
    timed("jsonio.parse_certificate")
    timed("jsonio.dump")
    tally("jsonio.bytes_out", "bytes")
    m["cli.import_s"] = (statistics.median(import_times), "s")
    timed("cli.verb")
    timed("cli.export")
    for module in MODULES:
        m[f"{module}.self_s"] = (_median(stats, lambda st: st.self_s[module]),
                                 "s")
    m["trace.wall_s"] = (trace_wall, "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


# Counts, and whether the hooks count them or a formula computes them.
COUNT_KINDS = {
    "ratgeom.*.calls": "counted: calls of the wrapped function",
    "dicing.edge_set.subsets": "counted: rank calls made by compute_edge_set",
    "dicing.edge_set.full_rank": "counted: kernel_line calls made by "
                                 "compute_edge_set",
    "dicing.edge_set.lines": "counted: edges returned",
    "dicing.tu.minors": "counted: _bareiss_det calls made by "
                        "is_totally_unimodular",
    "zonotope.facets.subsets": "counted: rank calls made by facets",
    "zonotope.facets.pairs": "counted: facet pairs returned",
    "zonotope.ridges.subsets": "counted: rank calls made by "
                               "ridge_classification",
    "zonotope.ridges.flats": "counted: ridge flats returned",
    "zonotope.vertices_oracle.sums": "computed: 2^n for n merged generators",
    "parallelohedron.cell_oracle.lattice_points": "counted: points returned "
                                                  "by _short_vectors",
    "parallelohedron.quadratic_form.calls": "counted",
    "jsonio.bytes_out": "counted: UTF-8 bytes returned by dumps",
}


def print_instance_counts(tracer, out):
    """Work counts of each instance of the reference pass."""
    print("per-instance work counts (reference pass):", file=out)
    for inst_id, st in sorted(tracer.instance_stats.items()):
        cc = st.child_calls
        print(f"  {tracer.names[inst_id]:<24}"
              f" edge_set {cc[('dicing.edge_set', 'ratgeom.rank')]} subsets"
              f" / {cc[('dicing.edge_set', 'ratgeom.kernel_line')]} full-rank"
              f" / {st.tallies['dicing.edge_set.lines']} lines;"
              f" facets {cc[('zonotope.facets', 'ratgeom.rank')]}"
              f" / {st.tallies['zonotope.facets.pairs']};"
              f" ridge flats {st.tallies['zonotope.ridges.flats']};"
              f" tu minors {cc[('dicing.tu', 'ratgeom.bareiss_det')]};"
              f" signed sums {st.tallies['zonotope.vertices_oracle.sums']};"
              f" lattice points "
              f"{st.tallies['parallelohedron.cell_oracle.lattice_points']}",
              file=out)
    print("count kinds:", file=out)
    for key, kind in COUNT_KINDS.items():
        print(f"  {key}: {kind}", file=out)


def run_workload(name, seed, seconds, trace, *, expect=None, only=None,
                 setup_repeats=SETUP_REPEATS, child_runs=CHILD_RUNS,
                 out=sys.stdout) -> dict:
    """Run one workload and return the result object printed last."""
    expect = load_expect() if expect is None else expect
    pins = expect["pins"][name]
    digests = expect["digests"][name]
    failures = Failures()
    cls = workloads.WORKLOADS[name]
    os.environ.pop("ZONOCERT_RENDER_DIGITS", None)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    setup_times = []
    try:
        for _ in range(setup_repeats):
            shutil.rmtree(tmp, ignore_errors=True)
            t0 = clock()
            zc = import_zonocert()
            tmp.mkdir()
            wl = cls(zc, tmp, seed, only)
            setup_times.append(clock() - t0)

        passes = pass_count(wl, seconds)
        tracer, probe = tracing.NullTracer(), None
        if trace:
            probe = workloads.LayerProbe(zc, tmp,
                                         expect["pins"]["cell-oracle"])
            tracer = tracing.Tracer(clock)
            tracer.install()
        pass_times, inst_times, stats, child_times = timed_passes(
            wl, tracer, failures, pins, digests, passes, child_runs, probe)
        if trace:
            overhead = tracing_overhead(wl, tracer, failures, pins, passes)
            tracer.uninstall()
            import_times = [run_child(["-c", "import zonocert.cli"])[0]
                            for _ in range(child_runs)]
            print_instance_counts(tracer, out)
            metrics = per_layer(stats, import_times,
                                statistics.median(pass_times), overhead)
            for key, (value, unit) in metrics.items():
                print(f"{key:<44} {value:14.6f} {unit}", file=out)
            tracer.write_spans(OUT / f"trace-{name}.jsonl")
        else:
            metrics = end_to_end(wl, setup_times, pass_times, inst_times,
                                 child_times, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"failed_frac        {failures.failed / failures.attempted:.6f}"
          f" ratio ({failures.failed} of {failures.attempted} instances)",
          file=out)
    for reason in failures.reasons:
        print(f"FAIL {reason}", file=out)
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None, expect=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zonocert" / "__init__.py").is_file():
        print(f"perfbench: no zonocert package under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), expect=expect)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
