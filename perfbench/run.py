"""Benchmark for the gpmspace toolkit: instance files in, canonical reports out.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload finite-topology --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One client in one process, closed loop: each operation starts when the
previous one has returned.  A run writes the workload's seeded instance
files into a temporary directory of the checkout, loads them with
``load_instance`` (set-up) and then makes passes over the workload's
operations, each ``run_command`` + ``Report.to_canonical_json`` as the CLI
does, for ``--seconds`` seconds (at least three passes).  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
same untraced passes run first and one traced replay pass (see
``replay.py``) then gives the per-layer metrics.  Times are reference
seconds, which factor out the host's changing speed (``probe.py``).
README.md in this directory defines every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import probe
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_ROUNDS = 9      # at least this many set-ups ...
SETUP_SECONDS = 1.0   # ... and more until this long, so short set-ups read steadily
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "op_s_max": "s", "peak_rss_mb": "MB"}

# spans the replay takes, each reported as "<span>_s"
LOAD_SPANS = ("cli.load_instance", "core.construct")
OP_SPANS = (
    "cli.serialize",
    "core.P1", "core.P2", "core.P3", "core.P4", "core.P5", "core.monotone",
    "balls.grid_ball_masks", "balls.generate_topology", "balls.ball_open",
    "balls.closed_ball_closed",
    "separation.witness", "separation.countable_base",
    "induced.alpha_table", "induced.metric_axioms", "induced.monotonicity",
    "induced.compare_topologies",
    "sequences.convergence", "sequences.cauchy", "sequences.bounded",
    "sequences.joint_continuity", "sequences.subsequence", "sequences.compact",
    "sequences.csv_trace", "sequences.cantor",
)
SPANS = LOAD_SPANS + OP_SPANS
COUNTS = ("cli.report_bytes", "core.samples", "balls.open_sets", "balls.subsets_scanned",
          "balls.grid_balls", "separation.witnesses", "separation.inconclusive",
          "induced.samples", "sequences.samples")
PER_LAYER = {**{f"{s}_s": "s" for s in SPANS},
             **{c: "bytes" if c == "cli.report_bytes" else "count" for c in COUNTS},
             "trace.coverage": "ratio", "trace.overhead_s": "s", "failed_frac": "ratio"}


def _import_program():
    """Make the checkout's own sources importable; refuse to run without them."""
    if not os.path.isfile(os.path.join(SRC, "gpmspace", "__init__.py")):
        sys.exit(f"perfbench: no gpmspace sources under {SRC}; run from a source checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gpmspace
    if os.path.dirname(os.path.dirname(os.path.abspath(gpmspace.__file__))) != SRC:
        sys.exit(f"perfbench: imported gpmspace from {gpmspace.__file__}, not from {SRC}")
    return gpmspace


def layer_of(check_name):
    """The module whose battery emits a check, from the check's name."""
    from gpmspace import P_AXIOMS
    if check_name in P_AXIOMS:
        return "core"
    if check_name in ("topology_family", "ball_open", "closed_ball_closed"):
        return "balls"
    if check_name.startswith(("T0(", "T1(", "T2(", "regular(", "normal(", "countable_base[")):
        return "separation"
    if check_name.startswith(("d_alpha_table[", "alpha_metric_axioms[", "alpha_monotonicity",
                              "topology_identity[")):
        return "induced"
    return "sequences"


def report_counts(reports):
    """Work counts read off the untraced reports; they repeat exactly across machines."""
    from gpmspace import INCONCLUSIVE
    counts = dict.fromkeys(COUNTS, 0)
    for report, text in reports:
        counts["cli.report_bytes"] += len(text.encode("utf-8"))
        for c in report.checks:
            layer = layer_of(c.name)
            if layer in ("core", "induced", "sequences"):
                counts[f"{layer}.samples"] += c.samples_tested
            elif c.name == "topology_family":
                counts["balls.open_sets"] += c.data["count"]
                counts["balls.subsets_scanned"] += c.samples_tested
            elif layer == "separation":
                if c.verdict == INCONCLUSIVE:
                    counts["separation.inconclusive"] += 1
                elif not c.name.startswith("countable_base"):
                    counts["separation.witnesses"] += 1
    return counts


def _outcome(gpmspace, command, inst_file):
    """``(report, text)``, or ``(None, exception name)`` if the operation raised."""
    try:
        report = gpmspace.run_command(command, inst_file)
        return report, report.to_canonical_json()
    except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
        return None, f"{type(exc).__name__}: {exc}"


def run_workload(workload, seed, seconds, trace, tiny=False, log=print):
    """Run one workload; returns the result object the last output line holds."""
    gpmspace = _import_program()
    import gate

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, \
            probe.SpeedProbe() as speed:
        paths = workloads.write_instances(workload, seed, tmp, tiny)
        setup = []
        setup_start = time.perf_counter()
        while len(setup) < SETUP_ROUNDS or time.perf_counter() - setup_start < SETUP_SECONDS:
            begin = speed.mark()
            files = {name: gpmspace.load_instance(path) for name, path in paths.items()}
            setup.append(speed.reference_seconds(begin, speed.mark()))

        ops = [(name, command, files[name])
               for name, command in workloads.operations(workload, list(paths))]
        times, reference, unstable, pass_times = _passes(gpmspace, ops, seconds, speed)

        # an operation fails on every pass if it raises, if its report bytes
        # change between passes, or if a stated violation does not reproduce
        correct = True
        failed_ops = 0
        for k, (name, command, inst_file) in enumerate(ops):
            report, text = reference[k]
            problem = None
            if report is None:
                problem = f"raised {text}"
            elif k in unstable:
                problem = "report bytes differ between passes"
            elif bad := gate.irreproducible(inst_file.instance, report.checks):
                problem = (f"{len(bad)} fail witnesses do not reproduce, "
                           f"first in {bad[0][0]}: {bad[0][1]}")
            if problem:
                failed_ops += 1
                correct = correct and report is None
                log(f"# failed op {name} {command}: {problem}")
        passes = len(pass_times)
        attempted = len(ops) * passes
        failed = failed_ops * passes

        medians = [statistics.median(t) for t in times]
        for (name, command, _), m in zip(ops, medians):
            log(f"# op {name} {command}: median {m:.4f} s")
        log(f"# {workload} seed={seed}: {len(ops)} ops x {passes} passes "
            f"({', '.join(f'{t:.3f}' for t in pass_times)} s wall), "
            f"failed_frac={failed / attempted:.4g}")
        if not trace:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {"setup_s": statistics.median(setup), "run_s": sum(medians),
                      "op_s_max": max(medians), "peak_rss_mb": peak_kb / 1024.0}
            return _result(correct, attempted, failed, values, END_TO_END)

        values, replay_ok = _traced(paths, ops, reference, sum(medians), speed, log)
        values["failed_frac"] = failed / attempted
        return _result(correct and replay_ok, attempted, failed, values, PER_LAYER)


def _passes(gpmspace, ops, seconds, speed):
    """Untraced passes for ``seconds`` (at least ``MIN_PASSES``).

    Returns per-operation times, each operation's first ``(report, text)``,
    the operations whose output changed between passes, and pass wall times.
    """
    times = [[] for _ in ops]
    reference = [None] * len(ops)
    unstable = set()
    pass_times = []
    loop_start = time.perf_counter()
    while (len(pass_times) < MIN_PASSES
           or time.perf_counter() - loop_start + statistics.median(pass_times) <= seconds):
        pass_start = time.perf_counter()
        for k, (_, command, inst_file) in enumerate(ops):
            begin = speed.mark()
            out = _outcome(gpmspace, command, inst_file)
            times[k].append(speed.reference_seconds(begin, speed.mark()))
            if reference[k] is None:
                reference[k] = out
            elif out[1] != reference[k][1]:
                unstable.add(k)
        pass_times.append(time.perf_counter() - pass_start)
    return times, reference, unstable, pass_times


def _traced(paths, ops, reference, run_s, speed, log):
    """One traced replay pass; returns per-layer values and whether it matched."""
    import replay
    tr = replay.Tracer()
    begin = speed.mark()
    for path in paths.values():
        replay.load(tr, path)
    matched = True
    for k, (name, command, inst_file) in enumerate(ops):
        tr.op = k
        with tr.span("op"):
            first = len(tr.spans)
            try:
                got = [(c.name, c.verdict) for c in replay.replay(tr, command, inst_file)]
            except Exception as exc:  # noqa: BLE001 - compared with the untraced outcome
                got = f"{type(exc).__name__}: {exc}"
            # a layer the operation skips gets one empty span: it reports the
            # tracer's own cost, about a microsecond, instead of a constant 0
            entered = {n for _, n, _, _ in tr.spans[first:]}
            for span in set(OP_SPANS) - entered:
                with tr.span(span):
                    pass
        report, text = reference[k]
        if got != (text if report is None else [(c.name, c.verdict) for c in report.checks]):
            matched = False
            log(f"# op {name} {command}: traced replay diverges from the report")
    end = speed.mark()
    # spans are wall time; one factor for the traced pass turns them into reference seconds
    scale = speed.reference_seconds(begin, end) / (end[0] - begin[0])

    totals = dict.fromkeys(SPANS, 0.0)
    totals["op"] = in_ops = 0.0
    for op, name, start, stop in tr.spans:
        if name not in totals:
            raise RuntimeError(f"span {name!r} has no metric")
        totals[name] += stop - start
        if op is not None and name != "op":
            in_ops += stop - start
    values = {f"{s}_s": scale * totals[s] for s in SPANS}
    values.update(report_counts(r for r in reference if r[0] is not None))
    values["balls.grid_balls"] = tr.counts["balls.grid_balls"]
    values["trace.coverage"] = in_ops / totals["op"]
    values["trace.overhead_s"] = scale * totals["op"] - run_s
    return values, matched


def _result(correct, attempted, failed, values, units):
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def _run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced passes run (at least three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        _import_program()
        result = _run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        for name, metric in result["metrics"].items():
            print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
