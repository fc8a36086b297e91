"""meadowacp benchmark: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the benchmark imports ``src/``).
Workloads: axioms-spec, random-pairs, cli-large, meadow-suite (see
perfbench/README.md).  A run repeats passes over the seed's inputs, as
fresh objects each pass, until the next pass would end after
``--seconds``; there is always at least one pass.  Every output is
checked.  Times are in reference seconds (see meter.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each pass runs twice, untraced and
then traced, and the last line holds the per-layer metrics; spans and a
summary go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 31

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# per-layer metric -> (kind, span names or count key); times are self times
PER_LAYER = {
    "normalize.nf_eq_s": ("self", ["normalize.equal_terms"]),
    "normalize.nf_s": ("self", ["normalize.normalize"]),
    "normalize.hnf_s": ("self", ["normalize.hnf"]),
    "normalize.render_s": ("self", ["normalize.render"]),
    "normalize.nf_dag_nodes": ("count", "normalize.nf_dag_nodes"),
    "normalize.nf_tree_nodes": ("count", "normalize.nf_tree_nodes"),
    "normalize.render_chars": ("count", "normalize.render_chars"),
    "lts.build_s": ("self", ["lts.build_lts"]),
    "lts.bisim_s": ("self", ["lts.bisimilar"]),
    "lts.dot_s": ("self", ["lts.to_dot"]),
    "lts.states": ("count", "lts.states"),
    "lts.transitions": ("count", "lts.transitions"),
    "speclang.parse_s": ("self", ["speclang.parse_spec", "speclang.parse_term"]),
    "speclang.parse_calls": ("calls", ["speclang.parse_spec", "speclang.parse_term"]),
    "speclang.pretty_s": ("self", ["speclang.pretty_term"]),
    "terms.inline_s": ("self", ["terms.inline_definitions"]),
    "terms.free_vars_s": ("self", ["terms.free_process_vars", "terms.free_quantity_vars"]),
    "meadow.eval_s": ("self", ["meadow.eval_quantity"]),
    "meadow.eval_calls": ("calls", ["meadow.eval_quantity"]),
    "meadow.qnodes": ("count", "meadow.qnodes"),
    "meadow.axioms_s": ("self", ["meadow.check_meadow_axioms"]),
    "meadow.checked": ("count", "meadow.checked"),
    "axioms.suite_s": ("total", ["axioms.check_acp_axioms", "axioms.check_enriched_axioms",
                                 "axioms.check_derived", "meadow.check_meadow_axioms"]),
    "axioms.instances": ("count", "axioms.instances"),
    "cli.main_s": ("self", ["cli.main"]),
    "cli.output_bytes": ("count", "cli.output_bytes"),
}


# size counts that repeat exactly in every run of the same inputs; the
# other counts need only repeat within one process (NF sharing and the
# lts output depend on hash order, see README)
REPEATING = (
    "normalize.nf_tree_nodes",
    "normalize.render_chars",
    "lts.states",
    "lts.transitions",
    "meadow.qnodes",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_fingerprint() -> str:
    """A hash of the program and benchmark sources, so that runs of the
    same code can be recognised."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def setup_times(workload, repeats):
    """Reference seconds a fresh interpreter needs to import meadowacp and
    build the workload's spec or context, as timed inside that
    interpreter, with a meter calibrating between starts.  One unmeasured
    start first (it may compile bytecode)."""
    from meter import Meter

    code = (
        "import time; _t0 = time.perf_counter()\n"
        + workload.setup_code
        + "print(repr(time.perf_counter() - _t0))\n"
    )
    argv = [sys.executable, "-I", "-c", code, str(SRC), *workload.setup_args()]

    def sample():
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"set-up interpreter failed: {proc.stderr.strip()[-300:]}")
        return float(proc.stdout.strip().splitlines()[-1])

    sample()
    meter = Meter()
    spans = []
    for _ in range(repeats):
        a = meter.now()
        b = a + sample()
        spans.append((a, b))
        meter.lap(force=True)
    return [meter.scaled(a, b) for a, b in spans]


def tail(samples, percentile):
    """(value, samples beyond it) at a fixed percentile, nearest rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def layer_values(tracer):
    values = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind == "self":
            values[name] = sum(tracer.self_time.get(k, 0.0) for k in key)
        elif kind == "total":
            values[name] = sum(tracer.total_time.get(k, 0.0) for k in key)
        elif kind == "calls":
            values[name] = sum(tracer.calls.get(k, 0) for k in key)
        else:
            values[name] = tracer.counts.get(key, 0)
    for layer, t in tracer.layer_self_time().items():
        values[f"{layer}.self_s"] = t
    return values


def unit_of(name: str) -> str:
    kind = PER_LAYER.get(name, ("self",))[0]
    return "count" if kind in ("count", "calls") or name == "trace.spans" else "s"


def traced_pass(workload, tracer):
    """One traced pass on fresh inputs; returns (reference seconds, result,
    layer values).  Its meter calibrates only before and after the pass,
    so that no calibration falls inside a span."""
    from meter import Meter

    tracer.reset_totals()
    spans_before = len(tracer.span_start)
    inputs = workload.pass_inputs()
    meter = Meter(period=math.inf)
    tracer.enable()
    try:
        t0 = meter.now()
        result = workload.run_pass(inputs, tracer.run_op, meter)
        t1 = meter.now()
    finally:
        tracer.disable()
    meter.lap(force=True)
    tracer.counts["cli.output_bytes"] += result.output_bytes
    workload.check_pass(inputs, result)
    wall = meter.scaled(t0, t1)
    values = {
        name: value if unit_of(name) == "count" else value * wall / (t1 - t0)
        for name, value in layer_values(tracer).items()
    }
    values["trace.spans"] = len(tracer.span_start) - spans_before
    return wall, result, values


def previous_counts(path, fingerprint):
    """Size counts of an earlier traced run of the same workload, seed and
    sources, if one left its summary behind."""
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if summary.get("fingerprint") != fingerprint:
        return None
    return summary.get("counts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meadowacp" / "__init__.py").is_file():
        fail(f"no meadowacp sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from meter import Meter  # noqa: E402  (needs the paths above)
    from workloads import WORKLOADS  # noqa: E402

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    fingerprint = source_fingerprint()

    setup = setup_times(workload, SETUP_REPEATS)
    workload.warmup()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    def direct(body, name=None):
        return body()

    meter = Meter()
    passes, latencies, traced = [], [], []
    attempted = failed = 0
    notes = []
    started = perf_counter()
    while True:
        inputs = workload.pass_inputs()
        t_start = perf_counter()
        a = meter.now()
        result = workload.run_pass(inputs, direct, meter)
        b = meter.now()
        last = perf_counter() - t_start
        meter.lap(force=True)
        if not passes:
            # read after a fixed amount of work: later passes repeat pass 0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.check_pass(inputs, result)
        passes.append((a, b, result.ops))
        latencies += result.latencies
        attempted += result.ops
        failed += result.failed
        notes += result.notes
        if tracer is not None:
            t_start = perf_counter()
            t_wall, t_result, values = traced_pass(workload, tracer)
            traced.append((t_wall, values))
            failed += t_result.failed
            notes += t_result.notes
            last += perf_counter() - t_start
            meter.lap(force=True)
        if perf_counter() - started + last > args.seconds:
            break
    walls = [meter.scaled(a, b) for a, b, _ in passes]
    samples = [meter.scaled(a, b) for a, b in latencies]

    correct = failed == 0
    counts_repeat = True
    known = []
    if tracer is not None:
        # every count must repeat exactly on every traced pass of this run,
        # and the REPEATING ones also in an earlier run of the same seed and
        # sources; other differences from that run are printed
        count_names = [n for n in traced[0][1] if unit_of(n) == "count"]
        counts = {n: traced[0][1][n] for n in count_names}
        for _, values in traced[1:]:
            differ = sorted(n for n in count_names if values[n] != counts[n])
            if differ:
                counts_repeat = False
                notes.append(f"counts differ between passes of one run: {differ}")
        summary_path = OUT_DIR / f"summary-{workload.name}-seed{args.seed}-trace.json"
        previous = previous_counts(summary_path, fingerprint) or counts
        differ = sorted(n for n in count_names if previous.get(n) != counts[n])
        if any(n in REPEATING for n in differ):
            counts_repeat = False
            notes.append(f"size counts differ from an earlier run of the same code: {differ}")
        elif differ:
            known.append("counts that depend on hash order differ from an earlier run: "
                         + ", ".join(f"{n} {previous[n]} -> {counts[n]}" for n in differ))
        correct = failed == 0 and counts_repeat

    probes = workload.probes()

    p50 = statistics.median(samples)
    tail_value, beyond = tail(samples, workload.tail_percentile)
    wall = statistics.median(walls)
    e2e = {
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "wall_s": wall,
        "ops_per_s": passes[0][2] / wall,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }

    print(f"workload {workload.name}  seed {args.seed}  passes {len(walls)}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  git {git_sha()}")
    print(f"  machine speed: calibration took {meter.speed():.3f}x the reference "
          f"(median of {len(meter.cals)}); median raw pass "
          f"{statistics.median(b - a for a, b, _ in passes):.6g} s")
    print(f"  operations: {attempted} {workload.op_unit}s attempted, {failed} failed "
          f"(error_rate {failed / max(attempted, 1):.6f})")
    print(f"  latency: {len(samples)} samples; tail is p{workload.tail_percentile:g} "
          f"with {beyond} samples beyond it")
    for line in workload.notes():
        print(f"  inputs: {line}")
    for name, ok, note in probes:
        print(f"  probe {'ok  ' if ok else 'FAIL'} {name}  {note}")
    if probes:
        bad = sum(not ok for _, ok, _ in probes)
        print(f"  probes: {bad} of {len(probes)} failed (known defects, not counted as operations)")
    for line in known:
        print(f"  known defect: {line}")
    for note in notes[:20]:
        print(f"  failure: {note}")

    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "fingerprint": fingerprint,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": [b - a for a, b, _ in passes],
        "calibrations_s": meter.cals,
        "setup_times_s": setup,
        "latency_samples": len(samples),
        "tail_percentile": workload.tail_percentile,
        "tail_beyond": beyond,
        "attempted": attempted,
        "failed": failed,
        "inputs": workload.notes(),
        "probes": [{"name": n, "ok": ok, "note": note} for n, ok, note in probes],
        "end_to_end": e2e,
    }

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:<18} {e2e[name]:.6g} {unit}")
    else:
        # counts from pass 0 (they repeat exactly), times the median pass
        per_pass = [values for _, values in traced]
        layer = {
            name: counts[name] if name in counts
            else statistics.median(v[name] for v in per_pass)
            for name in per_pass[0]
        }
        layer["trace.overhead_s"] = statistics.median(
            t - u for (t, _), u in zip(traced, walls)
        )
        metrics = {}
        for name, value in layer.items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
            print(f"  {name:<24} {value:.6g} {unit_of(name)}")
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv.gz")
        summary["traced_pass_walls_s"] = [t for t, _ in traced]
        summary["per_layer_per_pass"] = per_pass
        summary["counts"] = counts
        summary["counts_repeat"] = counts_repeat
    stem = f"{workload.name}-seed{args.seed}{'-trace' if tracer else ''}"
    (OUT_DIR / f"summary-{stem}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8"
    )

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
