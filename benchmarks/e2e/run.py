"""The repo benchmark: six workloads, end-to-end metrics, a traced layer pass.

    python3 benchmarks/e2e/run.py --seed S              every workload, both passes
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --aa N [--seeds K]    noise study, writes NOISE.md
    python3 benchmarks/e2e/run.py --selftest

The second form is the driver's contract (see ``BENCHMARK.json``): its last
line of standard output is one JSON object.  Every form is built from it.

One run of one workload is up to three fresh interpreters, one after
another, never concurrently:

1. the *oracle child* sets up (first ``setup_s`` sample), mirrors the data
   into sqlite, checks every statement of round 0 in full against the mirror
   and hands back one reference digest per statement;
2. a *set-up child* only sets up (second sample);
3. the *measured child* sets up (third sample), runs the closed loop and
   judges every timed answer against the references.  Its ``ru_maxrss``
   never holds the sqlite mirror.

``README.md`` beside this file is the glossary.
"""
from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()  # set-up time of a child counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics read from public counters in the untraced count pass:
#: these must repeat exactly for one seed.
COUNT_METRICS = (
    "optimizer.plan_cache.hit_rate", "optimizer.plan_cache.evictions",
    "optimizer.plan_cache.stale_invalidations",
    "optimizer.rewrites.date_rewrites_fired", "optimizer.rewrite_pack.rules_fired",
    "optimizer.joinorder.relations_p50", "optimizer.planner.sorts_avoided",
    "optimizer.planner.stream_aggregates",
    "optimizer.context.oracle_calls_per_stmt",
    "optimizer.context.oracle_enumerated_per_stmt",
    "optimizer.context.oracle_hit_rate", "optimizer.context.theory_cache_size",
    "core.inference.enumerations_per_decision", "core.inference.cache_hit_rate",
    "core.prover.found_ratio", "core.prover.proof_lines_p50",
    "engine.operators.work_per_stmt", "engine.operators.rows_out_per_stmt",
    "engine.parallel.exchanges_per_stmt", "engine.parallel.morsel_bytes_per_stmt",
    "engine.parallel.chain_bytes_per_stmt", "engine.parallel.retries",
    "engine.parallel.degraded_partitions", "oracle.fail_ratio",
)


# ----------------------------------------------------------------------
# Children: one role per fresh interpreter
# ----------------------------------------------------------------------
def _measure(w, rounds, seconds, rec, refs) -> bool:
    """The closed loop: a fixed number of rounds, cut short (never below
    ``min_rounds``) if the host is so slow that the fixed count would take
    more than half again the requested time."""
    start = perf_counter()
    for done, r in enumerate(range(rounds), 1):
        w.run_round(r, rec, refs)
        if done < rounds and done >= w.min_rounds and perf_counter() - start > 1.5 * seconds:
            return True
    return False


def _e2e(rec) -> dict:
    """End-to-end metrics from per-class typical times (see
    ``Recorder.typical``) weighted by the operation mix of one round."""
    typical = rec.typical()
    mix = sorted(typical[cls] for cls in rec.mix)
    return {
        "query_ms_geomean": rec.geomean_ms(),
        "query_ms_p50": statistics.median(mix) * 1e3,
        "query_ms_p90": mix[int(len(mix) * 0.9)] * 1e3,
        "queries_per_s": len(mix) / sum(mix),
        "slowest_ms": mix[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced(w, args, refs) -> tuple:
    """Count pass (untraced, public counters), traced pass, outside probes."""
    import layers
    from workloads import Recorder

    log = layers.SpanLog()
    is_od = w.name == "od_inference"
    count, count_rec = w.observer(), Recorder()
    traced, traced_rec = w.observer(log), Recorder()
    # One untraced round, one traced round, and again: the two passes see the
    # same machine state, so their ratio is the tracer's cost and not drift.
    trace_rounds = w.trace_rounds_for(args.seconds)
    for i in range(trace_rounds):
        count.resume()
        w.run_round(2 * i, count_rec, refs, observe=count)
        count.pause()
        w.run_round(2 * i + 1, traced_rec, refs, trace=True, observe=traced)
    extra = {}
    if not is_od:
        from repro.optimizer.context import theory_cache_len

        cache_size = theory_cache_len()
    if w.name == "report_process":
        # Same statements, same interpreter, serial batches: the base of
        # engine.parallel.process_over_batch.
        serial = Recorder()
        kw, w.exec_kw = w.exec_kw, {"batch_size": 1024}
        w.warmup()
        _measure(w, trace_rounds, args.seconds, serial, refs)
        w.exec_kw = kw
        extra["engine.parallel.process_over_batch"] = (
            count_rec.geomean_ms() / serial.geomean_ms()
        )
    if is_od:
        metrics, per_call, wall = layers.od_metrics(count, count_rec, traced, log, w.seed)
        per_call = {k: v / trace_rounds for k, v in per_call.items()}
        table = layers.layer_table(w.name, per_call, wall / trace_rounds, unit="round")
    else:
        probes = layers.sql_probes(w, log)
        metrics, per_call, wall = layers.sql_metrics(
            count, count_rec, traced, traced_rec, probes, cache_size)
        table = layers.layer_table(w.name, per_call, wall)
    metrics.update(extra)
    OUT.mkdir(exist_ok=True)
    log.write(OUT / f"trace_{w.name}.json")
    (OUT / f"layers_{w.name}.txt").write_text(table + "\n")
    recs = (count_rec, traced_rec)
    metrics["oracle.fail_ratio"] = sum(r.failed for r in recs) / sum(r.attempted for r in recs)
    return metrics, recs, table


def child(args) -> dict:
    """Set up, then do what the role asks; returns the child's report."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Recorder

    w = WORKLOADS[args.workload](args.seed, args.scale)
    w.build()
    w.warmup()
    report = {"setup_s": perf_counter() - _T0}
    try:
        if args.role == "setup":
            return report
        rounds = (2 * w.trace_rounds_for(args.seconds) if args.trace
                  else w.rounds_for(args.seconds))
        if args.role == "oracle":
            report.update(w.references(rounds))
            if args.corrupt_oracle:  # the acceptance test: one wrong expectation
                # (a row count off by one, or a verdict that equals neither)
                report["refs"][min(report["refs"])][0] += 1
            return report
        refs = json.loads(sys.stdin.read())
        if args.trace:
            metrics, recs, table = _traced(w, args, refs)
            report["layer_table"] = table
        else:
            rec = Recorder()
            started = perf_counter()
            report["cut_short"] = _measure(w, rounds, args.seconds, rec, refs)
            report["loop_s"] = perf_counter() - started
            metrics, recs = _e2e(rec), (rec,)
            report["samples"] = sum(len(v) for v in rec.by_class.values())
        from repro.engine.parallel import host_capability

        report.update(
            metrics=metrics,
            attempted=sum(r.attempted for r in recs),
            failed=sum(r.failed for r in recs),
            errors=[e for r in recs for e in r.errors],
            texts_crc=zlib.crc32("\n".join(w.texts(2)).encode()),
            header={**host_capability(), "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        )
        return report
    finally:
        w.close()  # stops the process backend's pool and waits for it


# ----------------------------------------------------------------------
# Parent: one workload, one pass
# ----------------------------------------------------------------------
def _spawn(role: str, name: str, seed: int, seconds: float, trace: int, scale: float,
           stdin: str = "", corrupt: bool = False) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role, "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", str(scale),
    ] + (["--corrupt-oracle"] if corrupt else [])
    # A fixed hash seed makes set iteration order — and so every program
    # counter — repeat, and lets the oracle child's digests be compared here.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, input=stdin, capture_output=True, text=True,
                          env=env, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{role} child of {name} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, scale, setups=3, corrupt=False,
                 oracle_report=None) -> dict:
    """One workload, one pass (``trace`` 0: end-to-end, 1: per-layer).  An
    ``oracle_report`` from an earlier run with the same arguments is reused."""
    if oracle_report is None:
        oracle_report = _spawn("oracle", name, seed, seconds, trace, scale, corrupt=corrupt)
    samples = [oracle_report["setup_s"]]
    if not trace:
        for _ in range(setups - 2):
            samples.append(_spawn("setup", name, seed, seconds, trace, scale)["setup_s"])
    measured = _spawn("measure", name, seed, seconds, trace, scale,
                      stdin=json.dumps(oracle_report["refs"]))
    samples.append(measured["setup_s"])
    values = dict(measured["metrics"])
    listed = PER_LAYER if trace else E2E
    if not trace:
        values["setup_s"] = statistics.median(samples)
    else:
        values = {k: values.get(k, 0.0) for k in listed}  # not on this path: zero
    errors = oracle_report["errors"] + measured["errors"]
    failed = len(oracle_report["errors"]) + measured["failed"]
    return {
        "correct": failed == 0,
        "attempted": oracle_report["attempted"] + measured["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": listed[k]["unit"]} for k, v in values.items()},
        "errors": errors, "header": measured["header"],
        "texts_crc": measured["texts_crc"],
        "samples": measured.get("samples"), "loop_s": measured.get("loop_s"),
        "cut_short": measured.get("cut_short", False),
        "layer_table": measured.get("layer_table", ""), "oracle_report": oracle_report,
        "emitted": sorted(measured["metrics"]),
    }


def _print_result(name: str, result: dict) -> None:
    tail = (f", {result['samples']} timed operations in {result['loop_s']:.1f} s"
            if result["samples"] else "")
    print(f"-- {name}: {result['failed']} failed of {result['attempted']}{tail}"
          + (" (cut short by the time box)" if result["cut_short"] else ""))
    for error in result["errors"][:5]:
        print(f"   FAILED {error}")
    for metric, entry in result["metrics"].items():
        if entry["value"] or metric in E2E:
            print(f"   {metric:<46}{entry['value']:>16.4f} {entry['unit']}")


def _header(result: dict) -> str:
    h = result["header"]
    return (f"host: {h['nproc']} cpus ({h['cpus']} usable), python {h['python']}, "
            f"start method {h['start_method']}, process_capable={h['process_capable']}, "
            f"parallel_capable={h['parallel_capable']}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def driver(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.scale, corrupt=args.corrupt_oracle)
    print(_header(result))
    _print_result(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def full(args) -> int:
    failed = 0
    for i, name in enumerate(WORKLOAD_NAMES):
        for trace in (0, 1):
            result = run_workload(name, args.seed, args.seconds, trace, args.scale)
            if i == 0 and trace == 0:
                print(_header(result))
                print(f"seed {args.seed}, {args.seconds} s per workload, scale {args.scale}")
            _print_result(name + (" (traced pass)" if trace else ""), result)
            failed += result["failed"]
            if trace:
                print(result["layer_table"])
                print(f"   trace: {OUT / ('trace_' + name + '.json')}")
    print(f"fail_ratio: {'0' if not failed else 'NON-ZERO'} ({failed} failed operations)")
    return 0 if not failed else 1


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def noise(args) -> int:
    """A/A sets of the same code (and, with --seeds, the driver's own rule:
    ten seeds, interquartile range over median) against each bound."""
    lines = [
        "# Noise of the benchmark on the host that defined it", "",
        f"Written by `run.py --aa {args.aa}" + (f" --seeds {args.seeds}`" if args.seeds else "`")
        + f" at seed {args.seed}, {args.seconds} s per run, scale {args.scale}.", "",
    ]
    missed = 0
    sets = []
    for index in range(args.aa):
        one = {}
        for name in WORKLOAD_NAMES:
            one[name] = (
                run_workload(name, args.seed, args.seconds, 0, args.scale),
                run_workload(name, args.seed, args.seconds, 1, args.scale),
            )
            print(f"set {index + 1}/{args.aa}: {name} done", flush=True)
        sets.append(one)
    lines += [f"## A/A: {args.aa} complete sets, same seed", "",
              "Spread is (max - min) / median over the sets.", "",
              "| workload | metric | " + " | ".join(f"set {i + 1}" for i in range(args.aa))
              + " | spread | bound | |", "|---|---|" + "---|" * (args.aa + 3)]
    for name in WORKLOAD_NAMES:
        for metric, entry in E2E.items():
            values = [s[name][0]["metrics"][metric]["value"] for s in sets]
            spread = (max(values) - min(values)) / statistics.median(values)
            ok = spread <= entry["bound"] or metric == "setup_s"
            missed += not ok
            lines.append(f"| {name} | {metric} | " + " | ".join(f"{v:.4g}" for v in values)
                         + f" | {spread:.3f} | {entry['bound']} | {'ok' if ok else 'MISS'} |")
    differing = [
        f"{name}: {metric}" for name in WORKLOAD_NAMES for metric in COUNT_METRICS
        if len({s[name][1]["metrics"][metric]["value"] for s in sets}) > 1
    ]
    lines += ["", "Count metrics (public counters of the untraced count pass) that differ "
              "between sets: " + (", ".join(differing) if differing else "none — all "
              f"{len(COUNT_METRICS)} are bit-identical on all {len(WORKLOAD_NAMES)} workloads."),
              ""]
    missed += len(differing)
    if args.seeds:
        lines += [f"## The driver's rule: {args.seeds} seeds per workload", "",
                  "Spread is the distance between the first and third quartile "
                  "(`statistics.quantiles(values, n=4)`) over the median; a metric is "
                  "steady when it stays under a third of its bound.", "",
                  "| workload | metric | median | spread | bound | spread / bound |",
                  "|---|---|---|---|---|---|"]
        for name in WORKLOAD_NAMES:
            runs = []
            for k in range(args.seeds):
                runs.append(run_workload(name, args.seed + 100 + k, args.seconds, 0, args.scale))
                print(f"seeds: {name} {k + 1}/{args.seeds}", flush=True)
            for metric, entry in E2E.items():
                values = [r["metrics"][metric]["value"] for r in runs]
                spread = _spread(values)
                if metric != "setup_s":
                    missed += spread > entry["bound"]
                lines.append(f"| {name} | {metric} | {statistics.median(values):.4g} | "
                             f"{spread:.4f} | {entry['bound']} | {spread / entry['bound']:.2f} |")
        lines.append("")
    (HERE / "NOISE.md").write_text("\n".join(lines))
    print("\n".join(lines))
    return 0 if not missed else 1


def selftest(args) -> int:
    """The benchmark checking itself, at scale 0.05 in well under 30 s."""
    scale, seconds = 0.05, 0.3
    problems = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    def one(name: str) -> None:
        e2e = run_workload(name, 8, seconds, 0, scale, setups=2)
        first = run_workload(name, 7, seconds, 1, scale)
        again = run_workload(name, 7, seconds, 1, scale, oracle_report=first["oracle_report"])
        check(set(e2e["emitted"]) | {"setup_s"} == set(E2E), f"{name}: end-to-end metric names")
        check(set(first["emitted"]) <= set(PER_LAYER),
              f"{name} emits unlisted {set(first['emitted']) - set(PER_LAYER)}")
        emitted.update(first["emitted"])
        check(all(m["value"] > 0 for m in e2e["metrics"].values()),
              f"{name}: an end-to-end metric is zero")
        check(e2e["correct"] and first["correct"], f"{name}: failed operations {e2e['errors']}")
        check(first["texts_crc"] == again["texts_crc"], f"{name}: texts differ for one seed")
        for metric in COUNT_METRICS:
            check(first["metrics"][metric] == again["metrics"][metric],
                  f"{name}: count metric {metric} differs for one seed")
        hit_rate = first["metrics"]["optimizer.plan_cache.hit_rate"]["value"]
        check(first["texts_crc"] != e2e["texts_crc"], f"{name}: two seeds, same texts")
        if name == "adhoc_plan":
            check(hit_rate == 0, f"adhoc_plan hits the plan cache ({hit_rate})")
        if name.startswith("report_"):
            check(hit_rate == 1, f"{name} misses the plan cache ({hit_rate})")
        if name in ("catalog_churn", "od_inference"):
            wrong = run_workload(name, 7, seconds, 0, scale, setups=2, corrupt=True)
            check(not wrong["correct"] and wrong["failed"] > 0,
                  f"{name}: a corrupted expectation went unnoticed")

    emitted = set()
    # Slowest first, so the two lanes finish together.
    names = sorted(WORKLOAD_NAMES, key=lambda n: n not in ("adhoc_plan", "report_process"))
    pattern = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
    for metric in list(E2E) + list(PER_LAYER) + names:
        check(set(metric) <= pattern, f"name {metric!r} has a character outside [A-Za-z0-9_.-]")
    # Not a measurement: two workloads at a time, one per core.
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(one, names))
    check(emitted == set(PER_LAYER), f"no workload emits {set(PER_LAYER) - emitted}")
    for problem in problems:
        print("SELFTEST FAILED:", problem)
    print(f"selftest: {len(problems)} problems in {perf_counter() - _T0:.1f} s")
    return 1 if problems else 0


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=workloads.SCALE,
                        help="share of the row counts ISSUE.md names")
    parser.add_argument("--aa", type=int, default=0, metavar="N")
    parser.add_argument("--seeds", type=int, default=0, metavar="K")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--role", choices=("oracle", "setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing to measure")
    if args.role:
        print(json.dumps(child(args)))
        return 0
    if args.selftest:
        return selftest(args)
    if args.aa:
        return noise(args)
    if args.workload:
        return driver(args)
    return full(args)


if __name__ == "__main__":
    sys.exit(main())
