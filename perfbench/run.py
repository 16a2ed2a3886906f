"""BINGO! benchmark: one command for the scale crawl and the living portal.

Run from the repository root::

    python3 perfbench/run.py --workload portal-live --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs
untraced/traced iteration pairs and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  Human-readable
lines go first; the last line of standard output is the JSON result.
See ``perfbench/README.md`` for the workloads, the metrics and the
checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import shutil
import statistics
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="write this run's deterministic outputs to expected.json "
             "(default seed only) instead of checking against it",
    )
    return parser.parse_args(argv)


def _import_program():
    """Put ``src`` and this directory on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    return workloads


def timed_total(result) -> float:
    return (result.setup_s + result.crawl_s + sum(result.cycle_s)
            + sum(result.latencies))


def fastest(rows) -> list[float]:
    """Per position, the least wall time any iteration took.

    The iterations repeat the same deterministic work, so position
    ``j`` of every row times the same piece of work: one recrawl cycle
    or one request.  Contention from other tenants of the
    machine only ever adds time, and the minimum drops what it added
    to all but the fastest iteration.
    """
    return [min(column) for column in zip(*rows, strict=True)]


def end_to_end(results) -> dict[str, float]:
    """Set-up time is the median over the iterations, peak memory the
    first iteration's; the other times are minima over the iterations
    (see :func:`fastest`)."""
    from repro.search.serving import percentile

    crawl_s = min(r.crawl_s for r in results)
    latencies = fastest(r.latencies for r in results)
    return {
        "setup_s": statistics.median(r.setup_s for r in results),
        "crawl_pages_per_s": results[0].visited / crawl_s,
        "recrawl_cycle_s": statistics.fmean(
            fastest(r.cycle_s for r in results)
        ),
        "query_p50_ms": percentile(latencies, 0.50) * 1e3,
        "query_p99_ms": percentile(latencies, 0.99) * 1e3,
        # the first iteration runs in a fresh process, as a user's would
        "peak_rss_mb": results[0].peak_rss_mb,
    }


def per_layer(pairs, stages) -> dict[str, float]:
    """Per-layer metrics: the median over the traced iterations."""
    rows = []
    for untraced, traced in pairs:
        trace = traced.trace
        table = trace.layer_times()

        def busy(name, key="busy_s"):
            return table.get(name, {}).get(key, 0.0)

        row = {name: 0.0 for name in (
            "checkpoint.saves", "checkpoint.bytes", "checkpoint.load_s",
        )}
        row.update(traced.counts)
        row.update(trace.counts)
        for stage in stages:
            row[f"pipeline.{stage}.busy_s"] = busy(f"pipeline.{stage}")
        for name in (
            "setup.web", "setup.engine", "engine.bootstrap",
            "engine.retrain", "classifier.train", "analysis.hits",
            "frontier.pop", "shard.barrier", "checkpoint.save",
            "portal.evolve", "portal.scheduler", "portal.apply_delta",
            "portal.fold_classifier", "serving.handle", "search.query",
        ):
            row[f"{name}.busy_s"] = busy(name)
        row["portal.open_s"] = busy("portal.open")
        row["engine.retrain.calls"] = busy("engine.retrain", "calls")
        row["engine.retrain.self_s"] = busy("engine.retrain", "self_s")
        row["frontier.pop.calls"] = busy("frontier.pop", "calls")
        row["search.query.calls"] = busy("search.query", "calls")
        row["serving.handle.self_s"] = busy("serving.handle", "self_s")
        row["portal.recrawl.self_s"] = busy("portal.recrawl", "self_s")
        row["trace.timed_s"] = trace.timed_seconds()
        row["trace.overhead_s"] = timed_total(traced) - timed_total(untraced)
        row["trace.unattributed_s"] = trace.unattributed_seconds()
        row["trace.unattributed_share"] = (
            row["trace.unattributed_s"] / row["trace.timed_s"]
        )
        rows.append(row)
    return {
        name: statistics.median(row[name] for row in rows)
        for name in rows[0]
    }


def _check_signatures(results, expected, seed, default_seed):
    """Consecutive iterations agree; the crawl matches the recorded one
    on every seed, the recrawl counters on the default seed.

    Returns ``(attempted, problems)``.
    """
    problems = []
    first = json.loads(json.dumps(results[0].signature))
    for index, result in enumerate(results[1:], start=1):
        if result.signature != results[0].signature:
            problems.append(
                f"iteration {index} differs from iteration 0: "
                f"{_diff(results[0].signature, result.signature)}"
            )
    attempted = len(results) - 1
    parts = ["crawl"] + (["recrawl"] if seed == default_seed else [])
    for part in parts:
        attempted += 1
        if expected is None or part not in expected:
            problems.append(f"no recorded {part} outputs")
        elif first[part] != expected[part]:
            problems.append(
                f"{part} differs from expected.json: "
                f"{_diff(expected[part], first[part])}"
            )
    return attempted, problems


def _diff(a, b) -> str:
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        return ", ".join(f"{k}: {_diff(a.get(k), b.get(k))}" for k in keys)
    return f"{a!r} vs {b!r}"


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    from tracing import SpanRecorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    if args.record and args.seed != workloads.DEFAULT_SEED:
        sys.exit("perfbench: --record needs the default seed")
    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        spans_path.unlink(missing_ok=True)

    results = []  # untraced iterations
    pairs = []  # (untraced, traced)
    failed = attempted = 0
    problems: list[str] = []
    # a fixed count per workload and --seconds: the minimum over the
    # iterations (see fastest) depends on how many there are
    iterations = round(args.seconds / workload.iteration_s)
    iterations = max(1, iterations // 2) if args.trace else max(2, iterations)

    def iterate(trace=None):
        gc.collect()
        return workloads.run_iteration(workload, args.seed, workdir,
                                       trace=trace)

    try:
        for index in range(iterations):
            untraced = iterate()
            results.append(untraced)
            if args.trace:
                run_id = f"{args.workload}/seed{args.seed}/{index}/traced"
                traced = iterate(SpanRecorder(run_id))
                pairs.append((untraced, traced))
                traced.trace.dump(spans_path)
    except Exception:
        traceback.print_exc()
        failed += 1
        attempted += 1
        problems.append("program error")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = results + [traced for _u, traced in pairs]
    for result in checked:
        attempted += result.attempted
        failed += result.failed
        problems.extend(result.problems)
    if results:
        recorded = (json.loads(EXPECTED.read_text())
                    if EXPECTED.is_file() else {})
        if args.record and not problems:
            recorded[args.workload] = results[0].signature
            EXPECTED.write_text(json.dumps(recorded, indent=1,
                                           sort_keys=True) + "\n")
        sig_attempted, sig_problems = _check_signatures(
            checked, recorded.get(args.workload), args.seed,
            workloads.DEFAULT_SEED,
        )
        attempted += sig_attempted
        failed += len(sig_problems)
        problems.extend(sig_problems)

    metrics = {}
    if results and not problems:
        if args.trace:
            values = per_layer(pairs, workloads.STAGES)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(results)
            wanted = spec["end_to_end"]
        for metric in wanted:
            name = metric["name"]
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
            print(f"{args.workload:12s} {name:36s} {values[name]:>16.6f} "
                  f"{metric['unit']}")
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"perfbench: {len(results)} iteration(s)"
          + (f" + {len(pairs)} traced, spans in {spans_path}"
             if args.trace else ""), file=sys.stderr)
    correct = not problems and failed == 0 and bool(results)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
