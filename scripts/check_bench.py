#!/usr/bin/env python3
"""Bench regression gate for the `bench` CI stage.

Compares the speedup metrics of freshly emitted BENCH_cache.json /
BENCH_pipeline.json / BENCH_store.json / BENCH_plans.json (written into
the repo root by bench_micro_cache, bench_micro_pipeline_batch,
bench_micro_store, and bench_tab1_plans --optimizer-only)
against the committed baselines in
bench/baselines/, and fails when any metric regresses by more than 20%.

Metrics are *ratios* (warm-vs-cold speedups, parallel-vs-tuple speedups,
TinyLFU-vs-LRU advantage), not absolute timings, so they transfer across
machines; the baselines are deliberately conservative floors from a
blessed run (see the `_note` field in each baseline file) and the 20%
margin absorbs scheduler noise on top of that.

Exit codes: 0 = no regression, 1 = regression or malformed input.
"""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOLERANCE = 0.8  # fail when fresh < 0.8 * baseline (>20% regression)


def load(path: pathlib.Path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        print(f"check_bench: missing {path} (did the bench stage run?)")
        return None
    except json.JSONDecodeError as e:
        print(f"check_bench: {path} is not valid JSON: {e}")
        return None


def case_ms(doc, name):
    for case in doc.get("cases", []):
        if case.get("name") == name:
            return case.get("ms")
    return None


def cache_metrics(doc):
    """Every top-level ratio metric the cache bench emits."""
    return {
        k: v
        for k, v in doc.items()
        if isinstance(v, (int, float))
        and ("_speedup" in k or "_advantage" in k)
    }


def pipeline_metrics(doc):
    """Speedups derived from the pipeline bench's case timings."""
    metrics = {}
    tuple_ms = case_ms(doc, "filter_map_tuple")
    for engine in ("filter_map_batch_serial", "filter_map_batch_parallel"):
        ms = case_ms(doc, engine)
        if tuple_ms and ms:
            metrics[f"{engine}_speedup"] = tuple_ms / ms

    # Parallel-vs-serial ratios for the radix join and partitioned
    # aggregation. parallel_join_speedup carries a >= 1.0 floor in the
    # baseline: parallel losing to serial (the pre-radix state of the
    # world) fails CI instead of sitting silently in the JSON.
    ratios = (
        ("parallel_join_speedup", "hash_join_serial", "hash_join_parallel"),
        ("parallel_join_speedup_4w", "hash_join_serial",
         "hash_join_parallel_4w"),
        ("parallel_group_by_speedup", "group_by_serial", "group_by_parallel"),
        ("parallel_group_by_speedup_4w", "group_by_serial",
         "group_by_parallel_4w"),
        # Skew tax: uniform-parallel over skew-parallel. A floor of ~0.67
        # encodes "Zipf-skewed keys may cost at most 1.5x the uniform
        # join"; below that, partition skew handling has regressed.
        ("join_skew_uniform_ratio", "hash_join_parallel",
         "hash_join_parallel_skew"),
    )
    for metric, num_case, den_case in ratios:
        num_ms = case_ms(doc, num_case)
        den_ms = case_ms(doc, den_case)
        if num_ms and den_ms:
            metrics[metric] = num_ms / den_ms

    # Serving-layer gates. serving_concurrent_ratio: the same work split
    # over 4 sessions must not lose to one session issuing it serially
    # (scheduler locking/interleaving overhead); >1 on real multi-core.
    # serving_isolation_ratio: solo-p95 over under-load-p95 of a short
    # query while a long scan floods the pool — fair-share interleaving
    # keeps this bounded; FIFO dispatch would crater it toward 0.
    solo_ms = case_ms(doc, "serving_solo_1s")
    conc_ms = case_ms(doc, "serving_concurrent_4s")
    if solo_ms and conc_ms:
        metrics["serving_concurrent_ratio"] = solo_ms / conc_ms
    p95_solo = case_ms(doc, "serving_short_p95_solo")
    p95_loaded = case_ms(doc, "serving_short_p95_loaded")
    if p95_solo and p95_loaded:
        metrics["serving_isolation_ratio"] = p95_solo / p95_loaded
    # In-flight dedup rate is emitted directly by the bench (fraction of
    # concurrent identical inferences that did NOT lead a computation).
    dedup = doc.get("serving_dedup_rate")
    if isinstance(dedup, (int, float)):
        metrics["serving_dedup_rate"] = dedup
    # Cross-query device batching: 4 sessions OCR-ing distinct panels on
    # the simulated GPU, batch former off vs on. The ratio is the launch-
    # overhead amortization from flushing concurrent sessions' patches as
    # one device invocation; results are verified equal before timing.
    unbatched_ms = case_ms(doc, "serving_ocr_unbatched_4s")
    batched_ms = case_ms(doc, "serving_ocr_batched_4s")
    if unbatched_ms and batched_ms:
        metrics["device_batch_amortization"] = unbatched_ms / batched_ms
    return metrics


def store_metrics(doc):
    """Zone-map pruning ratios emitted by the store bench.

    columnar_scan_speedup is the headline: a 2.5%-selectivity range scan
    through the planner's zone-map path vs the same columnar decode path
    over every chunk, so it measures what pruning saves and falls to ~1x
    when chunk selection stops pruning. zonemap_prune_ratio is
    deterministic (pinned chunk geometry), so its baseline sits close to
    the measured value — a drop means chunk selection stopped pruning, not
    that the machine was slow.
    """
    return {
        k: v
        for k, v in doc.items()
        if isinstance(v, (int, float))
        and ("_speedup" in k or "_ratio" in k)
    }


def plans_metrics(doc):
    """Optimizer ratios emitted by bench_tab1_plans --optimizer-only.

    udf_reorder_speedup: a query written expensive-UDF-first vs the
    planner's cost-ranked order (cheap sargable conjunct hoisted in front
    of the model). cascade_speedup: proxy cascade at threshold 0.25 vs
    the full-model scan on a 70%-confidently-rejectable view. Both are
    verified byte-identical before timing, so a regression here is pure
    performance, never accuracy.
    """
    return {
        k: v
        for k, v in doc.items()
        if isinstance(v, (int, float)) and "_speedup" in k
    }


def check(fresh_name, extract):
    fresh_doc = load(REPO_ROOT / fresh_name)
    base_doc = load(REPO_ROOT / "bench" / "baselines" / fresh_name)
    if fresh_doc is None or base_doc is None:
        return [f"{fresh_name}: unreadable input"]
    fresh = extract(fresh_doc)
    baseline = {
        k: v for k, v in base_doc.items()
        if isinstance(v, (int, float)) and not k.startswith("_")
    }
    failures = []
    for metric, floor in sorted(baseline.items()):
        got = fresh.get(metric)
        if got is None:
            # A vanished metric is gate erosion, not a free pass.
            failures.append(
                f"{fresh_name}: metric '{metric}' missing from fresh run")
            continue
        status = "ok"
        if got < floor * TOLERANCE:
            status = "REGRESSION"
            failures.append(
                f"{fresh_name}: {metric} = {got:.2f} < "
                f"{TOLERANCE:.0%} of baseline {floor:.2f}")
        print(f"  {fresh_name:<20} {metric:<38} "
              f"{got:8.2f}  (baseline {floor:.2f})  {status}")
    for metric in sorted(set(fresh) - set(baseline)):
        print(f"  {fresh_name:<20} {metric:<38} "
              f"{fresh[metric]:8.2f}  (no baseline — not gated)")
    return failures


def main():
    print("bench regression gate (fail below "
          f"{TOLERANCE:.0%} of baseline):")
    failures = []
    failures += check("BENCH_cache.json", cache_metrics)
    failures += check("BENCH_pipeline.json", pipeline_metrics)
    failures += check("BENCH_store.json", store_metrics)
    failures += check("BENCH_plans.json", plans_metrics)
    if failures:
        print("\ncheck_bench: FAILED")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\ncheck_bench: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
