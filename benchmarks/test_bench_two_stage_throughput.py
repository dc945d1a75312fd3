"""Bench: two-stage search throughput + fast-mode quality gate.

The acceptance bar for the coarse screening pass at the Fig. 7(b)
MDB scale: fast mode serves the request stream at least 2x faster
than the single-stage plane path, and its result quality clears the
same Fig. 11 gap gate that qualifies the paper's own sliding window
against exhaustive search.
"""

import two_stage_throughput

from repro.eval.experiments import fig11_search_quality

N_QUERIES = 12
FAST_SPEEDUP_FLOOR = 2.0
INPUTS_PER_CLASS = 25


def test_bench_two_stage_throughput(benchmark, fixture, save_report):
    result = benchmark.pedantic(
        two_stage_throughput.run_two_stage,
        kwargs={"fixture": fixture, "n_queries": N_QUERIES},
        rounds=1,
        iterations=1,
    )
    save_report("two_stage_throughput", result.report())
    assert result.fast_speedup >= FAST_SPEEDUP_FLOOR
    assert len(result.fast_pruned_per_query) == N_QUERIES
    assert all(count > 0 for count in result.fast_pruned_per_query)
    # Fast mode still returns a usable correlation set every query.
    assert all(count > 0 for count in result.fast_matches_per_query)


def test_bench_two_stage_fast_quality(fixture, save_report):
    """Fig. 11 quality gate, re-run with the fast screen engaged."""
    result = fig11_search_quality.run(
        fixture, n_inputs_per_class=INPUTS_PER_CLASS, two_stage="fast"
    )
    save_report("fig11_two_stage_fast_quality", result.report())
    assert result.mean_gap < 0.1
