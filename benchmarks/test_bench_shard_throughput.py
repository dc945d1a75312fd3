"""Bench: sharded-plane incremental compile (online insert adoption).

The acceptance bar for the sharded plane at the Fig. 7(b) MDB scale:
adopting a single inserted document through the content-addressed
delta refresh is at least 5x faster than compiling a fresh plane from
the whole MDB, each insert recompiles exactly one shard (the trailing
delta) while every other shard is reused, and the refreshed results
stay bit-identical to the fresh plane after every insert.
"""

import shard_throughput

SHARD_SLICES = 16
N_INSERTS = 4
DELTA_SPEEDUP_FLOOR = 5.0


def test_bench_shard_throughput(benchmark, fixture, save_report):
    result = benchmark.pedantic(
        shard_throughput.run_shard_throughput,
        kwargs={
            "fixture": fixture,
            "shard_slices": SHARD_SLICES,
            "n_inserts": N_INSERTS,
        },
        rounds=1,
        iterations=1,
    )
    save_report("shard_throughput", result.report())
    assert result.identical  # sharding must not change any result
    assert result.delta_speedup >= DELTA_SPEEDUP_FLOOR
    # Each single-document insert compiles exactly its delta shard and
    # reuses every other shard.
    assert result.shards_compiled == N_INSERTS
    assert result.shards_reused > 0
