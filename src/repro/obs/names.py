"""The checked-in metric name registry.

Every metric the framework emits through :mod:`repro.obs` appears here
with its instrument kind, and emaplint's EM010 pins both directions:
an emission whose name (or kind) is missing from this registry is a
lint failure, and so is a registry entry nothing emits.  Dashboards,
DESIGN.md's figure-to-metric map, and the benchmark-regression gate
address series by these strings — this file is what makes renaming one
a reviewed decision instead of a silent flatline.

``METRIC_NAMES`` holds exact names.  ``METRIC_PREFIXES`` holds dynamic
families (f-string names such as ``obs.span.<name>.s``): an emission
matches if its literal prefix — the text before the first formatted
field — starts with a registered family prefix.

Both mappings are plain literals: EM010 reads them from the AST, so
the registry stays checkable without importing the package.
"""

from __future__ import annotations

#: metric name -> instrument kind ("counter" | "gauge" | "histogram").
METRIC_NAMES: dict[str, str] = {
    # -- cloud search (Algorithm 1) -----------------------------------
    "cloud.search.requests": "counter",
    "cloud.search.batches": "counter",
    "cloud.search.batch_size": "histogram",
    "cloud.search.slices_scanned": "counter",
    "cloud.search.correlations_evaluated": "counter",
    "cloud.search.candidates_above_threshold": "counter",
    "cloud.search.heap_admissions": "counter",
    "cloud.search.elapsed_s": "histogram",
    # -- compiled search plane ----------------------------------------
    "cloud.plane.builds": "counter",
    "cloud.plane.build_s": "histogram",
    "cloud.plane.slices": "gauge",
    "cloud.plane.compiled_bytes": "gauge",
    "cloud.plane.cache_hits": "counter",
    "cloud.plane.cache_misses": "counter",
    "cloud.plane.norm_cache_build_s": "histogram",
    "cloud.plane.shard.count": "gauge",
    "cloud.plane.shard.compiled": "counter",
    "cloud.plane.shard.reused": "counter",
    "cloud.plane.shard.delta_compile_s": "histogram",
    "cloud.plane.shard.full_compile_s": "histogram",
    "cloud.plane.shard.merge_s": "histogram",
    # -- cloud server + resilient client ------------------------------
    "cloud.server.refreshes": "counter",
    "cloud.server.batches": "counter",
    "cloud.server.batch_size": "histogram",
    "cloud.server.calls_served": "counter",
    "cloud.server.signals_returned": "counter",
    "cloud.server.phase.upload_s": "histogram",
    "cloud.server.phase.search_s": "histogram",
    "cloud.server.phase.download_s": "histogram",
    "cloud.server.phase.initial_s": "histogram",
    "cloud.client.retries": "counter",
    "cloud.client.timeouts": "counter",
    "cloud.client.failures": "counter",
    "cloud.client.fast_fails": "counter",
    "cloud.client.breaker_state": "gauge",
    # -- serving gateway ----------------------------------------------
    "gateway.requests": "counter",
    "gateway.rejected": "counter",
    "gateway.failures": "counter",
    "gateway.batches": "counter",
    "gateway.batch_size": "histogram",
    "gateway.queue_depth": "gauge",
    "gateway.request_latency_s": "histogram",
    # -- edge tracking ------------------------------------------------
    "edge.tracker.iterations": "counter",
    "edge.tracker.area_evaluations": "counter",
    "edge.tracker.candidates_pruned": "counter",
    "edge.tracker.tracked": "gauge",
    "edge.tracker.step_s": "histogram",
    "edge.tracker.evaluations_per_s": "histogram",
    "edge.fleet.steps": "counter",
    "edge.fleet.step_s": "histogram",
    "edge.fleet.area_evaluations": "counter",
    "edge.fleet.cache_hits": "counter",
    "edge.fleet.cache_misses": "counter",
    "edge.fleet.sessions": "gauge",
    "edge.fleet.unique_slices": "gauge",
    "edge.fleet.tracked_references": "gauge",
    "edge.fleet.compiled_bytes": "gauge",
    "edge.fleet.fused_step_s": "histogram",
    "edge.fleet.fused_groups": "histogram",
    "edge.fleet.fused_queries_per_group": "histogram",
    "edge.fleet.fused_kernel_threads": "gauge",
    # -- edge device + predictor --------------------------------------
    "edge.device.frames_acquired": "counter",
    "edge.device.cloud_calls": "counter",
    "edge.device.set_refreshes": "counter",
    "edge.device.set_size": "histogram",
    "edge.predictor.observations": "counter",
    "edge.predictor.predictions": "counter",
    "edge.predictor.predictions_anomalous": "counter",
    "edge.predictor.pa": "gauge",
    "edge.predictor.ema": "gauge",
    "edge.predictor.pa_estimate": "histogram",
    # -- runtime loop --------------------------------------------------
    "runtime.sessions": "counter",
    "runtime.loop.iterations": "counter",
    "runtime.loop.deadline_misses": "counter",
    "runtime.loop.budget_used": "histogram",
    "runtime.loop.edge_iteration_s": "histogram",
    "runtime.degraded_iterations": "counter",
    "runtime.cloud_failures": "counter",
    "runtime.initial_latency_s": "histogram",
    "runtime.stream.frames": "counter",
    "runtime.stream.frame_s": "histogram",
    # -- network link --------------------------------------------------
    "network.uploads": "counter",
    "network.downloads": "counter",
    "network.bytes_up": "counter",
    "network.bytes_down": "counter",
    "network.upload_s": "histogram",
    "network.download_s": "histogram",
    # -- fault injection -----------------------------------------------
    "faults.injected": "counter",
    # -- runtime sanitizer ---------------------------------------------
    "obs.sanitize.runs": "counter",
    "obs.sanitize.stalls": "counter",
    "obs.sanitize.stall_s": "histogram",
    "obs.sanitize.leaked_tasks": "counter",
    "obs.sanitize.memory_growth_bytes": "gauge",
}

#: dynamic name-family prefix -> instrument kind.
METRIC_PREFIXES: dict[str, str] = {
    "faults.injected.": "counter",
    "obs.span.": "histogram",
    "obs.timer.": "histogram",
}
