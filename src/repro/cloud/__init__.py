"""Cloud Search stage: cross-correlation search over the MDB (§V-B).

* :mod:`repro.cloud.results` — match/result containers and statistics.
* :mod:`repro.cloud.plane` — the compiled plane core: a run of slices
  as contiguous arrays with cached window norms, and Algorithm 1's
  skip walk over them, computing correlations only where it visits.
* :mod:`repro.cloud.shards` — the one compiled plane type: independently
  compiled, content-addressed shards with incremental (delta-shard)
  recompilation behind immutable per-generation epochs.
* :mod:`repro.cloud.search` — the search engine with pluggable skip
  policies: Algorithm 1's exponential sliding window and the
  exhaustive (β = 1) baseline it is compared against in Figs. 7 & 11,
  over a plain slice list (the scalar reference) or the sharded plane.
* :mod:`repro.cloud.server` — the CloudServer facade used by the
  closed-loop framework, combining the sharded plane, a search engine
  and the timing model.
* :mod:`repro.cloud.client` — the resilient call path the runtime
  loops dispatch through: per-call deadlines, seeded retries with
  exponential backoff, payload validation, and a circuit breaker.
"""

from repro.cloud.client import (
    BreakerState,
    CloudCallOutcome,
    CloudEndpoint,
    ResilienceConfig,
    ResilientCloudClient,
    validate_payload,
)
from repro.cloud.plane import PlaneCore
from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.search import (
    CorrelationSearch,
    ExhaustiveSearch,
    ExponentialSkipPolicy,
    FixedSkipPolicy,
    SearchConfig,
    SlidingWindowSearch,
)
from repro.cloud.server import CloudServer
from repro.cloud.shards import (
    PlaneShard,
    ShardEpoch,
    ShardedSearchPlane,
)

__all__ = [
    "BreakerState",
    "CloudCallOutcome",
    "CloudEndpoint",
    "CloudServer",
    "CorrelationSearch",
    "ExhaustiveSearch",
    "ExponentialSkipPolicy",
    "FixedSkipPolicy",
    "PlaneCore",
    "PlaneShard",
    "ResilienceConfig",
    "ResilientCloudClient",
    "SearchConfig",
    "SearchMatch",
    "SearchResult",
    "ShardEpoch",
    "ShardedSearchPlane",
    "SlidingWindowSearch",
    "validate_payload",
]
