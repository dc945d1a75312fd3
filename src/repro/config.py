"""One-stop pipeline assembly for examples, benchmarks and the CLI.

:func:`build_pipeline` wires the whole stack — corpora → MDB → cloud
server → closed-loop framework — from a single :class:`PipelineConfig`,
so a downstream user gets a running EMAP in three lines::

    from repro.config import PipelineConfig, build_pipeline

    pipeline = build_pipeline(PipelineConfig(mdb_scale=0.5))
    result = pipeline.framework.run(recording)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.search import SearchConfig, SlidingWindowSearch
from repro.cloud.server import CloudServer
from repro.datasets.registry import scaled_registry
from repro.edge.device import CloudCallPolicy
from repro.edge.predictor import PredictorConfig
from repro.edge.tracker import TrackerConfig
from repro.errors import ConfigurationError
from repro.mdb.builder import BuildReport, MDBBuilder
from repro.mdb.mdb import MegaDatabase
from repro.network.link import NetworkLink
from repro.runtime.framework import EMAPFramework, FrameworkConfig
from repro.runtime.timing import DeviceCostModel, TimingModel


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to stand up a full EMAP instance.

    ``mdb_scale`` scales the five corpora's record counts (1.0 ≈ 1400
    signal-sets); ``platform`` picks the Fig. 4 radio link.
    """

    mdb_scale: float = 1.0
    seed: int = 0
    with_artifacts: bool = True
    platform: str = "LTE"
    search: SearchConfig = field(default_factory=SearchConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    policy: CloudCallPolicy = field(default_factory=CloudCallPolicy)
    costs: DeviceCostModel = field(default_factory=DeviceCostModel)

    def __post_init__(self) -> None:
        if self.mdb_scale <= 0:
            raise ConfigurationError(
                f"MDB scale must be positive, got {self.mdb_scale}"
            )


@dataclass
class Pipeline:
    """An assembled EMAP instance."""

    config: PipelineConfig
    mdb: MegaDatabase
    build_report: BuildReport
    cloud: CloudServer
    framework: EMAPFramework


def build_pipeline(config: PipelineConfig | None = None) -> Pipeline:
    """Build corpora, MDB, cloud server and framework from one config."""
    cfg = config or PipelineConfig()
    registry = scaled_registry(
        scale=cfg.mdb_scale, seed=cfg.seed, with_artifacts=cfg.with_artifacts
    )
    builder = MDBBuilder()
    report = builder.build(registry)
    timing = TimingModel(
        link=NetworkLink.for_platform(cfg.platform), costs=cfg.costs
    )
    cloud = CloudServer(
        builder.mdb,
        search=SlidingWindowSearch(cfg.search),
        timing=timing,
    )
    framework = EMAPFramework(
        cloud,
        FrameworkConfig(
            tracker=cfg.tracker, predictor=cfg.predictor, policy=cfg.policy
        ),
    )
    return Pipeline(
        config=cfg,
        mdb=builder.mdb,
        build_report=report,
        cloud=cloud,
        framework=framework,
    )
