"""Containers for cloud-search outcomes.

A :class:`SearchMatch` is the paper's tracked tuple ``W = [S, ω, β]``:
the matched signal-set, its correlation with the input frame, and the
offset within the slice where the match was found.  A
:class:`SearchResult` is the signal correlation set ``T`` plus the
search statistics the evaluation section reports (correlations
evaluated, exploration time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SearchError
from repro.signals.types import SignalSlice


@dataclass(frozen=True)
class SearchMatch:
    """One entry of the signal correlation set: ``W = [S, ω, β]``."""

    sig_slice: SignalSlice
    omega: float
    offset: int

    def __post_init__(self) -> None:
        if not (-1.0 <= self.omega <= 1.0):
            raise SearchError(f"normalised ω must be in [-1, 1], got {self.omega}")
        if self.offset < 0:
            raise SearchError(f"match offset must be non-negative, got {self.offset}")

    @property
    def anomalous(self) -> bool:
        """Whether the matched signal-set carries ``A(S) = 1``."""
        return self.sig_slice.label.is_anomalous


@dataclass
class SearchResult:
    """The signal correlation set ``T`` plus search statistics.

    ``heap_admissions`` counts top-K heap entries (pushes + replaces)
    during the scan.  ``elapsed_s`` is the search's wall time, measured
    by the ``repro.obs`` tracer (for a batched search, the whole
    batch's).

    Two-stage searches additionally report ``slices_pruned`` (slices
    the coarse pass removed before the exact walk; still counted in
    ``slices_searched``) and ``coarse_elapsed_s`` (stage-1 screening
    time, included in ``elapsed_s``).  ``correlations_evaluated``
    counts only the exact walk, so a screened search reports what it
    actually evaluated.
    """

    matches: list[SearchMatch] = field(default_factory=list)
    correlations_evaluated: int = 0
    slices_searched: int = 0
    candidates_above_threshold: int = 0
    heap_admissions: int = 0
    elapsed_s: float = 0.0
    slices_pruned: int = 0
    coarse_elapsed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.matches)

    @property
    def anomalous_count(self) -> int:
        """``N(AS)``: anomalous entries in the correlation set."""
        return sum(1 for match in self.matches if match.anomalous)

    @property
    def anomaly_probability(self) -> float:
        """Eq. 5 evaluated over the fresh correlation set.

        Returns 0 for an empty set (no evidence either way).
        """
        if not self.matches:
            return 0.0
        return self.anomalous_count / len(self.matches)

    @property
    def mean_omega(self) -> float:
        """Average cross-correlation of the set (Figs. 7a & 11)."""
        if not self.matches:
            return 0.0
        return sum(match.omega for match in self.matches) / len(self.matches)

    @property
    def min_omega(self) -> float:
        """Weakest correlation admitted to the set."""
        if not self.matches:
            return 0.0
        return min(match.omega for match in self.matches)
