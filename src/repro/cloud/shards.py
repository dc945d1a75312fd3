"""The sharded MDB search plane with incremental compilation.

This is the one compiled plane type: every search over compiled arrays
— single or batched — runs over a :class:`ShardedSearchPlane`.  A
monolithic plane is simply the one-shard case
(``shard_slices >= n_slices``).

* slices are grouped into fixed-size runs (``shard_slices`` per shard)
  and each run is compiled into its own independent
  :class:`PlaneShard` — a :class:`~repro.cloud.plane.PlaneCore` with
  its *own* norm caches;
* shards are **content-addressed** (the slice-dedup pattern of
  :mod:`repro.edge.fleet`): a shard's identity is a digest over its
  member slices' identity metadata, kept in a registry keyed by that
  digest.  A refresh after an MDB insert recompiles only the shards
  whose content changed — for an append-only MDB that is the trailing
  shard — and *reuses* the untouched shards, caches and all, so an
  online-growing MDB (the paper's implied clinical workflow — new
  labelled slices adopted at runtime) never pays a whole-store
  recompile.  A shard still holding the previous epoch's slice objects
  is reused without re-hashing, so a refresh hashes only new slices,
  and a digest that repeats inside one epoch shares one compiled core;
* every refresh builds a fresh immutable :class:`ShardEpoch` and
  installs it with a single attribute assignment.  Readers ``pin()``
  the epoch once per request/batch, so an insert arriving mid-batch
  can never mix generations inside one batch — the in-flight batch
  keeps walking the epoch it pinned while new requests see the new one.

The search engine walks one query over every shard core in turn and
merges the hits with deterministic lower-slice-id tie-breaks (shards
are laid out in ascending order, so the global admission sequence is
exactly the sequential scan order).  Results are therefore
**bit-identical** for every shard width and equal to the scalar
reference engines: every per-slice quantity (dots, norms, walks) is a
pure function of that slice's samples
(``tests/test_cloud_differential.py`` and ``tests/test_cloud_shards.py``
assert both under hypothesis).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.cloud.plane import PlaneCore
from repro.errors import SearchError
from repro.mdb.mdb import MegaDatabase
from repro.signals.types import SignalSlice

#: Slices per shard.  Small enough that a single-document insert
#: recompiles a sliver of the store, large enough that the per-shard
#: fixed costs (one walk call per query, one norm cache per frame
#: length) stay amortised across many slices.
DEFAULT_SHARD_SLICES = 64


def _slice_key(sig_slice: SignalSlice) -> bytes | None:
    """The content-address contribution of one slice, or ``None``.

    Identity metadata only (id, label, source, start, length) plus an
    O(1) boundary-sample fingerprint — the same contract as the edge
    fleet's slice dedup: MDB documents are immutable once inserted, so
    a stable ``slice_id`` names stable content.  Slices without an id
    cannot be content-addressed (``None`` → the owning shard is always
    recompiled, which is correct, just unshared).
    """
    if not sig_slice.slice_id:
        return None
    digest = hashlib.blake2b(digest_size=16)
    data = sig_slice.data
    for part in (
        sig_slice.slice_id,
        str(sig_slice.label),
        sig_slice.source,
        str(sig_slice.start_sample),
        str(data.size),
    ):
        digest.update(part.encode())
        digest.update(b"\x1f")
    if data.size:
        digest.update(np.float64(data[0]).tobytes())
        digest.update(np.float64(data[-1]).tobytes())
    return digest.digest()


def shard_id_for(slices: Sequence[SignalSlice]) -> str | None:
    """Content address of one shard's member slices, or ``None``.

    ``None`` when any member cannot be addressed (empty ``slice_id``);
    such shards never enter the registry and are recompiled on every
    refresh.
    """
    digest = hashlib.blake2b(digest_size=16)
    for sig_slice in slices:
        key = _slice_key(sig_slice)
        if key is None:
            return None
        digest.update(key)
    return digest.hexdigest()


class PlaneShard:
    """One independently compiled segment of the sharded plane.

    Holds its :class:`~repro.cloud.plane.PlaneCore` (and therefore its
    norm caches — warmed once, they survive every refresh that reuses
    the shard).  ``core``, when given, is an already compiled core of
    the same content (a shard whose digest repeats) and is shared
    instead of compiled again; ``slices`` stay this shard's own, so a
    hit names the slice at its own position.  Immutable after
    construction.
    """

    __slots__ = ("shard_id", "slices", "core")

    def __init__(
        self,
        shard_id: str | None,
        slices: Sequence[SignalSlice],
        core: PlaneCore | None = None,
    ) -> None:
        if not slices:
            raise SearchError("cannot compile an empty plane shard")
        self.shard_id = shard_id
        self.slices: tuple[SignalSlice, ...] = tuple(slices)
        if core is None:
            offsets = np.zeros(len(self.slices) + 1, dtype=np.int64)
            for index, sig_slice in enumerate(self.slices):
                offsets[index + 1] = offsets[index] + len(sig_slice)
            samples = np.concatenate([s.data for s in self.slices])
            core = PlaneCore(samples=samples, offsets=offsets)
        self.core = core

    def holds(self, slices: Sequence[SignalSlice]) -> bool:
        """Whether this shard holds exactly these slice objects, in order."""
        return len(self.slices) == len(slices) and all(
            mine is theirs for mine, theirs in zip(self.slices, slices)
        )

    @property
    def n_slices(self) -> int:
        return len(self.slices)


@dataclass(frozen=True)
class ShardEpoch:
    """One immutable snapshot of the compiled sharded plane.

    Installed atomically by :meth:`ShardedSearchPlane.refresh`; readers
    pin one epoch per request/batch and keep walking it even if a
    refresh lands mid-flight.  ``bases[k]`` is shard ``k``'s first
    global slice index, so a shard-local hit ``(local, ω, offset)``
    maps to the global slice ``bases[k] + local``.
    """

    shards: tuple[PlaneShard, ...]
    bases: tuple[int, ...]
    slices: tuple[SignalSlice, ...]
    generation: int
    source_generation: int

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_samples(self) -> int:
        return sum(shard.core.n_samples for shard in self.shards)

    @property
    def nbytes(self) -> int:
        """Bytes of the compiled cores (a shared core counted once)."""
        cores = {id(shard.core): shard.core for shard in self.shards}
        return sum(core.nbytes for core in cores.values())


class ShardedSearchPlane:
    """The sharded, incrementally compiled MDB plane.

    Built from a :class:`~repro.mdb.mdb.MegaDatabase` (tracking its
    generation counter, so :meth:`refresh` picks up later inserts) or
    from a plain slice list (static) and consumed through
    :class:`~repro.cloud.search.CorrelationSearch` (directly or behind a
    ``CloudServer``).  Two properties matter at fleet scale:

    * :meth:`refresh` compiles **only the delta shards** — content
      hashes decide reuse, so an append-only insert recompiles one
      trailing shard while every other shard keeps its compiled core
      *and its warmed norm caches*;
    * the compiled state lives in an immutable :class:`ShardEpoch`
      swapped by single assignment, so readers that :meth:`pin` an
      epoch never observe a mid-batch generation mix.
    """

    def __init__(
        self,
        source: MegaDatabase | Sequence[SignalSlice],
        shard_slices: int = DEFAULT_SHARD_SLICES,
    ) -> None:
        if shard_slices < 1:
            raise SearchError(
                f"shard_slices must be >= 1, got {shard_slices}"
            )
        self._mdb = source if isinstance(source, MegaDatabase) else None
        self._static_slices = (
            None if self._mdb is not None else tuple(source)
        )
        self.shard_slices = shard_slices
        self._registry: dict[str, PlaneShard] = {}
        self.last_refresh_compiled = 0
        self.last_refresh_reused = 0
        self._epoch = self._build_epoch(previous=None)

    # -- building ----------------------------------------------------

    def _source_state(self) -> tuple[int, tuple[SignalSlice, ...]]:
        if self._mdb is not None:
            return self._mdb.generation, tuple(self._mdb.slices())
        assert self._static_slices is not None
        return 0, self._static_slices

    def _build_epoch(self, previous: ShardEpoch | None) -> ShardEpoch:
        with obs.trace.span("cloud.plane.build") as span:
            source_generation, slices = self._source_state()
            if not slices:
                raise SearchError(
                    "cannot compile a search plane over an empty "
                    "signal-set store"
                )
            prior = previous.shards if previous is not None else ()
            shards: list[PlaneShard] = []
            registry: dict[str, PlaneShard] = {}
            compiled = 0
            reused = 0
            for position, begin in enumerate(
                range(0, len(slices), self.shard_slices)
            ):
                group = slices[begin : begin + self.shard_slices]
                shard, fresh = self._shard_for(prior, position, group, registry)
                if fresh:
                    compiled += 1
                else:
                    reused += 1
                if shard.shard_id is not None:
                    registry.setdefault(shard.shard_id, shard)
                shards.append(shard)
            bases = np.zeros(len(shards), dtype=np.int64)
            for index, shard in enumerate(shards[:-1]):
                bases[index + 1] = bases[index] + shard.n_slices
            epoch = ShardEpoch(
                shards=tuple(shards),
                bases=tuple(int(v) for v in bases),
                slices=slices,
                generation=(previous.generation + 1) if previous else 1,
                source_generation=source_generation,
            )
        self._registry = registry
        self.last_refresh_compiled = compiled
        self.last_refresh_reused = reused
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.inc("cloud.plane.builds")
            metrics.observe("cloud.plane.build_s", span.elapsed_s)
            metrics.set_gauge("cloud.plane.slices", len(slices))
            metrics.set_gauge("cloud.plane.compiled_bytes", epoch.nbytes)
            metrics.set_gauge("cloud.plane.shard.count", len(shards))
            metrics.inc("cloud.plane.shard.compiled", compiled)
            metrics.inc("cloud.plane.shard.reused", reused)
            if reused:
                metrics.observe(
                    "cloud.plane.shard.delta_compile_s", span.elapsed_s
                )
            else:
                metrics.observe(
                    "cloud.plane.shard.full_compile_s", span.elapsed_s
                )
        return epoch

    def _shard_for(
        self,
        prior: Sequence[PlaneShard],
        position: int,
        group: Sequence[SignalSlice],
        registry: dict[str, PlaneShard],
    ) -> tuple[PlaneShard, bool]:
        """The shard serving ``group``, and whether it was compiled.

        The previous epoch's shard at the same position is taken as is
        when it holds the very same slice objects: the MDB hands back
        the same decoded slices until a document changes, so an
        append-only refresh hashes only the new slices.  Otherwise the
        group's content digest finds a compiled core in this epoch (a
        repeated shard) or in the previous one; a core found for other
        slice objects is shared by a new shard that keeps ``group``.
        """
        if position < len(prior):
            shard = prior[position]
            if shard.shard_id is not None and shard.holds(group):
                return shard, False
        shard_id = shard_id_for(group)
        owner = (
            None
            if shard_id is None
            else registry.get(shard_id) or self._registry.get(shard_id)
        )
        if owner is None:
            return PlaneShard(shard_id, group), True
        if owner.holds(group):
            return owner, False
        return PlaneShard(shard_id, group, core=owner.core), False

    def refresh(self) -> bool:
        """Adopt the backing MDB's current state; True if it moved.

        Delta-compiles: only shards whose content address changed are
        rebuilt, and the new epoch is installed with one assignment —
        in-flight readers holding a pinned epoch are undisturbed.
        """
        if self._mdb is None:
            return False
        if self._mdb.generation == self._epoch.source_generation:
            return False
        self._epoch = self._build_epoch(previous=self._epoch)
        return True

    def pin(self) -> ShardEpoch:
        """The current epoch — capture once per request or batch."""
        return self._epoch

    # -- delegation to the current epoch ------------------------------

    @property
    def generation(self) -> int:
        return self._epoch.generation

    @property
    def source_generation(self) -> int:
        return self._epoch.source_generation

    @property
    def slices(self) -> tuple[SignalSlice, ...]:
        return self._epoch.slices

    @property
    def n_slices(self) -> int:
        return self._epoch.n_slices

    @property
    def n_shards(self) -> int:
        return self._epoch.n_shards

    @property
    def n_samples(self) -> int:
        return self._epoch.n_samples

    @property
    def nbytes(self) -> int:
        return self._epoch.nbytes

    @property
    def registry_size(self) -> int:
        """Content-addressed shards currently held for reuse."""
        return len(self._registry)

    def __len__(self) -> int:
        return self.n_slices
