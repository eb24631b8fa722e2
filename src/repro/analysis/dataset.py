"""The analysis dataset: aligned tree sets for every comparable page.

:class:`AnalysisDataset` is what the evaluation sections operate on — the
vetted collection of :class:`~repro.analysis.comparison.PageComparison`
objects (pages crawled successfully by all profiles) plus site metadata
(rank for the popularity buckets).
"""

from __future__ import annotations

import gc
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from ..blocklist.matcher import FilterList
from ..browser.network import RequestRecord
from ..crawler.storage import MeasurementStore, _request_from_row
from ..errors import AnalysisError, InvalidURLError
from ..obs import NULL_OBS, ObsContext
from ..trees.builder import TreeBuilder
from ..trees.tree import DependencyTree
from .comparison import NodeComparison, PageComparison


@dataclass(frozen=True)
class PageEntry:
    """One comparable page: its comparison object and crawl metadata."""

    comparison: PageComparison
    site: str
    site_rank: int

    @property
    def page_url(self) -> str:
        return self.comparison.page_url


class AnalysisDataset:
    """All comparable pages of one measurement run."""

    def __init__(self, entries: Sequence[PageEntry], profiles: Sequence[str]) -> None:
        if not profiles:
            raise AnalysisError("dataset needs profile names")
        self.entries: List[PageEntry] = list(entries)
        self.profiles: List[str] = list(profiles)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_store(
        cls,
        store: MeasurementStore,
        filter_list: Optional[FilterList] = None,
        profiles: Optional[Sequence[str]] = None,
        require_all: bool = True,
        jobs: int = 1,
        obs: Optional[ObsContext] = None,
        include_partial: bool = False,
        requests: Optional[Callable[[int], List[RequestRecord]]] = None,
    ) -> "AnalysisDataset":
        """Build trees for every vetted page and align them.

        This is the paper's pipeline step between crawling and analysis:
        only pages successfully crawled by all profiles are kept.
        ``include_partial`` lets salvaged partial visits stand in for
        missing successes (default: excluded, matching the paper).

        ``jobs > 1`` rebuilds the trees in a process pool, one read-only
        store snapshot per worker, chunking the (sorted) page list
        contiguously so entry order — and every per-page metric — is
        identical to the serial build.  Pool size is clamped so every
        worker gets at least :data:`_MIN_PAGES_PER_JOB` pages; datasets
        too small to amortize a fork fall back to the serial path.

        ``requests(visit_id)`` supplies a visit's request records to the
        serial build (default: :meth:`MeasurementStore.requests_for_visit`);
        :meth:`from_bundle` passes the archived rows.  Pool workers always
        read their store snapshot.
        """
        obs = obs if obs is not None else NULL_OBS
        profile_names = list(profiles) if profiles is not None else store.profiles()
        with obs.tracer.span("dataset", key="dataset") as span:
            pages = (
                store.pages_crawled_by_all(
                    profile_names, include_partial=include_partial
                )
                if require_all
                else store.pages()
            )
            jobs = _effective_jobs(jobs, len(pages))
            if jobs > 1:
                entries = _build_entries_parallel(
                    store,
                    pages,
                    profile_names,
                    filter_list,
                    require_all,
                    jobs,
                    obs,
                    include_partial=include_partial,
                )
            else:
                entries = _build_entries(
                    store,
                    pages,
                    profile_names,
                    filter_list,
                    require_all,
                    obs,
                    include_partial=include_partial,
                    requests=requests,
                )
            span.set("pages", len(pages))
            span.set("entries", len(entries))
            metrics = obs.metrics
            if metrics.enabled:
                metrics.counter("dataset.pages_vetted").inc(len(pages))
                metrics.counter("dataset.entries").inc(len(entries))
        return cls(entries, profile_names)

    @classmethod
    def from_bundle(
        cls,
        bundle,
        filter_list: Optional[FilterList] = None,
        profiles: Optional[Sequence[str]] = None,
        require_all: bool = True,
        jobs: int = 1,
        obs: Optional[ObsContext] = None,
        include_partial: bool = False,
        store: Optional[MeasurementStore] = None,
    ) -> "AnalysisDataset":
        """Build the dataset from a recorded crawl bundle (no live crawl).

        ``bundle`` is a :class:`~repro.bundle.Bundle` or a path to one;
        ``store`` is its replayed store when the caller already holds one
        (default: replay it here).  Vetting reads the store, but the trees
        are built from the archived request rows, so ``http_requests``
        never enters SQLite unless a later read asks for it.  Unless a
        ``filter_list`` is passed, the classification runs on the
        *archived* filter list — the whole point of bundling is that later
        analyses see exactly the artifact the crawl saw.
        """
        from ..bundle import Bundle  # deferred: keeps repro.analysis import-light

        if not isinstance(bundle, Bundle):
            bundle = Bundle.open(bundle)
        obs = obs if obs is not None else NULL_OBS
        if store is None:
            store = bundle.replay(obs=obs)
        if filter_list is None:
            filter_list = FilterList.from_text(bundle.filter_list_text())
        return cls.from_store(
            store,
            filter_list=filter_list,
            profiles=profiles,
            require_all=require_all,
            jobs=jobs,
            obs=obs,
            include_partial=include_partial,
            requests=_ArchivedRequests(bundle),
        )

    @classmethod
    def from_tree_sets(
        cls,
        tree_sets: Sequence[Mapping[str, DependencyTree]],
        site_ranks: Optional[Mapping[str, int]] = None,
    ) -> "AnalysisDataset":
        """Build a dataset directly from per-page tree mappings (tests)."""
        if not tree_sets:
            raise AnalysisError("no tree sets supplied")
        profiles = sorted(tree_sets[0])
        entries = []
        for trees in tree_sets:
            comparison = PageComparison(trees)
            site = _site_of(comparison.page_url)
            rank = (site_ranks or {}).get(site, 1)
            entries.append(PageEntry(comparison=comparison, site=site, site_rank=rank))
        return cls(entries, profiles)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[PageEntry]:
        return iter(self.entries)

    def comparisons(self) -> List[PageComparison]:
        return [entry.comparison for entry in self.entries]

    def iter_nodes(self) -> Iterator[NodeComparison]:
        """Stream every aligned node of every page."""
        for entry in self.entries:
            yield from entry.comparison.nodes()

    def node_count(self) -> int:
        return sum(len(entry.comparison) for entry in self.entries)

    def sites(self) -> Dict[str, int]:
        """Site → rank for all sites in the dataset."""
        return {entry.site: entry.site_rank for entry in self.entries}


def _build_entries(
    store: MeasurementStore,
    pages: Sequence[str],
    profile_names: Sequence[str],
    filter_list: Optional[FilterList],
    require_all: bool,
    obs: ObsContext = NULL_OBS,
    include_partial: bool = False,
    requests: Optional[Callable[[int], List[RequestRecord]]] = None,
) -> List[PageEntry]:
    """The per-page build loop, shared by the serial path and pool workers."""
    builder = TreeBuilder(filter_list=filter_list, obs=obs)
    requests_for = requests if requests is not None else store.requests_for_visit
    entries: List[PageEntry] = []
    with _collector_paused():
        for page_url in pages:
            visits = store.successful_visits_for_page(
                page_url, profile_names, include_partial=include_partial
            )
            if not visits or (require_all and len(visits) != len(profile_names)):
                continue
            trees = {
                profile: builder.build(
                    visit,
                    requests_for(visit.visit_id),
                    allow_partial=include_partial,
                )
                for profile, visit in visits.items()
            }
            visit = next(iter(visits.values()))
            entries.append(
                PageEntry(
                    comparison=PageComparison(trees),
                    site=visit.site,
                    site_rank=visit.site_rank,
                )
            )
    return entries


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a bulk build.

    Everything a dataset build allocates survives it, so each automatic
    full collection would rescan the growing dataset and free nothing.
    The previous state comes back on exit, also when the body raises.
    Nothing is ``gc.freeze()``-d: trees are cyclic through ``parent``
    pointers, so frozen trees could never be freed again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _ArchivedRequests:
    """A bundle's request rows, served per visit to the tree build.

    The ``http_requests`` member is decoded once, on the first call, and
    its rows grouped by ``visit_id`` (physical order is not relied on).
    Each call pops its visit's group and converts only those rows, so no
    visit's records exist before its tree is built and every group is
    released once used; each visit is built once per dataset.
    """

    def __init__(self, bundle) -> None:
        self._bundle = bundle
        self._groups: Optional[Dict[int, List[list]]] = None

    def __call__(self, visit_id: int) -> List[RequestRecord]:
        if self._groups is None:
            self._groups = {}
            for row in self._bundle.table_rows("http_requests"):
                self._groups.setdefault(row[0], []).append(row)
        return [_request_from_row(row) for row in self._groups.pop(visit_id, ())]


@dataclass
class ShardFold:
    """The commutative summand one shard store contributes to a dataset.

    Sites partition pages and every site lives entirely in one shard, so
    per-shard vetting (:meth:`MeasurementStore.pages_crawled_by_all`)
    over a shard store equals that shard's slice of the global vetting —
    folds can be computed independently and combined in any order.
    """

    entries: List[PageEntry] = field(default_factory=list)
    pages_vetted: int = 0
    metrics: Optional[Dict[str, Dict[str, object]]] = None


def fold_shard_store(
    db_path: str,
    profile_names: Sequence[str],
    filter_list: Optional[FilterList] = None,
    require_all: bool = True,
    obs_config=None,
    include_partial: bool = False,
) -> ShardFold:
    """Analyze one finished shard store end-to-end: vet, build, package.

    This is the streaming pipeline's pool-worker entry point (top level,
    picklable arguments): it opens the shard read-only, runs the same
    vetting and tree building the batch path runs over the merged store,
    and returns the shard's :class:`ShardFold`.  Worker telemetry is
    metrics-only (tree building records no spans), exported for the
    parent's commutative merge.
    """
    worker_obs = ObsContext.from_config(obs_config)
    with MeasurementStore.open_readonly(db_path) as store:
        pages = (
            store.pages_crawled_by_all(
                profile_names, include_partial=include_partial
            )
            if require_all
            else store.pages()
        )
        entries = _build_entries(
            store,
            pages,
            profile_names,
            filter_list,
            require_all,
            worker_obs,
            include_partial=include_partial,
        )
    return ShardFold(
        entries=entries,
        pages_vetted=len(pages),
        metrics=(
            worker_obs.metrics.as_dict() if worker_obs.metrics.enabled else None
        ),
    )


class StreamingDataset:
    """A running, commutative fold of per-shard analysis results.

    The streaming pipeline feeds one :class:`ShardFold` per crawl shard —
    in *completion* order, which varies run to run — and
    :meth:`finalize` produces an :class:`AnalysisDataset` byte-identical
    to ``AnalysisDataset.from_store`` over the merged store:

    * entries sort by ``page_url``, the exact global order the batch
      path's ``ORDER BY page_url`` vetting query yields (page URLs are
      unique across shards, so the sort is total);
    * worker metric exports merge commutatively, so the registry equals
      a serial build's regardless of fold order;
    * the ``dataset`` span and its counters are emitted at finalize
      time, in the batch path's canonical position.
    """

    def __init__(
        self,
        profile_names: Sequence[str],
        obs: Optional[ObsContext] = None,
    ) -> None:
        if not profile_names:
            raise AnalysisError("streaming dataset needs profile names")
        self.profile_names = list(profile_names)
        self.obs = obs if obs is not None else NULL_OBS
        self._entries: List[PageEntry] = []
        self._pages_vetted = 0
        self._metric_exports: List[Dict[str, Dict[str, object]]] = []
        self._folds = 0
        self._finalized = False

    @property
    def folds(self) -> int:
        """How many shard folds have been absorbed so far."""
        return self._folds

    @property
    def pages_vetted(self) -> int:
        return self._pages_vetted

    def fold(self, result: ShardFold) -> None:
        """Absorb one shard's contribution (any order; commutative)."""
        if self._finalized:
            raise AnalysisError("streaming dataset is already finalized")
        self._entries.extend(result.entries)
        self._pages_vetted += result.pages_vetted
        if result.metrics:
            self._metric_exports.append(result.metrics)
        self._folds += 1

    def finalize(self) -> AnalysisDataset:
        """Seal the fold into a batch-identical :class:`AnalysisDataset`."""
        if self._finalized:
            raise AnalysisError("streaming dataset is already finalized")
        self._finalized = True
        obs = self.obs
        with obs.tracer.span("dataset", key="dataset") as span:
            self._entries.sort(key=lambda entry: entry.page_url)
            obs.metrics.merge_all(self._metric_exports)
            span.set("pages", self._pages_vetted)
            span.set("entries", len(self._entries))
            metrics = obs.metrics
            if metrics.enabled:
                metrics.counter("dataset.pages_vetted").inc(self._pages_vetted)
                metrics.counter("dataset.entries").inc(len(self._entries))
        return AnalysisDataset(self._entries, self.profile_names)


def _build_entries_parallel(
    store: MeasurementStore,
    pages: Sequence[str],
    profile_names: Sequence[str],
    filter_list: Optional[FilterList],
    require_all: bool,
    jobs: int,
    obs: ObsContext = NULL_OBS,
    include_partial: bool = False,
) -> List[PageEntry]:
    """Fan the page list out to a process pool over read-only snapshots."""
    snapshot: Optional[str] = None
    if store.path == ":memory:" or store.readonly:
        # Workers cannot share the parent's connection; snapshot to disk.
        handle, snapshot = tempfile.mkstemp(prefix="repro-dataset-", suffix=".sqlite")
        os.close(handle)
        store.snapshot_to(snapshot)
        db_path = snapshot
    else:
        # Workers open the live path over *fresh* connections, which see
        # only committed, checkpointed state — publish any pending batch
        # first or the pool analyzes a store missing it.
        store.flush()
        db_path = store.path
    chunks = _chunked(list(pages), jobs)
    obs_config = obs.config()
    chunk_entries: List[Optional[List[PageEntry]]] = [None] * len(chunks)
    try:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = {
                pool.submit(
                    _build_entries_worker,
                    (
                        db_path,
                        chunk,
                        list(profile_names),
                        filter_list,
                        require_all,
                        obs_config,
                        include_partial,
                    ),
                ): index
                for index, chunk in enumerate(chunks)
            }
            # No barrier: each chunk's metrics fold in as it completes
            # (the merge is commutative, so completion order cannot show
            # in the registry) and entry order is restored by chunk
            # index, keeping the result identical to the serial build.
            for future in as_completed(futures):
                index = futures[future]
                entries, metrics = future.result()
                chunk_entries[index] = entries
                if metrics:
                    obs.metrics.merge(metrics)
    finally:
        if snapshot is not None:
            os.unlink(snapshot)
    return [entry for entries in chunk_entries for entry in entries]


def _build_entries_worker(args):
    (
        db_path,
        pages,
        profile_names,
        filter_list,
        require_all,
        obs_config,
        include_partial,
    ) = args
    worker_obs = ObsContext.from_config(obs_config)
    with MeasurementStore.open_readonly(db_path) as store:
        entries = _build_entries(
            store,
            pages,
            profile_names,
            filter_list,
            require_all,
            worker_obs,
            include_partial=include_partial,
        )
    metrics = worker_obs.metrics.as_dict() if worker_obs.metrics.enabled else None
    return entries, metrics


#: Minimum pages a pool worker must receive for a fork to pay off; below
#: ``2 × this`` the build runs serially (process start-up dominates tree
#: building for a handful of pages).
_MIN_PAGES_PER_JOB = 4


def _effective_jobs(jobs: int, page_count: int) -> int:
    """Clamp ``jobs`` so each worker gets ``>= _MIN_PAGES_PER_JOB`` pages."""
    return min(jobs, page_count // _MIN_PAGES_PER_JOB)


def _chunked(items: List[str], jobs: int) -> List[List[str]]:
    """Split ``items`` into at most ``jobs`` contiguous, balanced chunks."""
    count = min(jobs, len(items))
    size, remainder = divmod(len(items), count)
    chunks: List[List[str]] = []
    start = 0
    for index in range(count):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(items[start:end])
        start = end
    return [chunk for chunk in chunks if chunk]


def _site_of(page_url: str) -> str:
    """The site (registrable domain) a page URL belongs to.

    Routed through the shared URL model so ``user:pw@`` and ``:port``
    never leak into site keys — the hand parser this replaces kept both,
    splitting one site's pages into distinct groups the moment any URL
    carried credentials or an explicit port.  Inputs the strict parser
    rejects (bare hosts, odd schemes in test fixtures) degrade to the
    same host-isolation steps before the PSL lookup.
    """
    from ..web import psl
    from ..web.url import URL

    try:
        url = URL.parse(page_url)
    except InvalidURLError:
        scheme_sep = page_url.find("://")
        host = page_url[scheme_sep + 3 :] if scheme_sep >= 0 else page_url
        for stop in ("/", "?", "#"):
            index = host.find(stop)
            if index >= 0:
                host = host[:index]
        host = host.rsplit("@", 1)[-1]
        host = host.split(":", 1)[0].lower()
        return psl.registrable_domain(host) or host
    return url.site or url.host
