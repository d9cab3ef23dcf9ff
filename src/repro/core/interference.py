"""Interference sets over a flow set (paper Sections II-III).

Given a :class:`~repro.flows.flowset.FlowSet`, this module computes the
contention geometry every analysis consumes:

* the **contention domain** ``cd_ij = route_i ∩ route_j`` of each flow pair,
  summarised by its size and its position (first/last link order) on each
  of the two routes;
* the **direct interference set** ``S^D_i``: higher-priority flows sharing
  at least one link with τi (Kim et al. / Shi & Burns);
* the **indirect interference set** ``S^I_i``: flows that interfere with a
  member of ``S^D_i`` but not with τi itself;
* Xiong et al.'s partitioning of ``S^I_i ∩ S^D_j`` into the **upstream**
  set ``S^{up_j}_{I_i}`` (τk hits τj before τj meets τi along τj's route)
  and the **downstream** set ``S^{down_j}_{I_i}`` (τk hits τj after).

Internally flows are indexed by priority order (index 0 = highest
priority), so "higher priority than" is simply "smaller index than"; the
public accessors speak flow names.

A structural fact worth noting (asserted in the test suite): every flow in
``S^I_i ∩ S^D_j`` is *strictly* upstream or *strictly* downstream — a flow
whose contention domain with τj overlapped ``cd_ij`` would share a link
with τi and hence be a direct interferer, not an indirect one.

Representation (the analysis kernel's hot path)
-----------------------------------------------
One integer numpy pass builds all pair geometry, at every flow count.
The (flow, link, order-on-route) incidences of all routes are sorted by
link, and each link's users are expanded into the ordered flow pairs that
share it.  Counting each pair's key gives ``|cd_ab|``; the smallest and
largest order those shared links have on the row flow's route give the
span ``lo``/``hi``.  The orders are distinct integers, so the contention
domain is a contiguous run of links **iff** ``hi − lo + 1 == |cd_ab|`` —
the property dimension-order routing guarantees, checked for every
overlapping pair on both of its routes.  All pair geometry lands in flat
n×n tables (``size``/``lo``/``hi`` per route) whose rows become plain
lists on first access, so the per-pair accessors the engine hammers are
O(1) list lookups with no hashing.  ``S^D_i`` is kept both as an index
tuple and as an integer bitmask over flow indices, and the lower-priority
suffix table used by the non-preemptive blocking term is built eagerly
here rather than lazily on first use.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.flows.flowset import FlowSet


class _LazyRows:
    """List-of-lists view over an int matrix, materialised row by row.

    The geometry tables are indexed ``table[i][j]`` all over the hot path;
    converting a numpy matrix to nested lists up front pays for every row,
    but early-exiting analyses only ever touch the rows of flows they
    processed.  This keeps ``table[i]`` returning a plain list (cheap
    scalar indexing afterwards) while deferring each row's conversion to
    its first access.
    """

    __slots__ = ("_matrix", "_rows")

    def __init__(self, matrix):
        self._matrix = matrix
        self._rows: list[list[int] | None] = [None] * len(matrix)

    def __getitem__(self, i: int) -> list[int]:
        row = self._rows[i]
        if row is None:
            row = self._matrix[i].tolist()
            self._rows[i] = row
        return row

    def __len__(self) -> int:
        return len(self._rows)


def _gather_segments(starts, lens):
    """Indices gathering variable-length segments, plus their offsets."""
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    idx = np.repeat(starts - offsets[:-1], lens) + np.arange(
        total, dtype=np.int64
    )
    return idx, offsets


class InterferenceGraph:
    """All pairwise contention geometry and interference sets of a flow set.

    Construction is O(n² + Σ over links of users²); the
    upstream/downstream partitions are computed lazily per (τi, τj) pair
    and cached, since the engine only needs them for pairs where τj
    directly interferes with τi.
    """

    def __init__(self, flowset: FlowSet):
        self.flowset = flowset
        flows = flowset.flows
        self._names = [f.name for f in flows]
        self._index = {f.name: idx for idx, f in enumerate(flows)}
        self._routes = [flowset.route(f.name) for f in flows]
        self._updown_cache: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        routes = self._routes
        n = len(routes)

        # Incidences (flow, link, 1-based order on the flow's route),
        # sorted by link so that each link's users form one run, in
        # ascending flow order.
        lengths = np.fromiter(map(len, routes), dtype=np.int64, count=n)
        total = int(lengths.sum())
        link = np.fromiter(
            chain.from_iterable(routes), dtype=np.int64, count=total
        )
        flow = np.repeat(np.arange(n, dtype=np.int64), lengths)
        order = np.arange(1, total + 1) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        by_link = np.argsort(link, kind="stable")
        link, flow, order = link[by_link], flow[by_link], order[by_link]

        # Pair every incidence with each incidence of its link's run: the
        # ordered flow pairs (row, col) sharing that link, both ways round.
        users = np.bincount(link)
        run_start = np.cumsum(users) - users
        fanout = users[link]
        row = np.repeat(np.arange(total), fanout)
        col, _ = _gather_segments(run_start[link], fanout)
        row_flow, col_flow = flow[row], flow[col]
        distinct = row_flow != col_flow
        key = row_flow[distinct] * n + col_flow[distinct]
        row_order = order[row][distinct]

        # Flat n×n tables: cd size (symmetric) and the first/last orders
        # of cd_ij on flow i's route (row i, column j); 0 means disjoint.
        size = np.bincount(key, minlength=n * n)
        lo = np.full(n * n, total + 1, dtype=np.int64)
        np.minimum.at(lo, key, row_order)
        hi = np.zeros(n * n, dtype=np.int64)
        np.maximum.at(hi, key, row_order)
        shared = size > 0
        lo[~shared] = 0
        # A pair's shared links have distinct orders on the row flow's
        # route, so they are one contiguous run iff hi − lo + 1 == size.
        broken = np.flatnonzero(shared & (hi - lo + 1 != size))
        if broken.size:
            a, b = divmod(int(broken[0]), n)
            self._raise_not_contiguous(min(a, b), max(a, b))
        self._cd_size = _LazyRows(size.reshape(n, n))
        self._cd_lo = _LazyRows(lo.reshape(n, n))
        self._cd_hi = _LazyRows(hi.reshape(n, n))

        # S^D rows: for each flow, the higher-priority (smaller-index)
        # flows it shares links with, ascending, as index tuples and as
        # bitmasks packed from the below-diagonal adjacency rows.
        higher = np.tril(shared.reshape(n, n), -1)
        rows, cols = np.nonzero(higher)
        bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
        cols = cols.tolist()
        self._direct = [tuple(cols[bounds[i]:bounds[i + 1]]) for i in range(n)]
        packed = np.packbits(higher, axis=1, bitorder="little")
        self._direct_masks = [
            int.from_bytes(bits.tobytes(), "little") for bits in packed
        ]

        # Suffix link table for the non-preemptive blocking term: for each
        # flow, how many of its route links are also used by *lower*
        # priority flows, i.e. whose run ends with a larger flow index.
        last_user = flow[run_start[link] + fanout - 1]
        self._lower_shared_counts = np.bincount(
            flow[flow < last_user], minlength=n
        ).tolist()

    def _raise_not_contiguous(self, a: int, b: int) -> None:
        raise ValueError(
            f"contention domain of flows {self._names[a]!r} and "
            f"{self._names[b]!r} is not a contiguous run of links; the "
            "analyses require dimension-order routing"
        )

    def geometry_matrices(self):
        """Dense ``(cd_size, cd_lo, cd_hi)`` as n×n int64 numpy arrays.

        The batched analysis engine (:mod:`repro.core.batch`) derives its
        flat pair/downstream index tables from these with whole-matrix
        algebra instead of per-pair accessor calls.  They are the arrays
        behind the graph's own tables, so callers must not modify them.
        """
        return self._cd_size._matrix, self._cd_lo._matrix, self._cd_hi._matrix

    def compatible_with(self, flowset: FlowSet) -> bool:
        """Is this graph valid for ``flowset``?

        The geometry depends only on flows (priorities, endpoints) and
        routes — *not* on buffer depth or latencies — so one graph can be
        shared across platforms differing only in ``buf``/``linkl``/
        ``routl`` (the paper's IBN2-vs-IBN100 comparisons).
        """
        if flowset is self.flowset:
            return True
        mine = self.flowset.platform
        theirs = flowset.platform
        return (
            self.flowset.flows == flowset.flows
            and mine.topology is theirs.topology
            and type(mine.routing) is type(theirs.routing)
        )

    # -- basic geometry -------------------------------------------------------

    def index(self, name: str) -> int:
        """Priority-order index of a flow (0 = highest priority)."""
        return self._index[name]

    def name(self, index: int) -> str:
        """Flow name at a priority-order index."""
        return self._names[index]

    def cd_size_by_index(self, i: int, j: int) -> int:
        """``|cd_ij|`` — number of shared links (0 when disjoint)."""
        return self._cd_size[i][j]

    def cd_size(self, name_i: str, name_j: str) -> int:
        """``|cd_ij|`` by flow names."""
        return self.cd_size_by_index(self._index[name_i], self._index[name_j])

    def cd_links_by_index(self, i: int, j: int) -> tuple[int, ...]:
        """The contention domain's link ids, ordered along τi's route.

        Needed by the heterogeneous-buffer variant of Equation 6 (per-link
        depths); the homogeneous fast path only uses
        :meth:`cd_size_by_index`.
        """
        if self._cd_size[i][j] == 0:
            return ()
        lo, hi = self._cd_lo[i][j], self._cd_hi[i][j]
        return tuple(self._routes[i][lo - 1:hi])

    def cd_links(self, name_i: str, name_j: str) -> tuple[int, ...]:
        """Contention-domain link ids by flow names."""
        return self.cd_links_by_index(self._index[name_i], self._index[name_j])

    def cd_span_on(self, on: int, other: int) -> tuple[int, int]:
        """(first, last) 1-based orders of ``cd`` links on flow ``on``'s route.

        Raises ``ValueError`` when the two routes are disjoint.
        """
        lo = self._cd_lo[on][other]
        if lo == 0:
            raise ValueError(
                f"flows {self._names[on]!r} and {self._names[other]!r} share no links"
            )
        return lo, self._cd_hi[on][other]

    # -- interference sets ------------------------------------------------------

    def direct_by_index(self, i: int) -> tuple[int, ...]:
        """``S^D_i``: indices of higher-priority flows sharing links with τi."""
        return self._direct[i]

    def lower_priority_shared_links(self, i: int) -> int:
        """Number of τi route links also used by *lower*-priority flows.

        Feeds the non-preemptive blocking term for platforms with
        ``linkl > 1`` (see :mod:`repro.core.engine`): on such platforms a
        higher-priority header can stall behind one in-flight
        lower-priority flit on each of these links.  Precomputed in
        :meth:`_build` from each link's lowest-priority user.
        """
        return self._lower_shared_counts[i]

    @property
    def updown_cache(self) -> dict:
        """The (i, j) → (upstream, downstream) partition memo table.

        Exposed read-mostly so the per-pair analysis code can probe it
        without a method call; fill misses via :meth:`updown_partition`.
        """
        return self._updown_cache

    @property
    def direct_masks(self) -> list[int]:
        """Per-flow ``S^D_i`` as integer bitmasks over flow *indices*.

        Lets the engine test "does τi directly depend on any flow in this
        set?" with one ``&`` against another index bitmask (taint
        propagation); shared by every analysis using this graph.
        """
        return self._direct_masks

    def direct(self, name: str) -> tuple[str, ...]:
        """``S^D_i`` by flow names."""
        return tuple(self._names[j] for j in self._direct[self._index[name]])

    def indirect_by_index(self, i: int) -> tuple[int, ...]:
        """``S^I_i``: flows interfering with ``S^D_i`` members but not τi."""
        direct = self._direct_masks[i]
        indirect = {
            k
            for j in self._direct[i]
            for k in self._direct[j]
            if not direct >> k & 1
        }
        return tuple(sorted(indirect))

    def indirect(self, name: str) -> tuple[str, ...]:
        """``S^I_i`` by flow names."""
        return tuple(self._names[k] for k in self.indirect_by_index(self._index[name]))

    def updown_by_index(
        self, i: int, j: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(S^{up_j}_{I_i}, S^{down_j}_{I_i})`` as index tuples.

        ``j`` must be a direct interferer of ``i``.  A member τk of
        ``S^I_i ∩ S^D_j`` is upstream when its last shared link with τj
        comes before the first link of ``cd_ij`` on τj's route, downstream
        when its first shared link comes after the last link of ``cd_ij``.
        """
        cached = self._updown_cache.get((i, j))
        if cached is not None:
            return cached
        if not self._direct_masks[i] >> j & 1:
            raise ValueError(
                f"{self._names[j]!r} is not a direct interferer of {self._names[i]!r}"
            )
        return self.updown_partition(i, j)

    def updown_partition(
        self, i: int, j: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """:meth:`updown_by_index` without the direct-membership check.

        The engine's analyses call this on every direct (i, j) pair —
        validity is guaranteed by construction there — after first
        probing the memo table themselves (bound on the
        :class:`~repro.core.analyses.base.AnalysisContext`).  Empty
        partitions are memoized too, so repeat queries cost one dict hit.
        """
        cached = self._updown_cache.get((i, j))
        if cached is not None:
            return cached
        masks = self._direct_masks
        members = masks[j] & ~(masks[i] | (1 << i))
        if not members:
            result: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
            self._updown_cache[(i, j)] = result
            return result
        return self._updown_fill(i, j, members)

    def _updown_fill(
        self, i: int, j: int, members: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Compute and cache the partition for a known-direct (i, j) pair.

        ``members`` is ``S^I_i ∩ S^D_j`` as an index bitmask (direct
        interferers of τj that are neither direct interferers of τi nor τi
        itself) — iterating its set bits (ascending, matching the ordering
        of ``S^D_j``) visits only the usually-few members instead of
        scanning all of ``S^D_j``.
        """
        lo_row = self._cd_lo[j]
        hi_row = self._cd_hi[j]
        cd_lo = lo_row[i]
        cd_hi = hi_row[i]
        upstream: list[int] = []
        downstream: list[int] = []
        while members:
            low_bit = members & -members
            k = low_bit.bit_length() - 1
            members ^= low_bit
            if hi_row[k] < cd_lo:
                upstream.append(k)
            elif lo_row[k] > cd_hi:
                downstream.append(k)
            else:
                raise AssertionError(
                    f"flow {self._names[k]!r} overlaps cd("
                    f"{self._names[i]!r}, {self._names[j]!r}) on "
                    f"{self._names[j]!r}'s route yet is not a direct "
                    f"interferer of {self._names[i]!r}; contention domains "
                    "are inconsistent"
                )
        result = (tuple(upstream), tuple(downstream))
        self._updown_cache[(i, j)] = result
        return result

    def upstream(self, name_i: str, name_j: str) -> tuple[str, ...]:
        """``S^{up_j}_{I_i}`` by flow names."""
        up, _ = self.updown_by_index(self._index[name_i], self._index[name_j])
        return tuple(self._names[k] for k in up)

    def downstream(self, name_i: str, name_j: str) -> tuple[str, ...]:
        """``S^{down_j}_{I_i}`` by flow names."""
        _, down = self.updown_by_index(self._index[name_i], self._index[name_j])
        return tuple(self._names[k] for k in down)
