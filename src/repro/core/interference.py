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

Representation: one sparse pair table
-------------------------------------
One integer numpy pass builds all pair geometry, at every flow count.
The (flow, link, order-on-route) incidences of all routes are sorted by
link, and each incidence is paired with the higher-priority users of its
link; sorting those incidence pairs by flow pair groups each pair's
shared links.  The result is **one pair table** with a row per pair of
flows that share a link — (τi, τj) with τj ∈ S^D_i, grouped by τi
(``pair_offsets``, CSR) with τj ascending.  Each row carries ``|cd_ij|``
and the first/last order of cd_ij on *both* routes.  The orders are
distinct integers, so the contention domain is a contiguous run of links
**iff** ``hi − lo + 1 == |cd_ij|`` — the property dimension-order
routing guarantees, checked for every row on both routes.

Each row also carries its downstream run ``S^{down_j}_{I_i}`` (the rows
of the pairs (τj, τk), so per-pair quantities recorded at level j can be
gathered directly) and whether ``S^{up_j}_{I_i}`` is nonempty: the
candidates of row (τi, τj) are exactly τj's own rows, enumerated in
bounded chunks.  The batch engine stacks these arrays as they are; the
scalar accessors read them through plain lists built on first scalar
use.  Memory grows with the pairs that share a link, never with n².
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain

import numpy as np

from repro.flows.flowset import FlowSet

#: Candidate (τi, τj, τk) triples examined per step of the downstream
#: enumeration; bounds its temporaries whatever the flow count.
_CANDIDATE_CHUNK = 1 << 18
#: Longest route the int16 span columns can number (orders are 1-based).
_ORDER_MAX = np.iinfo(np.int16).max
#: Most downstream entries one graph may hold: its run offsets are int32.
_ENTRY_MAX = np.iinfo(np.int32).max


def _gather_segments(starts, lens):
    """Indices gathering variable-length segments, plus their offsets."""
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    idx = np.repeat(starts - offsets[:-1], lens)
    idx += np.arange(total, dtype=np.int64)
    return idx, offsets


class InterferenceGraph:
    """All pairwise contention geometry and interference sets of a flow set.

    The pair table (module docstring) is a set of read-only numpy arrays,
    one entry per row (τi, τj ∈ S^D_i) unless noted:

    * ``pair_i``/``pair_j``: the row's flows, rows sorted by τi then τj;
      ``pair_offsets`` (n + 1): τi's rows are ``pair_offsets[i]`` up to
      ``pair_offsets[i + 1]``;
    * ``pair_size``: ``|cd_ij|``; ``pair_lo_i``/``pair_hi_i`` and
      ``pair_lo_j``/``pair_hi_j``: cd_ij's first/last 1-based order on
      τi's and on τj's route;
    * ``down_offsets`` (rows + 1) and ``down_pair``: each row's
      downstream run, as rows (τj, τk); ``up_nonempty``: is
      ``S^{up_j}_{I_i}`` nonempty;
    * ``lower_counts`` (n): route links each flow shares with a
      lower-priority flow.

    ``pair_size`` and the spans are int16 (an order is at most its
    route's length, :data:`_ORDER_MAX`), the other row and run columns
    int32 (:data:`_ENTRY_MAX`): 23 bytes per row, 4 per downstream
    entry.  Widen a narrow column before any product (NEP 50).
    """

    def __init__(self, flowset: FlowSet):
        self.flowset = flowset
        flows = flowset.flows
        self._names = [f.name for f in flows]
        self._index = {f.name: idx for idx, f in enumerate(flows)}
        self._routes = [flowset.route(f.name) for f in flows]
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        routes = self._routes
        n = len(routes)

        # Incidences (flow, link, 1-based order on the flow's route) in
        # flow-major order.  Sorted by link, each link's users form one
        # run in ascending flow order, so an incidence's rank in its run
        # counts the higher-priority users of its link.
        lengths = np.fromiter(map(len, routes), dtype=np.int64, count=n)
        if n and lengths.max() > _ORDER_MAX:
            raise ValueError(
                f"route of flow {self._names[int(lengths.argmax())]!r} has "
                f"{lengths.max()} links; the limit is {_ORDER_MAX}"
            )
        total = int(lengths.sum())
        link = np.fromiter(
            chain.from_iterable(routes), dtype=np.int64, count=total
        )
        flow = np.repeat(np.arange(n, dtype=np.int64), lengths)
        order = np.arange(1, total + 1) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        by_link = np.argsort(link, kind="stable")
        users = np.bincount(link)
        run_start = np.cumsum(users) - users
        rank = np.empty(total, dtype=np.int64)
        rank[by_link] = np.arange(total) - run_start[link[by_link]]

        # Suffix link table for the non-preemptive blocking term: for each
        # flow, how many of its route links are also used by *lower*
        # priority flows, i.e. whose run ends with a larger flow index.
        last_user = flow[by_link][(run_start + users - 1)[link]]
        self.lower_counts = np.bincount(
            flow[flow < last_user], minlength=n
        )

        # Pair each incidence of τi with every higher-priority incidence
        # of its link.  Generated τi by τi in route order, so a stable
        # sort by flow pair keeps each pair's orders on τi's route
        # ascending: its first and last entries are the span on τi.
        row = np.repeat(np.arange(total), rank)
        col, _ = _gather_segments(run_start[link], rank)
        col = by_link[col]
        key = flow[row] * n + flow[col]
        by_pair = np.argsort(key, kind="stable")
        key = key[by_pair]
        row_order = order[row[by_pair]]
        col_order = order[col[by_pair]]
        del row, col, by_pair
        first = np.flatnonzero(np.diff(key, prepend=-1))
        size = np.diff(first, append=len(key))
        last = first + size - 1
        pair_i, pair_j = np.divmod(key[first], n)
        lo_i, hi_i = row_order[first], row_order[last]
        if len(first):
            lo_j = np.minimum.reduceat(col_order, first)
            hi_j = np.maximum.reduceat(col_order, first)
        else:
            lo_j = hi_j = col_order
        # A route that repeats a link pairs a flow with itself: not a pair.
        distinct = pair_i != pair_j
        if not distinct.all():
            pair_i, pair_j, size = pair_i[distinct], pair_j[distinct], size[distinct]
            lo_i, hi_i = lo_i[distinct], hi_i[distinct]
            lo_j, hi_j = lo_j[distinct], hi_j[distinct]

        # A pair's shared links have distinct orders on each route, so
        # they are one contiguous run iff hi − lo + 1 == size.  Name the
        # broken pair whose (route flow, other flow) comes first.
        broken_i = hi_i - lo_i + 1 != size
        broken_j = hi_j - lo_j + 1 != size
        broken = np.flatnonzero(broken_i | broken_j)
        if broken.size:
            first_key = np.where(
                broken_j, pair_j * n + pair_i, pair_i * n + pair_j
            )[broken]
            at = broken[np.argmin(first_key)]
            self._raise_not_contiguous(int(pair_j[at]), int(pair_i[at]))

        self.pair_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair_i, minlength=n), out=self.pair_offsets[1:])
        self.pair_i = pair_i.astype(np.int32)
        self.pair_j = pair_j.astype(np.int32)
        self.pair_size = size.astype(np.int16)
        self.pair_lo_i = lo_i.astype(np.int16)
        self.pair_hi_i = hi_i.astype(np.int16)
        self.pair_lo_j = lo_j.astype(np.int16)
        self.pair_hi_j = hi_j.astype(np.int16)
        self._partition()

    def _partition(self) -> None:
        """Every row's downstream run and upstream-nonempty flag.

        The candidates τk of row (τi, τj) are τj's own rows (τj, τk).  On
        τj's route, a τk whose cd with τj overlaps cd_ij shares that link
        with τi, so it is in S^D_i and in neither set; the others are
        members of ``S^I_i ∩ S^D_j`` unless τk ∈ S^D_i, which a dense
        boolean block over the chunk's rows answers.  Rows are taken in
        chunks of at most :data:`_CANDIDATE_CHUNK` candidates.
        """
        offsets, pair_i, pair_j = self.pair_offsets, self.pair_i, self.pair_j
        lo_i, hi_i = self.pair_lo_i, self.pair_hi_i
        n = len(offsets) - 1
        num_pairs = len(pair_j)
        cand_lens = np.diff(offsets)[pair_j]
        pair_cands = np.zeros(num_pairs + 1, dtype=np.int64)
        np.cumsum(cand_lens, out=pair_cands[1:])
        row_cands = pair_cands[offsets]
        max_rows = max(1, _CANDIDATE_CHUNK // max(n, 1))
        down_parts = []
        down_counts = np.zeros(num_pairs, dtype=np.int64)
        up_nonempty = np.zeros(num_pairs, dtype=bool)
        stop = 0
        while stop < n:
            start = stop
            stop = int(np.searchsorted(
                row_cands, row_cands[start] + _CANDIDATE_CHUNK, side="right"
            )) - 1
            stop = min(max(stop, start + 1), start + max_rows, n)
            p0, p1 = int(offsets[start]), int(offsets[stop])
            lens = cand_lens[p0:p1]
            cand, _ = _gather_segments(offsets[pair_j[p0:p1]], lens)
            if not cand.size:
                continue
            owner = np.repeat(np.arange(p0, p1), lens)
            after = lo_i[cand] > np.repeat(self.pair_hi_j[p0:p1], lens)
            before = hi_i[cand] < np.repeat(self.pair_lo_j[p0:p1], lens)
            outside = np.flatnonzero(after | before)
            direct = np.zeros((stop - start, n), dtype=bool)
            direct[pair_i[p0:p1] - start, pair_j[p0:p1]] = True
            owner_out = owner[outside]
            member = ~direct[pair_i[owner_out] - start, pair_j[cand[outside]]]
            down = outside[member & after[outside]]
            down_parts.append(cand[down].astype(np.int32))
            down_counts[p0:p1] = np.bincount(owner[down] - p0,
                                             minlength=p1 - p0)
            up_nonempty[owner_out[member & before[outside]]] = True
        entries = int(down_counts.sum())
        if entries > _ENTRY_MAX:
            raise ValueError(
                f"interference graph too large: {entries} downstream "
                f"entries, the limit is {_ENTRY_MAX}"
            )
        self.down_offsets = np.zeros(num_pairs + 1, dtype=np.int32)
        np.cumsum(down_counts, out=self.down_offsets[1:])
        self.down_pair = np.concatenate(
            [np.empty(0, dtype=np.int32), *down_parts]
        )
        self.up_nonempty = up_nonempty

    def _raise_not_contiguous(self, a: int, b: int) -> None:
        raise ValueError(
            f"contention domain of flows {self._names[a]!r} and "
            f"{self._names[b]!r} is not a contiguous run of links; the "
            "analyses require dimension-order routing"
        )

    @cached_property
    def any_direct_upstream(self):
        """Per row (τi, τj): does any τk ∈ S^D_j hit τj strictly upstream
        of cd_ij on τj's route?  Only IBN's non-default
        ``upstream_rule="any_upstream"`` ablation reads this."""
        first_end = np.full(len(self._names), np.iinfo(np.int32).max,
                            dtype=np.int32)
        np.minimum.at(first_end, self.pair_i, self.pair_hi_i)
        return first_end[self.pair_j] < self.pair_lo_j

    @cached_property
    def waves(self):
        """Per flow: its dependency wave, 0 when ``S^D_i`` is empty, else
        one more than the deepest wave in ``S^D_i``.  τi's recurrence
        reads only what its direct interferers produced, so a wave's
        flows can all be solved once every earlier wave is."""
        cols = self.pair_j.tolist()
        bounds = self.pair_offsets.tolist()
        waves = [0] * (len(bounds) - 1)
        wave_of = waves.__getitem__
        for i in range(len(waves)):
            lo, hi = bounds[i], bounds[i + 1]
            if lo < hi:
                waves[i] = 1 + max(map(wave_of, cols[lo:hi]))
        return np.asarray(waves, dtype=np.int32)

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

    # -- list views for the scalar engine ------------------------------------

    @cached_property
    def _direct(self) -> list[tuple[int, ...]]:
        cols = self.pair_j.tolist()
        bounds = self._row_base
        return [
            tuple(cols[bounds[i]:bounds[i + 1]]) for i in range(len(bounds) - 1)
        ]

    @cached_property
    def _row_base(self) -> list[int]:
        return self.pair_offsets.tolist()

    @cached_property
    def _sizes(self) -> list[int]:
        return self.pair_size.tolist()

    @cached_property
    def downstream_runs(self) -> list[tuple[int, ...]]:
        """``S^{down_j}_{I_i}`` of every pair-table row, as index tuples."""
        ks = self.pair_j[self.down_pair].tolist()
        bounds = self.down_offsets.tolist()
        return [
            tuple(ks[bounds[p]:bounds[p + 1]]) for p in range(len(bounds) - 1)
        ]

    @cached_property
    def upstream_flags(self) -> list[bool]:
        """Is ``S^{up_j}_{I_i}`` nonempty, per pair-table row."""
        return self.up_nonempty.tolist()

    @cached_property
    def direct_masks(self) -> list[int]:
        """Per-flow ``S^D_i`` as integer bitmasks over flow *indices*.

        Lets the engine test "does τi directly depend on any flow in this
        set?" with one ``&`` against another index bitmask (taint
        propagation); shared by every analysis using this graph.
        """
        n = len(self._names)
        width = (n + 7) // 8
        packed = np.zeros((n, width), dtype=np.uint8)
        # Each (τi, τj) is one distinct bit, so adding sets it.
        np.add.at(
            packed, (self.pair_i, self.pair_j >> 3),
            np.left_shift(1, self.pair_j & 7).astype(np.uint8),
        )
        return [int.from_bytes(bits.tobytes(), "little") for bits in packed]

    # -- basic geometry -------------------------------------------------------

    def index(self, name: str) -> int:
        """Priority-order index of a flow (0 = highest priority)."""
        return self._index[name]

    def name(self, index: int) -> str:
        """Flow name at a priority-order index."""
        return self._names[index]

    def pair_row(self, i: int, j: int) -> int:
        """Pair-table row of (τi, τj) for ``j < i``; -1 when disjoint."""
        row = self._direct[i]
        pos = bisect_left(row, j)
        if pos < len(row) and row[pos] == j:
            return self._row_base[i] + pos
        return -1

    def cd_size_by_index(self, i: int, j: int) -> int:
        """``|cd_ij|`` — number of shared links (0 when disjoint)."""
        p = self.pair_row(i, j) if i > j else self.pair_row(j, i)
        return self._sizes[p] if p >= 0 else 0

    def cd_size(self, name_i: str, name_j: str) -> int:
        """``|cd_ij|`` by flow names."""
        return self.cd_size_by_index(self._index[name_i], self._index[name_j])

    def cd_links_by_index(self, i: int, j: int) -> tuple[int, ...]:
        """The contention domain's link ids, ordered along τi's route.

        Needed by the heterogeneous-buffer variant of Equation 6 (per-link
        depths); the homogeneous fast path only uses
        :meth:`cd_size_by_index`.
        """
        if self.cd_size_by_index(i, j) == 0:
            return ()
        lo, hi = self.cd_span_on(i, j)
        return tuple(self._routes[i][lo - 1:hi])

    def cd_links(self, name_i: str, name_j: str) -> tuple[int, ...]:
        """Contention-domain link ids by flow names."""
        return self.cd_links_by_index(self._index[name_i], self._index[name_j])

    def cd_span_on(self, on: int, other: int) -> tuple[int, int]:
        """(first, last) 1-based orders of ``cd`` links on flow ``on``'s route.

        Raises ``ValueError`` when the two routes are disjoint.
        """
        if on > other:
            p, lo, hi = self.pair_row(on, other), self.pair_lo_i, self.pair_hi_i
        else:
            p, lo, hi = self.pair_row(other, on), self.pair_lo_j, self.pair_hi_j
        if p < 0:
            raise ValueError(
                f"flows {self._names[on]!r} and {self._names[other]!r} share no links"
            )
        return int(lo[p]), int(hi[p])

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
        return int(self.lower_counts[i])

    def direct(self, name: str) -> tuple[str, ...]:
        """``S^D_i`` by flow names."""
        return tuple(self._names[j] for j in self._direct[self._index[name]])

    def indirect_by_index(self, i: int) -> tuple[int, ...]:
        """``S^I_i``: flows interfering with ``S^D_i`` members but not τi."""
        direct = self.direct_masks[i]
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
        The downstream run is the pair table's; the upstream set, which
        only XLW16 and the explain report list, is derived here.
        """
        p = self.pair_row(i, j) if i > j else -1
        if p < 0:
            raise ValueError(
                f"{self._names[j]!r} is not a direct interferer of {self._names[i]!r}"
            )
        upstream = ()
        if self.upstream_flags[p]:
            q0, q1 = self._row_base[j], self._row_base[j + 1]
            before = self.pair_hi_i[q0:q1] < self.pair_lo_j[p]
            direct = self.direct_masks[i]
            upstream = tuple(
                k for k in self.pair_j[q0:q1][before].tolist()
                if not direct >> k & 1
            )
        return upstream, self.downstream_runs[p]

    def upstream(self, name_i: str, name_j: str) -> tuple[str, ...]:
        """``S^{up_j}_{I_i}`` by flow names."""
        up, _ = self.updown_by_index(self._index[name_i], self._index[name_j])
        return tuple(self._names[k] for k in up)

    def downstream(self, name_i: str, name_j: str) -> tuple[str, ...]:
        """``S^{down_j}_{I_i}`` by flow names."""
        _, down = self.updown_by_index(self._index[name_i], self._index[name_j])
        return tuple(self._names[k] for k in down)
