"""The backend seam: pluggable compiled kernels for the hot paths.

A *backend* optionally accelerates the hot loops with compiled code:

* ``run_levels`` — the batch engine's whole wave loop (the cut, window
  jitters, downstream terms, fixed points, totals, the early-exit
  frontier) over the wave-major slot arrays
  :func:`repro.core.batch.analyze_batch` builds;
* ``sim_run`` — the wormhole simulator's event-deque drain over the flat
  :class:`~repro.sim.network.NetworkState` arrays.

Both hooks are *optional*: a backend exposing ``None`` for a kernel
leaves the caller on its built-in numpy/Python path.  The ``numpy``
backend (the default) provides no kernels at all — it *is* the built-in
path; ``cext`` loads the C library built from ``core/_kernels.c`` (see
:mod:`repro.core._cbuild`).

**Byte-identity is the contract.**  Every kernel must produce results
byte-identical to the built-in path (the equivalence suites are
parametrized over all available backends), which is what makes silent
fallback safe: selecting an unavailable backend degrades to numpy with
a single warning and *identical* results, differing only in speed.

Selection order: an explicit :func:`set_backend` call beats the
``REPRO_BACKEND`` environment variable beats the default (``numpy``).
``set_backend`` also writes ``REPRO_BACKEND`` back into ``os.environ``
so worker processes — forked *or* spawned — inherit the choice; the
campaign scheduler additionally ships the name inside each job block
(see DESIGN.md, "Backend seam") so late-joining pool workers agree.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from ctypes import c_int64, c_void_p

import numpy as _np

ENV_VAR = "REPRO_BACKEND"
DEFAULT_NAME = "numpy"


class Backend:
    """One named backend; subclasses attach compiled kernels.

    ``run_levels`` / ``sim_run`` are either ``None`` (use the caller's
    built-in path) or callables with the contracts described on
    :class:`CextBackend`.
    """

    name = "base"
    run_levels = None
    sim_run = None

    def available(self) -> bool:
        """Can this backend serve kernels right now (probing may build)?"""
        return True

    def detail(self) -> str:
        """One-line availability/build status for diagnostics."""
        return "built-in numpy/Python paths"


class NumpyBackend(Backend):
    """The default: the pure numpy/Python implementations themselves."""

    name = "numpy"


_I64, _I32, _I8, _BOOL = _np.int64, _np.int32, _np.int8, _np.bool_

#: ``repro_run_levels``' array arguments in C order, by dtype.
_RUN_LEVELS_DTYPES = (
    _I64,                                 # lparams
    _I64, _I64, _I64, _I64, _I64, _I64,   # wave_slot_bounds .. slot_counts,
                                          # wave_pair_bounds
    _I32, _I8, _BOOL, _I64, _BOOL,        # pair_j_slot .. pair_use_bound
    _I64, _I32,                           # down_offsets, down_pair
    _I64, _I64, _I64, _I64, _I64, _I64,   # C T J D BLK GIVE
    _I64, _BOOL, _BOOL, _I64, _I64,       # R CONV TAINT totals hitcost
    _I64, _I64,                           # fail_level slot_iters
    _I64, _I64, _I64,                     # scr_wj scr_T scr_cost
)


class CextBackend(Backend):
    """C kernels from ``_kernels.c``, loaded via ctypes on first use.

    The first availability probe locates a prebuilt artifact or compiles
    the source on demand (:func:`repro.core._cbuild.load`); failure is
    remembered and reported, never raised past :func:`get_backend`.
    """

    name = "cext"

    def __init__(self, loader=None):
        self._loader = loader
        self._lib = None
        self._artifact = None
        self._error: str | None = None
        self._probed = False

    # -- availability ------------------------------------------------------

    def available(self) -> bool:
        if not self._probed:
            self._probed = True
            try:
                loader = self._loader
                if loader is None:
                    from repro.core import _cbuild
                    loader = _cbuild.load
                self._lib, self._artifact = loader()
                self._declare()
            except Exception as exc:  # noqa: BLE001 - report, not raise
                self._lib = None
                self._error = str(exc)
        return self._lib is not None

    def detail(self) -> str:
        if not self._probed:
            return "not probed yet"
        if self._lib is not None:
            return f"loaded {self._artifact}"
        return f"unavailable: {self._error}"

    def _declare(self) -> None:
        lib = self._lib
        lib.repro_run_levels.restype = None
        lib.repro_run_levels.argtypes = [
            _np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")
            for dtype in _RUN_LEVELS_DTYPES
        ]
        lib.repro_sim_run.restype = c_int64
        lib.repro_sim_run.argtypes = [c_void_p] * 47

    # -- kernel: the whole wave loop ---------------------------------------

    def run_levels(
        self, *, num_waves, early_exit,
        wave_slot_bounds, slot_perm, slot_scn, slot_level, slot_counts,
        wave_pair_bounds, pair_j_slot, pair_mode, pair_fallback,
        pair_bi, pair_use_bound, down_offsets, down_pair,
        C, T, J, D, BLK, GIVE,
        R, CONV, TAINT, totals, hitcost,
        fail_level, slot_iters,
    ) -> None:
        """Run the batch engine's entire wave loop in C.

        The twin of :func:`repro.core.batch._run_levels`, with the same
        keywords: slots and pair rows come wave-major, one contiguous
        slice per dependency wave, and C walks them in that order.  It
        mutates the dynamic state (``R``/``CONV``/``TAINT``/``totals``/
        ``hitcost``, the per-scenario ``fail_level`` frontier and the
        per-slot ``slot_iters``) in place; every row up to a scenario's
        first miss is byte-identical to numpy's, and the batch derives
        truncation and iteration totals from the frontier alone.
        Every argument is a C-contiguous array of the dtype
        :data:`_RUN_LEVELS_DTYPES` gives it (ctypes rejects any other):
        int64 throughout, except int32 ``pair_j_slot`` and
        ``down_pair``, int8 ``pair_mode`` and the boolean flags.
        """
        from repro.util.mathx import MAX_ITERATIONS

        max_cnt = int(slot_counts.max()) if len(slot_counts) else 0
        scr_wj = _np.empty(max(max_cnt, 1), dtype=_np.int64)
        scr_T = _np.empty(max(max_cnt, 1), dtype=_np.int64)
        scr_cost = _np.empty(max(max_cnt, 1), dtype=_np.int64)
        lparams = _np.asarray(
            [num_waves, int(bool(early_exit)), MAX_ITERATIONS],
            dtype=_np.int64,
        )
        arrays = (
            lparams, wave_slot_bounds, slot_perm, slot_scn, slot_level,
            slot_counts, wave_pair_bounds, pair_j_slot, pair_mode,
            pair_fallback, pair_bi, pair_use_bound, down_offsets, down_pair,
            C, T, J, D, BLK, GIVE,
            R, CONV, TAINT, totals, hitcost,
            fail_level, slot_iters,
            scr_wj, scr_T, scr_cost,
        )
        self._lib.repro_run_levels(*arrays)

    # -- kernel: simulator event loop --------------------------------------

    def _sim_static(self, tables):
        """Flat numpy mirrors of one flow set's SimTables, cached on it."""
        bundle = tables.cext
        if bundle is not None:
            return bundle
        nf, nl = tables.num_flows, tables.num_links
        ring_off = _np.full(nl * nf, -1, dtype=_np.int64)
        total = 0
        for slot in tables.route_slots:
            ring_off[slot] = total
            total += tables.capacity[slot // nf]
        bundle = {
            "next_of": _np.asarray(tables.next_of, dtype=_np.int32),
            "first_link": _np.asarray(tables.first_link, dtype=_np.int32),
            "priority": _np.asarray(tables.priority_of, dtype=_np.int64),
            "is_local": _np.asarray(tables.is_local, dtype=_np.uint8),
            "capacity": _np.asarray(tables.capacity, dtype=_np.int32),
            "ejection": _np.asarray(tables.ejection, dtype=_np.uint8),
            "buffered": _np.asarray(tables.buffered, dtype=_np.uint8),
            "credit_template": _np.asarray(
                tables.credit_template, dtype=_np.int64
            ),
            "ring_off": ring_off,
            "ring_total": total,
        }
        tables.cext = bundle
        return bundle

    def sim_run(self, tables, pending, *, linkl, routl, credit_delay,
                drain_limit):
        """Drain the whole event loop in C.

        ``pending`` is the simulator's globally sorted release list
        (packet id = list index).  Returns the run's observables as flat
        arrays/ints, or ``None`` when the kernel declined (a ring bound
        tripped — the caller replays the pure-Python loop); raises the
        simulator's stall :class:`AssertionError` on an arbitration bug,
        exactly like the Python path.
        """
        st = self._sim_static(tables)
        nf, nl = tables.num_flows, tables.num_links
        npk = len(pending)
        rel_time = _np.fromiter(
            (p.release_time for p in pending), dtype=_np.int64, count=npk
        )
        rel_flow = _np.fromiter(
            (p.flow_index for p in pending), dtype=_np.int32, count=npk
        )
        rel_len = _np.fromiter(
            (p.length for p in pending), dtype=_np.int32, count=npk
        )
        per_flow = _np.bincount(rel_flow, minlength=nf) if npk else (
            _np.zeros(nf, dtype=_np.int64)
        )
        srcq_off = _np.zeros(nf + 1, dtype=_np.int64)
        _np.cumsum(per_flow, out=srcq_off[1:])
        src_head = srcq_off[:-1].copy()
        src_push = srcq_off[:-1].copy()

        arrive_cap = nl + 2
        credit_cap = max(nl * (credit_delay + 2) + 16, 1)
        wake_cap = max(routl, 0) + 3
        cand_cap = nl * nf + nf + 1
        params = _np.zeros(16, dtype=_np.int64)
        params[0:11] = (
            nf, nl, npk, linkl, routl, credit_delay, drain_limit,
            arrive_cap, credit_cap, wake_cap, cand_cap,
        )

        credits = st["credit_template"].copy()
        ring_ready = _np.zeros(max(st["ring_total"], 1), dtype=_np.int64)
        ring_fidx = _np.zeros(max(st["ring_total"], 1), dtype=_np.int32)
        ring_pkt = _np.zeros(max(st["ring_total"], 1), dtype=_np.int32)
        buf_head = _np.zeros(nl * nf, dtype=_np.int32)
        buf_len = _np.zeros(nl * nf, dtype=_np.int32)
        arr_time = _np.zeros(arrive_cap, dtype=_np.int64)
        arr_out = _np.zeros(arrive_cap, dtype=_np.int32)
        arr_flow = _np.zeros(arrive_cap, dtype=_np.int32)
        arr_fidx = _np.zeros(arrive_cap, dtype=_np.int32)
        arr_pkt = _np.zeros(arrive_cap, dtype=_np.int32)
        cr_time = _np.zeros(credit_cap, dtype=_np.int64)
        cr_slot = _np.zeros(credit_cap, dtype=_np.int64)
        wk_time = _np.zeros(wake_cap, dtype=_np.int64)
        srcq = _np.zeros(max(npk, 1), dtype=_np.int32)
        injected = _np.zeros(nf, dtype=_np.int32)
        occ_list = _np.zeros(nl * nf, dtype=_np.int32)
        occ_pos = _np.full(nl * nf, -1, dtype=_np.int32)
        act_list = _np.zeros(nf, dtype=_np.int32)
        act_pos = _np.full(nf, -1, dtype=_np.int32)
        slot_seq = _np.full(nl * nf, -1, dtype=_np.int64)
        busy_until = _np.zeros(nl, dtype=_np.int64)
        head = _np.full(nl, -1, dtype=_np.int32)
        cand_val = _np.zeros(cand_cap, dtype=_np.int64)
        cand_next = _np.zeros(cand_cap, dtype=_np.int32)
        req_list = _np.zeros(max(nl, 1), dtype=_np.int32)
        req_key = _np.zeros(max(nl, 1), dtype=_np.int64)
        worst = _np.zeros(nf, dtype=_np.int64)
        delivered_pkts = _np.zeros(nf, dtype=_np.int64)
        delivered_flits = _np.zeros(nf, dtype=_np.int64)
        flits_per_link = _np.zeros(nl, dtype=_np.int64)
        out = _np.zeros(4, dtype=_np.int64)

        arrays = (
            params, st["next_of"], st["first_link"], st["priority"],
            st["is_local"], st["capacity"], st["ejection"], st["buffered"],
            rel_time, rel_flow, rel_len, credits, st["ring_off"],
            ring_ready, ring_fidx, ring_pkt, buf_head, buf_len,
            arr_time, arr_out, arr_flow, arr_fidx, arr_pkt,
            cr_time, cr_slot, wk_time, srcq_off, srcq, src_head, src_push,
            injected, occ_list, occ_pos, act_list, act_pos, slot_seq,
            busy_until, head, cand_val, cand_next, req_list, req_key,
            worst, delivered_pkts, delivered_flits, flits_per_link, out,
        )
        status = self._lib.repro_sim_run(*[a.ctypes.data for a in arrays])
        if status == 1:
            raise AssertionError(
                f"network stalled at cycle {int(out[0])} with flits in "
                "place and no future events; arbitration bug"
            )
        if status != 0:  # capacity valve: replay in Python
            return None
        return {
            "end_time": int(out[0]),
            "drained": bool(out[1]),
            "flits_in_network": int(out[2]),
            "worst": worst,
            "delivered_pkts": delivered_pkts,
            "delivered_flits": delivered_flits,
            "flits_per_link": flits_per_link,
        }


# ---------------------------------------------------------------------------
# Registry and selection.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Backend] = {}
_ACTIVE: Backend | None = None
_WARNED: set[str] = set()


def register_backend(backend: Backend, *, replace: bool = False) -> None:
    """Add a backend to the registry (``replace=True`` for tests)."""
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend


def registered_backend_names() -> list[str]:
    """All registered names, registration order (numpy first)."""
    return list(_REGISTRY)


def available_backend_names() -> list[str]:
    """Registered backends whose availability probe succeeds."""
    return [name for name, b in _REGISTRY.items() if b.available()]


def _warn_once(message: str, key: str) -> None:
    if key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def _resolve(name: str | None, *, strict: bool) -> Backend:
    requested = (name or DEFAULT_NAME).strip().lower()
    backend = _REGISTRY.get(requested)
    if backend is None:
        if strict:
            raise ValueError(
                f"unknown backend {requested!r}; "
                f"registered: {', '.join(_REGISTRY)}"
            )
        _warn_once(
            f"unknown backend {requested!r} "
            f"(registered: {', '.join(_REGISTRY)}); using numpy",
            f"unknown:{requested}",
        )
        return _REGISTRY[DEFAULT_NAME]
    if not backend.available():
        _warn_once(
            f"backend {requested!r} unavailable ({backend.detail()}); "
            "falling back to numpy",
            f"unavailable:{requested}",
        )
        return _REGISTRY[DEFAULT_NAME]
    return backend


def get_backend() -> Backend:
    """The active backend (resolving ``REPRO_BACKEND`` on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve(os.environ.get(ENV_VAR), strict=False)
    return _ACTIVE


def set_backend(name: str) -> Backend:
    """Select a backend by name (raises ``ValueError`` on unknown names).

    A known-but-unavailable backend falls back to numpy with a single
    warning — selection can never make results worse, only slower.  The
    requested name is exported as ``REPRO_BACKEND`` so worker processes
    inherit the choice.
    """
    global _ACTIVE
    _resolve(name, strict=True)  # unknown names are an error here
    os.environ[ENV_VAR] = (name or DEFAULT_NAME).strip().lower()
    _ACTIVE = _resolve(name, strict=False)
    return _ACTIVE


def apply_worker_backend(name: str | None) -> Backend:
    """Best-effort selection inside worker processes.

    Jobs ship the coordinator's backend name; workers apply it quietly
    (unknown or unavailable names degrade to numpy exactly like
    :func:`get_backend`, warning once per process).
    """
    global _ACTIVE
    if name:
        os.environ[ENV_VAR] = name
        _ACTIVE = _resolve(name, strict=False)
    return get_backend()


@contextlib.contextmanager
def use_backend(name: str):
    """Temporarily select a backend (tests, probes); restores on exit."""
    global _ACTIVE
    saved_active = _ACTIVE
    saved_env = os.environ.get(ENV_VAR)
    try:
        yield set_backend(name)
    finally:
        _ACTIVE = saved_active
        if saved_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved_env


def backend_infos() -> list[dict]:
    """Diagnostics rows for every registered backend (``repro backend``)."""
    active = get_backend()
    rows = []
    for name, backend in _REGISTRY.items():
        rows.append(
            {
                "name": name,
                "available": backend.available(),
                "active": backend is active,
                "detail": backend.detail(),
                "kernels": sorted(
                    k for k in ("run_levels", "sim_run")
                    if getattr(backend, k, None) is not None
                ),
            }
        )
    return rows


def _reset_for_tests() -> None:
    """Forget selection, warnings, and probe state (test isolation)."""
    global _ACTIVE
    _ACTIVE = None
    _WARNED.clear()
    cext = _REGISTRY.get("cext")
    if isinstance(cext, CextBackend):
        cext._probed = False
        cext._lib = None
        cext._error = None


register_backend(NumpyBackend())
register_backend(CextBackend())
