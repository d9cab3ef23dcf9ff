/* Compiled hot-path kernels behind the backend seam (repro.core.backend).
 *
 * Two kernels, both consuming the exact flat arrays their Python
 * counterparts already build, so results are byte-identical by
 * construction and the equivalence suites can pin every backend to the
 * scalar oracle:
 *
 *   repro_run_levels — the batch engine's whole wave loop (the cut,
 *     window jitters, downstream terms, ceiling-recurrence fixed points,
 *     totals, the early-exit frontier); the C twin of
 *     repro.core.batch._run_levels.  Slots and pair rows arrive
 *     wave-major (a flow's wave is one more than the deepest wave among
 *     its direct interferers), and the loop walks the wave bounds.
 *     Its index columns are narrow, as the batch stacks them:
 *     pair_j_slot and down_pair are int32, pair_mode is int8, and a
 *     downstream entry's τk is read through its own row,
 *     pair_j_slot[down_pair[d]].
 *
 *   repro_sim_run — the wormhole simulator's event loop (arrivals,
 *     credits, wakes, releases, per-link priority arbitration,
 *     next-event time jumps) over the flat NetworkState arrays; the C
 *     twin of repro.sim.simulator.WormholeSimulator's drain loop.
 *
 * Integer semantics must match numpy's int64 exactly: compile with
 * -fwrapv so signed overflow wraps two's-complement (numpy behaviour),
 * and use the same floor/ceil division formulation as the Python code.
 *
 * The file doubles as a ctypes library (plain exported symbols, built
 * on demand by repro.core._cbuild with any C compiler) and as an
 * importable-but-empty CPython extension when built via setup.py,
 * which defines REPRO_BUILD_PYMODULE.  Bump REPRO_KERNELS_ABI whenever
 * an exported signature or its semantics change; the loader refuses
 * artifacts with a different ABI stamp.
 */

#include <stdint.h>
#include <stddef.h>

#define REPRO_KERNELS_ABI 6

#if defined(_WIN32)
#define REPRO_EXPORT __declspec(dllexport)
#else
#define REPRO_EXPORT __attribute__((visibility("default")))
#endif

REPRO_EXPORT int64_t repro_abi_version(void) { return REPRO_KERNELS_ABI; }

/* ceil(a / b) for b > 0, matching numpy's -((-a) // b) (floor division)
 * for every non-wrapping input; avoids the (a + b - 1) overflow. */
static inline int64_t ceil_div_i64(int64_t a, int64_t b) {
    int64_t x = -a;
    int64_t q = x / b;
    if ((x % b) != 0 && x < 0) q -= 1;
    return -q;
}

/* ------------------------------------------------------------------ */
/* Kernel 1: the whole wave loop of _run_batch in one call             */
/* ------------------------------------------------------------------ */

/* Everything after the batch composition and before the outcomes: per
 * wave, per live slot — the cut, window jitters, downstream terms (XLWX
 * sums / IBN Equation-8 recounts with the buffer-bound cap), the fixed
 * point, the totals cache and the per-scenario frontier.  A slot of
 * wave w reads only its direct interferers' results (its pair_j and
 * down targets), and they all lie in waves below w, so the sequential
 * sweep is observationally identical to numpy's wave-parallel one.  A
 * slot is skipped when its level is above its scenario's fail_level
 * (lowest level that missed, under early exit); a slot with an
 * unconverged direct interferer is cut (TAINT, no bound, 0 iterations).
 * slot_iters records each solved slot's iterations, and the caller
 * derives truncation and iteration totals from fail_level and it.
 *
 * Modes must match repro.core.batch: SB=0, XLWX=1, IBN=2. */

/* lparams[] layout (int64): */
enum {
    L_NUM_WAVES = 0, L_EARLY_EXIT, L_MAX_ITER, L_COUNT
};

REPRO_EXPORT void repro_run_levels(
    const int64_t *lparams,
    const int64_t *wave_slot_bounds,    /* num_waves+1 */
    const int64_t *slot_perm,           /* wave-major slot ids */
    const int64_t *slot_scn,            /* per slot: scenario index */
    const int64_t *slot_level,          /* per slot: priority level */
    const int64_t *slot_counts,         /* per wave-major position */
    const int64_t *wave_pair_bounds,    /* num_waves+1 */
    const int32_t *pair_j_slot,         /* wave-major */
    const int8_t *pair_mode,
    const uint8_t *pair_fallback,
    const int64_t *pair_bi,
    const uint8_t *pair_use_bound,
    const int64_t *down_offsets,        /* npairs+1 */
    const int32_t *down_pair,           /* wave-major (τj, τk) rows */
    const int64_t *C, const int64_t *T, const int64_t *J, const int64_t *D,
    const int64_t *BLK, const int64_t *GIVE,
    int64_t *R, uint8_t *CONV, uint8_t *TAINT,
    int64_t *totals, int64_t *hitcost,
    int64_t *fail_level,                         /* per scenario */
    int64_t *slot_iters,                         /* per slot */
    int64_t *scr_wj, int64_t *scr_T, int64_t *scr_cost)  /* max row width */
{
    const int64_t num_waves = lparams[L_NUM_WAVES];
    const int early_exit = lparams[L_EARLY_EXIT] != 0;
    const int64_t max_iterations = lparams[L_MAX_ITER];

    for (int64_t wave = 0; wave < num_waves; wave++) {
        const int64_t s1 = wave_slot_bounds[wave + 1];
        int64_t p = wave_pair_bounds[wave];
        for (int64_t s = wave_slot_bounds[wave]; s < s1; s++) {
            const int64_t slot = slot_perm[s];
            const int64_t scn = slot_scn[slot];
            const int64_t level = slot_level[slot];
            const int64_t cnt = slot_counts[s];
            const int64_t q0 = p;
            p += cnt;
            if (level > fail_level[scn])
                continue;

            /* The cut: an unconverged direct interferer, no bound. */
            int cut = 0;
            for (int64_t t = 0; t < cnt && !cut; t++)
                cut = !CONV[pair_j_slot[q0 + t]];
            if (cut) {
                TAINT[slot] = 1;
                if (early_exit) fail_level[scn] = level;
                continue;
            }

            /* Phase A: per-pair window jitter + per-hit cost. */
            for (int64_t t = 0; t < cnt; t++) {
                const int64_t q = q0 + t;
                const int64_t j = pair_j_slot[q];
                const int64_t r_j = R[j];
                const int64_t wj = J[j] + r_j - C[j];
                const int64_t mode = pair_mode[q];
                int64_t cost;
                if (mode == 0) {                         /* SB */
                    cost = C[j];
                } else {
                    const int64_t d0 = down_offsets[q];
                    const int64_t d1 = down_offsets[q + 1];
                    int64_t down;
                    if (mode == 1 || pair_fallback[q]) { /* XLWX / rule */
                        down = 0;
                        for (int64_t d = d0; d < d1; d++)
                            down += totals[down_pair[d]];
                    } else {                             /* IBN Eq. 8 */
                        const int use_bound = pair_use_bound[q];
                        const int64_t bi = pair_bi[q];
                        down = 0;
                        for (int64_t d = d0; d < d1; d++) {
                            const int64_t row = down_pair[d];
                            const int64_t k = pair_j_slot[row];
                            const int64_t hits =
                                ceil_div_i64(r_j + J[k], T[k]);
                            int64_t per_hit = hitcost[row];
                            if (use_bound && bi < per_hit) per_hit = bi;
                            down += hits * per_hit;
                        }
                    }
                    cost = C[j] + down;
                }
                hitcost[q] = cost;
                scr_wj[t] = wj;
                scr_T[t] = T[j];
                scr_cost[t] = cost;
            }

            /* Phase B: the fixed point from the cold start C[slot]
             * (batch._solve_rows), with the non-preemptive blocking
             * folded in.  No bound (res 0) once the iterate passes its
             * give-up, overflows int64 (a true iterate past any give-up)
             * or runs out of iterations. */
            const int64_t blocking = BLK[slot];
            const int64_t base = C[slot] + blocking;
            const int64_t give = GIVE[slot];
            int64_t r = C[slot];
            int64_t iters = 0;
            int64_t res = 0;
            uint8_t conv = 0;
            for (;;) {
                iters++;
                int64_t r_new = base, term;
                int over = 0;
                for (int64_t t = 0; t < cnt; t++) {
                    over |= __builtin_mul_overflow(
                        ceil_div_i64(r + scr_wj[t], scr_T[t]),
                        scr_cost[t] + blocking, &term);
                    over |= __builtin_add_overflow(r_new, term, &r_new);
                }
                if (!over && r_new == r) { res = r; conv = 1; break; }
                if (over || r_new > give || iters >= max_iterations) break;
                r = r_new;
            }
            slot_iters[slot] = iters;

            /* Phase C: publish + totals + early exit. */
            R[slot] = res;
            CONV[slot] = conv;
            for (int64_t t = 0; t < cnt; t++) {
                totals[q0 + t] = ceil_div_i64(res + scr_wj[t], scr_T[t])
                                 * scr_cost[t];
            }
            if (early_exit && !(conv && res <= D[slot]))
                fail_level[scn] = level;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Kernel 2: the wormhole simulator drain loop (sim/simulator.py)      */
/* ------------------------------------------------------------------ */

/* Status codes: the wrapper falls back to the Python loop on CAPACITY
 * (a ring bound was exceeded — cannot happen under credit flow
 * control, kept as a memory-safety valve) and raises the simulator's
 * stall assertion on STALL. */
#define SIM_OK        0
#define SIM_STALL     1
#define SIM_CAPACITY  2

#define NOCAND  INT64_MIN
#define BIGKEY  (((int64_t)1) << 60)

/* params[] layout (int64): */
enum {
    P_NF = 0, P_NL, P_NPK, P_LINKL, P_ROUTL, P_CREDIT_DELAY,
    P_DRAIN_LIMIT, P_ARRIVE_CAP, P_CREDIT_CAP, P_WAKE_CAP, P_CAND_CAP,
    P_COUNT
};

/* out[] layout (int64): */
enum { O_END_TIME = 0, O_DRAINED, O_FLITS_IN_NETWORK, O_COUNT };

REPRO_EXPORT int64_t repro_sim_run(
    const int64_t *params,
    /* static tables */
    const int32_t *next_of,      /* nl*nf: forward link per slot, -1 off-route */
    const int32_t *first_link,   /* nf: injection link per flow, -1 local */
    const int64_t *priority,     /* nf */
    const uint8_t *is_local,     /* nf */
    const int32_t *capacity,     /* nl: VC buffer depth per link */
    const uint8_t *ejection,     /* nl */
    const uint8_t *buffered,     /* nl */
    /* releases, pre-sorted by (time, flow, seq); packet id = index */
    const int64_t *rel_time, const int32_t *rel_flow, const int32_t *rel_len,
    /* mutable state (python-allocated, initialised by the wrapper) */
    int64_t *credits,            /* nl*nf, copy of the credit template */
    const int64_t *ring_off,     /* nl*nf: slot -> ring base, -1 off-route */
    int64_t *ring_ready, int32_t *ring_fidx, int32_t *ring_pkt,
    int32_t *buf_head, int32_t *buf_len,            /* nl*nf */
    int64_t *arr_time, int32_t *arr_out, int32_t *arr_flow,
    int32_t *arr_fidx, int32_t *arr_pkt,            /* arrive ring */
    int64_t *cr_time, int64_t *cr_slot,             /* credit ring */
    int64_t *wk_time,                               /* wake ring */
    const int64_t *srcq_off,     /* nf+1: per-flow source-queue regions */
    int32_t *srcq,               /* npk: queued packet ids */
    int64_t *src_head, int64_t *src_push,           /* nf, absolute indices */
    int32_t *injected,           /* nf */
    int32_t *occ_list, int32_t *occ_pos,            /* nl*nf, pos init -1 */
    int32_t *act_list, int32_t *act_pos,            /* nf, pos init -1 */
    int64_t *slot_seq,           /* nl*nf, init -1 (credit_delay==0 only) */
    int64_t *busy_until,         /* nl, init 0 */
    /* per-cycle scratch */
    int32_t *head,               /* nl, candidate-list heads, init -1 */
    int64_t *cand_val, int32_t *cand_next,          /* cand_cap */
    int32_t *req_list, int64_t *req_key,            /* nl */
    /* outputs */
    int64_t *worst,              /* nf, init 0: max delivery latency */
    int64_t *delivered_pkts,     /* nf, init 0 */
    int64_t *delivered_flits,    /* nf, init 0 */
    int64_t *flits_per_link,     /* nl, init 0 */
    int64_t *out)                /* O_COUNT scalars */
{
    const int64_t nf = params[P_NF];
    const int64_t npk = params[P_NPK];
    const int64_t linkl = params[P_LINKL];
    const int64_t routl = params[P_ROUTL];
    const int64_t credit_delay = params[P_CREDIT_DELAY];
    const int64_t drain_limit = params[P_DRAIN_LIMIT];
    const int64_t arrive_cap = params[P_ARRIVE_CAP];
    const int64_t credit_cap = params[P_CREDIT_CAP];
    const int64_t wake_cap = params[P_WAKE_CAP];
    const int64_t cand_cap = params[P_CAND_CAP];
    const int track_order = (credit_delay == 0);

    int64_t arr_head = 0, arr_len = 0;
    int64_t cr_head = 0, cr_len = 0;
    int64_t wk_head = 0, wk_len = 0;
    int64_t occ_count = 0, act_count = 0;
    int64_t rel_ptr = 0;
    int64_t flits_in_network = 0;
    int64_t seq_counter = 0;
    int64_t now = 0;
    int drained = 1;

    for (;;) {
        if (now > drain_limit) { drained = 0; break; }
        if (rel_ptr >= npk && arr_len == 0 && cr_len == 0 && wk_len == 0
            && flits_in_network == 0 && act_count == 0)
            break;

        /* Phase 1: due events (same-timestamp events commute). */
        while (arr_len && arr_time[arr_head] <= now) {
            const int32_t link = arr_out[arr_head];
            const int32_t flow = arr_flow[arr_head];
            const int32_t fidx = arr_fidx[arr_head];
            const int32_t pkt = arr_pkt[arr_head];
            arr_head = (arr_head + 1) % arrive_cap;
            arr_len--;
            if (ejection[link]) {
                flits_in_network--;
                delivered_flits[flow]++;
                if (fidx == rel_len[pkt] - 1) {
                    const int64_t lat = now - rel_time[pkt];
                    delivered_pkts[flow]++;
                    if (lat > worst[flow]) worst[flow] = lat;
                }
            } else {
                const int64_t slot = (int64_t)link * nf + flow;
                int64_t ready = now;
                if (fidx == 0 && routl) {
                    ready = now + routl;
                    if (wk_len == 0
                        || wk_time[(wk_head + wk_len - 1) % wake_cap] != ready) {
                        if (wk_len >= wake_cap) return SIM_CAPACITY;
                        wk_time[(wk_head + wk_len) % wake_cap] = ready;
                        wk_len++;
                    }
                }
                const int32_t cap = capacity[link];
                if (buf_len[slot] >= cap) return SIM_CAPACITY;
                const int64_t pos =
                    ring_off[slot] + (buf_head[slot] + buf_len[slot]) % cap;
                ring_ready[pos] = ready;
                ring_fidx[pos] = fidx;
                ring_pkt[pos] = pkt;
                buf_len[slot]++;
                if (buf_len[slot] == 1) {
                    occ_pos[slot] = (int32_t)occ_count;
                    occ_list[occ_count++] = (int32_t)slot;
                    if (track_order && slot_seq[slot] < 0)
                        slot_seq[slot] = seq_counter++;
                }
            }
        }
        while (cr_len && cr_time[cr_head] <= now) {
            credits[cr_slot[cr_head]]++;
            cr_head = (cr_head + 1) % credit_cap;
            cr_len--;
        }
        while (wk_len && wk_time[wk_head] <= now) {
            wk_head = (wk_head + 1) % wake_cap;
            wk_len--;
        }

        /* Phase 2: releases due now. */
        while (rel_ptr < npk && rel_time[rel_ptr] <= now) {
            const int32_t pkt = (int32_t)rel_ptr++;
            const int32_t flow = rel_flow[pkt];
            if (is_local[flow]) {
                const int64_t lat = now - rel_time[pkt];
                delivered_pkts[flow]++;
                if (lat > worst[flow]) worst[flow] = lat;
                delivered_flits[flow] += rel_len[pkt];
            } else {
                srcq[src_push[flow]++] = pkt;
                if (act_pos[flow] < 0) {
                    act_pos[flow] = (int32_t)act_count;
                    act_list[act_count++] = flow;
                }
            }
        }

        /* Phase 3: per-link candidate lists (slot >= 0 buffers,
         * -1 - flow sources), built as linked lists over scratch. */
        int64_t cand_count = 0;
        int64_t req_count = 0;
        for (int64_t i = 0; i < occ_count; i++) {
            const int32_t slot = occ_list[i];
            if (ring_ready[ring_off[slot] + buf_head[slot]] > now) continue;
            const int32_t link = next_of[slot];
            if (cand_count >= cand_cap) return SIM_CAPACITY;
            cand_val[cand_count] = slot;
            cand_next[cand_count] = head[link];
            if (head[link] < 0) req_list[req_count++] = link;
            head[link] = (int32_t)cand_count++;
        }
        for (int64_t i = 0; i < act_count; i++) {
            const int32_t flow = act_list[i];
            const int32_t link = first_link[flow];
            if (cand_count >= cand_cap) return SIM_CAPACITY;
            cand_val[cand_count] = (int64_t)(-1) - flow;
            cand_next[cand_count] = head[link];
            if (head[link] < 0) req_list[req_count++] = link;
            head[link] = (int32_t)cand_count++;
        }

        /* Phase 4: arbitration + sends.  With instant credit returns
         * the visit order is observable: sort links by the reference's
         * discovery key (FIFO-creation order, then sources).  Keys are
         * unique (disjoint slot sets, one first_link per flow), so the
         * insertion sort yields exactly the reference order. */
        if (track_order && req_count > 1) {
            for (int64_t i = 0; i < req_count; i++) {
                const int32_t link = req_list[i];
                int64_t best = BIGKEY << 1;
                for (int32_t c = head[link]; c >= 0; c = cand_next[c]) {
                    const int64_t v = cand_val[c];
                    const int64_t key = (v >= 0)
                        ? (slot_seq[v] >= 0 ? slot_seq[v] : BIGKEY)
                        : (BIGKEY + ((int64_t)(-1) - v));
                    if (key < best) best = key;
                }
                req_key[i] = best;
            }
            for (int64_t i = 1; i < req_count; i++) {
                const int32_t link = req_list[i];
                const int64_t key = req_key[i];
                int64_t j = i - 1;
                while (j >= 0 && req_key[j] > key) {
                    req_list[j + 1] = req_list[j];
                    req_key[j + 1] = req_key[j];
                    j--;
                }
                req_list[j + 1] = link;
                req_key[j + 1] = key;
            }
        }
        int sent_any = 0;
        for (int64_t i = 0; i < req_count; i++) {
            const int32_t link = req_list[i];
            if (busy_until[link] > now) continue;
            const int needs_credit = buffered[link];
            const int64_t base = (int64_t)link * nf;
            int64_t best = NOCAND;
            int64_t best_prio = ((int64_t)1) << 60;
            int32_t best_flow = -1;
            for (int32_t c = head[link]; c >= 0; c = cand_next[c]) {
                const int64_t v = cand_val[c];
                const int32_t flow = (v >= 0)
                    ? (int32_t)(v % nf) : (int32_t)((int64_t)(-1) - v);
                const int64_t p = priority[flow];
                if (p < best_prio) {
                    if (needs_credit && credits[base + flow] <= 0)
                        continue;   /* blocked upstream: yield priority */
                    best = v;
                    best_prio = p;
                    best_flow = flow;
                }
            }
            if (best == NOCAND) continue;
            int32_t fidx, pkt;
            if (best < 0) {
                /* inject from the source queue */
                pkt = srcq[src_head[best_flow]];
                fidx = injected[best_flow];
                if ((int64_t)fidx + 1 == rel_len[pkt]) {
                    src_head[best_flow]++;
                    injected[best_flow] = 0;
                    if (src_head[best_flow] == src_push[best_flow]) {
                        const int32_t at = act_pos[best_flow];
                        const int32_t last = act_list[--act_count];
                        act_list[at] = last;
                        act_pos[last] = at;
                        act_pos[best_flow] = -1;
                    }
                } else {
                    injected[best_flow] = fidx + 1;
                }
                flits_in_network++;
            } else {
                const int64_t slot = best;
                const int32_t cap = capacity[slot / nf];
                const int64_t pos = ring_off[slot] + buf_head[slot];
                fidx = ring_fidx[pos];
                pkt = ring_pkt[pos];
                buf_head[slot] = (buf_head[slot] + 1) % cap;
                if (--buf_len[slot] == 0) {
                    const int32_t at = occ_pos[slot];
                    const int32_t last = occ_list[--occ_count];
                    occ_list[at] = last;
                    occ_pos[last] = at;
                    occ_pos[slot] = -1;
                }
                if (credit_delay == 0) {
                    credits[slot]++;
                } else {
                    if (cr_len >= credit_cap) return SIM_CAPACITY;
                    const int64_t cpos = (cr_head + cr_len) % credit_cap;
                    cr_time[cpos] = now + credit_delay;
                    cr_slot[cpos] = slot;
                    cr_len++;
                }
            }
            if (needs_credit) credits[base + best_flow]--;
            if (arr_len >= arrive_cap) return SIM_CAPACITY;
            const int64_t apos = (arr_head + arr_len) % arrive_cap;
            arr_time[apos] = now + linkl;
            arr_out[apos] = link;
            arr_flow[apos] = best_flow;
            arr_fidx[apos] = fidx;
            arr_pkt[apos] = pkt;
            arr_len++;
            busy_until[link] = now + linkl;
            flits_per_link[link]++;
            sent_any = 1;
        }
        for (int64_t i = 0; i < req_count; i++) head[req_list[i]] = -1;

        /* Phase 5: advance time to the next event/release; after a
         * send with instant credits (or at the drain cut-off) walk one
         * cycle like the reference. */
        int64_t nt = INT64_MAX;
        if (arr_len) nt = arr_time[arr_head];
        if (cr_len && cr_time[cr_head] < nt) nt = cr_time[cr_head];
        if (wk_len && wk_time[wk_head] < nt) nt = wk_time[wk_head];
        if (rel_ptr < npk && rel_time[rel_ptr] < nt) nt = rel_time[rel_ptr];
        if (nt == INT64_MAX) {
            if (flits_in_network || act_count) {
                out[O_END_TIME] = now;
                return SIM_STALL;
            }
            break;
        }
        if (sent_any && (track_order || nt > drain_limit)) now += 1;
        else now = nt;
    }

    out[O_END_TIME] = now;
    out[O_DRAINED] = drained;
    out[O_FLITS_IN_NETWORK] = flits_in_network;
    return SIM_OK;
}

/* Optional CPython module shell: setup.py builds this file as the
 * extension repro.core._kernels so `pip install -e .` ships a prebuilt
 * artifact; the module body is empty — the symbols above are reached
 * via ctypes, never via import. */
#ifdef REPRO_BUILD_PYMODULE
#define PY_SSIZE_T_CLEAN
#include <Python.h>

static struct PyModuleDef repro_kernels_module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled repro kernels (loaded via ctypes; see repro.core.backend).",
    -1, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void) {
    return PyModule_Create(&repro_kernels_module);
}
#endif
