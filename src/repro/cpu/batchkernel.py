"""Epoch-batched timing-simulation kernel (``REPRO_SIM_KERNEL=epoch``).

The event-driven loop in :meth:`repro.cpu.system.SimSystem._run_reference`
is the last major unvectorized hot path: every LLC reference costs a heap
push/pop per core step, access, and channel wakeup, plus a cascade of
method calls and dataclass allocations per memory request.  This module
re-executes *exactly the same* discrete-event semantics through batched
machinery:

* **Lean event heap** — the reference heap orders events by
  ``(time, seq)`` where ``seq`` is push order; this kernel pushes bare
  ``(time, seq, kind, payload)`` int tuples (no event-object allocation,
  no bound-method dispatch), replaying the identical order because the
  ``(time, seq)`` prefix is unique.
* **Lockstep trace epochs** — each core's reference stream is prefetched
  in whole-array chunks (starting small and doubling, so an early stop
  has not over-pulled the shared generators); the ``ceil(gap/IPC)``
  issue deltas are computed for the entire chunk with NumPy and the
  chunk's unseen addresses are pre-decoded to DRAM coordinates in one
  vectorized pass.
* **Flat channel/rank state** — bank readiness, activation windows, bus
  state, and the per-rank energy counters live in flat Python lists
  indexed by global rank id; the ``Most_Pending`` scheduler runs inline
  over tuple-valued queue entries (no ``MemRequest`` allocation until
  state is exported back at the end of the run).
* **Vectorized pick for deep queues** — when a channel's serviced class
  holds :data:`VECTOR_PICK_MIN` or more candidates (write-drain batches,
  scrub bursts, materialization storms), the earliest-start computation
  and the ``(start, -pending, arrive, idx)`` argmin run as whole-array
  NumPy operations; small queues keep the cheaper scalar scan.  Both
  produce the identical pick.

Rare, genuinely serial cases — scrub patrol ticks, one-shot burst
injection, degraded-mode (faulty-bank) accesses, non-default address
mappings — fall back to the scalar helpers inside the same loop.

The contract is *bit identity*: for any ``SimSystem`` state, this kernel
produces the same :class:`~repro.cpu.system.SimResult` (instructions,
cycles, energy floats, access counters, LLC hits/misses) and leaves the
same externally observable state (LLC contents, channel queues and energy
counters, core progress, telemetry counters) as the event-driven
reference.  ``tests/test_epoch_kernel.py`` property-tests that invariant
across workload profiles, channel counts, fault states, and seeds.

The one intentional difference is invisible to results: trace iterators
are prefetched in chunks, so after an early stop (instruction target hit)
the shared iterator may have advanced further than the reference would
have.  Nothing reads a trace iterator after ``run()``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import islice
from time import perf_counter

import numpy as np

from repro import obs
from repro.obs import trace
from repro.cpu.llc import LineKind
from repro.cpu.system import (
    TAG_ECCFILL,
    TAG_ECCRMW,
    TAG_ECCWB,
    TAG_FILL,
    TAG_POSTFILL,
    TAG_POSTLOAD,
    TAG_SCRUB,
    TAG_SHIFT,
    TAG_WB,
    AccessCounters,
    SimResult,
)
from repro.dram.channel import MemRequest
from repro.dram.power import RankEnergyCounters
from repro.ecc.base import EccTraffic

#: Trace items prefetched per core per refill: the first pull is small and
#: each refill doubles up to the cap, so short runs (and the tail past the
#: instruction target) do not pay for thousands of unconsumed trace items.
TRACE_CHUNK_MIN = 512
TRACE_CHUNK = 4096

#: Serviced-class size at which the scheduler switches from the scalar
#: scan to the whole-array NumPy earliest-start/argmin path.  Below this,
#: NumPy's per-call overhead exceeds the loop it replaces.
VECTOR_PICK_MIN = 48

_TAG_MASK = (1 << TAG_SHIFT) - 1

#: Event kinds (match the reference loop's dispatch frequency ordering).
_EV_CORE = 0
_EV_ACCESS = 1
_EV_BURST = 2
_EV_SCRUB = 3
_EV_CHAN = 4

#: pk packing: (rank << 5 | bank) << 44 | row.  Rows stay far below 2**44
#: (the largest mapped region base is 1 << 41) and banks below 32.
_PK_ROW_BITS = 44
_PK_BANK_BITS = 5

_LOW = -(1 << 60)  # "no constraint" sentinel for vectorized maxima


def _pack_key(rank: int, bank: int, row: int) -> int:
    return ((rank << _PK_BANK_BITS | bank) << _PK_ROW_BITS) | row


def _unpack_key(pk: int) -> "tuple[int, int, int]":
    row = pk & ((1 << _PK_ROW_BITS) - 1)
    bank = (pk >> _PK_ROW_BITS) & ((1 << _PK_BANK_BITS) - 1)
    return pk >> (_PK_ROW_BITS + _PK_BANK_BITS), bank, row


def run_epoch(sim, warmup_instructions: int, measure_instructions: int) -> SimResult:
    """Execute ``sim`` to the instruction budget with the epoch kernel.

    Drop-in replacement for :meth:`SimSystem._run_reference`; see the
    module docstring for the identity contract.

    Common-case configurations dispatch to the compiled core in
    :mod:`repro.cpu.epochnative` (same semantics, ~10x faster); this
    Python loop covers every configuration and doubles as the fallback
    when no compiler is available (``REPRO_SIM_NATIVE`` controls it).
    """
    from repro.cpu import epochnative  # deferred: avoids an import cycle

    native = epochnative.wants_native(sim)
    ineligible = None if native else epochnative.ineligible_reason(sim)
    with trace.span("sim.epoch", "sim", native=native, ineligible=ineligible):
        if native:
            return epochnative.run_native(sim, warmup_instructions, measure_instructions)
        return _run_epoch_py(sim, warmup_instructions, measure_instructions)


def _run_epoch_py(sim, warmup_instructions: int, measure_instructions: int) -> SimResult:
    obs_armed = obs.enabled("sim")
    wall0 = perf_counter() if obs_armed else 0.0

    mem = sim.mem
    llc = sim.llc
    eccm = sim.ecc_model
    degraded = sim.degraded
    scrub = sim.scrub
    mapping = mem.mapping
    t = mem.timing

    # -- timing/geometry constants ------------------------------------------------------
    trcd, tcl, tcwl, tburst = t.trcd, t.tcl, t.tcwl, t.tburst
    trrd, tfaw, twtr, trtrs, txp = t.trrd, t.tfaw, t.twtr, t.trtrs, t.txp
    trfc, trefi = t.trfc, t.trefi
    bank_busy_read, bank_busy_write = t.bank_busy_read, t.bank_busy_write
    trcd_tcl = trcd + tcl

    chans = mem.channels
    C = len(chans)
    R = len(chans[0].ranks)
    B = chans[0].ranks[0].banks
    if max(B, mem.mapping.banks_per_rank) >= (1 << _PK_BANK_BITS):
        raise ValueError(f"epoch kernel supports < {1 << _PK_BANK_BITS} banks per rank")
    PD = type(chans[0]).POWERDOWN_DELAY
    WRITE_DRAIN = type(chans[0]).WRITE_DRAIN
    WRITE_DRAIN_LOW = type(chans[0]).WRITE_DRAIN_LOW
    QUEUE_DEPTH = type(chans[0]).QUEUE_DEPTH

    HIT = sim.HIT_LATENCY
    IPC = sim.IPC
    POSTED_CAP = sim.POSTED_CAP
    load_mlp = sim.load_mlp

    # -- import flat rank/channel state -------------------------------------------------
    n_ranks = C * R
    bank_ready: "list[int]" = []
    acts: "list[deque]" = []
    busy_until: "list[int]" = []
    accounted_to: "list[int]" = []
    next_refresh: "list[int]" = []
    refreshes: "list[int]" = []
    c_act: "list[int]" = []
    c_rd: "list[int]" = []
    c_wr: "list[int]" = []
    c_active: "list[int]" = []
    c_standby: "list[int]" = []
    c_pdown: "list[int]" = []
    for ch in chans:
        for r in ch.ranks:
            bank_ready.extend(r.bank_ready)
            acts.append(deque(r.act_times, maxlen=4))
            busy_until.append(r.busy_until)
            accounted_to.append(r.accounted_to)
            next_refresh.append(r.next_refresh)
            refreshes.append(r.refreshes)
            rc = r.counters
            c_act.append(rc.activates)
            c_rd.append(rc.read_bursts)
            c_wr.append(rc.write_bursts)
            c_active.append(rc.cycles_active)
            c_standby.append(rc.cycles_precharge_standby)
            c_pdown.append(rc.cycles_powerdown)

    # Queue entries: (gr, gb, pk, is_write, arrive, tag, demand) where
    # gr = global rank id, gb = gr * B + bank, pk = packed (rank,bank,row).
    queues: "list[list]" = []
    pendmaps: "list[dict]" = []
    dem_cnt: "list[int]" = []
    bg_cnt: "list[int]" = []
    draining: "list[bool]" = []
    bus_free: "list[int]" = []
    last_w: "list[bool]" = []
    fast_picks: "list[int]" = []
    issued: "list[int]" = []
    refresh_due: "list[int]" = []
    for ci, ch in enumerate(chans):
        entries = []
        pmap: "dict[int, int]" = {}
        for q in ch.queue:
            gr = ci * R + q.rank
            pk = _pack_key(q.rank, q.bank, q.row)
            entries.append((gr, gr * B + q.bank, pk, q.is_write, q.arrive, q.tag, q.demand))
            pmap[pk] = pmap.get(pk, 0) + 1
        queues.append(entries)
        pendmaps.append(pmap)
        dem_cnt.append(ch._demand_count)
        bg_cnt.append(ch._background_count)
        draining.append(ch._draining)
        bus_free.append(ch.bus_free)
        last_w.append(ch.last_was_write)
        fast_picks.append(ch.fast_picks)
        issued.append(ch.issued_requests)
        refresh_due.append(ch._refresh_due)

    # -- address decode memo (shared across SimSystem instances) ------------------------
    pmemo = mapping.packed_cache(B)
    lpp = mapping.lines_per_page
    # The mapping's bank modulus is its own banks_per_rank (MemorySystem
    # leaves it at the default), independent of the channel's bank count.
    MB = mapping.banks_per_rank
    banks_total = mapping.ranks_per_channel * MB
    vector_decode = (
        mapping.hot_arena_base_line is None
        and mapping.channels == C
        and mapping.ranks_per_channel == R
    )
    seq_policy = mapping.policy == "sequential"
    map_line = mapping.map_line

    def _coord(addr):
        """(channel, gr, gb, pk) for one line address, memoized."""
        v = pmemo.get(addr)
        if v is None:
            c = map_line(addr)
            gr = c.channel * R + c.rank
            v = pmemo[addr] = (c.channel, gr, gr * B + c.bank, _pack_key(c.rank, c.bank, c.row))
        return v

    def _bulk_decode(addrs) -> None:
        """Vector-decode every unseen address of a trace chunk into the memo."""
        missing = [a for a in set(addrs) if a not in pmemo]
        if not missing:
            return
        arr = np.asarray(missing, dtype=np.int64)
        page, off = np.divmod(arr, lpp)
        chv, pic = page % C, page // C
        if seq_policy:
            bidx = pic % banks_total
        else:
            bidx = (off + pic) % banks_total
        rank, bank = np.divmod(bidx, MB)
        gr = chv * R + rank
        gb = gr * B + bank
        pk = ((rank << _PK_BANK_BITS | bank) << _PK_ROW_BITS) | pic
        pmemo.update(
            zip(missing, zip(chv.tolist(), gr.tolist(), gb.tolist(), pk.tolist()))
        )

    # -- degraded-mode / ECC-state constants --------------------------------------------
    if degraded is not None:
        faulty_gb = {
            (c * R + r) * B + b
            for (c, r, b) in degraded.faulty_banks
            if c < C and r < R and b < B
        }
        mat_cov = degraded.ecc_line_coverage
        from repro.cpu.degraded import MATERIALIZED_BASE as _MAT_BASE
    else:
        faulty_gb = frozenset()
        mat_cov = 1
        _MAT_BASE = 0
    ecc_kind = eccm.kind
    ecc_inline = ecc_kind == EccTraffic.INLINE
    ecc_cached = eccm.cache_ecc_lines
    ecc_is_xor = ecc_kind == EccTraffic.XOR_LINE
    KIND_DATA, KIND_ECC, KIND_XOR = LineKind.DATA, LineKind.ECC, LineKind.XOR
    ecc_insert_kind = KIND_ECC if ecc_kind == EccTraffic.ECC_LINE else KIND_XOR
    # EccTrafficModel.ecc_addr with the per-scheme constants hoisted so the
    # write-back cascade computes ECC-line addresses without a method call.
    _ep = False
    _lpp_e = _ppc = _gpp = _pc1 = _cov = 1
    _EB = 0
    if ecc_inline:
        ecc_addr_of = eccm.ecc_addr
    elif eccm.parity_channels is not None:
        from repro.cpu.ecc_traffic import ECC_REGION_BASE as _EB

        _ep = True
        _lpp_e = eccm.lines_per_page
        _ppc = eccm.per_page_coverage
        _gpp = max(1, eccm.lines_per_page // _ppc)
        _pc1 = eccm.parity_channels - 1

        def ecc_addr_of(a):
            page, off = divmod(a, _lpp_e)
            return _EB + (page // _pc1) * _gpp + off // _ppc

    else:
        from repro.cpu.ecc_traffic import ECC_REGION_BASE as _EB

        _cov = max(1, eccm.coverage)

        def ecc_addr_of(a):
            return _EB + a // _cov

    #: The EV_ACCESS miss path may fold the whole victim cascade inline:
    #: only when the ECC state either needs no touch (inline codes) or is a
    #: single cached-line update; uncached schemes take the helper here (the
    #: compiled core handles them in its own cascade).
    ecc_fast = ecc_inline or ecc_cached

    # -- LLC flat state (the llc's own lists, mutated in place) -------------------------
    where = llc._where
    where_get = where.get
    l_tags = llc._tags
    l_lru = llc._lru
    l_dirty = llc._dirty
    l_kind = llc._kind
    l_fill = llc._fill
    set_mask = llc._set_mask
    assoc = llc.assoc
    clock = llc._clock
    hits = llc._hits
    misses = llc._misses
    evictions_dirty = llc._evictions_dirty

    def _llc_access(addr, kind, make_dirty):
        """Inline LLC.access: returns (hit, (victim_addr, kind, dirty) | None)."""
        nonlocal clock, hits, misses, evictions_dirty
        slot = where_get(addr)
        clock += 1
        if slot is not None:
            l_lru[slot] = clock
            if make_dirty:
                l_dirty[slot] = True
            hits += 1
            return True, None
        misses += 1
        s = addr & set_mask
        base = s * assoc
        evicted = None
        filled = l_fill[s]
        if filled < assoc:
            victim = base + filled
            l_fill[s] = filled + 1
        else:
            # LRU clock values are strictly unique, so min()/index() over a
            # C-level slice finds the same victim as the reference scan.
            sl = l_lru[base : base + assoc]
            victim = base + sl.index(min(sl))
            old = l_tags[victim]
            evicted = (old, l_kind[victim], l_dirty[victim])
            if evicted[2]:
                evictions_dirty += 1
            del where[old]
        l_tags[victim] = addr
        l_lru[victim] = clock
        l_dirty[victim] = make_dirty
        l_kind[victim] = kind
        where[addr] = victim
        return False, evicted

    # -- event machinery ----------------------------------------------------------------
    heap: "list[tuple]" = []
    seq = sim._seq
    seq0 = seq

    # Counters (exported back to sim/mem at the end).
    total = 0
    accesses_64b = mem.accesses_64b
    units_64b = mem._units_64b
    n_data_r = sim.counters.data_reads
    n_data_w = sim.counters.data_writes
    n_ecc_r = sim.counters.ecc_reads
    n_ecc_w = sim.counters.ecc_writes
    scrub_cursor = sim._scrub_cursor
    scrub_reads = sim.scrub_reads

    def _push(when, kind, payload):
        nonlocal seq
        heappush(heap, (when, seq, kind, payload))
        seq += 1

    def _enqueue(addr, is_write, tag, now):
        """Inline MemorySystem.enqueue + SimSystem._enqueue_mem."""
        nonlocal accesses_64b, n_data_r, n_data_w, n_ecc_r, n_ecc_w, seq
        code = tag & _TAG_MASK
        v = pmemo.get(addr)
        if v is None:
            v = _coord(addr)
        ci, gr, gb, pk = v
        q = queues[ci]
        if len(q) >= QUEUE_DEPTH:
            raise RuntimeError("channel queue overflow; caller must respect can_accept()")
        demand = code == TAG_FILL or code == TAG_POSTFILL
        q.append((gr, gb, pk, is_write, now, tag, demand))
        pm = pendmaps[ci]
        pm[pk] = pm.get(pk, 0) + 1
        if demand:
            dem_cnt[ci] += 1
        else:
            bg_cnt[ci] += 1
        accesses_64b += units_64b
        if is_write:
            if code == TAG_ECCWB or code == TAG_ECCRMW:
                n_ecc_w += 1
            else:
                n_data_w += 1
        else:
            if code == TAG_ECCFILL or code == TAG_ECCRMW:
                n_ecc_r += 1
            else:
                n_data_r += 1
        heappush(heap, (now, seq, _EV_CHAN, ci))
        seq += 1

    # -- residency accounting -----------------------------------------------------------
    def _account(gr, upto):
        t0 = accounted_to[gr]
        if upto <= t0:
            return
        busy = busy_until[gr]
        active_end = busy if busy < upto else upto
        if active_end > t0:
            c_active[gr] += active_end - t0
        idle_start = t0 if t0 > busy else busy
        if upto > idle_start:
            pd_point = busy + PD
            standby_end = idle_start if idle_start > pd_point else pd_point
            if standby_end > upto:
                standby_end = upto
            if standby_end > idle_start:
                c_standby[gr] += standby_end - idle_start
            if upto > standby_end:
                c_pdown[gr] += upto - standby_end
        accounted_to[gr] = upto

    def _service_refresh(ci, now):
        base_gr = ci * R
        due = None
        for gr in range(base_gr, base_gr + R):
            nr = next_refresh[gr]
            while nr <= now:
                start = nr if nr > 0 else 0
                end = start + trfc
                b0 = gr * B
                for bi in range(b0, b0 + B):
                    if bank_ready[bi] < end:
                        bank_ready[bi] = end
                _account(gr, start)
                if end > busy_until[gr]:
                    busy_until[gr] = end
                refreshes[gr] += 1
                nr += trefi
            next_refresh[gr] = nr
            if due is None or nr < due:
                due = nr
        refresh_due[ci] = due

    # -- ECC-state / degraded-mode cascade ----------------------------------------------
    def _touch_materialized(addr, dirty, now):
        """Degraded-mode materialized-ECC line access; returns eviction or None."""
        eaddr = _MAT_BASE + addr // mat_cov
        hit, ev = _llc_access(eaddr, KIND_ECC, dirty)
        if not hit:
            _enqueue(eaddr, False, TAG_ECCFILL, now)
        return ev

    def _update_ecc_state(data_addr, now):
        """Touch the ECC/XOR line covering a written-back data line."""
        if ecc_inline:
            return None
        eaddr = ecc_addr_of(data_addr)
        if not ecc_cached:
            if ecc_is_xor:
                _enqueue(data_addr, False, TAG_ECCFILL, now)
            _enqueue(eaddr, False, TAG_ECCRMW, now)
            _enqueue(eaddr, True, TAG_ECCRMW, now)
            return None
        _, ev = _llc_access(eaddr, ecc_insert_kind, True)
        return ev

    def _handle_eviction(ev, now):
        """The reference's write-back / ECC-state cascade over tuple victims."""
        stack = [ev]
        guard = 0
        while stack:
            guard += 1
            if guard > 64:
                raise RuntimeError("runaway eviction cascade")
            vaddr, vkind, vdirty = stack.pop()
            if not vdirty:
                continue
            if vkind == KIND_DATA:
                _enqueue(vaddr, True, TAG_WB, now)
                if faulty_gb and _coord(vaddr)[2] in faulty_gb:
                    nxt = _touch_materialized(vaddr, True, now)
                else:
                    nxt = _update_ecc_state(vaddr, now)
                if nxt is not None:
                    stack.append(nxt)
            elif vkind == KIND_ECC:
                _enqueue(vaddr, True, TAG_ECCWB, now)
            else:  # XOR line: delta read-modify-write of the parity line
                _enqueue(vaddr, False, TAG_ECCRMW, now)
                _enqueue(vaddr, True, TAG_ECCRMW, now)

    # -- core trace epochs --------------------------------------------------------------
    cores = sim.cores
    n_cores = len(cores)
    done = [c.done for c in cores]
    done_cnt = sum(done)
    waiting = [c.waiting for c in cores]
    posted = [c.outstanding_posted for c in cores]
    loads = [c.outstanding_loads for c in cores]
    instr = [c.instructions for c in cores]
    pend_addr = [c.pending[0] if c.pending else 0 for c in cores]
    pend_wr = [c.pending[1] if c.pending else False for c in cores]
    has_pend = [c.pending is not None for c in cores]
    traces = [c.trace for c in cores]

    buf_gap: "list" = [()] * n_cores
    buf_addr: "list" = [()] * n_cores
    buf_wr: "list" = [()] * n_cores
    buf_dt: "list" = [()] * n_cores
    buf_i = [0] * n_cores
    buf_n = [0] * n_cores
    buf_chunk = [TRACE_CHUNK_MIN] * n_cores
    take = [getattr(tr, "take_batch", None) for tr in traces]

    def _refill(cid) -> bool:
        """Prefetch the next trace epoch for one core; False when exhausted."""
        tb = take[cid]
        if tb is not None:
            # TraceStream hands over its whole randomness batch as arrays;
            # the per-item iterator protocol never runs on this path.
            gaps, lines, writes = tb()
            if not len(gaps):
                return False
            deltas = np.maximum(1, np.ceil(gaps / IPC)).astype(np.int64).tolist()
            addrs = lines.tolist()
            if vector_decode:
                _bulk_decode(addrs)
            buf_gap[cid] = gaps.tolist()
            buf_addr[cid] = addrs
            buf_wr[cid] = writes.tolist()
            buf_dt[cid] = deltas
            buf_i[cid] = 0
            buf_n[cid] = len(addrs)
            return True
        # Plain-iterator traces (synthetic test streams): pull a chunk at a
        # time, starting small so short traces don't over-pull.
        chunk = buf_chunk[cid]
        if chunk < TRACE_CHUNK:
            buf_chunk[cid] = chunk * 2
        items = list(islice(traces[cid], chunk))
        if not items:
            return False
        gaps, addrs, writes = zip(*items)
        deltas = np.maximum(
            1, np.ceil(np.asarray(gaps, dtype=np.float64) / IPC)
        ).astype(np.int64).tolist()
        if vector_decode:
            _bulk_decode(addrs)
        buf_gap[cid] = gaps
        buf_addr[cid] = addrs
        buf_wr[cid] = writes
        buf_dt[cid] = deltas
        buf_i[cid] = 0
        buf_n[cid] = len(items)
        return True

    ipc_window = sim.ipc_window
    window_instr = sim._window_instr
    bursts = sim._bursts

    # -- initial events (reference push order) ------------------------------------------
    for cid in range(n_cores):
        _push(0, _EV_CORE, cid)
    if scrub is not None:
        _push(scrub.interval_cycles, _EV_SCRUB, 0)
        scrub_interval = scrub.interval_cycles
        scrub_region = scrub.region_lines
    for i, (cycle, _, _, _) in enumerate(bursts):
        _push(cycle, _EV_BURST, i)

    target = warmup_instructions + measure_instructions
    now = sim.now
    snap = None
    snap_state = None
    end_state = None

    def _counter_snapshot(upto):
        for gr in range(n_ranks):
            _account(gr, upto)
        return (c_act[:], c_rd[:], c_wr[:], c_active[:], c_standby[:], c_pdown[:])

    def _state_snapshot():
        return dict(
            instructions=total,
            cycles=now,
            accesses=accesses_64b,
            hits=hits,
            misses=misses,
            counters=(n_data_r, n_data_w, n_ecc_r, n_ecc_w),
        )

    # -- main loop ----------------------------------------------------------------------
    # ``limit`` is the next instruction threshold that needs per-event
    # attention (first the warm-up snapshot, then the stop target), so the
    # common case pays one comparison instead of two.
    limit = warmup_instructions
    while heap:
        now, _, kind, payload = heappop(heap)

        if total >= limit:
            if snap is None:
                snap = _counter_snapshot(now)
                snap_state = _state_snapshot()
                limit = target
            if total >= target:
                end_state = _state_snapshot()
                break

        if kind == _EV_CHAN:
            ci = payload
            if now >= refresh_due[ci]:
                _service_refresh(ci, now)
            q = queues[ci]
            if not q:
                continue
            pm = pendmaps[ci]
            if len(q) == 1:
                e = q.pop()
                gr, gb, pk, is_write, arrive, tag, demand = e
                n = pm[pk] - 1
                if n:
                    pm[pk] = n
                else:
                    del pm[pk]
                if demand:
                    dem_cnt[ci] -= 1
                else:
                    bg_cnt[ci] -= 1
                draining[ci] = not demand
                fast_picks[ci] += 1
                # earliest start, inline
                start = bank_ready[gb]
                if now > start:
                    start = now
                ats = acts[gr]
                if ats:
                    v = ats[-1] + trrd
                    if v > start:
                        start = v
                    if len(ats) == 4:
                        v = ats[0] + tfaw
                        if v > start:
                            start = v
                if is_write:
                    v = bus_free[ci] + (0 if last_w[ci] else trtrs) - trcd - tcwl
                else:
                    v = bus_free[ci] + (twtr if last_w[ci] else 0) - trcd - tcl
                if v > start:
                    start = v
                if start >= busy_until[gr] + PD:
                    start += txp
            else:
                background = bg_cnt[ci]
                demand_n = dem_cnt[ci]
                if background == 0:
                    draining[ci] = False
                elif background >= WRITE_DRAIN or demand_n == 0:
                    draining[ci] = True
                elif background <= WRITE_DRAIN_LOW and demand_n > 0:
                    draining[ci] = False
                want = not (draining[ci] and background > 0)
                n_want = demand_n if want else background
                busf = bus_free[ci]
                lastw = last_w[ci]
                wcand = busf + (0 if lastw else trtrs) - trcd - tcwl
                rcand = busf + (twtr if lastw else 0) - trcd - tcl
                if n_want >= VECTOR_PICK_MIN:
                    idx, start = _vector_pick(
                        q, pm, want, now, wcand, rcand,
                        bank_ready, acts, busy_until,
                        trrd, tfaw, txp, PD, R, B, ci,
                    )
                else:
                    best_key = None
                    idx = -1
                    start = 0
                    for qi, e in enumerate(q):
                        if e[6] != want:
                            continue
                        gr = e[0]
                        st = bank_ready[e[1]]
                        if now > st:
                            st = now
                        ats = acts[gr]
                        if ats:
                            v = ats[-1] + trrd
                            if v > st:
                                st = v
                            if len(ats) == 4:
                                v = ats[0] + tfaw
                                if v > st:
                                    st = v
                        v = wcand if e[3] else rcand
                        if v > st:
                            st = v
                        if st >= busy_until[gr] + PD:
                            st += txp
                        key = (st, -pm[e[2]], e[4], qi)
                        if best_key is None or key < best_key:
                            best_key = key
                            idx = qi
                            start = st
                e = q.pop(idx)
                gr, gb, pk, is_write, arrive, tag, demand = e
                n = pm[pk] - 1
                if n:
                    pm[pk] = n
                else:
                    del pm[pk]
                if demand:
                    dem_cnt[ci] -= 1
                else:
                    bg_cnt[ci] -= 1

            # -- issue ---------------------------------------------------------
            # _account(gr, start), inline (the per-issue hot path).
            t0a = accounted_to[gr]
            if start > t0a:
                busy = busy_until[gr]
                active_end = busy if busy < start else start
                if active_end > t0a:
                    c_active[gr] += active_end - t0a
                idle_start = t0a if t0a > busy else busy
                if start > idle_start:
                    pd_point = busy + PD
                    standby_end = idle_start if idle_start > pd_point else pd_point
                    if standby_end > start:
                        standby_end = start
                    if standby_end > idle_start:
                        c_standby[gr] += standby_end - idle_start
                    if start > standby_end:
                        c_pdown[gr] += start - standby_end
                accounted_to[gr] = start
            if is_write:
                data_end = start + trcd + tcwl + tburst
                busy_end = start + bank_busy_write
                c_wr[gr] += 1
            else:
                data_end = start + trcd_tcl + tburst
                busy_end = start + bank_busy_read
                c_rd[gr] += 1
            c_act[gr] += 1
            bank_ready[gb] = busy_end
            acts[gr].append(start)
            if busy_end > busy_until[gr]:
                busy_until[gr] = busy_end
            bus_free[ci] = data_end
            last_w[ci] = is_write
            issued[ci] += 1
            nxt = start + 1
            v = data_end - trcd_tcl
            if v > nxt:
                nxt = v
            heappush(heap, (nxt, seq, _EV_CHAN, ci))
            seq += 1
            # -- completion ----------------------------------------------------
            if type(tag) is int:
                code = tag & _TAG_MASK
                if code == TAG_FILL:
                    cid = tag >> TAG_SHIFT
                    waiting[cid] = False
                    heappush(heap, (data_end + 1, seq, _EV_CORE, cid))
                    seq += 1
                elif code == TAG_POSTFILL:
                    posted[tag >> TAG_SHIFT] -= 1
                elif code == TAG_POSTLOAD:
                    loads[tag >> TAG_SHIFT] -= 1

        elif kind == _EV_CORE:
            cid = payload
            if done[cid]:
                continue
            bi = buf_i[cid]
            if bi == buf_n[cid]:
                if not _refill(cid):
                    done[cid] = True
                    done_cnt += 1
                    continue
                bi = 0
            gap = buf_gap[cid][bi]
            buf_i[cid] = bi + 1
            instr[cid] += gap
            total += gap
            if ipc_window:
                widx = now // ipc_window
                while len(window_instr) <= widx:
                    window_instr.append(0)
                window_instr[widx] += gap
            pend_addr[cid] = buf_addr[cid][bi]
            pend_wr[cid] = buf_wr[cid][bi]
            has_pend[cid] = True
            heappush(heap, (now + buf_dt[cid][bi], seq, _EV_ACCESS, cid))
            seq += 1

        elif kind == _EV_ACCESS:
            cid = payload
            addr = pend_addr[cid]
            is_write = pend_wr[cid]
            has_pend[cid] = False
            # inline LLC data-access hit fast path
            slot = where_get(addr)
            clock += 1
            if slot is not None:
                l_lru[slot] = clock
                if is_write:
                    l_dirty[slot] = True
                hits += 1
                heappush(heap, (now + HIT, seq, _EV_CORE, cid))
                seq += 1
                continue
            misses += 1
            s = addr & set_mask
            base = s * assoc
            filled = l_fill[s]
            ev = None
            if filled < assoc:
                victim = base + filled
                l_fill[s] = filled + 1
            else:
                sl = l_lru[base : base + assoc]
                victim = base + sl.index(min(sl))
                old = l_tags[victim]
                ev = (old, l_kind[victim], l_dirty[victim])
                if ev[2]:
                    evictions_dirty += 1
                del where[old]
            l_tags[victim] = addr
            l_lru[victim] = clock
            l_dirty[victim] = is_write
            l_kind[victim] = KIND_DATA
            where[addr] = victim
            if ev is not None and ev[2]:  # clean victims are cascade no-ops
                if ev[1] == KIND_DATA and ecc_fast and not faulty_gb:
                    # Dominant cascade case, fully inline: dirty data victim
                    # -> write-back enqueue + one cached ECC/XOR-line touch.
                    vaddr = ev[0]
                    v = pmemo.get(vaddr)
                    if v is None:
                        v = _coord(vaddr)
                    vci, vgr, vgb, vpk = v
                    q = queues[vci]
                    if len(q) >= QUEUE_DEPTH:
                        raise RuntimeError(
                            "channel queue overflow; caller must respect can_accept()"
                        )
                    q.append((vgr, vgb, vpk, True, now, TAG_WB, False))
                    pm = pendmaps[vci]
                    n = pm.get(vpk)
                    pm[vpk] = 1 if n is None else n + 1
                    bg_cnt[vci] += 1
                    accesses_64b += units_64b
                    n_data_w += 1
                    heappush(heap, (now, seq, _EV_CHAN, vci))
                    seq += 1
                    if not ecc_inline:
                        # _update_ecc_state, inline: dirty-touch the covering
                        # ECC/XOR line (delta accumulation; no fill on miss).
                        if _ep:
                            page, off = divmod(vaddr, _lpp_e)
                            eaddr = _EB + (page // _pc1) * _gpp + off // _ppc
                        else:
                            eaddr = ecc_addr_of(vaddr)
                        slot = where_get(eaddr)
                        clock += 1
                        if slot is not None:
                            l_lru[slot] = clock
                            l_dirty[slot] = True
                            hits += 1
                        else:
                            misses += 1
                            s = eaddr & set_mask
                            base = s * assoc
                            ev2 = None
                            filled = l_fill[s]
                            if filled < assoc:
                                victim = base + filled
                                l_fill[s] = filled + 1
                            else:
                                sl = l_lru[base : base + assoc]
                                victim = base + sl.index(min(sl))
                                old = l_tags[victim]
                                ev2 = (old, l_kind[victim], l_dirty[victim])
                                if ev2[2]:
                                    evictions_dirty += 1
                                del where[old]
                            l_tags[victim] = eaddr
                            l_lru[victim] = clock
                            l_dirty[victim] = True
                            l_kind[victim] = ecc_insert_kind
                            where[eaddr] = victim
                            if ev2 is not None and ev2[2]:
                                _handle_eviction(ev2, now)
                else:
                    _handle_eviction(ev, now)
            if faulty_gb and _coord(addr)[2] in faulty_gb:
                ev = _touch_materialized(addr, False, now)
                if ev is not None and ev[2]:
                    _handle_eviction(ev, now)
            # Classify the fill, then run _enqueue's body inline (this is
            # the dominant enqueue site; same push/seq order as the helper).
            if is_write and posted[cid] < POSTED_CAP:
                posted[cid] += 1
                tag = TAG_POSTFILL | cid << TAG_SHIFT
                demand = True
                wake = True
            elif not is_write and loads[cid] + 1 < load_mlp:
                loads[cid] += 1
                tag = TAG_POSTLOAD | cid << TAG_SHIFT
                demand = False
                wake = True
            else:
                waiting[cid] = True
                tag = TAG_FILL | cid << TAG_SHIFT
                demand = True
                wake = False
            v = pmemo.get(addr)
            if v is None:
                v = _coord(addr)
            ci, gr, gb, pk = v
            q = queues[ci]
            if len(q) >= QUEUE_DEPTH:
                raise RuntimeError("channel queue overflow; caller must respect can_accept()")
            q.append((gr, gb, pk, False, now, tag, demand))
            pm = pendmaps[ci]
            n = pm.get(pk)
            pm[pk] = 1 if n is None else n + 1
            if demand:
                dem_cnt[ci] += 1
            else:
                bg_cnt[ci] += 1
            accesses_64b += units_64b
            n_data_r += 1
            heappush(heap, (now, seq, _EV_CHAN, ci))
            seq += 1
            if wake:
                heappush(heap, (now + HIT, seq, _EV_CORE, cid))
                seq += 1

        elif kind == _EV_BURST:
            _, reads, writes, base_addr = bursts[payload]
            for j in range(reads):
                _enqueue(base_addr + j, False, TAG_SCRUB, now)
            for j in range(writes):
                _enqueue(base_addr + j, True, TAG_WB, now)

        else:  # _EV_SCRUB
            if done_cnt < n_cores:
                addr = scrub_cursor % scrub_region
                scrub_cursor += 1
                scrub_reads += 1
                _enqueue(addr, False, TAG_SCRUB, now)
                _push(now + scrub_interval, _EV_SCRUB, 0)

    # -- wind-down: mirror the reference's snapshot/finalize order ----------------------
    if snap is None:  # trace shorter than warm-up: measure everything
        snap = _counter_snapshot(0)
        snap_state = dict(
            instructions=0, cycles=0, accesses=0, hits=0, misses=0, counters=(0, 0, 0, 0)
        )
    if end_state is None:
        end_state = _state_snapshot()

    # Export the flat state back into the live objects.
    llc._clock = clock
    llc._hits = hits
    llc._misses = misses
    llc._evictions_dirty = evictions_dirty
    gr = 0
    for ci, ch in enumerate(chans):
        for r in ch.ranks:
            r.bank_ready[:] = bank_ready[gr * B : (gr + 1) * B]
            r.act_times = acts[gr]
            r.busy_until = busy_until[gr]
            r.accounted_to = accounted_to[gr]
            r.next_refresh = next_refresh[gr]
            r.refreshes = refreshes[gr]
            rc = r.counters
            rc.activates = c_act[gr]
            rc.read_bursts = c_rd[gr]
            rc.write_bursts = c_wr[gr]
            rc.cycles_active = c_active[gr]
            rc.cycles_precharge_standby = c_standby[gr]
            rc.cycles_powerdown = c_pdown[gr]
            gr += 1
        ch.queue = [
            MemRequest(
                rank=(rk := _unpack_key(e[2]))[0],
                bank=rk[1],
                row=rk[2],
                is_write=e[3],
                arrive=e[4],
                tag=e[5],
                demand=e[6],
            )
            for e in queues[ci]
        ]
        ch._pending_counts = {
            _unpack_key(pk): n for pk, n in pendmaps[ci].items()
        }
        ch._demand_count = dem_cnt[ci]
        ch._background_count = bg_cnt[ci]
        ch._draining = draining[ci]
        ch.bus_free = bus_free[ci]
        ch.last_was_write = last_w[ci]
        ch.fast_picks = fast_picks[ci]
        ch.issued_requests = issued[ci]
        ch._refresh_due = refresh_due[ci]
    mem.accesses_64b = accesses_64b
    sim.now = now
    sim._seq = seq
    sim.total_instructions = total
    sim.counters = AccessCounters(n_data_r, n_data_w, n_ecc_r, n_ecc_w)
    sim._scrub_cursor = scrub_cursor
    sim.scrub_reads = scrub_reads
    for cid, core in enumerate(cores):
        core.done = done[cid]
        core.waiting = waiting[cid]
        core.outstanding_posted = posted[cid]
        core.outstanding_loads = loads[cid]
        core.instructions = instr[cid]
        core.pending = (pend_addr[cid], pend_wr[cid]) if has_pend[cid] else None

    mem.finalize(now)
    baseline = [
        [
            RankEnergyCounters(
                activates=snap[0][ci * R + ri],
                read_bursts=snap[1][ci * R + ri],
                write_bursts=snap[2][ci * R + ri],
                cycles_active=snap[3][ci * R + ri],
                cycles_precharge_standby=snap[4][ci * R + ri],
                cycles_powerdown=snap[5][ci * R + ri],
            )
            for ri in range(R)
        ]
        for ci in range(C)
    ]
    energy = mem.energy_since(baseline)
    if obs_armed:
        sim._emit_run_telemetry(perf_counter() - wall0, seq - seq0)
    c0 = snap_state["counters"]
    c1 = end_state["counters"]
    return SimResult(
        instructions=end_state["instructions"] - snap_state["instructions"],
        cycles=end_state["cycles"] - snap_state["cycles"],
        energy=energy,
        accesses_64b=end_state["accesses"] - snap_state["accesses"],
        counters=AccessCounters(
            data_reads=c1[0] - c0[0],
            data_writes=c1[1] - c0[1],
            ecc_reads=c1[2] - c0[2],
            ecc_writes=c1[3] - c0[3],
        ),
        llc_hits=end_state["hits"] - snap_state["hits"],
        llc_misses=end_state["misses"] - snap_state["misses"],
    )


def _vector_pick(q, pm, want, now, wcand, rcand, bank_ready, acts, busy_until,
                 trrd, tfaw, txp, PD, R, B, ci):
    """Whole-array Most-Pending pick over a deep serviced class.

    Computes every candidate's earliest start with NumPy and minimizes the
    exact reference key ``(start, -pending, arrive, idx)`` via lexsort.
    Returns ``(queue_index, start)`` — identical to the scalar scan.
    """
    rows = [
        (qi, e[0], e[1], e[3], e[4], pm[e[2]])
        for qi, e in enumerate(q)
        if e[6] == want
    ]
    arr = np.asarray(rows, dtype=np.int64)
    qidx, gra, gba, wa, arrive, pending = arr.T
    lo = ci * R
    hi = lo + R
    br = np.asarray(bank_ready[lo * B : hi * B], dtype=np.int64)
    act_rrd = np.empty(R, dtype=np.int64)
    act_faw = np.empty(R, dtype=np.int64)
    bu = np.asarray(busy_until[lo:hi], dtype=np.int64)
    for ri in range(R):
        ats = acts[lo + ri]
        act_rrd[ri] = ats[-1] + trrd if ats else _LOW
        act_faw[ri] = ats[0] + tfaw if len(ats) == 4 else _LOW
    gr_local = gra - lo
    st = br[gba - lo * B]
    st = np.maximum(st, now)
    st = np.maximum(st, act_rrd[gr_local])
    st = np.maximum(st, act_faw[gr_local])
    st = np.maximum(st, np.where(wa != 0, wcand, rcand))
    st = st + np.where(st >= bu[gr_local] + PD, txp, 0)
    order = np.lexsort((qidx, arrive, -pending, st))
    j = order[0]
    return int(qidx[j]), int(st[j])
