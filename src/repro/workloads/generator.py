"""Reference-stream generators for the synthetic workloads.

Produces an infinite stream of ``(instruction_gap, line_address, is_write)``
tuples per core.  Addresses follow a run-and-jump model: sequential runs of
geometric mean length ``seq_run`` (spatial locality), with jumps landing in
a small hot region with probability ``hot_prob`` (temporal locality) or
uniformly in the footprint otherwise.  Gaps are geometric with mean
``1000 / apki`` instructions.

SPEC workloads are multiprogrammed: each of the 8 instances gets a disjoint
address-space slice (and the paper's 10M-instruction skews are emulated by
independent RNG streams).  PARSEC workloads are multithreaded: all cores
share one footprint and one hot region, so they genuinely share LLC lines.

Items are drawn from precomputed NumPy batches so the per-item Python cost
stays at a couple of hundred nanoseconds (the timing plane consumes tens of
millions of items per experiment sweep).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.util.rng import make_rng
from repro.workloads.profiles import WorkloadProfile

#: Line-address stride between multiprogrammed instances (1 TiB apart).
INSTANCE_STRIDE_LINES = (1 << 40) // 64

#: Line-address base of the shared hot arena used for Section VI-A hot-page
#: placement experiments: above every instance's footprint, below the ECC
#: region (1 << 40 lines).
HOT_ARENA_BASE_LINE = 1 << 38


class TraceStream:
    """Reference stream: iterator of ``(gap, line_addr, is_write)`` forever.

    The per-item protocol (``next()``) serves the event-driven simulation
    kernel; :meth:`take_batch` hands the compiled epoch core the remainder
    of the current randomness batch as whole arrays, with the run-and-jump
    position recurrence resolved by a vectorized segmented scan instead of
    the per-item state machine.  Both paths consume the same RNG draws in
    the same order and produce identical items, so a simulation is
    bit-identical regardless of which kernel (or mix) pulls the trace.

    When *hot_base* is set, the hot region lives at that separate address
    (an OS that segregated hot pages); sequential runs continue inside
    whichever region the last jump landed in.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        rng: np.random.Generator,
        base_line: int,
        lines_per_llc_block: int,
        footprint_scale: float = 1.0,
        batch: int = 4096,
        hot_base: "int | None" = None,
    ):
        footprint = max(int(profile.footprint_lines / footprint_scale), 64)
        self._footprint = footprint
        self._hot_lines = max(int(footprint * profile.hot_frac), 16)
        mean_gap = 1000.0 / profile.apki
        self._p_gap = min(1.0, 1.0 / mean_gap)
        self._write_frac = profile.write_frac
        self._p_jump = 1.0 / profile.seq_run
        self._hot_prob = profile.hot_prob
        self._base = base_line
        self._hot_base = hot_base
        self._lpb = lines_per_llc_block
        self._rng = rng
        self._batch = batch
        self._pos = int(rng.integers(0, footprint))
        self._region_base = base_line  # where `pos` is currently relative to
        self._region_span = footprint
        self._i = 0
        self._n = 0

    def _draw(self) -> None:
        """Generate the next randomness batch (one block of RNG draws)."""
        rng = self._rng
        batch = self._batch
        self._gaps = rng.geometric(self._p_gap, size=batch)
        self._writes = rng.random(size=batch) < self._write_frac
        self._jumps = rng.random(size=batch) < self._p_jump
        self._hot = rng.random(size=batch) < self._hot_prob
        self._targets_hot = rng.integers(0, self._hot_lines, size=batch)
        self._targets_all = rng.integers(0, self._footprint, size=batch)
        self._i = 0
        self._n = batch

    def __iter__(self) -> "TraceStream":
        return self

    def __next__(self) -> "tuple[int, int, bool]":
        if self._i >= self._n:
            self._draw()
        i = self._i
        self._i = i + 1
        pos = self._pos
        if self._jumps[i]:
            hot_sep = self._hot_base is not None
            if self._hot[i]:
                pos = int(self._targets_hot[i])
                self._region_base = self._hot_base if hot_sep else self._base
                self._region_span = self._hot_lines if hot_sep else self._footprint
            else:
                pos = int(self._targets_all[i])
                self._region_base = self._base
                self._region_span = self._footprint
        else:
            pos += 1
            if pos >= self._region_span:
                pos = 0
        self._pos = pos
        # Addresses are LLC-block granular: with 128B blocks two adjacent
        # 64B references coalesce, which is the large-line spatial benefit.
        line = (self._region_base + pos) // self._lpb
        return int(self._gaps[i]), int(line), bool(self._writes[i])

    def take_batch(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Consume the rest of the current batch as ``(gaps, lines, writes)``.

        Draws a fresh batch when the current one is exhausted; returns
        int64/int64/bool arrays covering exactly the items ``next()`` would
        have produced.  The position recurrence ``pos+1 mod span`` between
        jumps is a segmented ramp, so each segment (carry-in state, then
        one per jump) is resolved with whole-array arithmetic.
        """
        if self._i >= self._n:
            self._draw()
        i0 = self._i
        self._i = self._n
        jump = self._jumps[i0:]
        n = len(jump)
        jpos = np.flatnonzero(jump)
        hot_sep = self._hot_base is not None
        is_hot = self._hot[i0:][jpos]
        jstart = np.where(is_hot, self._targets_hot[i0:][jpos], self._targets_all[i0:][jpos])
        if hot_sep:
            jbase = np.where(is_hot, self._hot_base, self._base)
            jspan = np.where(is_hot, self._hot_lines, self._footprint)
        else:
            jbase = np.full(len(jpos), self._base, dtype=np.int64)
            jspan = np.full(len(jpos), self._footprint, dtype=np.int64)
        # Segment 0 carries the pre-batch position (its "jump" sits at -1,
        # so the first non-jump item advances the carry position by one).
        starts = np.concatenate(([self._pos], jstart)).astype(np.int64)
        bases = np.concatenate(([self._region_base], jbase)).astype(np.int64)
        spans = np.concatenate(([self._region_span], jspan)).astype(np.int64)
        seg_at = np.concatenate(([-1], jpos)).astype(np.int64)
        seg = np.cumsum(jump)
        offset = np.arange(n, dtype=np.int64) - seg_at[seg]
        pos = (starts[seg] + offset) % spans[seg]
        lines = (bases[seg] + pos) // self._lpb
        if n:
            self._pos = int(pos[-1])
            last = int(seg[-1])
            self._region_base = int(bases[last])
            self._region_span = int(spans[last])
        return (
            self._gaps[i0:].astype(np.int64, copy=False),
            lines,
            self._writes[i0:],
        )


def make_core_traces(
    profile: WorkloadProfile,
    cores: int = 8,
    llc_block_bytes: int = 64,
    seed: "int | None" = 0,
    footprint_scale: float = 1.0,
    hot_arena: bool = False,
) -> "list[Iterator]":
    """Build one reference stream per core for *profile*.

    ``llc_block_bytes`` is the memory-system line size (64 or 128); the
    generator emits block-granular addresses so the LLC model sees coalesced
    references for large-line systems.  ``footprint_scale`` shrinks working
    sets in lockstep with a shrunken LLC (the standard cache-scaling trick
    that keeps miss rates while cutting warm-up cost).
    """
    lines_per_block = max(1, llc_block_bytes // 64)
    parent = make_rng(seed)
    children = parent.spawn(cores)
    footprint = max(int(profile.footprint_lines / footprint_scale), 64)
    hot_span = max(int(footprint * profile.hot_frac), 16)
    traces = []
    for cid in range(cores):
        if profile.suite == "parsec":
            base = 0  # shared address space
            hot_base = HOT_ARENA_BASE_LINE if hot_arena else None
        else:
            base = cid * INSTANCE_STRIDE_LINES
            hot_base = HOT_ARENA_BASE_LINE + cid * hot_span if hot_arena else None
        traces.append(
            TraceStream(
                profile, children[cid], base, lines_per_block, footprint_scale,
                hot_base=hot_base,
            )
        )
    return traces
