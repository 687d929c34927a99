"""Fast bit-parallel NFA simulation engine.

The engine mirrors the AP datapath cycle by cycle (paper §II-B): the input
byte selects a row of the accept matrix, an AND with the enabled state vector
yields the activated states, and the routing matrix (CSR successor table)
produces the enabled vector for the next cycle.  State vectors are 64-bit
packed so a cycle costs a handful of word-wide NumPy ops plus work
proportional to the number of *activated* states, which is small for the
sparse activity patterns this paper exploits.

Hot-loop layout (see DESIGN.md §"Engine performance"): all per-cycle
buffers are allocated once and reused (``out=`` everywhere, no
``start_all.copy()`` per cycle); activated-state and report bit extraction
happens on Python big-ints built straight from the packed words (a single
``tobytes`` instead of several NumPy calls per cycle); and successor
propagation uses the dense packed successor-mask matrix
(:meth:`CompiledNetwork.successor_masks`) — one fancy-index gather plus one
``bitwise_or.reduce`` — falling back to the CSR expansion for networks too
large to materialize the matrix.  Report collection is skipped entirely for
networks with no reporting states (cold partitions).

Two entry points:

* :func:`run` — plain streaming execution (BaseAP mode / baseline AP).
* :func:`run_events` — Algorithm 1: execution driven by the input stream
  *and* a list of (position, state) enable events, with jump-over-idle-input
  and enable-stall accounting (SpAP mode, also reused by the AP–CPU handler).

Lock-step execution of several streams at once is a separate batch kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import bitops
from .compiled import CompiledNetwork
from .result import SimResult, reports_to_array

__all__ = ["run", "run_events", "EventRunResult", "as_input_array"]


def as_input_array(data) -> np.ndarray:
    """Normalize an input stream (bytes/str/array) to a uint8 array.

    Arrays must be one-dimensional with integer values in ``[0, 255]``;
    anything else raises ``ValueError`` instead of being silently wrapped
    mod 256 or truncated (``np.array([300, 65])`` used to become
    ``[44, 65]``, corrupting every downstream result).
    """
    if isinstance(data, np.ndarray):
        if data.ndim != 1:
            raise ValueError(f"input array must be 1-D, got shape {data.shape}")
        if data.dtype == np.uint8:
            return data
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError(
                f"input array must have an integer dtype, got {data.dtype} "
                "(floats would be silently truncated)"
            )
        if data.size and (int(data.min()) < 0 or int(data.max()) > 255):
            raise ValueError(
                f"input symbols must be in [0, 255]; got values in "
                f"[{int(data.min())}, {int(data.max())}] "
                "(uint8 conversion would wrap mod 256)"
            )
        return data.astype(np.uint8)
    if isinstance(data, str):
        data = data.encode("latin-1")
    return np.frombuffer(bytes(data), dtype=np.uint8)


def _extract_bits(value: int) -> List[int]:
    """Indices of the set bits of a non-negative Python int, ascending."""
    out: List[int] = []
    while value:
        low = value & -value
        out.append(low.bit_length() - 1)
        value ^= low
    return out


def run(
    compiled: CompiledNetwork,
    input_data,
    *,
    track_enabled: bool = True,
) -> SimResult:
    """Stream the whole input through the network (BaseAP semantics).

    ``ever_enabled`` accumulates the enabled vector at each cycle in which a
    symbol is consumed — the paper's hot set.
    """
    symbols = as_input_array(input_data)
    n_words = compiled.n_words
    enabled = compiled.initial_enabled()
    active = np.empty(n_words, dtype=np.uint64)
    scratch = np.empty(n_words, dtype=np.uint64)
    ever = np.zeros(n_words, dtype=np.uint64) if track_enabled else None
    accept = compiled.accept
    start_all = compiled.start_all
    report_int, mid_report_int = compiled.report_ints()
    has_reports = report_int != 0
    succ_masks = compiled.successor_masks()
    reports: List = []
    last = int(symbols.size) - 1

    for position, sym in enumerate(symbols.tolist()):
        if track_enabled:
            np.bitwise_or(ever, enabled, out=ever)
        np.bitwise_and(enabled, accept[sym], out=active)
        active_int = int.from_bytes(active.tobytes(), "little")
        if active_int:
            if has_reports:
                hits = active_int & (report_int if position == last else mid_report_int)
                while hits:
                    low = hits & -hits
                    reports.append((position, low.bit_length() - 1))
                    hits ^= low
            if succ_masks is not None:
                np.bitwise_or.reduce(
                    succ_masks[_extract_bits(active_int)], axis=0, out=scratch
                )
                np.bitwise_or(scratch, start_all, out=enabled)
            else:
                succ = compiled.successors_of(bitops.to_indices(active))
                np.copyto(enabled, start_all)
                bitops.set_indices(enabled, succ)
        else:
            np.copyto(enabled, start_all)

    return SimResult(
        n_states=compiled.n_states,
        n_symbols=int(symbols.size),
        cycles=int(symbols.size),
        reports=reports_to_array(reports),
        ever_enabled=ever if track_enabled else np.zeros(n_words, dtype=np.uint64),
    )


@dataclass
class EventRunResult:
    """Outcome of an event-driven (SpAP-style) run.

    ``consumed_cycles`` counts cycles that processed an input symbol;
    ``stall_cycles`` counts enable stalls from simultaneous events (k
    simultaneous enables cost k-1 extra cycles, §V-B); ``total_cycles`` is
    their sum — the SpAP-mode execution time in cycles.  ``jumps`` counts
    jump operations, including the final jump over an idle tail when the
    machine goes quiet before the end of the input.
    """

    n_states: int
    n_symbols: int
    consumed_cycles: int
    stall_cycles: int
    jumps: int
    reports: np.ndarray
    ever_enabled: np.ndarray

    @property
    def total_cycles(self) -> int:
        return self.consumed_cycles + self.stall_cycles

    def jump_ratio(self) -> float:
        """Proportion of input cycles skipped, in ``[0, 1]``.

        Defined as ``1 - total_cycles / n_symbols`` clamped below at zero:
        in stall-dominated runs (enable stalls exceeding skipped cycles,
        e.g. many simultaneous enables on a short input) ``total_cycles``
        can exceed the input length, and the unclamped value would be a
        meaningless negative "proportion".  A clamped 0.0 reads as "nothing
        was saved by jumping", which is the honest summary of such runs;
        use ``total_cycles`` directly when the overshoot itself matters.
        """
        if self.n_symbols == 0:
            return 0.0
        return max(0.0, 1.0 - self.total_cycles / float(self.n_symbols))


def run_events(
    compiled: CompiledNetwork,
    input_data,
    events: Optional[Sequence] = None,
    *,
    count_stalls: bool = True,
    track_enabled: bool = False,
) -> EventRunResult:
    """Algorithm 1: event-driven execution with jump and enable operations.

    ``events`` is a sequence of ``(position, global_state)`` pairs sorted by
    position; each enables ``global_state`` just before ``input[position]``
    is matched.  Events at ``position == len(input)`` have nothing left to
    match and are ignored.  Start states of the compiled network participate
    normally (a cold partition usually has none).
    """
    symbols = as_input_array(input_data)
    n = int(symbols.size)
    event_array = reports_to_array(events if events is not None else [])
    positions = event_array[:, 0]
    targets = event_array[:, 1]
    n_events = int(positions.size)
    if n_events:
        if positions.min() < 0:
            raise ValueError(f"negative event position: {int(positions.min())}")
        if targets.min() < 0 or targets.max() >= compiled.n_states:
            raise ValueError(
                f"event targets must be in [0, {compiled.n_states}); "
                f"got {int(targets.min())}..{int(targets.max())}"
            )

    n_words = compiled.n_words
    enabled = compiled.initial_enabled()
    active = np.empty(n_words, dtype=np.uint64)
    scratch = np.empty(n_words, dtype=np.uint64)
    ever = np.zeros(n_words, dtype=np.uint64)
    accept = compiled.accept
    start_all = compiled.start_all
    report_int, mid_report_int = compiled.report_ints()
    has_reports = report_int != 0
    succ_masks = compiled.successor_masks()
    reports: List = []
    syms = symbols.tolist()
    positions_list = positions.tolist()
    targets_list = targets.tolist()
    last = n - 1

    i = 0
    j = 0
    consumed = 0
    stalls = 0
    jumps = 0
    while i < n:
        if not enabled.any():
            # Jump operation: skip to where the next event enables a state.
            while j < n_events and positions_list[j] < i:
                j += 1  # events in already-passed positions cannot fire
            if j >= n_events or positions_list[j] >= n:
                jumps += 1  # final jump over the idle tail [i, n)
                break
            if positions_list[j] > i:
                i = positions_list[j]
                jumps += 1
        # Enable operation: inject all events at this position.
        simultaneous = 0
        while j < n_events and positions_list[j] == i:
            bitops.set_indices(enabled, [targets_list[j]])
            j += 1
            simultaneous += 1
        if count_stalls and simultaneous > 1:
            stalls += simultaneous - 1
        if track_enabled:
            np.bitwise_or(ever, enabled, out=ever)
        np.bitwise_and(enabled, accept[syms[i]], out=active)
        active_int = int.from_bytes(active.tobytes(), "little")
        if active_int:
            if has_reports:
                hits = active_int & (report_int if i == last else mid_report_int)
                while hits:
                    low = hits & -hits
                    reports.append((i, low.bit_length() - 1))
                    hits ^= low
            if succ_masks is not None:
                np.bitwise_or.reduce(
                    succ_masks[_extract_bits(active_int)], axis=0, out=scratch
                )
                np.bitwise_or(scratch, start_all, out=enabled)
            else:
                succ = compiled.successors_of(bitops.to_indices(active))
                np.copyto(enabled, start_all)
                bitops.set_indices(enabled, succ)
        else:
            np.copyto(enabled, start_all)
        consumed += 1
        i += 1

    return EventRunResult(
        n_states=compiled.n_states,
        n_symbols=n,
        consumed_cycles=consumed,
        stall_cycles=stalls,
        jumps=jumps,
        reports=reports_to_array(reports),
        ever_enabled=ever,
    )
