"""Burst fast path: an analytic phase solver with cycle-identical results.

The word-level simulator charges one kernel event per 32-bit word — a
queue push/pop, an :class:`~repro.sim.kernel.Event` allocation and a
generator resume for every FIFO handshake and every HP-port beat.  A
VGA frame through the Otsu pipeline is millions of such events, all of
which compute timestamps a closed-form recurrence predicts exactly.

This module evaluates those recurrences directly.  For one hardware
phase it solves, *before any simulator state is touched*, the complete
timestamp sequences of every component, and the runtime then replaces
the per-word processes with a **single kernel timeout** to the solved
end of the phase plus a commit step that applies the identical final
state (DRAM bytes, FIFO counters, DMA registers, HP-port automaton,
actor spans).

Why the results are exact
-------------------------
*FIFO timing is max-plus and order-insensitive.*  For a bounded FIFO of
capacity ``C`` with put-complete times ``P_i`` and get-complete times
``G_i``::

    P_i = max(ready_prod_i, G_{i-C})        (backpressure)
    G_i = max(ready_cons_i, P_i)            (availability)

These recurrences depend only on *values*, never on the intra-cycle
order in which the kernel happens to run the handshake callbacks, so
evaluating them arithmetically reproduces the event kernel's cycles
bit-for-bit.

*Shared HP-port timing is certified by a merged interleaving replay.*
The solver first runs each master against a private copy of the port
automaton (its *solo* schedule), then replays **every** master's calls
through one shared automaton in global call-time order, starting from
the port's real pre-phase state.  The replay is the proof: the real
kernel also mutates the port at each call's cycle, so the only freedom
an interleaving has left is the order of *cross-master same-cycle*
calls.  The certificate therefore accepts the solution exactly when

* every cross-master same-cycle call group is granted **uniformly**
  (all calls of the group get the same grant cycle) — the grant
  multiset of a tie group depends only on the pre-state and the group
  size, so uniform grants make the per-master assignment, and the
  post-state, independent of kernel order; and
* every call's merged grant equals its solo grant — then each master's
  solved timestamps (which only depend on its own grants and the FIFO
  value recurrences) are a fixed point of the shared port too.

This strictly generalizes the earlier pairwise-disjoint-or-unsaturated
test: disjoint schedules replay to their solo grants trivially, an
unsaturated shared window is a uniform tie group, and saturated
single-master stretches (a DMA filling a deep FIFO at full rate) are
now accepted whenever the other masters provably keep out of the
contended cycles.  A schedule the certificate refuses
(``hp_unprovable``) really depends on the kernel's tie order: a late
grant in a back-to-back S2MM drain moves every later call of that
master.

*Contended phases are replayed in kernel order.*  For those phases
:func:`replay_phase` runs the phase's own entries — process starts,
timeout triggers, resumptions, FIFO handoffs, HP-port calls — in the
event kernel's ``(time, push order)``, as opcode-yielding generators on
a private two-queue loop with no :class:`~repro.sim.kernel.Event`
objects.  Entries of other processes only interleave with the phase's
own, so the replay reaches the word path's exact outcome without an
event allocation or callback dispatch per entry.  A phase the replay
cannot finish (a blocked process, tokens left in a FIFO) **falls back
to the word path**, which raises the usual diagnostic.

What the solver does *not* reconstruct exactly: a FIFO's ``high_water``
statistic depends on whether a same-cycle put/get pair hands off
directly or bounces through the queue — invisible to timing and data,
so the solver only estimates it (the replay's is exact) and
:meth:`ExecutionReport.digest` excludes it.

Components modelled (mirroring the generator processes word for word):

* **MM2S** — ``kick + READ_LATENCY``, then per word an HP grant (or
  ``CYCLES_PER_WORD``) followed by a backpressured put.
* **S2MM** — ``kick + WRITE_LATENCY``, then per word a get followed by
  an HP grant (or ``CYCLES_PER_WORD``).
* **Stream actor** — bulk inputs drain fully, ``depth`` pipeline fill,
  then per firing: rate-1 gets, ``II`` spacing, rate-1 puts; bulk
  outputs leave at ``CYCLES_PER_WORD`` spacing after the last firing.

The solver runs the component recurrences as cooperating generators in
round-robin chunks until every sequence is complete; a cycle of unmet
dependencies (count mismatch, genuine deadlock) makes a full round pass
with no progress and the solver returns ``None`` — the word path is the
universal fallback.

Every bail-out is classified into the closed taxonomy
:data:`FALLBACK_REASONS` (via :func:`solve_phase_ex`), so the runtime,
``repro simbench`` and the benchmark artifacts can account for *why*
each phase fell back instead of just counting fallbacks.

A :class:`PhaseMemo` remembers each phase's outcome under its
t0-relative solver inputs (:func:`phase_memo_key`).  A design-space
sweep repeats the same phase across candidates that differ only on
other axes, so the runtime solves — or, for an ``hp_unprovable``
phase, replays — each distinct phase once per campaign and commits
every repeat from the memo.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.htg.schedule import topological_order
from repro.sim.memory import CYCLES_PER_WORD, READ_LATENCY, WRITE_LATENCY

#: Closed taxonomy of burst-fallback causes.  Every path that sends a
#: hardware phase to the word simulator is tagged with exactly one of
#: these, and :attr:`ExecutionReport.burst_stats` carries the per-phase
#: and per-reason accounting downstream (simbench, benchmarks, CI).
FALLBACK_REASONS = (
    "fault_touches",    # armed fault could fire before/inside the phase
    "hp_unprovable",    # shared HP-port schedule not interleaving-invariant
    "fifo_busy",        # a phase FIFO holds tokens or pending handshakes
    "engine_busy",      # a DMA channel still has a transfer in flight
    "no_convergence",   # solver made no progress / token counts mismatch
    "watchdog_budget",  # solved finish would outlive the node watchdog
    "shallow_fifo",     # a FIFO is too shallow for the burst algebra
)


def hw_serialized(htg, partition) -> bool:
    """True when no two hardware nodes can ever execute concurrently.

    The burst fast path commits a phase's hardware state at the phase
    end instead of evolving it word by word, which is only equivalent
    while no *other* hardware node observes or mutates the shared HP
    port / DMA engines mid-phase.  Software nodes may overlap freely
    (they touch neither).  Sufficient static condition: every pair of
    hardware-mapped nodes is ordered by the HTG precedence DAG.
    """
    hw = partition.hw_nodes()
    if len(hw) < 2:
        return True
    ancestors: dict[str, set[str]] = {}
    for name in topological_order(htg):
        acc: set[str] = set()
        for pred in htg.predecessors(name):
            acc.add(pred)
            acc |= ancestors[pred]
        ancestors[name] = acc
    for i, a in enumerate(hw):
        for b in hw[i + 1:]:
            if a not in ancestors[b] and b not in ancestors[a]:
                return False
    return True


@dataclass
class DmaSpec:
    """One DMA channel transfer: solver input."""

    kick: int  # cycle mm2s_transfer/s2mm_transfer is called
    count: int  # words
    chan: object  # channel key (the StreamChannel instance)
    direction: str  # "mm2s" | "s2mm"


@dataclass
class ActorSpec:
    """One stream actor: solver input (all lists in declared port order)."""

    name: str
    t0: int
    firings: int
    depth: int
    ii: int
    bulk_ins: list[tuple[object, int]] = field(default_factory=list)
    rate_ins: list[object] = field(default_factory=list)
    rate_outs: list[object] = field(default_factory=list)
    bulk_outs: list[tuple[object, int]] = field(default_factory=list)


@dataclass
class PhaseSolution:
    """Everything the runtime needs to commit a solved phase.

    Besides the final-state summary, the solution keeps the *complete*
    per-channel timestamp lists and per-master HP call schedules: the
    prefix-burst path (see :mod:`repro.sim.prefix`) truncates them at an
    arbitrary cycle to reconstruct exact mid-phase state.
    """

    finish: int  # max completion cycle over every component
    actor_spans: list[tuple[str, int, int]]  # (name, started, finished)
    channels: dict  # key -> (puts, gets, high_water_estimate)
    hp_state: tuple[int, int] | None  # final (_slot_time, _slot_used)
    hp_words: int = 0
    #: channel key -> (P, G): full put/get completion-time lists.
    timeline: dict = field(default_factory=dict)
    #: per-DmaSpec solo HP schedule [(call_cycle, grant_cycle), ...]
    #: (None for specs solved without an HP port).
    dma_calls: list = field(default_factory=list)
    #: merged HP events [(call_cycle, master_index, grant_cycle), ...]
    #: sorted by call cycle — the certificate's replay input.
    hp_events: list = field(default_factory=list)
    #: HP-port automaton state at phase entry (for truncated replays).
    hp_init: tuple[int, int] = (-1, 0)


class _Chan:
    __slots__ = ("cap", "P", "G")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.P: list[int] = []  # put-complete time of token i
        self.G: list[int] = []  # get-complete time of token i


class _SoloHp:
    """One master's private replica of the HP-port automaton.

    Starts from the reset state and records the full call/grant
    schedule; the merged-replay certificate (:func:`_hp_certificate`)
    then decides whether this solo schedule survives sharing the real
    port with the other masters under every kernel interleaving.
    """

    __slots__ = ("wpc", "slot_time", "slot_used", "calls")

    def __init__(self, wpc: int) -> None:
        self.wpc = wpc
        self.slot_time = -1
        self.slot_used = 0
        #: [(call_cycle, grant_cycle), ...] in program order.
        self.calls: list[tuple[int, int]] = []

    def call(self, t: int) -> int:
        if self.slot_time < t:
            self.slot_time = t
            self.slot_used = 0
        if self.slot_used >= self.wpc:
            self.slot_time += 1
            self.slot_used = 0
        grant = self.slot_time
        self.slot_used += 1
        self.calls.append((t, grant))
        return grant


def _hp_certificate(
    events: list[tuple[int, int, int]],
    wpc: int,
    init: tuple[int, int],
) -> tuple[int, int] | None:
    """Per-cycle interleaving certificate for a shared HP port.

    *events* is the merged schedule ``[(call, master, solo_grant), ...]``
    sorted by call cycle (stable, so one master's same-cycle calls stay
    in program order).  Replays it through a single automaton starting
    from *init* — the port's real pre-phase ``(_slot_time, _slot_used)``
    — and accepts only when

    * within every same-cycle group containing calls from more than one
      master, every call is granted the *same* cycle (the grant multiset
      of a tie group is interleaving-invariant, so uniform grants make
      the per-master assignment order-independent), and
    * every merged grant equals the caller's solo grant (so the solved
      timestamps are a fixed point of the shared automaton).

    Returns the exact final ``(_slot_time, _slot_used)`` on success,
    ``None`` when the schedule is not provably order-independent.
    """
    slot_time, slot_used = init
    i, n = 0, len(events)
    while i < n:
        t = events[i][0]
        j = i
        masters = set()
        while j < n and events[j][0] == t:
            masters.add(events[j][1])
            j += 1
        if slot_time < t:
            slot_time = t
            slot_used = 0
        first_grant = None
        for k in range(i, j):
            if slot_used >= wpc:
                slot_time += 1
                slot_used = 0
            if first_grant is None:
                first_grant = slot_time
            if slot_time != events[k][2]:
                return None  # sharing the port breaks the solo schedule
            slot_used += 1
        if len(masters) > 1 and slot_time != first_grant:
            return None  # grant assignment depends on kernel order
        i = j
    return (slot_time, slot_used)


def replay_hp_state(
    events: list[tuple[int, int, int]],
    wpc: int,
    init: tuple[int, int],
    cut: int,
) -> tuple[tuple[int, int], int]:
    """Port state after every call at or before *cut* of a certified run.

    Used by the prefix-burst commit: calls are replayed in call-cycle
    order (the order the real kernel mutates the port in), so the
    returned ``(_slot_time, _slot_used)`` and call count are exactly the
    live port's state at the end of cycle *cut*.  Only valid for event
    lists :func:`_hp_certificate` accepted.
    """
    slot_time, slot_used = init
    done = 0
    for call, _master, _grant in events:
        if call > cut:
            break
        if slot_time < call:
            slot_time = call
            slot_used = 0
        if slot_used >= wpc:
            slot_time += 1
            slot_used = 0
        slot_used += 1
        done += 1
    return (slot_time, slot_used), done


class _Comp:
    __slots__ = ("gen", "finish")

    def __init__(self) -> None:
        self.gen = None
        self.finish: int | None = None


def _dma_gen(comp: _Comp, spec: DmaSpec, ch: _Chan, solo: _SoloHp | None):
    cap, P, G = ch.cap, ch.P, ch.G
    if spec.direction == "mm2s":
        t = spec.kick + READ_LATENCY
        for i in range(spec.count):
            t = solo.call(t) if solo is not None else t + CYCLES_PER_WORD
            j = i - cap
            if j >= 0:
                while len(G) <= j:
                    yield
                g = G[j]
                if g > t:
                    t = g
            P.append(t)
    else:
        t = spec.kick + WRITE_LATENCY
        for i in range(spec.count):
            while len(P) <= i:
                yield
            p = P[i]
            if p > t:
                t = p
            G.append(t)
            t = solo.call(t) if solo is not None else t + CYCLES_PER_WORD
    comp.finish = t


def _actor_gen(comp: _Comp, spec: ActorSpec, chans: dict):
    t = spec.t0
    for key, n in spec.bulk_ins:
        ch = chans[key]
        P, G = ch.P, ch.G
        for i in range(n):
            while len(P) <= i:
                yield
            p = P[i]
            if p > t:
                t = p
            G.append(t)
    t += spec.depth
    ins = [chans[k] for k in spec.rate_ins]
    outs = [chans[k] for k in spec.rate_outs]
    ii = spec.ii
    if not ins and not outs:
        if spec.firings > 1:
            t += (spec.firings - 1) * ii
    else:
        for f in range(spec.firings):
            for ch in ins:
                P = ch.P
                while len(P) <= f:
                    yield
                p = P[f]
                if p > t:
                    t = p
                ch.G.append(t)
            if f > 0:
                t += ii
            for ch in outs:
                j = f - ch.cap
                if j >= 0:
                    G = ch.G
                    while len(G) <= j:
                        yield
                    g = G[j]
                    if g > t:
                        t = g
                ch.P.append(t)
    for key, n in spec.bulk_outs:
        ch = chans[key]
        cap, P, G = ch.cap, ch.P, ch.G
        for k in range(n):
            t += CYCLES_PER_WORD
            j = k - cap
            if j >= 0:
                while len(G) <= j:
                    yield
                g = G[j]
                if g > t:
                    t = g
            P.append(t)
    comp.finish = t


def _high_water_estimate(P: list[int], G: list[int], cap: int) -> int:
    """Peak-occupancy estimate (exact up to same-cycle handoff races)."""
    if not P:
        return 0
    if not G:
        return min(len(P), cap)
    pa = np.asarray(P, dtype=np.int64)
    ga = np.asarray(G, dtype=np.int64)
    arrived = np.searchsorted(pa, ga, side="right")
    occ = arrived - np.arange(len(G), dtype=np.int64)
    return max(1, min(cap, int(occ.max())))


def solve_phase_ex(
    channels: dict,
    dmas: list[DmaSpec],
    actors: list[ActorSpec],
    *,
    hp_wpc: int | None = None,
    hp_slot_time: int | None = None,
    hp_slot_used: int = 0,
) -> tuple[PhaseSolution | None, str | None]:
    """Solve one phase's timestamps.

    Returns ``(solution, None)`` on success, ``(None, reason)`` — with
    *reason* drawn from :data:`FALLBACK_REASONS` — whenever exactness
    cannot be guaranteed: a too-shallow FIFO, a dependency cycle that
    makes no progress (mismatched token counts / genuine deadlock),
    leftover tokens, or a shared HP-port schedule the interleaving
    certificate cannot prove order-independent.  *channels* maps channel
    keys to capacities (post capacity-bump); *hp_slot_time* /
    *hp_slot_used* carry the real port's pre-phase automaton state into
    the certificate.
    """
    if any(cap < 2 for cap in channels.values()):
        return None, "shallow_fifo"
    chans = {key: _Chan(cap) for key, cap in channels.items()}
    comps: list[_Comp] = []
    solos: list[_SoloHp | None] = []
    for spec in dmas:
        if spec.count < 1:
            return None, "no_convergence"
        comp = _Comp()
        solo = _SoloHp(hp_wpc) if hp_wpc is not None else None
        solos.append(solo)
        comp.gen = _dma_gen(comp, spec, chans[spec.chan], solo)
        comps.append(comp)
    actor_comps: list[_Comp] = []
    for aspec in actors:
        comp = _Comp()
        comp.gen = _actor_gen(comp, aspec, chans)
        comps.append(comp)
        actor_comps.append(comp)

    pending = list(comps)
    while pending:
        progressed = False
        before = sum(len(c.P) + len(c.G) for c in chans.values())
        still: list[_Comp] = []
        for comp in pending:
            try:
                next(comp.gen)
            except StopIteration:
                progressed = True
            else:
                still.append(comp)
        if sum(len(c.P) + len(c.G) for c in chans.values()) > before:
            progressed = True
        if not progressed:
            return None, "no_convergence"  # unmet dependency cycle
        pending = still

    # Every token produced must also be consumed, or the commit would
    # have to materialize leftover FIFO contents — fall back instead.
    for ch in chans.values():
        if len(ch.P) != len(ch.G):
            return None, "no_convergence"

    hp_state: tuple[int, int] | None = None
    hp_words = 0
    hp_events: list[tuple[int, int, int]] = []
    hp_init = (hp_slot_time if hp_slot_time is not None else -1, hp_slot_used)
    active = [s for s in solos if s is not None and s.calls]
    if active:
        for mi, s in enumerate(active):
            for call, grant in s.calls:
                hp_events.append((call, mi, grant))
        hp_events.sort(key=lambda e: e[0])
        hp_state = _hp_certificate(hp_events, hp_wpc, hp_init)
        if hp_state is None:
            return None, "hp_unprovable"
        hp_words = len(hp_events)

    return PhaseSolution(
        finish=max(c.finish for c in comps) if comps else 0,
        actor_spans=[
            (spec.name, spec.t0, comp.finish)
            for spec, comp in zip(actors, actor_comps)
        ],
        channels={
            key: (len(ch.P), len(ch.G), _high_water_estimate(ch.P, ch.G, ch.cap))
            for key, ch in chans.items()
        },
        hp_state=hp_state,
        hp_words=hp_words,
        timeline={key: (ch.P, ch.G) for key, ch in chans.items()},
        dma_calls=[s.calls if s is not None else None for s in solos],
        hp_events=hp_events,
        hp_init=hp_init,
    ), None


#: Replay opcodes: what a replayed process yields, paired with its argument.
_WAIT, _PUT, _GET, _ACQUIRE = range(4)


class _Fifo:
    """A phase FIFO as :func:`replay_phase` sees it: counts, no tokens."""

    __slots__ = ("cap", "n", "puts", "gets", "high_water", "getters", "putters",
                 "put_op", "get_op")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.n = 0
        self.puts = self.gets = self.high_water = 0
        self.getters: deque = deque()  # blocked consumers, arrival order
        self.putters: deque = deque()  # blocked producers, arrival order
        self.put_op = (_PUT, self)
        self.get_op = (_GET, self)


def _replay_dma(spec: DmaSpec, f: _Fifo):
    """``DmaEngine._run_mm2s`` / ``_run_s2mm`` on an HP port, as opcodes."""
    acquire = (_ACQUIRE, None)
    if spec.direction == "mm2s":
        yield (_WAIT, READ_LATENCY)
        for _ in range(spec.count):
            yield acquire
            yield f.put_op
    else:
        yield (_WAIT, WRITE_LATENCY)
        for _ in range(spec.count):
            yield f.get_op
            yield acquire


def _replay_actor(spec: ActorSpec, fifos: dict):
    """``StreamActorSim._run``, as opcodes."""
    for key, n in spec.bulk_ins:
        op = fifos[key].get_op
        for _ in range(n):
            yield op
    yield (_WAIT, spec.depth)
    gets = [fifos[k].get_op for k in spec.rate_ins]
    puts = [fifos[k].put_op for k in spec.rate_outs]
    step = (_WAIT, spec.ii)
    for f in range(spec.firings):
        yield from gets
        if f > 0:
            yield step
        yield from puts
    word = (_WAIT, CYCLES_PER_WORD)
    for key, n in spec.bulk_outs:
        op = fifos[key].put_op
        for _ in range(n):
            yield word
            yield op


def replay_phase(
    t0: int,
    channels: dict,
    dmas: list[DmaSpec],
    actors: list[ActorSpec],
    *,
    hp_wpc: int,
    hp_slot_time: int | None = None,
    hp_slot_used: int = 0,
) -> PhaseSolution | None:
    """Run one phase's own kernel entries in the event kernel's order.

    The exact path for phases :func:`solve_phase_ex` refuses as
    ``hp_unprovable``: on a saturated shared port the grant of a
    same-cycle tie depends on which master the kernel runs first, so
    instead of certifying order-independence this replays the order.
    Each word-path process is a generator yielding opcodes, and a
    two-queue loop runs their entries in ``(time, push order)`` exactly
    like :class:`~repro.sim.kernel.Environment` (the rule list is in
    DESIGN.md §8): a heap of timeout triggers due later, a FIFO of this
    cycle's zero-delay entries, due heap entries first.  The driver
    starts every actor at *t0* inside one step, then kicks each DMA from
    the step its ``spec.kick - previous`` timeout resumes — for the
    runtime one ``DRIVER_CALL_OVERHEAD`` apart, like ``cpu.call_driver``.

    Returns a :class:`PhaseSolution` (no timelines: the prefix path never
    uses a replay) whose ``high_water`` is exact, or ``None`` when a
    process is still blocked or a FIFO still holds tokens at the end —
    the word path then runs and raises its usual diagnostic.  *channels*
    maps keys to capacities; the HP arguments are those of the solver.
    """
    kicks = [t0] + [d.kick for d in dmas]
    if any(b < a for a, b in zip(kicks, kicks[1:])):
        raise ValueError("DMA kicks must follow t0 in driver-call order")
    if any(a.t0 != t0 for a in actors):
        raise ValueError("every actor starts at the phase start")
    fifos = {key: _Fifo(cap) for key, cap in channels.items()}
    actor_gens = [_replay_actor(a, fifos) for a in actors]
    dma_gens = [_replay_dma(d, fifos[d.chan]) for d in dmas]
    heap: list = []  # (due, seq, process): a timeout's trigger
    ready: deque = deque()  # (is_trigger, process), push order

    def driver():
        for gen in actor_gens:
            ready.append((False, gen))
        for (prev, kick), gen in zip(zip(kicks, kicks[1:]), dma_gens):
            yield (_WAIT, kick - prev)
            ready.append((False, gen))

    ended: dict = {}
    slot_time = hp_slot_time if hp_slot_time is not None else -1
    slot_used, words, seq, now = hp_slot_used, 0, 0, t0
    heappush, heappop = heapq.heappush, heapq.heappop
    ready.append((False, driver()))
    while True:
        if ready and (not heap or heap[0][0] > now):
            trigger, gen = ready.popleft()
            if trigger:  # a timeout(0) fired: its waiter resumes next
                ready.append((False, gen))
                continue
        elif heap:
            now, _, gen = heappop(heap)
            ready.append((False, gen))
            continue
        else:
            break
        try:
            op, arg = next(gen)
        except StopIteration:
            ended[gen] = now
            continue
        if op == _PUT:
            if arg.getters:  # direct handoff: the getter resumes first
                arg.puts += 1
                arg.gets += 1
                ready.append((False, arg.getters.popleft()))
                ready.append((False, gen))
            elif arg.n < arg.cap:
                arg.n += 1
                arg.puts += 1
                if arg.n > arg.high_water:
                    arg.high_water = arg.n
                ready.append((False, gen))
            else:
                arg.putters.append(gen)
            continue
        if op == _GET:
            if arg.n:
                arg.gets += 1
                if arg.putters:  # admits the head putter, which resumes first
                    arg.puts += 1  # occupancy back to n: high_water already >= n
                    ready.append((False, arg.putters.popleft()))
                else:
                    arg.n -= 1
                ready.append((False, gen))
            else:
                arg.getters.append(gen)
            continue
        if op == _ACQUIRE:  # HpPort.acquire at this cycle
            if slot_time < now:
                slot_time = now
                slot_used = 0
            if slot_used >= hp_wpc:
                slot_time += 1
                slot_used = 0
            slot_used += 1
            words += 1
            arg = slot_time - now
        if arg:
            seq += 1
            heappush(heap, (now + arg, seq, gen))
        else:
            ready.append((True, gen))

    if len(ended) != 1 + len(actor_gens) + len(dma_gens):
        return None  # a process is still blocked
    if any(f.n for f in fifos.values()):
        return None  # tokens left behind
    return PhaseSolution(
        finish=max(ended.values()),
        actor_spans=[
            (spec.name, t0, ended[gen]) for spec, gen in zip(actors, actor_gens)
        ],
        channels={
            key: (f.puts, f.gets, f.high_water) for key, f in fifos.items()
        },
        hp_state=(slot_time, slot_used) if words else None,
        hp_words=words,
    )


def phase_memo_key(
    t0: int,
    channels: dict,
    dmas: list[DmaSpec],
    actors: list[ActorSpec],
    *,
    hp_wpc: int | None = None,
    hp_slot_time: int | None = None,
    hp_slot_used: int = 0,
) -> tuple:
    """The solver's inputs for a phase starting at *t0*, made t0-relative.

    Channels are named by their index in *channels* (layout order), so
    two phases over different fabric objects share a key whenever the
    solver would see the same problem shifted in time.  A port whose
    ``_slot_time`` lies before *t0* is reset by the phase's first call,
    so its entry state is recorded as ``None``.
    """
    index = {key: i for i, key in enumerate(channels)}
    hp = None
    if hp_wpc is not None:
        entry = None
        if hp_slot_time is not None and hp_slot_time >= t0:
            entry = (hp_slot_time - t0, hp_slot_used)
        hp = (hp_wpc, entry)
    return (
        tuple(channels.values()),
        tuple((d.kick - t0, d.count, d.direction, index[d.chan]) for d in dmas),
        tuple(
            (
                a.t0 - t0, a.firings, a.depth, a.ii,
                tuple((index[k], n) for k, n in a.bulk_ins),
                tuple(index[k] for k in a.rate_ins),
                tuple(index[k] for k in a.rate_outs),
                tuple((index[k], n) for k, n in a.bulk_outs),
            )
            for a in actors
        ),
        hp,
    )


@dataclass(frozen=True)
class _MemoEntry:
    source: str  # "solve" | "replay": the path that computed the outcome
    finish: int
    spans: tuple  # ((started, finished), ...) per actor, layout order
    channels: tuple  # ((puts, gets, high_water), ...) per channel index
    hp_state: tuple[int, int] | None
    hp_words: int


class PhaseMemo:
    """Phase outcomes keyed by :func:`phase_memo_key`, all t0-relative.

    The word-path trajectory of a phase is a function of the key (see
    DESIGN.md §8), so an outcome computed once — by the solver, or by
    :func:`replay_phase` after an ``hp_unprovable`` refusal — is rebased
    and committed through the burst path at every later occurrence.  One
    memo serves one campaign; it is never shared across campaigns.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, _MemoEntry] = {}
        #: Hits served, by the path that filled the entry.
        self.hits = {"solve": 0, "replay": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, key: tuple, t0: int, source: str,
               outcome: PhaseSolution) -> None:
        """Store *outcome* (absolute cycles, channels in key order)."""
        hp = outcome.hp_state
        self._entries.setdefault(key, _MemoEntry(
            source=source,
            finish=outcome.finish - t0,
            spans=tuple((s - t0, f - t0) for _n, s, f in outcome.actor_spans),
            channels=tuple(outcome.channels.values()),
            hp_state=None if hp is None else (hp[0] - t0, hp[1]),
            hp_words=outcome.hp_words,
        ))

    def lookup(self, key: tuple, t0: int, channels: dict,
               actors: list[ActorSpec]) -> PhaseSolution | None:
        """The memoised outcome rebased to *t0*, or ``None`` on a miss."""
        e = self._entries.get(key)
        if e is None:
            return None
        self.hits[e.source] += 1
        return PhaseSolution(
            finish=t0 + e.finish,
            actor_spans=[
                (a.name, t0 + s, t0 + f) for a, (s, f) in zip(actors, e.spans)
            ],
            channels=dict(zip(channels, e.channels)),
            hp_state=None if e.hp_state is None else (t0 + e.hp_state[0], e.hp_state[1]),
            hp_words=e.hp_words,
        )
