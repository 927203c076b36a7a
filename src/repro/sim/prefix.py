"""Prefix-burst split: commit the fault-free head of a phase, resume live.

When a fault plan can fire *inside* a hardware phase, the whole phase
used to fall back to the word path.  But the injected fault has a
well-defined earliest cycle it can possibly fire
(:meth:`~repro.sim.faults.FaultPlan.earliest_hazard`), and everything
strictly before that cycle is fault-free — exactly the regime the
event-order replay (:func:`repro.sim.burst.replay_phase`) reproduces
cycle for cycle.  Run with a cut cycle ``C`` (the hazard cycle minus
one), the replay records the phase's timelines and its state at the end
of cycle ``C``; this module computes from that
:class:`~repro.sim.burst.PhaseSolution` how to

* **commit** the prefix: how many DRAM words each S2MM wrote, and where
  each DMA transfer and stream actor stands in its program (the FIFO
  counters and ``high_water`` and the HP port at ``C`` come straight
  from the replay's snapshot); and
* **resume** the remainder on the live word path, so every injection
  point from the hazard cycle onwards behaves exactly as it would have
  in a full word-path run.

Why the handoff is exact
------------------------
The replay's per-channel ``P``/``G`` completion-cycle lists are the word
path's own timestamps (the replay runs the kernel's order), and each
list is monotone — a channel has one producer and one consumer process.
Cutting at ``C`` therefore splits every component's program at a
well-defined op: all ops completing at or before ``C`` are committed;
the first op completing after ``C`` is, in the word path at the end of
cycle ``C``, either

* a **sleep** (pipeline fill, ``II`` spacing, a granted-but-future HP
  beat, ``CYCLES_PER_WORD`` pacing) — resumed as one absolute-corrected
  timeout to the op's recorded end cycle; or
* a **blocked channel handshake** — a put against a full FIFO or a get
  against an empty one.  The commit reproduces exactly that FIFO state
  (the snapshot's puts minus gets), so re-issuing the handshake at
  ``C`` parks it in the same queue and it completes organically when
  the peer's resumed process reaches it.

The sleepers are started in the order the kernel would wake their
same-cycle ties (the snapshot's ``cut_sleepers``), so their timeouts are
queued in the word run's relative order.  After its first resumed op,
each process runs the *unmodified* relative word-path code, so
post-hazard timing (including injected stalls, drops and truncations)
evolves identically to a full word-path run.  HP-port calls mutate the
port automaton at call time, so a call at or before ``C`` with a grant
after ``C`` is part of the committed port state (the snapshot's
``hp_state`` and ``hp_words``) and the resumed process only sleeps to
the grant — it must not re-issue the call.

A full burst is the same commit with the cut at the phase end: every
transfer is :data:`DONE` and nothing resumes.

No injection point is lost: every injector check committed by the cut
ran at a cycle strictly below the hazard, where by construction no armed
fault can fire; every check at or after the hazard cycle happens on the
live word path.  DRAM flips are background events at exactly their
``at_cycle`` — the cut at ``hazard - 1`` keeps them on the live side,
where MM2S resumes read DRAM word-by-word like the word path does.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.sim.burst import ActorSpec, DmaSpec
from repro.sim.memory import CYCLES_PER_WORD, READ_LATENCY, WRITE_LATENCY


@dataclass(frozen=True)
class DmaResume:
    """Where one DMA transfer stands at the cut.

    ``mode`` is ``"done"`` (:data:`DONE`: the transfer finished by the
    cut) or the name of the engine resume entry point; ``first`` is the
    word index the resumed process handles first; ``wake`` the absolute
    cycle a sleep-mode resume wakes at; ``committed`` the words of a
    resumed transfer fully landed (S2MM: DRAM words already written) by
    the end of the cut cycle.
    """

    mode: str
    first: int = 0
    wake: int = 0
    committed: int = 0


#: A transfer that finished by the cut: the runtime commits all of it.
DONE = DmaResume("done")


def plan_mm2s_resume(
    spec: DmaSpec, calls: list[tuple[int, int]] | None, P: list[int], cut: int
) -> DmaResume:
    """Classify an MM2S transfer at the cut.

    Word ``i`` is committed when its put completed (``P[i] <= cut``).
    The first open word's HP call — made at the previous put's
    completion — is always committed too (except before the initial
    ``READ_LATENCY`` expires), so the resume either sleeps to its grant
    (``grant_wait``), re-issues the blocked put (``put_pending``), or
    replays the whole per-word loop (``fresh``).
    """
    n_put = bisect_right(P, cut)
    if n_put == spec.count:
        return DONE
    first = n_put
    ready0 = spec.kick + READ_LATENCY
    if first == 0 and ready0 > cut:
        return DmaResume("fresh", 0, ready0)
    if calls is not None:
        grant = calls[first][1]
    else:
        ready = P[first - 1] if first else ready0
        grant = ready + CYCLES_PER_WORD
    if grant <= cut:
        return DmaResume("put_pending", first, cut, committed=n_put)
    return DmaResume("grant_wait", first, grant, committed=n_put)


def plan_s2mm_resume(
    spec: DmaSpec, calls: list[tuple[int, int]] | None, G: list[int], cut: int
) -> DmaResume:
    """Classify an S2MM transfer at the cut.

    Word ``i``'s DRAM write lands at its get completion ``G[i]``; the
    word is *finished* only once the following HP grant (or
    ``CYCLES_PER_WORD`` pacing) completes.  A word written but not yet
    paced resumes as ``acquire_wait``; otherwise the open word's get is
    re-issued (``get_wait``) or the whole loop replays (``fresh``).
    """
    n_got = bisect_right(G, cut)
    if n_got:
        i = n_got - 1
        done = calls[i][1] if calls is not None else G[i] + CYCLES_PER_WORD
        if done > cut:
            return DmaResume("acquire_wait", i, done, committed=n_got)
        if n_got == spec.count:
            return DONE
    ready0 = spec.kick + WRITE_LATENCY
    if n_got == 0 and ready0 > cut:
        return DmaResume("fresh", 0, ready0)
    return DmaResume("get_wait", n_got, cut, committed=n_got)


def _actor_ops(spec: ActorSpec, timeline: dict, tokens_of: dict):
    """The actor's blocking ops in program order, with recorded end cycles.

    Yields ``(kind, channel, end, dur, token)`` tuples mirroring
    :class:`~repro.sim.accel.StreamActorSim` op for op: bulk-input
    drains, the ``depth`` fill, per-firing rate gets / ``II`` wait /
    rate puts, then paced bulk-output puts.  ``end`` comes from the
    replay's completion-cycle lists (each channel's index equals the
    actor-local index — one producer, one consumer per channel);
    ``dur`` is the word path's relative sleep for ``wait`` ops.
    """
    t = spec.t0
    for key, n in spec.bulk_ins:
        G = timeline[key][1]
        for i in range(n):
            t = G[i]
            yield ("get", key, t, 0, None)
    t += spec.depth
    yield ("wait", None, t, spec.depth, None)
    for f in range(spec.firings):
        for key in spec.rate_ins:
            t = timeline[key][1][f]
            yield ("get", key, t, 0, None)
        if f > 0:
            t += spec.ii
            yield ("wait", None, t, spec.ii, None)
        for key in spec.rate_outs:
            t = timeline[key][0][f]
            yield ("put", key, t, 0, tokens_of[key][f])
    for key, n in spec.bulk_outs:
        P = timeline[key][0]
        for k in range(n):
            t += CYCLES_PER_WORD
            yield ("wait", None, t, CYCLES_PER_WORD, None)
            t = P[k]
            yield ("put", key, t, 0, tokens_of[key][k])


def resume_actor(env, spec: ActorSpec, timeline: dict, tokens_of: dict,
                 cut: int, span: dict):
    """Generator resuming one stream actor from the cut.

    Ops whose recorded end is at or before *cut* are already committed and
    are skipped; the first open op is re-issued with absolute-time
    correction (a sleep's remaining duration, or the blocked handshake
    itself), and every later op runs as plain relative word-path code so
    post-hazard faults perturb timing exactly like a full word run.
    ``span["finish"]`` records the live completion cycle for the trace.
    """
    live = False
    for kind, key, end, dur, token in _actor_ops(spec, timeline, tokens_of):
        if not live:
            if end <= cut:
                continue
            live = True
            if kind == "wait":
                yield env.timeout(end - env.now)
            elif kind == "get":
                yield key.get()
            else:
                yield key.put(token)
        elif kind == "wait":
            yield env.timeout(dur)
        elif kind == "get":
            yield key.get()
        else:
            yield key.put(token)
    span["finish"] = env.now


def start_resumes(env, resumes: dict, sleepers: list) -> dict:
    """Start the resumed processes; returns index -> process.

    *resumes* maps an index into ``dmas + actors`` to ``(generator,
    name)``.  The *sleepers* (a cut replay's ``cut_sleepers``) start
    first, in the order the kernel would wake their same-cycle ties, so
    each queues its timeout in the word run's relative order; the
    blocked rest only park on their FIFOs.
    """
    order = sleepers + [i for i in resumes if i not in sleepers]
    return {i: env.process(resumes[i][0], name=resumes[i][1]) for i in order}
