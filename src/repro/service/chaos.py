"""``repro servicecheck`` — kill-the-daemon chaos campaign.

The crashcheck campaign (PR 3) proved the *flow* recovers from a kill at
every journal boundary.  This campaign proves the *service* does: a
daemon with two tenants' jobs in flight — one of them fault-injected
through the simulation leg — is killed at every journal boundary, a
fresh daemon recovers the root, every submission is replayed (testing
idempotent resubmission), and the final state must satisfy:

* **byte-identical artifacts** — every job's artifact digest (and sim
  digest) equals the uninterrupted reference run's;
* **zero lost jobs** — every durably-admitted job reaches ``DONE``;
* **zero duplicated jobs** — resubmitting every spec after recovery
  creates no new job (content-addressed identity);
* **stable campaign digest** — the outcome records contain only
  deterministic fields, so two runs of the campaign digest identically.

Determinism is by construction: a daemon runs one job at a time (serial
execution, deterministic journal-boundary visit order), seeded stimuli,
seeded fault plans, and deterministic backoff jitter.  The daemon is
killed in-process (``die_on_interrupt``): the armed crash-point raises
out of the executor, the run loop abandons all state — the job's lease
and heartbeat included — exactly as a ``kill -9`` would have left the
disk, and recovery gets only what was durable.  The restarted daemon has the
same replica id and a newer incarnation, so it steals that lease at
once instead of waiting out its TTL.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.dsl.parser import parse_dsl
from repro.flow.crashpoints import ENV_MODE, ENV_SITE, CrashPlan, all_sites, armed
from repro.service.daemon import BuildService
from repro.service.jobs import DONE, JobSpec, SimSpec
from repro.service.store import JobStore
from repro.sim.faults import Fault, FaultPlan, campaign_digest

#: The campaign's design: a two-stage stream pipeline plus one AXI-Lite
#: core — every interface class, small enough that the full
#: kill-at-every-boundary matrix stays fast.
SERVICE_DSL = """
object svc extends App {
  tg nodes;
    tg node "SCALE" is "in" is "out" end;
    tg node "CLIP" is "in" is "out" end;
    tg node "SUM" i "A" i "B" i "return" end;
  tg end_nodes;
  tg edges;
    tg connect "SUM";
    tg link 'soc to ("SCALE", "in") end;
    tg link ("SCALE", "out") to ("CLIP", "in") end;
    tg link ("CLIP", "out") to 'soc end;
  tg end_edges;
}
"""

SERVICE_SOURCES = {
    "SCALE": "void SCALE(int in[16], int out[16]) {\n"
    "    for (int i = 0; i < 16; i++) out[i] = in[i] * 2;\n}\n",
    "CLIP": "void CLIP(int in[16], int out[16]) {\n"
    "    for (int i = 0; i < 16; i++) out[i] = in[i] > 20 ? 20 : in[i];\n}\n",
    "SUM": "int SUM(int A, int B) { return A + B; }\n",
}


def default_submissions() -> list[tuple[str, JobSpec]]:
    """The two-tenant job mix the campaign runs.

    * ``alice`` submits a clean build+simulate job;
    * ``bob`` submits the same design with a fault-injected simulation
      (a seeded DRAM bit flip from :mod:`repro.sim.faults`);
    * ``alice`` also submits a spec identical to bob's — same content
      digest, different tenant — so every campaign case exercises
      cross-tenant dedup through the shared cache.
    """
    clean = JobSpec(dsl=SERVICE_DSL, sources=dict(SERVICE_SOURCES), sim=SimSpec(seed=1))
    faulty = JobSpec(
        dsl=SERVICE_DSL,
        sources=dict(SERVICE_SOURCES),
        sim=SimSpec(
            seed=1,
            faults=FaultPlan(
                (Fault("dram_flip", "*", at_cycle=50, bit=2, word=3),), seed=7
            ),
        ),
    )
    return [("alice", clean), ("bob", faulty), ("alice", faulty)]


def service_sites(dsl: str = SERVICE_DSL) -> list[str]:
    """Every journal boundary one job of the campaign design visits."""
    graph = parse_dsl(dsl)
    return all_sites([n.name for n in graph.nodes]) + [
        "simulate:start",
        "simulate:commit",
    ]


@dataclass
class ServiceCheckReport:
    """Outcome of one campaign."""

    records: list[dict] = field(default_factory=list)
    digest: str = ""
    failures: int = 0
    lost: int = 0
    duplicated: int = 0
    sites: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.lost == 0 and self.duplicated == 0

    def render(self) -> str:
        lines = [
            f"servicecheck: {self.sites} kill site(s), "
            f"{self.failures} digest failure(s), {self.lost} lost, "
            f"{self.duplicated} duplicated",
            f"  campaign digest: {self.digest}",
        ]
        return "\n".join(lines)


def _service(root: Path, *, check_tcl: bool, die: bool = False) -> BuildService:
    return BuildService(root, check_tcl=check_tcl, die_on_interrupt=die)


def _job_outcomes(svc: BuildService) -> dict[str, dict]:
    return {
        job_id: {
            "tenant": rec.tenant,
            "state": rec.state,
            "served_from": rec.served_from,
            "artifact_digest": rec.artifact_digest,
            "sim_digest": rec.sim_digest,
            "steps_skipped": rec.steps_skipped,
            "crash_recoveries": rec.crash_recoveries,
        }
        for job_id, rec in sorted(svc.records.items())
    }


def _run_reference(root: Path, submissions, *, check_tcl: bool) -> dict[str, dict]:
    async def go() -> dict[str, dict]:
        svc = _service(root, check_tcl=check_tcl)
        for tenant, spec in submissions:
            svc.submit(tenant, spec)
        await svc.drain()
        outcomes = _job_outcomes(svc)
        svc.close()
        return outcomes

    return asyncio.run(go())


def _run_killed(root: Path, submissions, site: str, *, check_tcl: bool) -> bool:
    """Run a daemon armed to die at *site*; True when it actually died."""

    async def go() -> bool:
        svc = _service(root, check_tcl=check_tcl, die=True)
        for tenant, spec in submissions:
            svc.submit(tenant, spec)
        with armed(CrashPlan(site)):
            await svc.drain()
        died = svc.died
        svc.close()
        return died

    return asyncio.run(go())


def _recover_and_drain(
    root: Path, submissions, *, check_tcl: bool
) -> tuple[dict[str, dict], dict[str, int], int]:
    """Fresh daemon on the killed root: recover, resubmit all, drain."""

    async def go():
        svc = _service(root, check_tcl=check_tcl)
        counts = svc.recover()
        expected_ids = {spec.job_id(tenant) for tenant, spec in submissions}
        before = set(svc.records)
        for tenant, spec in submissions:
            svc.submit(tenant, spec)  # idempotent: a lost ACK is resubmitted
        duplicated = len(set(svc.records) - (before | expected_ids))
        await svc.drain()
        outcomes = _job_outcomes(svc)
        svc.close()
        return outcomes, counts, duplicated

    return asyncio.run(go())


def run_servicecheck(
    root: str | Path,
    *,
    submissions: list[tuple[str, JobSpec]] | None = None,
    check_tcl: bool = True,
    log=lambda line: None,
) -> ServiceCheckReport:
    """Run the full kill-at-every-journal-boundary campaign under *root*."""
    root = Path(root)
    subs = submissions if submissions is not None else default_submissions()
    expected_ids = {spec.job_id(tenant) for tenant, spec in subs}
    sites = service_sites(subs[0][1].dsl)

    ref_root = root / "ref"
    expected = _run_reference(ref_root, subs, check_tcl=check_tcl)
    if set(expected) != expected_ids or any(
        o["state"] != DONE for o in expected.values()
    ):
        raise RuntimeError("servicecheck reference run did not complete")
    log(
        f"reference: {len(expected)} job(s) done, killing at "
        f"{len(sites)} journal boundaries"
    )

    report = ServiceCheckReport(sites=len(sites))
    for i, site in enumerate(sites):
        site_root = root / f"site{i:02d}"
        if site_root.exists():
            shutil.rmtree(site_root)
        killed = _run_killed(site_root, subs, site, check_tcl=check_tcl)
        outcomes, counts, duplicated = _recover_and_drain(
            site_root, subs, check_tcl=check_tcl
        )
        lost = sum(
            1
            for job_id in expected_ids
            if outcomes.get(job_id, {}).get("state") != DONE
        )
        match = all(
            outcomes.get(job_id, {}).get("artifact_digest")
            == expected[job_id]["artifact_digest"]
            and outcomes.get(job_id, {}).get("sim_digest")
            == expected[job_id]["sim_digest"]
            for job_id in expected_ids
        )
        report.failures += 0 if match else 1
        report.lost += lost
        report.duplicated += duplicated
        report.records.append(
            {
                "site": site,
                "killed": killed,
                "recovered": counts,
                "jobs": outcomes,
                "match": match,
                "lost": lost,
                "duplicated": duplicated,
            }
        )
        log(
            f"  {site:24s} {'killed' if killed else 'not-hit':8s} "
            f"replay={counts['replayed']} resume={counts['resumed']} "
            f"requeue={counts['requeued']} -> "
            + ("ok" if match and not lost and not duplicated else "FAILED")
        )

    report.digest = campaign_digest(report.records)
    return report


# -- multi-replica campaign ---------------------------------------------------
#
# The replica-kill campaign proves the leader-less cluster the way the
# single-daemon campaign proved recovery: at every journal boundary, a
# *victim replica process* is SIGKILLed (dead owner) or SIGSTOPped
# (paused owner — the nastier case: it comes back), the surviving
# replicas must steal its lease and finish its work, and the final
# state must satisfy:
#
# * zero lost jobs, zero duplicated side effects (exactly one terminal
#   record per job, no stray job directories);
# * byte-identical artifact and sim digests vs an uninterrupted
#   single-replica reference run;
# * exactly one steal per scenario, and — for every SIGSTOP scenario —
#   exactly one fenced write: the resurrected victim is rejected at the
#   boundary it paused in (``LeaseLost``) and its terminal-publish
#   attempt bounces off the fencing token (``FencedWrite``, counted in
#   ``service.fenced_writes_total``);
# * a stable campaign digest over the deterministic fields.
#
# Determinism is by construction: the store is seeded in a fixed
# admission order, the victim starts *alone* (so it claims the first
# job and hits the armed site on a deterministic visit), helpers start
# only after the victim is dead or frozen, and the victim is resumed
# only after the helpers drained everything.


@dataclass
class ReplicaCheckReport:
    """Outcome of one multi-replica chaos campaign."""

    records: list[dict] = field(default_factory=list)
    #: Per-scenario per-replica lease reports (timing-dependent detail —
    #: renewals, who stole — kept out of the digest on purpose).
    lease_detail: list[dict] = field(default_factory=list)
    digest: str = ""
    failures: int = 0
    lost: int = 0
    duplicated: int = 0
    scenarios: int = 0
    steals: int = 0
    fenced_writes: int = 0
    lease_lost: int = 0
    #: SIGSTOP scenarios — each must contribute exactly one fenced write.
    stop_scenarios: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.failures == 0
            and self.lost == 0
            and self.duplicated == 0
            and self.steals == self.scenarios
            and self.fenced_writes == self.stop_scenarios
            and self.lease_lost == self.stop_scenarios
        )

    def lease_report(self) -> dict:
        """The ``LEASE_report.json`` payload: steals/fences per scenario."""
        return {
            "scenarios": self.scenarios,
            "steals": self.steals,
            "fenced_writes": self.fenced_writes,
            "lease_lost": self.lease_lost,
            "digest": self.digest,
            "per_scenario": self.lease_detail,
        }

    def render(self) -> str:
        return (
            f"servicecheck --replicas: {self.scenarios} scenario(s), "
            f"{self.failures} digest failure(s), {self.lost} lost, "
            f"{self.duplicated} duplicated, {self.steals} steal(s), "
            f"{self.fenced_writes} fenced write(s) "
            f"(expected {self.stop_scenarios})\n"
            f"  campaign digest: {self.digest}"
        )


def spawn_replica(
    root: str | Path,
    replica_id: str,
    flags: list[str],
    *,
    env: dict[str, str] | None = None,
) -> subprocess.Popen:
    """Start ``repro serve --root R --replica-id ID *flags`` as a child.

    Used by ``repro serve --replicas N`` (which passes its own serve
    flags through) and by the multi-replica chaos campaign (which arms
    the child's crash plan through *env*).  Stdout and stderr land in
    ``<root>/<replica_id>.log`` for post-mortems.
    """
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--root", str(root),
        "--replica-id", replica_id,
        *flags,
    ]
    Path(root).mkdir(parents=True, exist_ok=True)
    log = open(Path(root) / f"{replica_id}.log", "ab")
    try:
        return subprocess.Popen(
            cmd, env={**os.environ, **(env or {})},
            stdout=log, stderr=subprocess.STDOUT,
        )
    finally:
        log.close()  # the child holds its own descriptor


def read_replica_reports(root: str | Path) -> list[dict]:
    """Every replica's durable report under *root*, sorted by replica id."""
    reports = []
    for path in sorted(JobStore(root).replicas_root.glob("*.json")):
        try:
            reports.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue
    return reports


def _seed_store(root: Path, submissions) -> set[str]:
    """Durably admit the campaign jobs in a fixed order, no daemon."""
    store = JobStore(root)
    ids = set()
    for order, (tenant, spec) in enumerate(submissions, start=1):
        job_id = spec.job_id(tenant)
        store.save_spec(tenant, job_id, spec, order=order)
        ids.add(job_id)
    return ids


def _reap(proc: subprocess.Popen, timeout_s: float) -> int | None:
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def _terminate_all(procs) -> None:
    """Leave no child behind — SIGKILL works on stopped processes too,
    but SIGCONT first so a frozen victim's wait() can't linger."""
    for p in procs:
        if p.poll() is not None:
            continue
        for sig in (signal.SIGCONT, signal.SIGKILL):
            try:
                os.kill(p.pid, sig)
            except OSError:
                break
        try:
            p.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass


def run_replicacheck(
    root: str | Path,
    *,
    replicas: int = 3,
    submissions: list[tuple[str, JobSpec]] | None = None,
    sites: list[str] | None = None,
    modes: tuple[str, ...] = ("kill", "stop"),
    check_tcl: bool = True,
    ttl_s: float = 0.75,
    timeout_s: float = 120.0,
    log=lambda line: None,
) -> ReplicaCheckReport:
    """The replica-kill chaos campaign over real child processes."""
    if replicas < 2:
        raise ValueError("the replica campaign needs at least 2 replicas")
    root = Path(root)
    subs = submissions if submissions is not None else default_submissions()
    expected_ids = {spec.job_id(tenant) for tenant, spec in subs}
    sites = sites if sites is not None else service_sites(subs[0][1].dsl)

    ref_root = root / "ref"
    expected = _run_reference(ref_root, subs, check_tcl=check_tcl)
    if set(expected) != expected_ids or any(
        o["state"] != DONE for o in expected.values()
    ):
        raise RuntimeError("replicacheck reference run did not complete")
    log(
        f"reference: {len(expected)} job(s) done; {len(sites)} site(s) x "
        f"{len(modes)} signal(s), {replicas} replicas per scenario"
    )

    report = ReplicaCheckReport()
    for mode in modes:
        for i, site in enumerate(sites):
            scenario = f"{mode}-{i:02d}"
            scenario_root = root / scenario
            if scenario_root.exists():
                shutil.rmtree(scenario_root)
            _seed_store(scenario_root, subs)
            procs: list[subprocess.Popen] = []
            victim_state = "unknown"
            helper_rcs: list[int | None] = []
            # A replica runs one job at a time, so the victim claims the
            # first job alone and hits the armed site on a deterministic
            # visit.
            flags = ["--ttl", str(ttl_s), "--drain", "--timeout", str(timeout_s)]
            if not check_tcl:
                flags.append("--no-check-tcl")
            try:
                victim = spawn_replica(
                    scenario_root, "v0", flags,
                    env={ENV_SITE: site, ENV_MODE: mode},
                )
                procs.append(victim)
                if mode == "kill":
                    rc = _reap(victim, timeout_s)
                    victim_state = (
                        "killed" if rc == -signal.SIGKILL else f"exit:{rc}"
                    )
                else:
                    # Block until the child SIGSTOPs itself at the armed
                    # boundary (WUNTRACED reports stops without reaping).
                    _, status = os.waitpid(victim.pid, os.WUNTRACED)
                    victim_state = (
                        "stopped" if os.WIFSTOPPED(status) else "exited"
                    )
                helpers = [
                    spawn_replica(scenario_root, f"h{k}", flags)
                    for k in range(1, replicas)
                ]
                procs.extend(helpers)
                helper_rcs = [_reap(h, timeout_s) for h in helpers]
                if mode == "stop" and victim_state == "stopped":
                    # Resurrect the zombie owner *after* its work was
                    # stolen and finished: it must be fenced, not obeyed.
                    os.kill(victim.pid, signal.SIGCONT)
                    rc = _reap(victim, timeout_s)
                    victim_state = f"fenced-exit:{rc}"
            finally:
                _terminate_all(procs)

            store = JobStore(scenario_root)
            scans = {s.job_id: s for s in store.scan()}
            outcomes = {
                job_id: {
                    "tenant": s.tenant,
                    "state": s.record.state if s.record else "missing",
                    "artifact_digest": s.record.artifact_digest if s.record else None,
                    "sim_digest": s.record.sim_digest if s.record else None,
                }
                for job_id, s in sorted(scans.items())
            }
            double = sum(
                1
                for s in scans.values()
                if (store.job_dir(s.tenant, s.job_id) / "result.json").exists()
                and (store.job_dir(s.tenant, s.job_id) / "failed.json").exists()
            )
            reports = read_replica_reports(scenario_root)
            steals = sum(r.get("stolen", 0) for r in reports)
            fenced = sum(r.get("fenced_writes", 0) for r in reports)
            lease_lost = sum(r.get("lease_lost", 0) for r in reports)
            lost = sum(
                1
                for job_id in expected_ids
                if outcomes.get(job_id, {}).get("state") != DONE
            )
            duplicated = len(set(scans) - expected_ids) + double
            match = all(
                outcomes.get(job_id, {}).get("artifact_digest")
                == expected[job_id]["artifact_digest"]
                and outcomes.get(job_id, {}).get("sim_digest")
                == expected[job_id]["sim_digest"]
                for job_id in expected_ids
            )
            report.scenarios += 1
            report.failures += 0 if match else 1
            report.lost += lost
            report.duplicated += duplicated
            report.steals += steals
            report.fenced_writes += fenced
            report.lease_lost += lease_lost
            if mode == "stop":
                report.stop_scenarios += 1
            report.records.append(
                {
                    "site": site,
                    "mode": mode,
                    "victim": victim_state,
                    "jobs": outcomes,
                    "match": match,
                    "lost": lost,
                    "duplicated": duplicated,
                    "steals": steals,
                    "fenced_writes": fenced,
                    "lease_lost": lease_lost,
                }
            )
            report.lease_detail.append(
                {
                    "scenario": scenario,
                    "site": site,
                    "mode": mode,
                    "victim": victim_state,
                    "helper_exits": helper_rcs,
                    "replicas": reports,
                }
            )
            ok = (
                match
                and not lost
                and not duplicated
                and steals == 1
                and (fenced == 1) == (mode == "stop")
            )
            log(
                f"  {mode:4s} {site:24s} {victim_state:14s} "
                f"steals={steals} fenced={fenced} -> "
                + ("ok" if ok else "FAILED")
            )

    report.digest = campaign_digest(report.records)
    return report


__all__ = [
    "SERVICE_DSL",
    "SERVICE_SOURCES",
    "ReplicaCheckReport",
    "ServiceCheckReport",
    "default_submissions",
    "read_replica_reports",
    "run_replicacheck",
    "run_servicecheck",
    "service_sites",
    "spawn_replica",
]
