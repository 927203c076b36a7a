"""Multi-tenant build service: job daemon + robustness + chaos harness.

``repro serve`` runs a :class:`~repro.service.daemon.BuildService`
behind a unix-socket JSON-lines API (``--replicas N`` runs N of them as
leader-less processes over one root); ``repro submit`` is its client;
``repro servicecheck`` is the kill-the-daemon chaos campaign proving
the recovery story end to end.  A lone daemon is a one-replica cluster:
every job runs under a lease from :mod:`repro.service.leases`.
"""

from repro.service.chaos import (
    ReplicaCheckReport,
    ServiceCheckReport,
    default_submissions,
    run_replicacheck,
    run_servicecheck,
    service_sites,
    spawn_replica,
)
from repro.service.daemon import (
    BuildService,
    ServiceClient,
    ServiceServer,
    UnknownJob,
)
from repro.service.leases import (
    Fence,
    FencedWrite,
    Lease,
    LeaseLost,
    LeaseManager,
)
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobRejected,
    JobSpec,
    SimSpec,
)
from repro.service.queueing import FairScheduler
from repro.service.robust import (
    BreakerOpen,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.service.store import JobStore

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "BreakerOpen",
    "BuildService",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FairScheduler",
    "Fence",
    "FencedWrite",
    "JobRecord",
    "JobRejected",
    "JobSpec",
    "JobStore",
    "Lease",
    "LeaseLost",
    "LeaseManager",
    "ReplicaCheckReport",
    "RetryPolicy",
    "ServiceCheckReport",
    "ServiceClient",
    "ServiceServer",
    "SimSpec",
    "UnknownJob",
    "default_submissions",
    "run_replicacheck",
    "run_servicecheck",
    "service_sites",
    "spawn_replica",
]
