"""repro.net — the cluster network subsystem (stdlib sockets only).

The paper's headline scaling (Section V-C) runs many CPU actor/synthesis
workers against GPU learners over a network. This package is that layer at
library scale: a versioned length-prefixed framed protocol with handshake
and heartbeats (:mod:`repro.net.protocol`), a threaded framed server base
(:mod:`repro.net.server`), the learner's service face — replay ingest,
weight publication, shared synthesis cache —
(:mod:`repro.net.learner`), actor *processes* that escape the GIL
(:mod:`repro.net.actor`), remote synthesis-farm workers fed
prefix graphs as JSON (:mod:`repro.net.farm`), a localhost
cluster launcher with a crash-respawning fleet supervisor
(:mod:`repro.net.cluster`), the shared jittered-backoff reconnect policy
(:mod:`repro.net.backoff`), and a fault-injection layer — a schedulable
TCP chaos proxy plus kill/wait helpers — for the chaos test suite
(:mod:`repro.net.chaos`).

Entry points: ``repro serve-learner``, ``repro actor --connect``,
``repro cluster --actors N``, ``repro farm-worker`` — and
``TrainingRuntime(None, agent, cluster=spec)`` as the library API.
"""

from repro.net.backoff import Backoff
from repro.net.chaos import ChaosProxy, kill_process, wait_until
from repro.net.config import ClusterConfig
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    FrameTooLarge,
    HandshakeError,
    PeerTimeout,
    ProtocolError,
    RemoteError,
    connect,
    decode_payload,
    encode_payload,
    parse_address,
)
from repro.net.server import FramedServer
from repro.net.learner import (
    MEMBERSHIP_KEYS,
    ClusterSpec,
    LearnerServer,
    LearnerState,
)
from repro.net.actor import (
    LEARNER_UNREACHABLE_EXIT,
    LearnerUnreachable,
    RemoteActorWorker,
    RemoteCacheClient,
)
from repro.net.farm import FarmWorkerServer, RemoteFarmPool
from repro.net.cluster import (
    FleetSupervisor,
    launch_actors,
    launch_farm_workers,
    reap_actors,
    respawn_farm_worker,
    run_local_cluster,
    stop_farm_workers,
)

__all__ = [
    "Backoff",
    "ChaosProxy",
    "ClusterConfig",
    "FleetSupervisor",
    "MEMBERSHIP_KEYS",
    "kill_process",
    "respawn_farm_worker",
    "wait_until",
    "PROTOCOL_VERSION",
    "Connection",
    "ConnectionClosed",
    "FrameTooLarge",
    "HandshakeError",
    "PeerTimeout",
    "ProtocolError",
    "RemoteError",
    "connect",
    "decode_payload",
    "encode_payload",
    "parse_address",
    "FramedServer",
    "ClusterSpec",
    "LearnerServer",
    "LearnerState",
    "LEARNER_UNREACHABLE_EXIT",
    "LearnerUnreachable",
    "RemoteActorWorker",
    "RemoteCacheClient",
    "FarmWorkerServer",
    "RemoteFarmPool",
    "launch_actors",
    "launch_farm_workers",
    "reap_actors",
    "run_local_cluster",
    "stop_farm_workers",
]
