"""repro.net — the deterministic network plane and simulated cluster.

Everything below this package runs on *one* simulated machine; this
layer connects N of them.  :mod:`repro.net.plane` is the message
fabric (one link cost model for every link, latency/bandwidth charges
at ``net.link.*`` sites, ordered delivery on a single global
virtual-time axis), :mod:`repro.net.shard` is consistent-hash key
placement, and :mod:`repro.net.cluster` assembles full
``Machine``/``Kernel``/``Libmpk`` nodes, a sharded memcached fleet,
cross-node RPC with timeout/retry/failover, node-kill and
link-partition fault actions, and the cluster-wide consistency audit.
"""

from repro.net.plane import Link, Message, NetworkPlane
from repro.net.shard import ShardMap
from repro.net.cluster import (
    Cluster,
    ClusterAuditReport,
    FleetClient,
    link_partition,
    node_kill,
)

__all__ = [
    "Cluster",
    "ClusterAuditReport",
    "FleetClient",
    "Link",
    "Message",
    "NetworkPlane",
    "ShardMap",
    "link_partition",
    "node_kill",
]
