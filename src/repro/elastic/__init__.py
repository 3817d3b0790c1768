"""Elastic training runtime: survive rank failures, re-shard, resume.

The supervisor layer over the simulated cluster: when a rank dies or
hangs mid-reduction, the run classifies the failure, evicts the dead
ranks, rewinds to the last committed step, rebuilds the world at the new
size (including non-power-of-two Adasum trees), re-shards the data so
every sample is still visited exactly once per epoch, and continues —
optionally resuming from an on-disk checkpoint written by a larger
world.  See ``docs/elastic.md``.
"""

from repro.elastic.collective import cluster_reduce
from repro.elastic.failures import (
    FailureKind,
    FailureReport,
    StragglerPolicy,
    classify_failure,
)
from repro.elastic.membership import Membership
from repro.elastic.schedule import ElasticSchedule
from repro.elastic.state import (
    WorldSnapshot,
    pack_optimizer_state,
    restore_optimizer_state,
)
from repro.elastic.trainer import ElasticTrainer

__all__ = [
    "ElasticSchedule",
    "ElasticTrainer",
    "FailureKind",
    "FailureReport",
    "Membership",
    "StragglerPolicy",
    "WorldSnapshot",
    "classify_failure",
    "cluster_reduce",
    "pack_optimizer_state",
    "restore_optimizer_state",
]
