"""Experiments: one module per table/figure of the paper + ablations.

:data:`TARGETS` names every ``repro`` target in ``repro all`` order and
runs it as ``runner(testbed, seed)``.  The paper artefacts ignore the
seed; each swarm experiment runs the preset of its own name at it.
"""

from typing import Callable, Dict, List

from . import ablations, cloud, figure3a, figure3b, p2p, table2, table3
from ..workloads.testbed import Testbed
from .runner import ExperimentResult, deploy_and_run, make_cluster

TARGETS: Dict[str, Callable[[Testbed, int], List[ExperimentResult]]] = {
    "table2": lambda testbed, seed: [table2.run(testbed)],
    "table3": lambda testbed, seed: [table3.run(testbed)],
    "fig3a": lambda testbed, seed: [figure3a.run(testbed)],
    "fig3b": lambda testbed, seed: [figure3b.run(testbed)],
    "ablations": lambda testbed, seed: ablations.run(testbed),
    "cloud": lambda testbed, seed: [cloud.run(testbed)],
    "p2p": lambda testbed, seed: [p2p.run(seed)],
    "p2p-chunked": lambda testbed, seed: [p2p.run_chunked(seed)],
    "p2p-contended": lambda testbed, seed: [p2p.run_contended(seed)],
    "p2p-gossip": lambda testbed, seed: [p2p.run_gossip(seed)],
}

__all__ = [
    "ExperimentResult",
    "TARGETS",
    "ablations",
    "cloud",
    "deploy_and_run",
    "figure3a",
    "figure3b",
    "make_cluster",
    "p2p",
    "table2",
    "table3",
]
