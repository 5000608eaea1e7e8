"""Cluster model: a set of nodes plus convenience constructors.

The paper's main testbed is two nodes of eight H800s each; §7.4 uses a
single 4xA10 node and an 8xH800 node.  ``Cluster.testbed()`` and friends
build these shapes directly.
"""

from __future__ import annotations

from typing import Iterator

from ..sim import Environment
from .gpu import A10, H800, Gpu, GpuSpec
from .node import Node

__all__ = ["Cluster"]


class Cluster:
    """A collection of nodes managed as one GPU pool."""

    def __init__(self, env: Environment, nodes: list[Node]):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self.env = env
        self.nodes = nodes

    # -- constructors ------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        env: Environment,
        gpu_spec: GpuSpec,
        node_count: int,
        gpus_per_node: int,
    ) -> "Cluster":
        """Build ``node_count`` identical nodes."""
        nodes = [Node(env, gpu_spec, gpus_per_node, index=i) for i in range(node_count)]
        return cls(env, nodes)

    @classmethod
    def testbed(cls, env: Environment) -> "Cluster":
        """The paper's main testbed: 2 nodes x 8 H800."""
        return cls.homogeneous(env, H800, node_count=2, gpus_per_node=8)

    @classmethod
    def a10_node(cls, env: Environment) -> "Cluster":
        """The §7.4 low-end setup: one node with 4 A10 GPUs."""
        return cls.homogeneous(env, A10, node_count=1, gpus_per_node=4)

    @classmethod
    def h800_node(cls, env: Environment) -> "Cluster":
        """The §7.4 large-model setup: one node with 8 H800 GPUs."""
        return cls.homogeneous(env, H800, node_count=1, gpus_per_node=8)

    # -- access --------------------------------------------------------------
    @property
    def gpus(self) -> list[Gpu]:
        """All GPUs across all nodes, in node order."""
        return [gpu for node in self.nodes for gpu in node.gpus]

    def __len__(self) -> int:
        return len(self.gpus)

    def __iter__(self) -> Iterator[Gpu]:
        return iter(self.gpus)

    def node_of(self, gpu: Gpu) -> Node:
        """The node that hosts ``gpu``."""
        return self.nodes[gpu.node_index]

    def __repr__(self) -> str:
        return f"<Cluster {len(self.nodes)} nodes, {len(self.gpus)} GPUs>"
