"""Tests for the simulated hardware substrate."""

import pytest

from repro.hardware import (
    A10,
    Cluster,
    GPU_PRESETS,
    H800,
    Link,
    Node,
    pcie_pair,
)
from repro.sim import Environment

GiB = 1024**3


@pytest.fixture
def env():
    return Environment()


class TestGpuSpec:
    def test_presets_exist(self):
        assert {"H800", "H20", "A100", "A10"} <= set(GPU_PRESETS)

    def test_h800_capacity(self):
        assert H800.vram_bytes == 80 * GiB

    def test_a10_capacity(self):
        assert A10.vram_bytes == 24 * GiB

    def test_effective_figures_below_peak(self):
        for spec in GPU_PRESETS.values():
            assert spec.effective_flops < spec.fp16_tflops * 1e12
            assert spec.effective_hbm_bandwidth < spec.hbm_bandwidth

    def test_paper_pcie_arithmetic(self):
        # The paper's example: 26 GB over PCIe 4.0 at 32 GB/s = 0.8125 s
        # lower bound. H800's host link must match that base rate.
        assert H800.pcie_bandwidth == 32e9


class TestGpu:
    def test_key_is_unique_within_cluster(self, env):
        cluster = Cluster.testbed(env)
        keys = [gpu.key for gpu in cluster.gpus]
        assert len(keys) == len(set(keys)) == 16


class TestLink:
    def test_transfer_time_scales_with_bytes(self, env):
        link = Link(env, bandwidth=32e9, latency=0.0)
        assert link.transfer_time(32e9) == pytest.approx(1.0)

    def test_transfers_serialize(self, env):
        link = Link(env, bandwidth=1e9, latency=0.0)
        done = []

        def mover(tag):
            yield env.process(link.transfer(int(1e9)))
            done.append((tag, env.now))

        env.process(mover("a"))
        env.process(mover("b"))
        env.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_duplex_directions_are_independent(self, env):
        duplex = pcie_pair(env, bandwidth=1e9)
        done = []

        def up():
            yield env.process(duplex.h2d.transfer(int(1e9)))
            done.append(("h2d", env.now))

        def down():
            yield env.process(duplex.d2h.transfer(int(1e9)))
            done.append(("d2h", env.now))

        env.process(up())
        env.process(down())
        env.run()
        assert len(done) == 2
        for _, time in done:
            assert time == pytest.approx(1.0 + 5e-6)

    def test_bytes_moved_accounting(self, env):
        link = Link(env, bandwidth=1e9)

        def mover():
            yield env.process(link.transfer(500))

        env.process(mover())
        env.run()
        assert link.bytes_moved == 500

    def test_utilization(self, env):
        link = Link(env, bandwidth=1e9, latency=0.0)

        def mover():
            yield env.process(link.transfer(int(1e9)))

        env.process(mover())
        env.run(until=2.0)
        assert link.utilization() == pytest.approx(0.5)

    def test_negative_bytes_rejected(self, env):
        link = Link(env, bandwidth=1e9)
        with pytest.raises(ValueError):
            env.process(link.transfer(-1))
            env.run()


class TestNode:
    def test_node_has_link_per_gpu(self, env):
        node = Node(env, H800, gpu_count=8)
        assert len(node.links) == 8
        for gpu in node.gpus:
            assert node.link(gpu).bandwidth == H800.pcie_bandwidth

    def test_zero_gpus_rejected(self, env):
        with pytest.raises(ValueError):
            Node(env, H800, gpu_count=0)


class TestCluster:
    def test_testbed_shape(self, env):
        cluster = Cluster.testbed(env)
        assert len(cluster.nodes) == 2
        assert len(cluster) == 16
        assert all(gpu.spec.name == "H800" for gpu in cluster)

    def test_a10_node_shape(self, env):
        cluster = Cluster.a10_node(env)
        assert len(cluster) == 4
        assert cluster.gpus[0].spec.name == "A10"

    def test_node_of(self, env):
        cluster = Cluster.testbed(env)
        gpu = cluster.gpus[9]
        assert cluster.node_of(gpu).index == gpu.node_index == 1

    def test_empty_cluster_rejected(self, env):
        with pytest.raises(ValueError):
            Cluster(env, [])
