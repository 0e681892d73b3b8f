"""Roofline latency model and the on-device measurement interface.

:class:`LatencyModel` computes the *true* (noise-free) latency of operators
and architectures on a :class:`repro.hardware.device.DeviceProfile`;
:meth:`LatencyModel.measure` adds measurement noise, which is what the
predictor-training pipeline (§3.2) consumes — mirroring the paper's
"measure 10,000 architectures on the Xavier" step.

The decomposition per convolution kernel is::

    latency = macs·batch / (peak · type_efficiency · utilisation(C_out))
            + bytes·batch / bandwidth
            + kernel_launch_overhead

An MBConv pays three kernel launches (expand, depthwise, project; BN and
activation are assumed fused, as on a deployed TensorRT engine); an identity
skip pays nothing; a typed-skip projection pays one.  Whole-network latency
adds the fixed stem/first-layer/head cost, a per-inference overhead, and
subtracts a fusion saving per adjacent non-skip layer pair — the term that
makes whole-network latency non-additive and defeats the LUT (Figure 5).
"""

from __future__ import annotations

import numpy as np

from ..search_space.macro import LayerGeometry
from ..search_space.operators import OperatorSpec
from ..search_space.space import Architecture, SearchSpace
from . import flops
from .device import DeviceProfile, XAVIER_MAXN

__all__ = ["LatencyModel"]


class LatencyModel:
    """Analytic latency of the search space on a simulated device.

    Parameters
    ----------
    space:
        The search space whose geometry defines every layer.
    device:
        Device profile; defaults to the paper's Xavier MAXN, batch 8.
    """

    def __init__(self, space: SearchSpace, device: DeviceProfile = XAVIER_MAXN) -> None:
        self.space = space
        self.device = device
        self._geoms = space.layer_geometries()
        self._fixed_ms = self._fixed_latency_ms()
        # Per-(layer, operator) latency is fixed for a given device, so the
        # roofline is evaluated exactly once per cell here; every scalar and
        # population query below is a table lookup.
        num_layers, num_ops = space.num_layers, space.num_operators
        self.op_table = np.empty((num_layers, num_ops), dtype=np.float64)
        self.op_table_se = np.empty((num_layers, num_ops), dtype=np.float64)
        for l, geom in enumerate(self._geoms):
            for k, spec in enumerate(space.operators):
                self.op_table[l, k] = self.op_latency_ms(spec, geom)
                self.op_table_se[l, k] = self.op_latency_ms(spec, geom, with_se=True)
        self._skip_index = space.skip_index

    # ------------------------------------------------------------------
    # Kernel-level model
    # ------------------------------------------------------------------
    def _conv_latency_ms(self, macs: int, mem_bytes: int, out_channels: int,
                         depthwise: bool) -> float:
        d = self.device
        efficiency = d.depthwise_efficiency if depthwise else d.dense_efficiency
        throughput = d.peak_macs_per_ms * efficiency * d.utilization(out_channels)
        compute = d.batch_size * macs / throughput
        memory = d.batch_size * mem_bytes / d.bandwidth_bytes_per_ms
        return compute + memory + d.kernel_launch_ms

    def op_latency_ms(self, spec: OperatorSpec, geom: LayerGeometry,
                      with_se: bool = False) -> float:
        """True in-network latency of one candidate at one geometry."""
        if spec.is_skip:
            if geom.stride == 1 and geom.in_channels == geom.out_channels:
                return 0.0
            cost = flops.op_cost(spec, geom)
            return self._conv_latency_ms(cost.macs, cost.mem_bytes, geom.out_channels,
                                         depthwise=False)

        hidden = geom.in_channels * spec.expansion
        in_res, out_res = geom.in_resolution, geom.out_resolution
        expand_macs = geom.in_channels * hidden * in_res * in_res
        expand_bytes = flops.BYTES_PER_VALUE * (
            (geom.in_channels + hidden) * in_res * in_res + geom.in_channels * hidden
        )
        dw_macs = hidden * spec.kernel_size ** 2 * out_res * out_res
        dw_bytes = flops.BYTES_PER_VALUE * (
            hidden * in_res * in_res + hidden * out_res * out_res
            + hidden * spec.kernel_size ** 2
        )
        proj_macs = hidden * geom.out_channels * out_res * out_res
        proj_bytes = flops.BYTES_PER_VALUE * (
            (hidden + geom.out_channels) * out_res * out_res + hidden * geom.out_channels
        )
        total = (
            self._conv_latency_ms(expand_macs, expand_bytes, hidden, depthwise=False)
            + self._conv_latency_ms(dw_macs, dw_bytes, hidden, depthwise=True)
            + self._conv_latency_ms(proj_macs, proj_bytes, geom.out_channels,
                                    depthwise=False)
        )
        if with_se:
            se_macs = 2 * hidden * max(1, hidden // 4)
            se_bytes = flops.BYTES_PER_VALUE * (se_macs + 2 * hidden)
            total += self._conv_latency_ms(se_macs, se_bytes, hidden, depthwise=False)
        return total

    # ------------------------------------------------------------------
    # Network-level model
    # ------------------------------------------------------------------
    def _fixed_latency_ms(self) -> float:
        """Latency of stem + fixed first bottleneck + head + classifier."""
        cost = flops.fixed_cost(self.space.macro)
        # The fixed parts are dense convolutions at high utilisation; model
        # them as 5 dense kernels (stem, first dw+pw, head conv, classifier).
        d = self.device
        throughput = d.peak_macs_per_ms * d.dense_efficiency * 0.85
        compute = d.batch_size * cost.macs / throughput
        memory = d.batch_size * cost.mem_bytes / d.bandwidth_bytes_per_ms
        return compute + memory + 5 * d.kernel_launch_ms

    def _fusion_pairs(self, arch: Architecture) -> int:
        """Adjacent pairs of non-skip layers (eligible for kernel fusion)."""
        skip = self.space.skip_index
        ops = arch.op_indices
        return sum(
            1 for a, b in zip(ops[:-1], ops[1:]) if a != skip and b != skip
        )

    def _layer_table(self, layer: int, with_se_last: int) -> np.ndarray:
        """The (K,)-row of per-operator latencies effective at ``layer``."""
        if layer >= self.space.num_layers - with_se_last:
            return self.op_table_se[layer]
        return self.op_table[layer]

    def latency_ms(self, arch: Architecture, with_se_last: int = 0) -> float:
        """True whole-network latency (noise-free)."""
        self.space.validate(arch)
        total = self._fixed_ms + self.device.network_overhead_ms
        for i, op_index in enumerate(arch.op_indices):
            total += self._layer_table(i, with_se_last)[op_index]
        total -= self.device.fusion_saving_ms * self._fusion_pairs(arch)
        return max(total, 0.1)

    def latency_many(self, archs, with_se_last: int = 0) -> np.ndarray:
        """True latency of a population: ``(N, L)`` op indices → ``(N,)`` ms.

        Accepts an op-index matrix or a sequence of Architectures.  The
        accumulation walks layers left-to-right (a loop over L, never over
        N) so each architecture's floating-point sum is performed in exactly
        the order of the scalar path — :meth:`latency_ms` and this method
        agree bit-for-bit, which keeps seeded measurement campaigns stable.
        """
        ops = self.space.as_index_matrix(archs)
        totals = np.full(ops.shape[0], self._fixed_ms + self.device.network_overhead_ms)
        for layer in range(ops.shape[1]):
            totals += self._layer_table(layer, with_se_last)[ops[:, layer]]
        skip = self._skip_index
        fusion_pairs = ((ops[:, :-1] != skip) & (ops[:, 1:] != skip)).sum(axis=1)
        totals -= self.device.fusion_saving_ms * fusion_pairs
        return np.maximum(totals, 0.1)

    # ------------------------------------------------------------------
    # Measurement (what the predictor pipeline consumes)
    # ------------------------------------------------------------------
    def measure(self, arch: Architecture, rng: np.random.Generator,
                with_se_last: int = 0) -> float:
        """One noisy on-device latency measurement (ms)."""
        true = self.latency_ms(arch, with_se_last=with_se_last)
        noise = rng.normal(0.0, self.device.latency_noise_ms)
        noise += true * rng.normal(0.0, self.device.latency_noise_rel)
        return max(true + noise, 0.01)

    def measure_many(self, archs, rng: np.random.Generator,
                     with_se_last: int = 0) -> np.ndarray:
        """Measure a population (one trial each) without a per-arch loop.

        The two noise terms are drawn as one C-order ``(N, 2)`` standard
        normal block, which consumes the generator exactly like the scalar
        path's interleaved ``normal(0, abs)`` / ``normal(0, rel)`` calls —
        seeded campaigns produce bit-identical measurements either way.
        """
        true = self.latency_many(archs, with_se_last=with_se_last)
        z = rng.standard_normal((len(true), 2))
        noise = z[:, 0] * self.device.latency_noise_ms
        noise += true * (z[:, 1] * self.device.latency_noise_rel)
        return np.maximum(true + noise, 0.01)
