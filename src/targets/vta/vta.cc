#include "targets/vta/vta.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"

namespace polymath::target {

namespace {

/** Layer-granularity operators VTA's instruction set covers. These are
 *  component names in the DNN PMLang programs. */
const char *const kLayerOps[] = {
    "conv2d", "conv2d_dw", "dense", "maxpool", "avgpool",
    "batchnorm", "relu_layer", "add_layer", "flatten",
};

bool
isGemmLayer(const std::string &opcode)
{
    return opcode == "conv2d" || opcode == "conv2d_dw" ||
           opcode == "dense";
}

} // namespace

lower::AcceleratorSpec
VtaBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    for (const char *op : kLayerOps)
        s.supportedOps.insert(op);
    // Residual adds and activation maps appear between layers.
    using ir::OpCode;
    s.supportedOps.merge({OpCode::Add, OpCode::Relu, OpCode::Identity,
                          OpCode::Const, OpCode::Max, OpCode::Sum,
                          OpCode::Mul, OpCode::Sub, OpCode::Div,
                          OpCode::Sqrt, OpCode::Exp});
    return s;
}

PerfReport
VtaBackend::simulateImpl(const lower::Partition &partition,
                     const WorkloadProfile &profile) const
{
    const MachineConfig m = machine();
    PerfReport r;
    r.machine = name();

    const double peak = m.peakFlops(); // 256 MACs * 2 * freq
    const double hz = m.freqGhz * 1e9;

    double compute_s = 0.0;
    double weight_bytes = 0.0;
    double act_bytes = 0.0;
    int64_t layers = 0;
    for (const auto &frag : partition.fragments) {
        if (frag.opcode == "tload" || frag.opcode == "tstore")
            continue;
        // GEMM-core layers run at high efficiency; vector ops (pool,
        // activation, residual) retire one lane-row per cycle.
        const double eff = isGemmLayer(frag.opcode) ? 0.35 : 0.10;
        compute_s += static_cast<double>(frag.flops) / (peak * eff);
        ++layers;
        for (const auto &in : frag.inputs) {
            if (in.kind == ir::EdgeKind::Param)
                weight_bytes += static_cast<double>(in.shape.numel()) * 1.0;
            else
                act_bytes += static_cast<double>(in.shape.numel()) * 1.0;
        }
        for (const auto &out : frag.outputs)
            act_bytes += static_cast<double>(out.shape.numel()) * 1.0;
    }
    // int8 datapath: one byte per element (already counted as numel*1).
    const double invocations = static_cast<double>(profile.invocations);
    compute_s *= profile.scale * invocations;

    // Weights exceed the on-chip buffer for real CNNs: streamed per run.
    const bool weights_resident =
        weight_bytes <= static_cast<double>(m.onChipBytes) * 0.5;
    const double weight_stream =
        weights_resident ? weight_bytes
                         : weight_bytes * invocations;
    r.dramBytes = static_cast<int64_t>(
        (weight_stream + act_bytes * invocations) * profile.scale);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);

    r.computeSeconds = compute_s;
    r.overheadSeconds = m.launchOverheadUs * 1e-6 *
                        static_cast<double>(layers) * invocations;
    // Per-layer: load -> compute -> store with double buffering.
    r.seconds = std::max(r.computeSeconds, r.memorySeconds) +
                r.overheadSeconds;
    r.flops = static_cast<int64_t>(
        static_cast<double>(partition.flops()) * profile.scale *
        invocations);
    r.utilization =
        r.seconds > 0
            ? static_cast<double>(r.flops) / (peak * r.seconds)
            : 0.0;
    r.joules = m.watts * r.seconds;
    (void)hz;

    if (CostLedger *ledger = beginLedger(r, r.machine, profile.profiling)) {
        // Layer time is a plain sum of flops/(peak*eff) terms, so the
        // per-layer attribution is exact. DMA splits by traffic class:
        // weights (resident or re-streamed) vs. activations.
        size_t i = 0;
        for (const auto &frag : partition.fragments) {
            const size_t index = i++;
            if (frag.opcode == "tload" || frag.opcode == "tstore")
                continue;
            const double eff = isGemmLayer(frag.opcode) ? 0.35 : 0.10;
            const double raw = static_cast<double>(frag.flops) /
                               (peak * eff) * profile.scale * invocations;
            ledger->addFragment(static_cast<int>(index), frag, raw);
        }
        const double bw = m.dramGBs * 1e9;
        if (weight_stream > 0) {
            CostEntry &w = ledger->add(weights_resident
                                           ? "dma:weights (resident)"
                                           : "dma:weights (streamed)",
                                       "dma");
            w.dramBytes = weight_stream * profile.scale;
            w.seconds = w.dramBytes / bw;
            w.bound = BoundClass::Memory;
        }
        if (act_bytes > 0) {
            CostEntry &a = ledger->add("dma:activations", "dma");
            a.dramBytes = act_bytes * invocations * profile.scale;
            a.seconds = a.dramBytes / bw;
            a.bound = BoundClass::Memory;
        }
        ledger->addOverhead(r.overheadSeconds);
        finalizeLedger(r, m);
    }
    return r;
}

} // namespace polymath::target
