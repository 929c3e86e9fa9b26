#include "targets/deco/deco.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

lower::AcceleratorSpec
DecoBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    using ir::OpCode;
    ir::OpSet extra = {OpCode::Sin,  OpCode::Cos, OpCode::Tan,
                       OpCode::Sqrt, OpCode::Exp, OpCode::Ln,
                       OpCode::Log,  OpCode::Pow, OpCode::Re,
                       OpCode::Im,   OpCode::Conj, OpCode::Sum,
                       OpCode::Prod};
    extra.insert("@custom_reduce");
    s.supportedOps = opsUnion(scalarAluOps(), extra);
    s.supportedOps.merge(groupOps());
    return s;
}

double
DecoBackend::stageImbalance(const lower::Partition &partition)
{
    const auto levels = fragmentLevels(partition);
    double max_work = 0.0;
    double total = 0.0;
    int64_t stages = 0;
    for (const auto &level : levels) {
        double w = 0.0;
        for (const auto *frag : level)
            w += static_cast<double>(fragmentWork(*frag));
        if (w <= 0)
            continue;
        max_work = std::max(max_work, w);
        total += w;
        ++stages;
    }
    if (stages == 0 || total <= 0)
        return 1.0;
    return max_work / (total / static_cast<double>(stages));
}

PerfReport
DecoBackend::simulateImpl(const lower::Partition &partition,
                      const WorkloadProfile &profile) const
{
    const MachineConfig m = machine();
    PerfReport r;
    r.machine = name();

    constexpr double kPipelineDepth = 24.0; // DSP chain fill latency

    // Stage-based execution: every dependence level streams its elements
    // through the DSP columns; the slowest stage bounds the pipeline, so
    // imbalance stretches total cycles.
    const auto levels = fragmentLevels(partition);
    const auto invariant = invariantFragments(partition);
    std::map<const lower::IrFragment *, bool> invariant_of;
    {
        size_t i = 0;
        for (const auto &frag : partition.fragments)
            invariant_of[&frag] = invariant[i++];
    }
    const double lanes = static_cast<double>(m.computeUnits);
    double cycles = 0.0;
    double fill_cycles = 0.0;
    for (const auto &level : levels) {
        double level_flops = 0.0;
        for (const auto *frag : level) {
            if (invariant_of[frag])
                fill_cycles += std::ceil(
                    static_cast<double>(fragmentWork(*frag)) / lanes);
            else
                level_flops += static_cast<double>(fragmentWork(*frag));
        }
        if (level_flops <= 0)
            continue;
        cycles += std::ceil(level_flops / lanes);
        fill_cycles += kPipelineDepth;
    }
    const double imbalance = stageImbalance(partition);
    // Stalls from unbalanced stages: linear penalty above balanced.
    cycles *= 1.0 + 0.3 * (std::min(imbalance, 3.0) - 1.0);
    cycles *= profile.scale;

    const double hz = m.freqGhz * 1e9;
    const double invocations = static_cast<double>(profile.invocations);
    // Streaming execution: the chain fills once; back-to-back frames keep
    // the pipelines primed.
    r.computeSeconds = (cycles * invocations + fill_cycles) / hz;

    const auto dma = dmaBreakdown(partition);
    r.dramBytes = dma.oneTimeBytes +
                  static_cast<int64_t>(dma.perRunBytes * invocations);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);
    r.overheadSeconds = m.launchOverheadUs * 1e-6 * invocations;

    r.seconds = std::max(r.computeSeconds, r.memorySeconds) +
                r.overheadSeconds;
    r.flops = static_cast<int64_t>(
        static_cast<double>(partition.flops()) * profile.scale *
        invocations);
    r.utilization =
        r.seconds > 0
            ? static_cast<double>(r.flops) / (m.peakFlops() * r.seconds)
            : 0.0;
    r.joules = m.watts * r.seconds;

    if (CostLedger *ledger = beginLedger(r, r.machine, profile.profiling)) {
        // Raw fragment weight: its DSP-column issue slots. The stage
        // imbalance penalty, the per-level ceil() rounding, and the
        // chain-fill latency are schedule-level costs -> one residual.
        double attributed = 0.0;
        size_t i = 0;
        for (const auto &frag : partition.fragments) {
            const size_t index = i++;
            if (frag.opcode == "tload" || frag.opcode == "tstore")
                continue;
            const double slots =
                static_cast<double>(fragmentWork(frag)) / lanes / hz;
            const double raw =
                invariant[index] ? slots
                                 : slots * profile.scale * invocations;
            ledger->addFragment(static_cast<int>(index), frag, raw);
            attributed += raw;
        }
        ledger->addComputeResidual("stage-imbalance+pipeline-fill",
                                   r.computeSeconds - attributed);
        ledger->addDma(static_cast<double>(dma.oneTimeBytes),
                       static_cast<double>(dma.perRunBytes) * invocations,
                       m.dramGBs);
        ledger->addOverhead(r.overheadSeconds);
        finalizeLedger(r, m);
    }
    return r;
}

} // namespace polymath::target
