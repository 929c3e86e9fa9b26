#include "targets/tabla/tabla.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

lower::AcceleratorSpec
TablaBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    using ir::OpCode;
    ir::OpSet extra = {OpCode::Sigmoid, OpCode::Gauss, OpCode::Sqrt,
                       OpCode::Exp,     OpCode::Ln,    OpCode::Log,
                       OpCode::Relu,    OpCode::Tanh,  OpCode::Pow,
                       OpCode::Sum};
    extra.insert("@custom_reduce");
    s.supportedOps = opsUnion(scalarAluOps(), extra);
    s.supportedOps.merge(groupOps());
    return s;
}

PerfReport
TablaBackend::simulateImpl(const lower::Partition &partition,
                       const WorkloadProfile &profile) const
{
    const MachineConfig m = machine();
    PerfReport r;
    r.machine = name();

    // List schedule: each dependency level spreads its scalar work over
    // the PE array; group reductions pay a log-depth tree latency.
    double cycles = 0.0;
    double once_cycles = 0.0;
    const auto invariant = invariantFragments(partition);
    std::map<const lower::IrFragment *, bool> invariant_of;
    {
        size_t i = 0;
        for (const auto &frag : partition.fragments)
            invariant_of[&frag] = invariant[i++];
    }
    const auto levels = fragmentLevels(partition);
    const double pes = static_cast<double>(m.computeUnits);
    for (const auto &level : levels) {
        double level_flops = 0.0;
        double level_once = 0.0;
        bool has_reduce = false;
        for (const auto *frag : level) {
            // Param/state-derived fragments run once; their results stay
            // in the PEs' register files / on-chip buffers.
            if (invariant_of[frag])
                level_once += static_cast<double>(fragmentWork(*frag));
            else
                level_flops += static_cast<double>(fragmentWork(*frag));
            has_reduce |= frag->attrs.count("reduce_extent") > 0;
        }
        once_cycles += std::ceil(level_once / pes);
        if (level_flops <= 0)
            continue;
        cycles += std::ceil(level_flops / pes);
        if (has_reduce)
            cycles += std::log2(pes); // PU reduction-tree latency
        // Bus turnaround between dependence levels: 4 cycles at the
        // baseline 64-words/cycle operand bus, scaling inversely with
        // bus width (exactly 4.0 at the Table VI default).
        cycles += 4.0 * (64.0 / static_cast<double>(m.busWordsPerCycle));
    }
    cycles *= profile.scale;

    const double hz = m.freqGhz * 1e9;
    const double invocations = static_cast<double>(profile.invocations);
    r.computeSeconds = (cycles * invocations + once_cycles) / hz;

    const auto dma = dmaBreakdown(partition);
    r.dramBytes = dma.oneTimeBytes +
                  static_cast<int64_t>(dma.perRunBytes * invocations);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);
    r.overheadSeconds = m.launchOverheadUs * 1e-6 * invocations;

    // FPGA execution overlaps AXI streaming with compute.
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
        // Raw per-fragment weight: its share of the PE array's issue
        // slots, in (pre-overlap) seconds. The ceil() rounding, the PU
        // reduction trees, and the inter-level bus turnarounds are level
        // costs, not fragment costs — they land in one residual entry.
        double attributed = 0.0;
        size_t i = 0;
        for (const auto &frag : partition.fragments) {
            const size_t index = i++;
            if (frag.opcode == "tload" || frag.opcode == "tstore")
                continue;
            const double slots =
                static_cast<double>(fragmentWork(frag)) / pes / hz;
            const double raw =
                invariant[index] ? slots
                                 : slots * profile.scale * invocations;
            ledger->addFragment(static_cast<int>(index), frag, raw);
            attributed += raw;
        }
        ledger->addComputeResidual("reduce-tree+bus turnaround",
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
