#include "targets/robox/robox.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

lower::AcceleratorSpec
RoboxBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    using ir::OpCode;
    ir::OpSet extra = {OpCode::Sin,     OpCode::Cos,  OpCode::Tan,
                       OpCode::Sqrt,    OpCode::Exp,  OpCode::Ln,
                       OpCode::Log,     OpCode::Pow,  OpCode::Sigmoid,
                       OpCode::Tanh,    OpCode::Gauss, OpCode::Sum};
    extra.insert("@custom_reduce");
    s.supportedOps = opsUnion(scalarAluOps(), extra);
    s.supportedOps.merge(groupOps());

    // RoboX consumes vector/group macro-ops; tag them for its sequencer.
    s.combine = [](lower::AccelProgram &prog, lower::IrFragment frag) {
        if (frag.attrs.count("reduce_extent"))
            frag.opcode = "group/" + frag.opcode;
        else if (frag.attrs.count("dim0"))
            frag.opcode = "vector/" + frag.opcode;
        else if (frag.opcode != "tload" && frag.opcode != "tstore" &&
                 frag.opcode != "const") {
            frag.opcode = "scalar/" + frag.opcode;
        }
        prog.fragments.push_back(std::move(frag));
    };
    return s;
}

PerfReport
RoboxBackend::simulateImpl(const lower::Partition &partition,
                       const WorkloadProfile &profile) const
{
    const MachineConfig m = machine();
    PerfReport r;
    r.machine = name();

    // The macro-DFG sequencer issues one fragment (task op) at a time;
    // each spreads its elements across the 256 lanes.
    const double lanes = static_cast<double>(m.computeUnits);
    const auto invariant = invariantFragments(partition);
    double cycles = 0.0;
    double once_cycles = 0.0;
    for (size_t i = 0; i < partition.fragments.size(); ++i) {
        const auto &frag = partition.fragments[i];
        if (frag.opcode == "tload" || frag.opcode == "tstore")
            continue;
        const int64_t work = fragmentWork(frag);
        if (work <= 0)
            continue;
        const double c =
            std::ceil(static_cast<double>(work) / lanes) + 8.0;
        // Param/state-derived fragments (e.g. hoisted concatenations of
        // cost matrices) run once and stay in local memory.
        if (invariant[i])
            once_cycles += c;
        else
            cycles += c;
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

    // Control loops are latency-critical: sensor I/O and compute serialize.
    r.seconds = r.computeSeconds + r.memorySeconds + r.overheadSeconds;
    r.flops = static_cast<int64_t>(
        static_cast<double>(partition.flops()) * profile.scale *
        invocations);
    r.utilization =
        r.seconds > 0
            ? static_cast<double>(r.flops) / (m.peakFlops() * r.seconds)
            : 0.0;
    r.joules = m.watts * r.seconds;

    if (CostLedger *ledger = beginLedger(r, r.machine, profile.profiling)) {
        // The sequencer is serial, so the per-fragment issue cost
        // (ceil(work/lanes) + 8 sequencer cycles) is exact — no residual.
        for (size_t i = 0; i < partition.fragments.size(); ++i) {
            const auto &frag = partition.fragments[i];
            if (frag.opcode == "tload" || frag.opcode == "tstore")
                continue;
            const int64_t work = fragmentWork(frag);
            if (work <= 0)
                continue;
            const double c =
                std::ceil(static_cast<double>(work) / lanes) + 8.0;
            const double raw =
                (invariant[i] ? c : c * profile.scale * invocations) / hz;
            ledger->addFragment(static_cast<int>(i), frag, raw);
        }
        ledger->addDma(static_cast<double>(dma.oneTimeBytes),
                       static_cast<double>(dma.perRunBytes) * invocations,
                       m.dramGBs);
        ledger->addOverhead(r.overheadSeconds);
        finalizeLedger(r, m);
    }
    return r;
}

} // namespace polymath::target
