/**
 * @file
 * Backend interface: each domain-specific accelerator pairs its
 * AcceleratorSpec (how PolyMath translates to its IR) with a simulator
 * (how its scheduler/mapper would execute the translated program).
 *
 * The simulators are analytical cost models driven by the *actual compiled
 * IR* — fragment op mix, iteration extents, tensor footprints, and
 * dependency structure — with machine constants from Table VI. They stand
 * in for the physical FPGAs/ASICs of the paper's testbed (see DESIGN.md §1).
 */
#ifndef POLYMATH_TARGETS_COMMON_BACKEND_H_
#define POLYMATH_TARGETS_COMMON_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "lower/compile.h"
#include "targets/common/machine_config.h"
#include "targets/common/perf_report.h"
#include "targets/common/workload_cost.h"

namespace polymath::target {

/**
 * Runtime-scale characteristics of a workload that are not visible in the
 * compiled IR: how many times the entry component is invoked, how much
 * larger the deployed problem is than the compiled instance, and dataset
 * statistics for irregular domains.
 */
struct WorkloadProfile
{
    /** Invocations of the entry component (MPC steps, training epochs,
     *  BFS/K-means iterations). */
    int64_t invocations = 1;

    /** Deployed-problem flops divided by compiled-instance flops (1 when
     *  the graph is compiled at full scale). */
    double scale = 1.0;

    /** Graph analytics: dataset size (0 for non-graph workloads). */
    int64_t vertices = 0;
    int64_t edges = 0;

    /** Typical per-kernel parallel width at deployed scale, for GPU
     *  occupancy modeling. 0 = derive from the IR. */
    double parallelWidth = 0.0;

    /** Per-invocation host-side glue (sensor I/O, marshaling, logging)
     *  that no accelerator absorbs — the Amdahl residual of end-to-end
     *  applications. Ignored by kernel backends. */
    double hostGlueSeconds = 0.0;

    /** Attach a cost ledger to every report of this simulation (also
     *  done for all simulations while setProfilingEnabled(true) is on).
     *  Reports are byte-identical either way. */
    bool profiling = false;
};

/**
 * One accelerator backend: spec + simulator.
 *
 * The machine configuration is constructor-injected data, not a
 * hard-coded constant (DESIGN.md §"Configs are data"): every backend
 * default-constructs from its Table VI factory but accepts any
 * MachineConfig, which is what the design-space autotuner (src/dse/)
 * sweeps. The constructor is the single config-ingest point — it
 * validates, so a degenerate config (zero frequency, no compute units)
 * fails loudly before any cost model divides by it.
 */
class Backend
{
  public:
    /** @throws UserError when @p machine fails MachineConfig::validate().*/
    explicit Backend(MachineConfig machine);

    virtual ~Backend() = default;

    virtual std::string name() const = 0;
    virtual lang::Domain domain() const = 0;

    /** The machine configuration this instance simulates. */
    const MachineConfig &machine() const { return machine_; }

    /** Registration for the compilation algorithms (Ot, md, +d). */
    virtual lower::AcceleratorSpec spec() const = 0;

    /**
     * Simulates one compiled partition under @p profile. Non-virtual so
     * every scheduler/estimator invocation — from the SoC runtime, the
     * benches, or tests — passes one choke point that feeds the
     * observability layer (a `backend:simulate` span and per-accelerator
     * call counter); backends implement simulateImpl().
     */
    PerfReport simulate(const lower::Partition &partition,
                        const WorkloadProfile &profile) const;

  protected:
    /** The backend's scheduler/cost model (docs/ADDING_A_BACKEND.md). */
    virtual PerfReport simulateImpl(const lower::Partition &partition,
                                    const WorkloadProfile &profile)
        const = 0;

  private:
    MachineConfig machine_;
};

/** DMA traffic of a partition split by type modifier: `param`/`state`
 *  tensors are placed on-chip once (the language-level data semantics the
 *  accelerators exploit — Section II-A), everything else moves every
 *  invocation. */
struct DmaBreakdown
{
    int64_t oneTimeBytes = 0; ///< param + state placement
    int64_t perRunBytes = 0;  ///< input/output/intermediate traffic
};

DmaBreakdown dmaBreakdown(const lower::Partition &partition);

/**
 * Host-CPU view of one partition's deployed-scale cost, for partitions
 * the SoC keeps (or degrades onto) the host. Dense domains scale the
 * compiled-instance flops by profile.scale; graph analytics compiles the
 * per-vertex program, so deployed work scales with the dataset's V/E
 * exactly as the Graphicionado model derives it, and the edge stream
 * dominates DRAM traffic. cpuEff is left at 0 (domain default) — callers
 * overlay their calibrated native-library efficiencies.
 */
WorkloadCost hostPartitionCost(const lower::Partition &partition,
                               const WorkloadProfile &profile);

/** Cycle-relevant work of a fragment: scalar flops plus identity-move
 *  elements (copies/concats occupy lanes even though they are not
 *  arithmetic — part of PolyMath's overhead vs. hand-tuned code). */
int64_t fragmentWork(const lower::IrFragment &frag);

/** Marks fragments whose results derive only from read-only `param`
 *  data (transitively): accelerators compute those once and keep the
 *  result in local memory across invocations, like the operands
 *  themselves. Indexed like partition.fragments. */
std::vector<bool> invariantFragments(const lower::Partition &partition);

/** Dependency levels of a partition's fragments: fragments in the same
 *  level are independent (by tensor-name dataflow) and can run
 *  concurrently; levels run in order. tload/tstore fragments are skipped.*/
std::vector<std::vector<const lower::IrFragment *>> fragmentLevels(
    const lower::Partition &partition);

/** All six DSA backends, in registration order matching Table V. */
std::vector<std::unique_ptr<Backend>> standardBackends();

/**
 * One DSA backend by Table V name ("RoboX", "Graphicionado", "TABLA",
 * "DECO", "TVM-VTA", "HyperStreams") under a caller-chosen machine
 * configuration — the instantiation point of the design-space autotuner.
 * @throws UserError on an unknown name or an invalid config.
 */
std::unique_ptr<Backend> makeBackend(const std::string &name,
                                     MachineConfig config);

/** AcceleratorRegistry assembled from standardBackends(), built once
 *  per process on first use and immutable afterwards. */
const lower::AcceleratorRegistry &standardRegistry();

/** Finds a backend by name in @p backends; nullptr when absent. */
const Backend *findBackend(
    const std::vector<std::unique_ptr<Backend>> &backends,
    const std::string &name);

} // namespace polymath::target

#endif // POLYMATH_TARGETS_COMMON_BACKEND_H_
