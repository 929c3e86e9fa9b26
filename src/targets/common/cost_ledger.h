/**
 * @file
 * Per-fragment cost attribution for the backend simulators
 * (docs/OBSERVABILITY.md §"Cost ledgers").
 *
 * A PerfReport answers "how long / how much energy"; a CostLedger answers
 * *why*: which srDFG fragments dominate the backend's schedule, how much
 * of the wall time is DMA or launch overhead, and where each fragment sits
 * against the machine's roofline. Backends populate raw entries inside
 * simulateImpl() at the points where they already compute cycles, bytes,
 * and flops; finalizeLedger() then distributes the report's *totals*
 * across the entries proportionally to those raw weights, so the ledger
 * always satisfies the invariant
 *
 *     sum(entry.seconds)   == report.seconds
 *     sum(entry.joules)    == report.joules
 *     sum(entry.dramBytes) == report.dramBytes
 *     sum(entry.flops)     == report.flops
 *
 * within 1e-9 relative tolerance — checked loudly at the non-virtual
 * Backend::simulate choke point (verifyLedger panics on violation).
 *
 * Profiling is off by default, exactly like obs::TraceRecorder: unless a
 * simulation asks for a ledger (WorkloadProfile::profiling) or the
 * process switch is on, beginLedger() returns nullptr,
 * every instrumentation site is behind one `if (ledger)` branch, and all
 * reports are byte-identical to a build without the subsystem.
 */
#ifndef POLYMATH_TARGETS_COMMON_COST_LEDGER_H_
#define POLYMATH_TARGETS_COMMON_COST_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.h"
#include "lower/accel_spec.h"
#include "targets/common/machine_config.h"
#include "targets/common/perf_report.h"

namespace polymath::target {

/** Process-wide profiling switch (off by default; one relaxed atomic
 *  read on the hot path, mirroring obs::TraceRecorder::enabled). While
 *  on, every simulation builds ledgers; a single simulation asks for
 *  them with WorkloadProfile::profiling instead. */
bool profilingEnabled();
void setProfilingEnabled(bool on);

/** Roofline classification of one ledger entry. */
enum class BoundClass
{
    Compute,  ///< arithmetic intensity above the machine ridge point
    Memory,   ///< below the ridge point (or pure data movement)
    Overhead, ///< launch / scheduling / pipeline-fill cost, no flops
};

const char *toString(BoundClass bound);

/** One attributed slice of a partition's simulated cost. */
struct CostEntry
{
    /** Human-readable source: "mul(y_next)" for fragments, or the phase
     *  cost it represents ("dma:per-run", "launch", "reduce-tree+bus"). */
    std::string label;

    /** Attribution phase: "compute", "dma", or "overhead". */
    std::string phase;

    /** Index into the partition's fragments; -1 for phase-level costs. */
    int fragment = -1;

    /** Schedule position when ledgers of several partitions are merged
     *  via PerfReport::operator+= ; -1 inside a single partition. */
    int partition = -1;

    BoundClass bound = BoundClass::Compute;

    // Attributed shares of the report totals (post-finalize). Before
    // finalizeLedger() runs they hold the backend's *raw* weights.
    double seconds = 0.0;
    double joules = 0.0;
    double dramBytes = 0.0;
    double flops = 0.0;

    /** Accelerator-side tensor footprint this entry touches (operands +
     *  results), the denominator of arithmetic intensity. Not part of
     *  the sums-to-totals invariant: on-chip reuse means touched bytes
     *  legitimately exceed DRAM traffic. */
    double touchedBytes = 0.0;

    /** Arithmetic intensity in flops/byte (infinity when no bytes). */
    double intensity() const;
};

/** The per-partition (or merged per-program) cost breakdown. */
struct CostLedger
{
    std::string machine;

    /** Machine roofline constants, captured by finalizeLedger() so
     *  renderers need no backend handle. */
    double peakFlops = 0.0;
    double dramGBs = 0.0;

    /** Number of partitions merged into this ledger; 0 for a leaf ledger
     *  straight out of one simulateImpl(). */
    int partitionCount = 0;

    std::vector<CostEntry> entries;

    /** Appends a raw entry (backend population API). */
    CostEntry &add(std::string label, std::string phase, int fragment = -1);

    /** Raw-entry helper for one IR fragment: labels it opcode(first
     *  output), seeds the flop weight from the fragment, and sums the
     *  accelerator-side operand/result footprint into touchedBytes. */
    CostEntry &addFragment(int index, const lower::IrFragment &frag,
                           double raw_seconds);

    /** Adds a phase="compute" overhead entry (scheduler/pipeline cost not
     *  attributable to a single fragment) when @p raw_seconds > 0. */
    void addComputeResidual(const char *label, double raw_seconds);

    /** Adds phase="dma" entries for a partition's one-time (param/state
     *  placement) and per-run streams at @p dram_gbs bandwidth. */
    void addDma(double one_time_bytes, double per_run_bytes,
                double dram_gbs);

    /** Adds the phase="overhead" launch/dispatch entry when > 0. */
    void addOverhead(double raw_seconds);

    struct Totals
    {
        double seconds = 0.0;
        double joules = 0.0;
        double dramBytes = 0.0;
        double flops = 0.0;
    };

    /** Column sums over all entries. */
    Totals totals() const;

    /** Merges @p other (used by PerfReport::operator+= for sequential
     *  composition): entries are copied with partition tags offset so a
     *  merged ledger still identifies which schedule slot each entry
     *  came from, and the sums-to-totals invariant is preserved. */
    void append(const CostLedger &other);
};

/**
 * Attaches a fresh ledger to @p report and returns it when the
 * simulation asks for one (@p requested, its WorkloadProfile::profiling)
 * or the process-wide switch is on; otherwise returns nullptr and leaves
 * the report untouched. The single hot-path branch of the subsystem.
 */
CostLedger *beginLedger(PerfReport &report, const std::string &machine,
                        bool requested);

/**
 * Distributes @p report's totals across the ledger's raw entries
 * (proportionally per metric), classifies each entry against the
 * machine roofline, and captures the roofline constants. No-op when the
 * report carries no ledger. Every simulateImpl() must call this last.
 */
void finalizeLedger(PerfReport &report, const MachineConfig &machine);

/**
 * Checks the sums-to-totals invariant at 1e-9 relative tolerance;
 * panics (InternalError) with the offending metric on violation. Called
 * from the Backend::simulate choke point on every profiled simulation.
 */
void verifyLedger(const PerfReport &report);

// ---------------------------------------------------------------------------
// Rendering (`pmc --profile`).
// ---------------------------------------------------------------------------

/**
 * Top-N hotspot table for one profiled partition: % time, % energy,
 * attributed flops, arithmetic intensity, bound class, and roofline
 * position (achieved fraction of the attainable rate at that
 * intensity). Entries are ranked by attributed seconds.
 */
std::string profileTable(const PerfReport &report, int top_n = 10);

/**
 * The same breakdown as schema-versioned JSON
 * (`"schema": "polymath-profile/1"`): report totals plus every entry,
 * unranked and untruncated. Locale-independent (core/json emission).
 */
std::string profileJson(const PerfReport &report);

/** Writes profileJson(@p report) as the next value of @p w. */
void writeProfileJson(json::Writer &w, const PerfReport &report);

} // namespace polymath::target

#endif // POLYMATH_TARGETS_COMMON_COST_LEDGER_H_
