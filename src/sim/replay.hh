/**
 * @file
 * The record contract and the suite-level replay gate.
 *
 * checkRecord is the one definition of "this compiled record is
 * right": the static validator (sched/validate.hh) and the
 * cycle-accurate replay simulator (sim/sim.hh) must reach the same
 * verdict, and the replayed achieved II, cycle count and IPC must
 * equal the record's claims bit-exactly. The fuzz sweep, the
 * benches' --replay gate, gpsched_cli --simulate and the property
 * tests all hold records to it.
 *
 * replayProgram/replaySuite apply checkRecord to every successfully
 * compiled loop of a pipeline result; the benches run them behind
 * --replay and the nightly corpus sweep fails on any mismatch.
 */

#ifndef GPSCHED_SIM_REPLAY_HH
#define GPSCHED_SIM_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "machine/machine.hh"
#include "sim/sim.hh"

namespace gpsched::sim
{

/** What the record contract found on one compiled loop. */
enum class RecordVerdict : std::uint8_t
{
    Pass,
    OracleDisagree,   ///< validator and simulator verdicts differ
    ScheduleRejected, ///< both oracles reject the recorded schedule
    MetricMismatch,   ///< replayed II/cycles/IPC != the record's claim
};

/** Stable printable name ("pass", "oracle-disagree", ...). */
const char *toString(RecordVerdict verdict);

/** Outcome of checkRecord. */
struct RecordCheck
{
    RecordVerdict verdict = RecordVerdict::Pass;

    /** Why a non-pass verdict was reached; empty on pass. */
    std::string detail;

    /** The replay the verdict was drawn from. */
    SimResult sim;

    bool ok() const { return verdict == RecordVerdict::Pass; }
};

/**
 * Holds @p loop, compiled from @p ddg for @p machine, to the record
 * contract: the validator's and the simulator's verdicts are
 * compared first, then the replayed achievedII/simCycles/achievedIpc
 * against the record's ii/cycles/ipc, bit-exactly. List-scheduled
 * records carry no placements for the validator, so they are held to
 * the replay half only.
 */
RecordCheck checkRecord(const Ddg &ddg, const MachineConfig &machine,
                        const CompiledLoop &loop);

/** One loop whose replay disagreed with its compile record. */
struct ReplayMismatch
{
    std::string program;
    std::string loop;
    std::string detail;
};

/** Outcome of replaying a program or suite. */
struct ReplayReport
{
    /** Loops replayed (list-scheduled loops count: their recomputed
     *  cycles are still cross-checked). */
    std::int64_t loopsChecked = 0;

    /** Loops that actually went through the kernel replay. */
    std::int64_t loopsReplayed = 0;

    std::vector<ReplayMismatch> mismatches;

    bool ok() const { return mismatches.empty(); }

    /** "replayed N loops, M mismatches" (+ first mismatch detail). */
    std::string summary() const;
};

/**
 * Holds every compiled loop of @p result to checkRecord against
 * @p machine. Each record is paired with the DDG it was compiled
 * from through ProgramResult::loopIndex (failures recorded in
 * result.failures have no record and are skipped, like the
 * aggregates skip them).
 */
ReplayReport replayProgram(const Program &program,
                           const ProgramResult &result,
                           const MachineConfig &machine);

/** Replays every program of a suite (result.programs[i] compiled
 *  from suite[i]); aggregates into one report. */
ReplayReport replaySuite(const std::vector<Program> &suite,
                         const SuiteResult &result,
                         const MachineConfig &machine);

} // namespace gpsched::sim

#endif // GPSCHED_SIM_REPLAY_HH
