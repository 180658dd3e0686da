/**
 * @file
 * Sim-backed regression pin for the slack-aware transfer policy's
 * known small losses. The transfer-policy PR documented that
 * slackMargin=2 (the default) trails slackMargin=0 slightly on the
 * skewed-FU and three-tier-bus corpus machines, where an eager
 * steer to slow buses frees the fast class for the critical
 * recurrence. The estimator-side numbers were pinned then; this
 * file re-derives them from *simulated* achieved IPC — every loop
 * of both configurations is held to the record contract
 * (sim::checkRecord: validator and cycle-accurate simulator accept
 * it, replayed II/cycles/IPC reproduce the record exactly) — so the
 * pinned relation rests on an independent oracle, not on the
 * estimator double-counting its own claims.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "machine/registry.hh"
#include "sim/replay.hh"
#include "workload/specfp.hh"

using namespace gpsched;

namespace
{

MachineConfig
corpusMachine(const std::string &file)
{
    return MachineRegistry::builtin().resolve(
        GPSCHED_SOURCE_DIR "/examples/machines/" + file);
}

/**
 * Compiles the suite with GP at @p margin and recomputes the
 * suite-mean IPC from simulated executions: each compiled loop must
 * pass checkRecord; the per-program aggregation then mirrors
 * compileSuite's (totalOps / totalCycles per program, arithmetic
 * mean across programs) with the simulator's cycle counts.
 */
double
simMeanIpc(const std::vector<Program> &suite, const MachineConfig &m,
           int margin)
{
    LoopCompilerOptions options;
    options.transfer.slackMargin = margin;
    SuiteResult result =
        compileSuite(suite, m, SchedulerKind::Gp, options);
    EXPECT_EQ(result.failedLoops, 0u) << m.name();

    double mean = 0.0;
    int programs = 0;
    for (std::size_t p = 0; p < result.programs.size(); ++p) {
        const ProgramResult &pr = result.programs[p];
        std::int64_t ops = 0;
        std::int64_t cycles = 0;
        for (std::size_t i = 0; i < pr.loops.size(); ++i) {
            const CompiledLoop &loop = pr.loops[i];
            sim::RecordCheck check = sim::checkRecord(
                suite[p].loops[pr.loopIndex[i]], m, loop);
            EXPECT_TRUE(check.ok())
                << pr.name << "/" << loop.loopName << " on "
                << m.name() << ": " << sim::toString(check.verdict)
                << ": " << check.detail;
            ops += loop.ops;
            cycles += check.sim.simCycles;
        }
        if (cycles > 0) {
            mean += static_cast<double>(ops) /
                    static_cast<double>(cycles);
            ++programs;
        }
    }
    EXPECT_GT(programs, 0) << m.name();
    return programs > 0 ? mean / programs : 0.0;
}

} // namespace

// ---------------------------------------------------------------------
// The documented small losses of the default margin, re-measured on
// simulated executions. Pinned from measurement: margin 2 trails
// margin 0 on skewed_fu_2c and threetier_bus_4c — where hoarding
// fast-bus slots starves nothing, so the eager steer's extra fast
// slots occasionally shave an II — but the loss stays tiny (< 0.1%
// of the eager mean), while on skewed_fu_4c margin 2 wins outright
// (its reserved fast slots serve the critical recurrence). Both
// sides of every comparison are sim-verified, so a future estimator
// bug cannot silently shift this pin.
// ---------------------------------------------------------------------

TEST(SimRegression, SlackMarginLossesPinnedBySimulation)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);

    struct Pin
    {
        const char *file;
        bool marginLoses; // margin 2 trails margin 0
    };
    for (const Pin &pin :
         {Pin{"skewed_fu_2c.machine", true},
          Pin{"skewed_fu_4c.machine", false},
          Pin{"threetier_bus_4c.machine", true}}) {
        MachineConfig m = corpusMachine(pin.file);
        double eager = simMeanIpc(suite, m, 0);
        double deflt = simMeanIpc(suite, m, 2);
        RecordProperty(m.name() + "_margin0", std::to_string(eager));
        RecordProperty(m.name() + "_margin2", std::to_string(deflt));
        std::printf("[sim-regression] %-18s margin0=%.6f "
                    "margin2=%.6f delta=%+.6f\n",
                    m.name().c_str(), eager, deflt, deflt - eager);
        EXPECT_GT(eager, 0.0) << pin.file;
        EXPECT_GT(deflt, 0.0) << pin.file;
        if (pin.marginLoses) {
            EXPECT_LT(deflt, eager) << pin.file;
            EXPECT_GE(deflt, eager * 0.999)
                << pin.file << ": the pinned loss was tiny";
        } else {
            EXPECT_GT(deflt, eager) << pin.file;
        }
    }
}
