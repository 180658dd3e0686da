/**
 * @file
 * Unit tests of the cycle-accurate replay simulator (src/sim/):
 * compiled fixture loops replay to exactly the metrics the compiler
 * reported, a live schedule replays through its recordSchedule
 * record at the schedule's own II, list-scheduled loops are
 * cross-checked without a kernel replay, hand-built broken schedules
 * trip the right SimFault, the record contract (sim::checkRecord)
 * reaches the right verdict on clean and damaged records, and the
 * replay gate pairs each record with the DDG it was compiled from.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/gp_scheduler.hh"
#include "core/pipeline.hh"
#include "machine/configs.hh"
#include "sched/validate.hh"
#include "sim/replay.hh"
#include "testing/fixtures.hh"
#include "workload/fuzz.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

std::vector<Ddg>
fixtureLoops(const LatencyTable &lat)
{
    std::vector<Ddg> loops;
    loops.push_back(chainLoop(8, lat));
    loops.push_back(parallelLoop(6, lat));
    loops.push_back(recurrenceLoop(lat));
    loops.push_back(diamondLoop(lat));
    loops.push_back(memHeavyLoop(6, lat));
    return loops;
}

/** Minimal well-formed CompiledLoop skeleton for hand-built cases. */
CompiledLoop
emptyLoop(const Ddg &ddg, int ii)
{
    CompiledLoop loop;
    loop.loopName = ddg.name();
    loop.moduloScheduled = true;
    loop.ii = ii;
    loop.placements.resize(ddg.numNodes());
    return loop;
}

} // namespace

TEST(Sim, CompiledFixturesReplayToReportedMetrics)
{
    LatencyTable lat;
    std::vector<MachineConfig> machines = {twoClusterConfig(32, 1),
                                           fourClusterConfig(64, 2)};
    for (const MachineConfig &m : machines) {
        for (SchedulerKind kind :
             {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
              SchedulerKind::Gp}) {
            for (const Ddg &g : fixtureLoops(lat)) {
                CompiledLoop loop =
                    LoopCompiler(m, kind).compile(g);
                sim::SimResult s = sim::simulate(g, m, loop);
                ASSERT_TRUE(s.simOk)
                    << g.name() << " on " << m.name() << ": "
                    << (s.fault ? s.fault->toString() : "");
                if (!loop.moduloScheduled) {
                    EXPECT_FALSE(s.replayed);
                    EXPECT_EQ(s.achievedII, 0);
                } else {
                    EXPECT_TRUE(s.replayed);
                    EXPECT_EQ(s.achievedII, loop.ii)
                        << g.name() << " on " << m.name();
                }
                EXPECT_EQ(s.simCycles, loop.cycles)
                    << g.name() << " on " << m.name();
                EXPECT_EQ(s.achievedIpc, loop.ipc)
                    << g.name() << " on " << m.name();
            }
        }
    }
}

TEST(Sim, RecordedScheduleReplayAgreesWithScheduleState)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 2);
    for (const Ddg &g : fixtureLoops(lat)) {
        auto ps = scheduleLoop(g, m);
        ASSERT_TRUE(ps.has_value()) << g.name();
        CompiledLoop record;
        recordSchedule(g, *ps, record);
        sim::SimResult s = sim::simulate(g, m, record);
        ASSERT_TRUE(s.simOk)
            << g.name() << ": "
            << (s.fault ? s.fault->toString() : "");
        EXPECT_EQ(s.achievedII, ps->ii()) << g.name();
        EXPECT_GT(s.iterationsSimulated, 0);
        // The replayed peak pressure can never exceed the schedule's
        // folded (steady-state) bookkeeping.
        ASSERT_EQ(static_cast<int>(s.maxLive.size()),
                  m.numClusters());
        for (int c = 0; c < m.numClusters(); ++c)
            EXPECT_LE(s.maxLive[c], ps->maxLive(c))
                << g.name() << " cluster " << c;
    }
}

TEST(Sim, ListScheduledLoopCrossCheckedWithoutReplay)
{
    LatencyTable lat;
    Ddg g = chainLoop(3, lat);
    g.setTripCount(25);
    CompiledLoop loop;
    loop.loopName = g.name();
    loop.moduloScheduled = false;
    loop.ii = 0;
    loop.scheduleLength = 7;
    MachineConfig m = twoClusterConfig(32, 1);

    sim::SimResult s = sim::simulate(g, m, loop);
    EXPECT_TRUE(s.simOk);
    EXPECT_FALSE(s.replayed);
    EXPECT_EQ(s.achievedII, 0);
    EXPECT_EQ(s.simCycles, 7 * 25);
    EXPECT_EQ(s.achievedIpc, static_cast<double>(3 * 25) / (7 * 25));
}

TEST(Sim, MissingTransferFaults)
{
    LatencyTable lat;
    Ddg g("cross");
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    g.addEdge(a, b, lat.latency(Opcode::IAlu));
    MachineConfig m = twoClusterConfig(32, 1);

    CompiledLoop loop = emptyLoop(g, 1);
    loop.placements[a] = {0, 0};
    loop.placements[b] = {1, 5}; // other cluster, no transfer
    sim::SimResult s = sim::simulate(g, m, loop);
    ASSERT_FALSE(s.simOk);
    ASSERT_TRUE(s.fault.has_value());
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::MissingTransfer);
    EXPECT_NE(s.fault->toString().find("MissingTransfer"),
              std::string::npos);
    // The static validator agrees.
    EXPECT_FALSE(validateSchedule(g, m, loop).valid);
}

TEST(Sim, DependenceViolationFaults)
{
    LatencyTable lat;
    Ddg g("dep");
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    g.addEdge(a, b, lat.latency(Opcode::IAlu));
    MachineConfig m = twoClusterConfig(32, 1);

    CompiledLoop loop = emptyLoop(g, 4);
    loop.placements[a] = {0, 0};
    loop.placements[b] = {0, 0}; // issues with its producer
    sim::SimResult s = sim::simulate(g, m, loop);
    ASSERT_FALSE(s.simOk);
    ASSERT_TRUE(s.fault.has_value());
    EXPECT_TRUE(s.fault->kind ==
                    sim::SimFaultKind::DependenceViolation ||
                s.fault->kind == sim::SimFaultKind::ReadBeforeWrite)
        << s.fault->toString();
    EXPECT_FALSE(validateSchedule(g, m, loop).valid);
}

TEST(Sim, RegisterOverflowFaults)
{
    LatencyTable lat;
    Ddg g("pressure");
    NodeId a = g.addNode(Opcode::IAlu);
    NodeId b = g.addNode(Opcode::IAlu);
    NodeId ua = g.addNode(Opcode::IAlu);
    NodeId ub = g.addNode(Opcode::IAlu);
    g.addEdge(a, ua, lat.latency(Opcode::IAlu));
    g.addEdge(b, ub, lat.latency(Opcode::IAlu));

    // One cluster, one register: two simultaneously-live values
    // cannot fit.
    MachineConfig m("tiny", {{"c0", {2, 1, 1}, 1}}, {});

    CompiledLoop loop = emptyLoop(g, 4);
    loop.placements[a] = {0, 0};
    loop.placements[b] = {0, 1};
    loop.placements[ua] = {0, 5};
    loop.placements[ub] = {0, 6};
    sim::SimResult s = sim::simulate(g, m, loop);
    ASSERT_FALSE(s.simOk);
    ASSERT_TRUE(s.fault.has_value());
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::RegisterOverflow)
        << s.fault->toString();
    EXPECT_FALSE(validateSchedule(g, m, loop).valid);
}

TEST(Sim, MalformedScheduleFaults)
{
    LatencyTable lat;
    Ddg g = chainLoop(2, lat);
    MachineConfig m = twoClusterConfig(32, 1);

    CompiledLoop truncated = emptyLoop(g, 1);
    truncated.placements.pop_back();
    sim::SimResult s = sim::simulate(g, m, truncated);
    ASSERT_FALSE(s.simOk);
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::MalformedSchedule);

    CompiledLoop badIi = emptyLoop(g, 0);
    badIi.moduloScheduled = true;
    s = sim::simulate(g, m, badIi);
    ASSERT_FALSE(s.simOk);
    EXPECT_EQ(s.fault->kind, sim::SimFaultKind::MalformedSchedule);
}

// ---------------------------------------------------------------------
// The record contract: one table of clean and damaged records, each
// with the verdict sim::checkRecord must reach.
// ---------------------------------------------------------------------

TEST(Sim, CheckRecordVerdicts)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 2);
    Ddg g = recurrenceLoop(lat);

    CompiledLoop modulo = LoopCompiler(m, SchedulerKind::Gp).compile(g);
    ASSERT_TRUE(modulo.moduloScheduled);
    LoopCompilerOptions listOnly;
    listOnly.maxIiHardCap = 0; // no II is tried: the list fallback
    CompiledLoop list =
        LoopCompiler(m, SchedulerKind::Gp, listOnly).compile(g);
    ASSERT_FALSE(list.moduloScheduled);

    auto corrupted = [](CompiledLoop loop,
                        fuzz::ScheduleCorruption corruption) {
        fuzz::corruptLoop(loop, corruption);
        return loop;
    };
    CompiledLoop iiBumped = modulo;
    iiBumped.ii += 1;

    struct Case
    {
        const char *what;
        CompiledLoop loop;
        sim::RecordVerdict want;
    };
    const std::vector<Case> cases = {
        {"clean modulo", modulo, sim::RecordVerdict::Pass},
        {"clean list", list, sim::RecordVerdict::Pass},
        {"cluster out of range",
         corrupted(modulo, fuzz::ScheduleCorruption::ClusterOutOfRange),
         sim::RecordVerdict::ScheduleRejected},
        {"modulo cycles off by one",
         corrupted(modulo, fuzz::ScheduleCorruption::CyclesOffByOne),
         sim::RecordVerdict::MetricMismatch},
        {"list cycles off by one",
         corrupted(list, fuzz::ScheduleCorruption::CyclesOffByOne),
         sim::RecordVerdict::MetricMismatch},
        {"II bumped by one", iiBumped,
         sim::RecordVerdict::MetricMismatch},
    };
    for (const Case &c : cases) {
        sim::RecordCheck check = sim::checkRecord(g, m, c.loop);
        EXPECT_EQ(check.verdict, c.want)
            << c.what << ": got " << sim::toString(check.verdict)
            << " (" << check.detail << ")";
        EXPECT_EQ(check.ok(), c.want == sim::RecordVerdict::Pass)
            << c.what;
        EXPECT_EQ(check.detail.empty(), check.ok()) << c.what;
    }
}

// ---------------------------------------------------------------------
// Regression: the replay gate used to pair records with DDGs by a
// by-name cursor, so a loop that failed to compile followed by a good
// loop of the same name replayed the good record against the failing
// loop's DDG. Records are now paired by submission index.
// ---------------------------------------------------------------------

TEST(Replay, PairsEachRecordWithItsDdgBySubmissionIndex)
{
    LatencyTable lat;
    // Flow edge promising latency 1 where FMul needs 4: computeMii
    // rejects it.
    Ddg bad("dup");
    NodeId mul = bad.addNode(Opcode::FMul);
    NodeId add = bad.addNode(Opcode::FAdd);
    bad.addEdge(mul, add, 1, 0, DepKind::Flow);
    bad.setTripCount(10);
    Ddg good("dup");
    NodeId prev = good.addNode(Opcode::IAlu);
    for (int i = 0; i < 4; ++i) {
        NodeId next = good.addNode(Opcode::IAlu);
        good.addEdge(prev, next, lat.latency(Opcode::IAlu));
        prev = next;
    }
    good.setTripCount(50);
    Program prog{"dups", {bad, good}};
    MachineConfig m = twoClusterConfig(32, 1);

    ProgramResult result = compileProgram(prog, m, SchedulerKind::Gp);
    ASSERT_EQ(result.failures.size(), 1u);
    ASSERT_EQ(result.loops.size(), 1u);
    sim::ReplayReport report = sim::replayProgram(prog, result, m);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.loopsChecked, 1);

    std::vector<Program> suite = {prog, prog};
    SuiteResult suiteResult = compileSuite(suite, m, SchedulerKind::Gp);
    report = sim::replaySuite(suite, suiteResult, m);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.loopsChecked, 2);
}
