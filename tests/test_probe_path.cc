/**
 * @file
 * The modulo scheduler's two inner loops, tested directly: placement
 * probes that reuse per-schedule scratch, and transformation probes
 * memoized on the schedule's mutation counter.
 *
 * This binary links testing/alloc_counter.cc, which replaces the
 * global operator new with a counting version, so a test can assert
 * that a code path performs no heap allocation at all. Counted
 * sections contain no gtest assertion.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/gp_scheduler.hh"
#include "graph/ddg_builder.hh"
#include "machine/configs.hh"
#include "machine/registry.hh"
#include "sched/schedule.hh"
#include "sched/validate.hh"
#include "testing/alloc_counter.hh"
#include "workload/fuzz.hh"

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/**
 * Three producer/store pairs whose ~20-cycle lifetimes at II=4 want
 * 5 registers each; a 12-register cluster holds two of them.
 */
struct ThreeLifetimes
{
    LatencyTable lat;
    std::vector<NodeId> producers;
    std::vector<NodeId> stores;
    Ddg ddg;
    MachineConfig machine{"tiny", 2, 4, 4, 4, 24, 1, 1};

    ThreeLifetimes() : ddg(build()) {}

    Ddg
    build()
    {
        DdgBuilder b("three", lat);
        for (int i = 0; i < 3; ++i) {
            NodeId p = b.op(Opcode::IAlu);
            NodeId c = b.op(Opcode::Store);
            b.flow(p, c);
            producers.push_back(p);
            stores.push_back(c);
        }
        return b.tripCount(10).build();
    }

    /** Places all but the third store, filling cluster 0's file. */
    void
    fill(PartialSchedule &ps) const
    {
        for (int i = 0; i < 3; ++i)
            ps.apply(ps.planPlacement(producers[i], 0, i));
        ps.apply(ps.planPlacement(stores[0], 0, 20));
        ps.apply(ps.planPlacement(stores[1], 0, 21));
    }
};

} // namespace

TEST(ProbePath, RejectedWindowScanAllocatesNothingOnceWarm)
{
    ThreeLifetimes t;
    PartialSchedule ps(t.ddg, t.machine, 4);
    t.fill(ps);

    // Every cycle from 20 on passes the memory-port check and fails
    // only at the register check, the deepest point of a probe.
    PlacementPlan plan;
    ASSERT_FALSE(ps.planInWindow(t.stores[2], 0, 20, 40, plan));

    const long before = heapAllocations();
    const bool feasible = ps.planInWindow(t.stores[2], 0, 22, 44, plan);
    const long during = heapAllocations() - before;

    EXPECT_FALSE(feasible);
    EXPECT_EQ(during, 0);
}

TEST(ProbePath, FeasibleScanReusesWarmPlan)
{
    ThreeLifetimes t;
    PartialSchedule ps(t.ddg, t.machine, 4);
    for (int i = 0; i < 3; ++i)
        ps.apply(ps.planPlacement(t.producers[i], 0, i));
    PlacementPlan plan;
    ASSERT_TRUE(ps.planInWindow(t.stores[0], 0, 20, 30, plan));

    const long before = heapAllocations();
    const bool feasible = ps.planInWindow(t.stores[1], 0, 21, 30, plan);
    const long during = heapAllocations() - before;

    EXPECT_TRUE(feasible);
    EXPECT_EQ(during, 0);
    EXPECT_EQ(plan.node, t.stores[1]);
}

TEST(ProbePath, RepeatedTransformationRunIsFreeAndFruitless)
{
    ThreeLifetimes t;
    PartialSchedule ps(t.ddg, t.machine, 4);
    t.fill(ps);
    ASSERT_GT(ps.runTransformations(), 0);
    const std::uint64_t version = ps.version();

    const long before = heapAllocations();
    const int applied = ps.runTransformations();
    const long during = heapAllocations() - before;

    EXPECT_EQ(applied, 0);
    EXPECT_EQ(during, 0);
    EXPECT_EQ(ps.version(), version);
}

TEST(ProbePath, MemoizedFailureIsRetriedAfterApply)
{
    // A lone producer has no idle gap to spill, so every probe
    // fails; once its far consumer is placed the spill pays off.
    LatencyTable lat;
    DdgBuilder b("longlife", lat);
    NodeId p = b.op(Opcode::IAlu);
    NodeId c = b.op(Opcode::Store);
    b.flow(p, c);
    Ddg g = b.tripCount(10).build();
    MachineConfig m("tiny", 2, 4, 4, 4, 16, 1, 1);
    PartialSchedule ps(g, m, 4);
    ps.apply(ps.planPlacement(p, 0, 0));
    ASSERT_EQ(ps.runTransformations(), 0);
    ASSERT_EQ(ps.runTransformations(), 0);

    const std::uint64_t version = ps.version();
    ps.apply(ps.planPlacement(c, 0, 30));
    EXPECT_NE(ps.version(), version);
    EXPECT_GT(ps.runTransformations(), 0);
    EXPECT_TRUE(ps.spillOf(p).spilled);
    auto v = validateSchedule(g, m, ps);
    EXPECT_TRUE(v) << v.message;
}

TEST(ProbePath, RejectedSpillRestoresValueStateExactly)
{
    // With registers to spare a spill only adds memory traffic, so
    // the figure of merit rejects it after it was fully applied.
    LatencyTable lat;
    DdgBuilder b("longlife", lat);
    NodeId p = b.op(Opcode::IAlu);
    NodeId c = b.op(Opcode::Store);
    b.flow(p, c);
    Ddg g = b.tripCount(10).build();
    MachineConfig m = twoClusterConfig(256, 1);
    PartialSchedule ps(g, m, 4);
    ps.apply(ps.planPlacement(p, 0, 0));
    ps.apply(ps.planPlacement(c, 0, 30));

    const std::uint64_t version = ps.version();
    const SpillInfo spill = ps.spillOf(p);
    const int live = ps.maxLive(0);
    const int mem_free = ps.memFreeSlots(0);
    const ScheduleStats stats = ps.stats();

    EXPECT_FALSE(ps.trySpill(0));
    EXPECT_FALSE(ps.spillOf(p).spilled);
    EXPECT_EQ(ps.spillOf(p).storeCycle, spill.storeCycle);
    EXPECT_EQ(ps.spillOf(p).loadCycle, spill.loadCycle);
    EXPECT_EQ(ps.maxLive(0), live);
    EXPECT_EQ(ps.memFreeSlots(0), mem_free);
    EXPECT_EQ(ps.stats(), stats);
    EXPECT_EQ(ps.version(), version);
}

/**
 * Run under ThreadSanitizer in CI: the probe scratch is per schedule,
 * so concurrent compiles on separate schedules share nothing mutable
 * and reproduce the serial results exactly.
 */
TEST(ProbePath, ConcurrentCompilesShareNoScratch)
{
    constexpr int kLoops = 40;
    constexpr int kThreads = 4;
    const MachineConfig machine =
        MachineRegistry::builtin().get("4c-r32-b1");
    std::vector<Ddg> corpus;
    for (int i = 0; i < kLoops; ++i)
        corpus.push_back(fuzz::corpusCase(1, i, LatencyTable{}).ddg);

    auto compileAll = [&](std::vector<CompiledLoop> &out) {
        LoopCompiler compiler(machine, SchedulerKind::Gp);
        for (const Ddg &ddg : corpus)
            out.push_back(compiler.compile(ddg));
    };
    std::vector<CompiledLoop> serial;
    compileAll(serial);

    std::vector<std::vector<CompiledLoop>> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(compileAll, std::ref(results[t]));
    for (std::thread &thread : threads)
        thread.join();

    for (const std::vector<CompiledLoop> &result : results) {
        ASSERT_EQ(result.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(result[i].ii, serial[i].ii);
            EXPECT_EQ(result[i].placements, serial[i].placements);
            EXPECT_EQ(result[i].transfers, serial[i].transfers);
            EXPECT_EQ(result[i].spills, serial[i].spills);
        }
    }
}
