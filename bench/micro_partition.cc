/**
 * @file
 * Microbenchmarks of the partitioner components (google-benchmark):
 * edge weights, coarsening, estimator evaluation and the full
 * multilevel run, over generated loop bodies of growing size.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "graph/ddg_analysis.hh"
#include "machine/configs.hh"
#include "partition/coarsen.hh"
#include "partition/edge_weights.hh"
#include "partition/estimator.hh"
#include "partition/multilevel.hh"
#include "sched/mii.hh"
#include "sched/uracam.hh"
#include "support/random.hh"
#include "support/telemetry.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;

namespace
{

Ddg
loopOfSize(int chains)
{
    LatencyTable lat;
    return wideBlockKernel("bench", lat, chains, 4, 100);
}

} // namespace

static void
BM_EdgeWeights(benchmark::State &state)
{
    LatencyTable lat;
    Ddg g = loopOfSize(static_cast<int>(state.range(0)));
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);
    for (auto _ : state) {
        auto w = computeEdgeWeights(g, lat, mii, m.busLatency());
        benchmark::DoNotOptimize(w);
    }
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_EdgeWeights)->Arg(4)->Arg(8)->Arg(16);

static void
BM_Coarsen(benchmark::State &state)
{
    LatencyTable lat;
    Ddg g = loopOfSize(static_cast<int>(state.range(0)));
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);
    auto weights = computeEdgeWeights(g, lat, mii, m.busLatency());
    for (auto _ : state) {
        Rng rng(7);
        CoarseningHierarchy h(g, weights, 4,
                              MatchingPolicy::GreedyHeavy, rng);
        benchmark::DoNotOptimize(h.levels().size());
    }
}
BENCHMARK(BM_Coarsen)->Arg(4)->Arg(8)->Arg(16);

static void
BM_EstimatorEvaluate(benchmark::State &state)
{
    Ddg g = loopOfSize(static_cast<int>(state.range(0)));
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);
    PartitionEstimator est(g, m, mii);
    Partition p(g.numNodes(), 4, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        p.assign(v, v % 4);
    for (auto _ : state) {
        PartitionEstimate e = est.evaluate(p);
        benchmark::DoNotOptimize(e.execTime);
    }
}
BENCHMARK(BM_EstimatorEvaluate)->Arg(4)->Arg(8)->Arg(16);

static void
BM_FullPartition(benchmark::State &state)
{
    Ddg g = loopOfSize(static_cast<int>(state.range(0)));
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);
    GpPartitioner part(m);
    for (auto _ : state) {
        GpPartitionResult r = part.run(g, mii);
        benchmark::DoNotOptimize(r.iiBus);
    }
}
BENCHMARK(BM_FullPartition)->Arg(4)->Arg(8)->Arg(16);

/**
 * BM_FullPartition with phase collection active: an ambient
 * CompileTrace makes every GPSCHED_PHASE_SPAN take its clock reads.
 * Compare against BM_FullPartition (idle spans: one TLS load and a
 * branch each) to see the telemetry overhead contract — the idle
 * delta vs. pre-telemetry builds must stay under 1%.
 */
static void
BM_FullPartitionPhaseSpans(benchmark::State &state)
{
    Ddg g = loopOfSize(static_cast<int>(state.range(0)));
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);
    GpPartitioner part(m);
    CompileTrace phases;
    TelemetryContext ctx;
    ctx.trace = &phases;
    ScopedTelemetryContext scoped(ctx);
    for (auto _ : state) {
        GpPartitionResult r = part.run(g, mii);
        benchmark::DoNotOptimize(r.iiBus);
    }
    state.SetLabel(std::to_string(phases.phase(CompilePhase::Coarsen)
                                      .count) +
                   " coarsen spans");
}
BENCHMARK(BM_FullPartitionPhaseSpans)->Arg(4)->Arg(8)->Arg(16);

static void
BM_ModuloScheduleGp(benchmark::State &state)
{
    Ddg g = loopOfSize(static_cast<int>(state.range(0)));
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);
    GpPartitioner part(m);
    GpPartitionResult pr = part.run(g, mii);
    ModuloScheduler sched(g, m);
    for (auto _ : state) {
        for (int ii = mii;; ++ii) {
            PartialSchedule ps(g, m, ii);
            if (sched.schedule(ps, ClusterPolicy::PreferAssigned,
                               &pr.partition)) {
                benchmark::DoNotOptimize(ps.scheduleLength());
                break;
            }
        }
    }
}
BENCHMARK(BM_ModuloScheduleGp)->Arg(4)->Arg(8)->Arg(16);

static void
BM_ModuloScheduleUracam(benchmark::State &state)
{
    Ddg g = loopOfSize(static_cast<int>(state.range(0)));
    MachineConfig m = fourClusterConfig(32, 1);
    int mii = computeMii(g, m);
    ModuloScheduler sched(g, m);
    for (auto _ : state) {
        for (int ii = mii;; ++ii) {
            PartialSchedule ps(g, m, ii);
            if (sched.schedule(ps, ClusterPolicy::FreeChoice,
                               nullptr)) {
                benchmark::DoNotOptimize(ps.scheduleLength());
                break;
            }
        }
    }
}
BENCHMARK(BM_ModuloScheduleUracam)->Arg(4)->Arg(8)->Arg(16);

BENCHMARK_MAIN();
