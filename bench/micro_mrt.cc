/**
 * @file
 * Microbenchmarks of the modulo reservation table (google-benchmark):
 * canReserve probes, reserve/release round-trips and firstFit window
 * scans at representative IIs, for unit pools (a bus class) and
 * multi-unit pools (a cluster's FU group).
 *
 * The table is the innermost data structure of every scheduling
 * probe, so these benches pin the cost of the word-packed plane
 * representation in isolation; regressions here show up magnified in
 * BM_FullPartition and the fig2/fig3 drivers.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "sched/mrt.hh"

using namespace gpsched;

namespace
{

/**
 * Half-fills the kernel deterministically (every other slot busy on
 * one unit) so probes exercise both hit and miss paths.
 */
ModuloReservationTable
halfFull(int units, int ii)
{
    ModuloReservationTable mrt(units, ii);
    for (int s = 0; s < ii; s += 2)
        mrt.reserve(s, 1);
    return mrt;
}

} // namespace

static void
BM_MrtCanReserve(benchmark::State &state)
{
    const int ii = static_cast<int>(state.range(0));
    const int units = static_cast<int>(state.range(1));
    ModuloReservationTable mrt = halfFull(units, ii);
    int cycle = 0;
    for (auto _ : state) {
        bool ok = mrt.canReserve(cycle, 2);
        benchmark::DoNotOptimize(ok);
        cycle = (cycle + 1) % ii;
    }
    state.SetLabel(std::to_string(units) + " unit(s), II " +
                   std::to_string(ii));
}
BENCHMARK(BM_MrtCanReserve)
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({4, 4})
    ->Args({16, 4})
    ->Args({64, 4});

static void
BM_MrtReserveRelease(benchmark::State &state)
{
    const int ii = static_cast<int>(state.range(0));
    const int units = static_cast<int>(state.range(1));
    ModuloReservationTable mrt = halfFull(units, ii);
    int cycle = 1; // odd slots are free in the half-full pattern
    for (auto _ : state) {
        mrt.reserve(cycle, 1);
        mrt.release(cycle, 1);
        benchmark::DoNotOptimize(mrt.usedSlots());
        cycle = wrapSlot(cycle + 2, ii) | 1;
    }
    state.SetLabel(std::to_string(units) + " unit(s), II " +
                   std::to_string(ii));
}
BENCHMARK(BM_MrtReserveRelease)
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({4, 4})
    ->Args({16, 4})
    ->Args({64, 4});

static void
BM_MrtFirstFit(benchmark::State &state)
{
    const int ii = static_cast<int>(state.range(0));
    const int units = static_cast<int>(state.range(1));
    // Nearly-full table: firstFit must walk busy words before the
    // single free slot, the worst case the window scans hit.
    ModuloReservationTable mrt(units, ii);
    for (int u = 0; u < units; ++u) {
        for (int s = 0; s < ii - 1; ++s)
            mrt.reserve(s, 1);
    }
    for (auto _ : state) {
        int c = mrt.firstFit(0, ii - 1, 1);
        benchmark::DoNotOptimize(c);
    }
    state.SetLabel(std::to_string(units) + " unit(s), II " +
                   std::to_string(ii));
}
BENCHMARK(BM_MrtFirstFit)
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({4, 4})
    ->Args({16, 4})
    ->Args({64, 4});

/**
 * Probe copy + claim + scan, the findSlot pattern of the scheduler's
 * transformations: measures that a table copy stays a small memcpy.
 */
static void
BM_MrtProbeCopy(benchmark::State &state)
{
    const int ii = static_cast<int>(state.range(0));
    const int units = static_cast<int>(state.range(1));
    ModuloReservationTable mrt = halfFull(units, ii);
    for (auto _ : state) {
        ModuloReservationTable probe = mrt;
        probe.reserve(1, 1);
        int c = probe.firstFit(0, ii - 1, 1);
        benchmark::DoNotOptimize(c);
    }
    state.SetLabel(std::to_string(units) + " unit(s), II " +
                   std::to_string(ii));
}
BENCHMARK(BM_MrtProbeCopy)
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({4, 4})
    ->Args({16, 4})
    ->Args({64, 4});

BENCHMARK_MAIN();
