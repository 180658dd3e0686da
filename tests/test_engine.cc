/**
 * @file
 * The parallel compilation engine: thread pool semantics, loop
 * fingerprinting, the sharded LRU result cache, JSON writer output,
 * and the engine facade's two headline guarantees — bit-identical
 * results regardless of worker count, and >90% cache hit rate when
 * a suite is recompiled.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "engine/result_cache.hh"
#include "engine/thread_pool.hh"
#include "machine/configs.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "testing/fixtures.hh"
#include "workload/fuzz.hh"
#include "workload/specfp.hh"

using namespace gpsched;

// --- thread pool ---------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, InlinePoolRunsOnSubmittingThread)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 0);
    std::thread::id here = std::this_thread::get_id();
    std::thread::id ran;
    pool.submit([&ran] { ran = std::this_thread::get_id(); });
    EXPECT_EQ(ran, here);
    pool.wait(); // no-op, must not hang
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { ++counter; });
        pool.wait();
        EXPECT_EQ(counter.load(), 10 * (batch + 1));
    }
}

TEST(ThreadPool, DestructorDrainsOutstandingWork)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
        // No wait(): the destructor must finish the queue.
    }
    EXPECT_EQ(counter.load(), 50);
}

// --- thread pool fault isolation -----------------------------------

TEST(ThreadPool, WorkerExceptionIsContainedAndRethrownFromWait)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&counter, i] {
            ++counter;
            if (i == 7)
                throw std::runtime_error("task 7 failed");
        });
    }
    // Every task still runs — one throwing task must not kill the
    // worker, wedge the queue, or reach std::terminate.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(counter.load(), 20);

    // The error is consumed, not sticky: the pool stays usable.
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 21);
}

TEST(ThreadPool, InlinePoolDefersExceptionToWaitWithoutLeaking)
{
    ThreadPool pool(0);
    std::atomic<int> counter{0};
    // submit() itself must contain the throw (no leak out of the
    // submitting call) and must leave the unfinished counter
    // balanced so wait() cannot deadlock.
    pool.submit([] { throw std::runtime_error("inline failure"); });
    pool.submit([&counter] { ++counter; });
    EXPECT_EQ(counter.load(), 1);
    EXPECT_THROW(pool.wait(), std::runtime_error);
    pool.wait(); // error consumed above; must return, not hang
}

TEST(ThreadPool, WaitRethrowsOnlyTheFirstErrorOfABatch)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&counter] {
            ++counter;
            throw std::runtime_error("every task fails");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(counter.load(), 16);
    pool.wait(); // later errors of the batch were dropped
}

TEST(ThreadPool, DestructorDiscardsAPendingException)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 10; ++i) {
            pool.submit([&counter, i] {
                ++counter;
                if (i % 3 == 0)
                    throw std::runtime_error("boom");
            });
        }
        // No wait(): the destructor must drain the queue and swallow
        // the stored exception rather than terminate.
    }
    EXPECT_EQ(counter.load(), 10);
}

// --- loop fingerprint ----------------------------------------------

namespace
{

LoopCompilerOptions
defaultOptions()
{
    return LoopCompilerOptions{};
}

} // namespace

TEST(LoopKey, StructurallyIdenticalLoopsShareAKey)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg a = gpsched::testing::diamondLoop(lat);
    Ddg b = gpsched::testing::diamondLoop(lat); // same shape, fresh object
    LoopKey ka =
        makeLoopKey(a, m, SchedulerKind::Gp, defaultOptions());
    LoopKey kb =
        makeLoopKey(b, m, SchedulerKind::Gp, defaultOptions());
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(ka.digest, fnv1a64(ka.canonical));
}

TEST(LoopKey, NamesAndLabelsDoNotAffectTheKey)
{
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg a("alpha");
    a.addNode(Opcode::IAlu, "x");
    Ddg b("beta");
    b.addNode(Opcode::IAlu, "completely_different_label");
    EXPECT_EQ(makeLoopKey(a, m, SchedulerKind::Gp, defaultOptions()),
              makeLoopKey(b, m, SchedulerKind::Gp, defaultOptions()));
}

TEST(LoopKey, EverySchedulingInputChangesTheKey)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg base = gpsched::testing::diamondLoop(lat);
    LoopKey reference =
        makeLoopKey(base, m, SchedulerKind::Gp, defaultOptions());

    // Scheduler kind.
    EXPECT_NE(reference, makeLoopKey(base, m, SchedulerKind::Uracam,
                                     defaultOptions()));

    // Trip count.
    Ddg retripped = gpsched::testing::diamondLoop(lat);
    retripped.setTripCount(base.tripCount() + 1);
    EXPECT_NE(reference, makeLoopKey(retripped, m, SchedulerKind::Gp,
                                     defaultOptions()));

    // Machine: registers, bus latency, latency table.
    EXPECT_NE(reference,
              makeLoopKey(base, fourClusterConfig(32, 1),
                          SchedulerKind::Gp, defaultOptions()));
    EXPECT_NE(reference,
              makeLoopKey(base, fourClusterConfig(64, 2),
                          SchedulerKind::Gp, defaultOptions()));
    MachineConfig slowMul = fourClusterConfig(64, 1);
    OpTiming t = slowMul.latencies().timing(Opcode::FMul);
    ++t.latency;
    slowMul.latencies().setTiming(Opcode::FMul, t);
    EXPECT_NE(reference, makeLoopKey(base, slowMul, SchedulerKind::Gp,
                                     defaultOptions()));

    // Options: repartition policy, partitioner seed, fom threshold.
    LoopCompilerOptions repart = defaultOptions();
    repart.repartition = RepartitionPolicy::Always;
    EXPECT_NE(reference,
              makeLoopKey(base, m, SchedulerKind::Gp, repart));
    LoopCompilerOptions seeded = defaultOptions();
    seeded.partitioner.seed ^= 1;
    EXPECT_NE(reference,
              makeLoopKey(base, m, SchedulerKind::Gp, seeded));
    LoopCompilerOptions fom = defaultOptions();
    fom.fomThreshold += 0.5;
    EXPECT_NE(reference,
              makeLoopKey(base, m, SchedulerKind::Gp, fom));

    // Edge structure: extra edge, different latency.
    Ddg extraEdge = gpsched::testing::diamondLoop(lat);
    extraEdge.addEdge(0, 4, 1, 0, DepKind::Order);
    EXPECT_NE(reference, makeLoopKey(extraEdge, m, SchedulerKind::Gp,
                                     defaultOptions()));
}

// --- result cache --------------------------------------------------

namespace
{

LoopKey
keyOf(const std::string &tag)
{
    LoopKey key;
    key.canonical = tag;
    key.digest = fnv1a64(tag);
    return key;
}

CompiledLoop
resultOf(const std::string &name, int ii)
{
    CompiledLoop loop;
    loop.loopName = name;
    loop.ii = ii;
    return loop;
}

} // namespace

TEST(ResultCache, LookupReturnsInsertedValue)
{
    ResultCache cache(16, 4);
    cache.insert(keyOf("a"), resultOf("a", 3));
    CompiledLoop out;
    ASSERT_TRUE(cache.lookup(keyOf("a"), out));
    EXPECT_EQ(out.ii, 3);
    EXPECT_FALSE(cache.lookup(keyOf("b"), out));

    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(ResultCache, EvictsLeastRecentlyUsedWithinAShard)
{
    // One shard of capacity 2 makes LRU order observable.
    ResultCache cache(2, 1);
    cache.insert(keyOf("a"), resultOf("a", 1));
    cache.insert(keyOf("b"), resultOf("b", 2));
    CompiledLoop out;
    ASSERT_TRUE(cache.lookup(keyOf("a"), out)); // refresh a
    cache.insert(keyOf("c"), resultOf("c", 3)); // evicts b
    EXPECT_TRUE(cache.lookup(keyOf("a"), out));
    EXPECT_FALSE(cache.lookup(keyOf("b"), out));
    EXPECT_TRUE(cache.lookup(keyOf("c"), out));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, DigestCollisionsDoNotConfuseKeys)
{
    // Two distinct keys forced into the same shard and bucket by an
    // identical digest: the canonical string must disambiguate.
    LoopKey a = keyOf("first");
    LoopKey b = keyOf("second");
    b.digest = a.digest;
    ResultCache cache(8, 2);
    cache.insert(a, resultOf("first", 1));
    cache.insert(b, resultOf("second", 2));
    CompiledLoop out;
    ASSERT_TRUE(cache.lookup(a, out));
    EXPECT_EQ(out.ii, 1);
    ASSERT_TRUE(cache.lookup(b, out));
    EXPECT_EQ(out.ii, 2);
}

TEST(ResultCache, EvictedKeysAreTheOnlyMisses)
{
    // The index points into its LRU entries, so eviction and
    // re-insertion must leave no dangling key (ASan and TSan run
    // this in CI).
    ResultCache cache(8, 2);
    constexpr int kKeys = 20;
    for (int i = 0; i < kKeys; ++i)
        cache.insert(keyOf("k" + std::to_string(i)),
                     resultOf("k", i));
    ASSERT_EQ(cache.size(), 8u);
    ASSERT_EQ(cache.stats().evictions, kKeys - 8u);

    int evicted = -1;
    CompiledLoop out;
    for (int i = 0; i < kKeys; ++i) {
        if (!cache.lookup(keyOf("k" + std::to_string(i)), out))
            evicted = i;
    }
    ASSERT_GE(evicted, 0);
    cache.insert(keyOf("k" + std::to_string(evicted)),
                 resultOf("k", 100 + evicted));

    int misses = 0;
    for (int i = 0; i < kKeys; ++i) {
        if (!cache.lookup(keyOf("k" + std::to_string(i)), out)) {
            ++misses;
            continue;
        }
        EXPECT_EQ(out.ii, i == evicted ? 100 + i : i);
    }
    EXPECT_EQ(misses, kKeys - static_cast<int>(cache.size()));
    EXPECT_EQ(cache.stats().evictions, kKeys - 8u + 1u);
    ASSERT_TRUE(cache.lookup(keyOf("k" + std::to_string(evicted)), out));

    // Evictions under contention: every hit is its own key's value.
    ThreadPool pool(4);
    std::atomic<int> wrong{0};
    for (int t = 0; t < 8; ++t) {
        pool.submit([&cache, &wrong] {
            for (int i = 0; i < 400; ++i) {
                const int k = (i * 7) % 50;
                LoopKey key = keyOf("c" + std::to_string(k));
                CompiledLoop value;
                if (!cache.lookup(key, value))
                    cache.insert(key, resultOf("c", k));
                else if (value.ii != k)
                    ++wrong;
            }
        });
    }
    pool.wait();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_LE(cache.size(), 8u);
}

TEST(ResultCache, ConcurrentMixedUseIsSafe)
{
    ResultCache cache(64, 8);
    ThreadPool pool(4);
    for (int t = 0; t < 8; ++t) {
        pool.submit([&cache, t] {
            for (int i = 0; i < 200; ++i) {
                LoopKey key = keyOf("k" + std::to_string(i % 50));
                CompiledLoop out;
                if (!cache.lookup(key, out))
                    cache.insert(key, resultOf("k", i));
                (void)t;
            }
        });
    }
    pool.wait();
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 8u * 200u);
    EXPECT_LE(cache.size(), 64u);
}

// --- JSON writer ---------------------------------------------------

TEST(JsonWriter, ProducesBalancedEscapedDocument)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.member("name", "quote\" backslash\\ tab\t");
    json.member("count", 3);
    json.member("ratio", 0.25);
    json.member("flag", true);
    json.beginArray("items");
    json.element(1);
    json.element("two");
    json.endArray();
    json.beginObject("empty");
    json.endObject();
    json.endObject();
    EXPECT_TRUE(json.finished());

    std::string text = os.str();
    EXPECT_NE(text.find("\"quote\\\" backslash\\\\ tab\\t\""),
              std::string::npos);
    EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
    EXPECT_NE(text.find("\"ratio\": 0.25"), std::string::npos);
    EXPECT_NE(text.find("\"flag\": true"), std::string::npos);
    EXPECT_NE(text.find("\"empty\": {}"), std::string::npos);
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(
        JsonWriter::number(std::numeric_limits<double>::infinity()),
        "null");
}

// --- engine facade -------------------------------------------------

namespace
{

/**
 * Everything of a SuiteResult except wall-clock bookkeeping
 * (schedSeconds varies run to run by nature). Equality of this
 * projection is the determinism contract.
 */
std::string
scheduleFingerprint(const SuiteResult &suite)
{
    std::ostringstream os;
    os << suite.meanIpc << "|";
    for (const ProgramResult &program : suite.programs) {
        os << program.name << ":" << program.totalOps << ":"
           << program.totalCycles << ":" << program.ipc << ":"
           << program.listScheduled << "{";
        for (const CompiledLoop &loop : program.loops) {
            os << loop.loopName << "," << loop.moduloScheduled << ","
               << loop.mii << "," << loop.ii << ","
               << loop.scheduleLength << "," << loop.cycles << ","
               << loop.ops << "," << loop.ipc << ","
               << loop.stats.busTransfers << ","
               << loop.stats.memTransfers << "," << loop.stats.spills
               << "," << loop.partitionRuns << ","
               << loop.scheduleAttempts << ";";
        }
        os << "}";
    }
    return os.str();
}

} // namespace

TEST(Engine, BatchPreservesSubmissionOrder)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg chain = gpsched::testing::chainLoop(6, lat);
    Ddg diamond = gpsched::testing::diamondLoop(lat);
    Ddg rec = gpsched::testing::recurrenceLoop(lat);

    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    std::vector<EngineJob> batch = {
        EngineJob{&chain, &m, SchedulerKind::Gp, {}},
        EngineJob{&diamond, &m, SchedulerKind::Gp, {}},
        EngineJob{&rec, &m, SchedulerKind::Gp, {}},
    };
    std::vector<CompiledLoop> results =
        gpsched::testing::unwrapAll(engine.compileBatch(batch));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].loopName, chain.name());
    EXPECT_EQ(results[1].loopName, diamond.name());
    EXPECT_EQ(results[2].loopName, rec.name());
}

TEST(Engine, CacheHitPatchesTheRequestedLoopName)
{
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg a("alpha");
    Ddg b("beta");
    for (Ddg *ddg : {&a, &b}) {
        NodeId x = ddg->addNode(Opcode::Load);
        NodeId y = ddg->addNode(Opcode::FAdd);
        ddg->addEdge(x, y, lat.latency(Opcode::Load));
    }

    Engine engine;
    CompiledLoop first = gpsched::testing::unwrapOne(
        engine.compileOne(EngineJob{&a, &m, SchedulerKind::Gp, {}}));
    CompiledLoop second = gpsched::testing::unwrapOne(
        engine.compileOne(EngineJob{&b, &m, SchedulerKind::Gp, {}}));
    EXPECT_EQ(first.loopName, "alpha");
    EXPECT_EQ(second.loopName, "beta");
    EXPECT_EQ(second.ii, first.ii);
    EXPECT_EQ(engine.stats().cacheHits, 1u);
}

TEST(Engine, SerialOptionsDisableCacheAndThreads)
{
    Engine engine(serialEngineOptions());
    EXPECT_EQ(engine.jobs(), 1);
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg loop = gpsched::testing::diamondLoop(lat);
    EngineJob job{&loop, &m, SchedulerKind::Gp, {}};
    engine.compileOne(job);
    engine.compileOne(job);
    EXPECT_EQ(engine.stats().cacheHits, 0u);
    EXPECT_EQ(engine.stats().jobsSubmitted, 2u);
}

/**
 * The PR's determinism regression: the full synthetic SPECfp95 suite
 * compiled with jobs=1 and jobs=8 must produce bit-identical
 * SuiteResults (IPC, II, cycle counts) under all three schemes.
 */
TEST(Engine, SuiteResultsAreIdenticalAcrossWorkerCounts)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    MachineConfig m = fourClusterConfig(32, 1);

    for (SchedulerKind kind :
         {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
          SchedulerKind::Gp}) {
        EngineOptions serial;
        serial.jobs = 1;
        Engine engineSerial(serial);
        SuiteResult one = compileSuite(engineSerial, suite, m, kind);

        EngineOptions parallel;
        parallel.jobs = 8;
        Engine engineParallel(parallel);
        SuiteResult eight =
            compileSuite(engineParallel, suite, m, kind);

        EXPECT_EQ(scheduleFingerprint(one),
                  scheduleFingerprint(eight))
            << "scheme " << toString(kind);
    }
}

/** Engine-routed compilation must match the legacy serial pipeline. */
TEST(Engine, MatchesLegacySerialPipeline)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(3);
    MachineConfig m = twoClusterConfig(32, 1);

    SuiteResult legacy =
        compileSuite(suite, m, SchedulerKind::Gp);
    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    SuiteResult batched =
        compileSuite(engine, suite, m, SchedulerKind::Gp);
    EXPECT_EQ(scheduleFingerprint(legacy),
              scheduleFingerprint(batched));
}

/** Recompiling the same suite must be served almost fully by cache. */
TEST(Engine, SuiteRerunExceedsNinetyPercentHitRate)
{
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    MachineConfig m = fourClusterConfig(64, 1);

    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    SuiteResult first =
        compileSuite(engine, suite, m, SchedulerKind::Gp);
    EngineStats cold = engine.stats();
    SuiteResult second =
        compileSuite(engine, suite, m, SchedulerKind::Gp);
    EngineStats warm = engine.stats();

    std::uint64_t rerunJobs = warm.jobsSubmitted - cold.jobsSubmitted;
    std::uint64_t rerunHits = warm.cacheHits - cold.cacheHits;
    ASSERT_GT(rerunJobs, 0u);
    // Every job of the rerun is a hit; the acceptance bar is 90%.
    EXPECT_EQ(rerunHits, rerunJobs);
    EXPECT_GT(static_cast<double>(rerunHits) /
                  static_cast<double>(rerunJobs),
              0.9);
    EXPECT_EQ(scheduleFingerprint(first),
              scheduleFingerprint(second));
}

/**
 * The engine's wall-clock acceptance: on a >= 4-core machine,
 * compiling a batch with jobs=hardware_concurrency must be >= 3x
 * faster than jobs=1. Caching is disabled so both sides do identical
 * work, and each side takes its best of three runs to shrug off
 * scheduler noise. The batch is a seeded fuzz corpus that takes
 * 1-2 s serially on a 4-core x86 box, so noise of a few
 * milliseconds cannot move the ratio, and the test is its own
 * RUN_SERIAL CTest entry (tests/CMakeLists.txt) so no other test
 * competes for the cores it times. Skipped on smaller machines,
 * where the bound cannot hold.
 */
TEST(Engine, ParallelSpeedupOnMultiCore)
{
    int hw = ThreadPool::hardwareConcurrency();
    if (hw < 4)
        GTEST_SKIP() << "needs >= 4 cores, have " << hw;

    constexpr int kLoops = 1500;
    std::vector<Ddg> corpus;
    corpus.reserve(kLoops);
    for (int i = 0; i < kLoops; ++i)
        corpus.push_back(fuzz::corpusCase(1, i, LatencyTable{}).ddg);
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<EngineJob> batch;
    for (const Ddg &ddg : corpus) {
        EngineJob job;
        job.loop = &ddg;
        job.machine = &m;
        batch.push_back(job);
    }

    // Serial and parallel repeats alternate, so drift in the load of
    // the machine reaches both sides of the ratio alike.
    auto engineFor = [](int jobs) {
        EngineOptions options;
        options.jobs = jobs;
        options.cacheEnabled = false;
        return std::make_unique<Engine>(options);
    };
    std::unique_ptr<Engine> serial_engine = engineFor(1);
    std::unique_ptr<Engine> parallel_engine = engineFor(hw);
    auto seconds = [&](Engine &engine) {
        auto start = std::chrono::steady_clock::now();
        engine.compileBatch(batch);
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return elapsed.count();
    };
    double serial = std::numeric_limits<double>::max();
    double parallel = std::numeric_limits<double>::max();
    for (int rep = 0; rep < 3; ++rep) {
        serial = std::min(serial, seconds(*serial_engine));
        parallel = std::min(parallel, seconds(*parallel_engine));
    }
    ASSERT_GT(parallel, 0.0);
    // Shown by the CI skip audit, which runs this test alone.
    std::printf("serial %.3f s, parallel %.3f s on %d jobs: %.2fx\n",
                serial, parallel, hw, serial / parallel);
    EXPECT_GE(serial / parallel, 3.0)
        << "serial " << serial << "s, parallel " << parallel << "s";
}

// --- windowed streaming --------------------------------------------

TEST(EngineWindow, HoldsAtMostWindowItemsAndRetiresInOrder)
{
    for (int jobs : {1, 4}) {
        EngineOptions options;
        options.jobs = jobs;
        options.cacheEnabled = false;
        Engine engine(options);
        const std::size_t window = engine.window();
        EXPECT_EQ(window % static_cast<std::size_t>(jobs), 0u);
        const std::size_t count = 3 * window + 7;

        // Slot i % window holds item i from produce to retire; a
        // produce that reused a live slot would show in retire.
        std::vector<std::size_t> slots(window);
        std::size_t live = 0;
        std::size_t maxLive = 0;
        std::vector<std::size_t> order;
        engine.runWindowed(
            [&](std::size_t i) {
                if (i == count)
                    return false;
                slots[i % window] = i;
                maxLive = std::max(maxLive, ++live);
                return true;
            },
            [&](std::size_t i) {
                // Uneven task times: later items often finish first.
                if (i % 97 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                slots[i % window] = 2 * slots[i % window] + 1;
            },
            [&](std::size_t i) {
                EXPECT_EQ(slots[i % window], 2 * i + 1);
                order.push_back(i);
                --live;
            });
        EXPECT_LE(maxLive, window) << jobs << " jobs";
        ASSERT_EQ(order.size(), count);
        for (std::size_t i = 0; i < count; ++i)
            ASSERT_EQ(order[i], i) << jobs << " jobs";
    }
}

TEST(EngineWindow, ExceptionsSurfaceInIndexOrderAfterTheDrain)
{
    for (int jobs : {1, 4}) {
        EngineOptions options;
        options.jobs = jobs;
        options.cacheEnabled = false;
        Engine engine(options);
        std::atomic<int> started{0};
        std::atomic<int> finished{0};
        std::vector<std::size_t> retired;
        // Task 3 throws late, task 5 early: 3 is the first in index
        // order, so it wins at any width, and nothing retires past
        // it.
        auto task = [&](std::size_t i) {
            ++started;
            if (i == 3)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            ++finished;
            if (i == 3 || i == 5)
                throw std::runtime_error("task " + std::to_string(i));
        };
        try {
            engine.runWindowed(
                [](std::size_t i) { return i < 100; }, task,
                [&](std::size_t i) { retired.push_back(i); });
            ADD_FAILURE() << "no exception";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "task 3");
        }
        // Every task that started has finished before the rethrow.
        EXPECT_EQ(started.load(), finished.load());
        EXPECT_EQ(retired, (std::vector<std::size_t>{0, 1, 2}));

        // An input error surfaces once the items before it retire,
        // unless one of those fails first.
        retired.clear();
        auto produce = [](std::size_t i) {
            if (i == 10)
                throw std::runtime_error("input 10");
            return true;
        };
        try {
            engine.runWindowed(produce, [](std::size_t) {},
                               [&](std::size_t i) {
                                   retired.push_back(i);
                               });
            ADD_FAILURE() << "no exception";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "input 10");
        }
        EXPECT_EQ(retired.size(), 10u);
        EXPECT_THROW(
            engine.runWindowed(
                produce,
                [](std::size_t i) {
                    if (i == 4)
                        throw std::logic_error("task 4");
                },
                [](std::size_t) {}),
            std::logic_error);

        // The engine stays usable after a failed stream.
        std::size_t sum = 0;
        engine.runWindowed([](std::size_t i) { return i < 10; },
                           [](std::size_t) {},
                           [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum, 45u);
    }
}

TEST(Engine, CompileBatchPastTheWindowMatchesSerialCompiles)
{
    // 300 fuzz loops, each submitted twice (i and i + 300): 600 jobs,
    // more than the 512-item window at 2 jobs, half of them cache
    // hits or coalesced duplicates.
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<Ddg> loops;
    for (int i = 0; i < 300; ++i)
        loops.push_back(fuzz::corpusCase(3, i, LatencyTable{}).ddg);
    std::vector<EngineJob> batch;
    for (int rep = 0; rep < 2; ++rep) {
        for (const Ddg &ddg : loops)
            batch.push_back(EngineJob{&ddg, &m, SchedulerKind::Gp, {}});
    }
    EngineOptions options;
    options.jobs = 2;
    Engine engine(options);
    ASSERT_LT(engine.window(), batch.size());
    std::vector<CompileResult> results = engine.compileBatch(batch);

    Engine serial(serialEngineOptions());
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        CompileResult want = serial.compileOne(batch[i]);
        const CompileResult &got = results[i];
        ASSERT_EQ(got.ok(), want.ok()) << i;
        if (!want.ok()) {
            EXPECT_EQ(got.error->diagnostic(), want.error->diagnostic());
            continue;
        }
        const CompiledLoop &a = got.loop;
        const CompiledLoop &b = want.loop;
        EXPECT_EQ(a.loopName, b.loopName) << i;
        EXPECT_EQ(a.moduloScheduled, b.moduloScheduled) << i;
        EXPECT_EQ(a.mii, b.mii) << i;
        EXPECT_EQ(a.ii, b.ii) << i;
        EXPECT_EQ(a.scheduleLength, b.scheduleLength) << i;
        EXPECT_EQ(a.cycles, b.cycles) << i;
        EXPECT_EQ(a.ipc, b.ipc) << i;
        EXPECT_TRUE(a.stats == b.stats) << i;
        EXPECT_EQ(a.partitionRuns, b.partitionRuns) << i;
        EXPECT_EQ(a.scheduleAttempts, b.scheduleAttempts) << i;
        EXPECT_TRUE(a.placements == b.placements) << i;
        EXPECT_TRUE(a.transfers == b.transfers) << i;
        EXPECT_TRUE(a.spills == b.spills) << i;
        EXPECT_EQ(a.partition, b.partition) << i;
    }
    EXPECT_EQ(engine.stats().jobsSubmitted, batch.size());
    EXPECT_LE(engine.stats().cacheMisses, loops.size());
}

// --- engine fault isolation ----------------------------------------

namespace
{

/**
 * A loop the engine must reject: its flow edge promises latency 1
 * while FMul takes longer on every config used here, so computeMii
 * throws CompileError(InvalidInput). Built with raw addNode/addEdge
 * precisely because DdgBuilder would fill in the correct latency.
 */
Ddg
latencyMismatchLoop(const std::string &name)
{
    Ddg ddg(name);
    NodeId x = ddg.addNode(Opcode::FMul);
    NodeId y = ddg.addNode(Opcode::FAdd);
    ddg.addEdge(x, y, 1, 0, DepKind::Flow);
    ddg.setTripCount(10);
    return ddg;
}

} // namespace

/**
 * The coalescing error path, run under TSan in CI: structurally
 * identical bad loops submitted concurrently share one in-flight
 * compile; the owner's CompileError must reach every coalesced
 * duplicate (patched to the duplicate's own loop name), the
 * in-flight entry must be retired, and the failure must never be
 * cached — a retry recompiles (no negative caching).
 */
TEST(Engine, CoalescedDuplicatesObserveTheOwnersError)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    std::vector<Ddg> loops;
    for (int i = 0; i < 16; ++i)
        loops.push_back(
            latencyMismatchLoop("bad" + std::to_string(i)));

    EngineOptions options;
    options.jobs = 8;
    Engine engine(options);
    std::vector<EngineJob> batch;
    for (const Ddg &ddg : loops)
        batch.push_back(EngineJob{&ddg, &m, SchedulerKind::Gp, {}});
    std::vector<CompileResult> results = engine.compileBatch(batch);

    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_FALSE(results[i].ok()) << "job " << i;
        EXPECT_EQ(results[i].error->kind(),
                  CompileErrorKind::InvalidInput);
        EXPECT_EQ(results[i].error->loopName(), loops[i].name());
        EXPECT_NE(std::string(results[i].error->what())
                      .find("promises latency"),
                  std::string::npos);
    }

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.failed, batch.size());
    EXPECT_EQ(stats.cacheHits, 0u);
    EXPECT_EQ(stats.coalesced + stats.cacheMisses,
              stats.jobsSubmitted);

    // No negative caching: resubmitting misses and recompiles —
    // never serves the failure (or a stale success) from cache.
    std::vector<CompileResult> retry = engine.compileBatch(batch);
    for (const CompileResult &result : retry)
        EXPECT_FALSE(result.ok());
    EngineStats after = engine.stats();
    EXPECT_EQ(after.cacheHits, 0u);
    EXPECT_GT(after.cacheMisses, stats.cacheMisses);
    EXPECT_EQ(after.failed, 2 * batch.size());
}

/** One bad loop must not poison the rest of a mixed batch. */
TEST(Engine, MixedBatchIsolatesTheFailure)
{
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(64, 1);
    Ddg good = gpsched::testing::diamondLoop(lat);
    Ddg bad = latencyMismatchLoop("bad");
    Ddg alsoGood = gpsched::testing::chainLoop(6, lat);

    EngineOptions options;
    options.jobs = 4;
    Engine engine(options);
    std::vector<EngineJob> batch = {
        EngineJob{&good, &m, SchedulerKind::Gp, {}},
        EngineJob{&bad, &m, SchedulerKind::Gp, {}},
        EngineJob{&alsoGood, &m, SchedulerKind::Gp, {}},
    };
    std::vector<CompileResult> results = engine.compileBatch(batch);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].error->loopName(), "bad");
    EXPECT_TRUE(results[2].ok());
    EXPECT_EQ(engine.stats().failed, 1u);

    // Diagnostics carry a file:line location for triage.
    EXPECT_NE(results[1].error->location().find(".cc:"),
              std::string::npos);
}

/** Concurrent RunningStat accumulation stays exact. */
TEST(SupportThreadSafety, RunningStatUnderConcurrentAdds)
{
    RunningStat stat;
    ThreadPool pool(4);
    constexpr int perTask = 1000;
    for (int t = 0; t < 8; ++t) {
        pool.submit([&stat] {
            for (int i = 1; i <= perTask; ++i)
                stat.add(1.0);
        });
    }
    pool.wait();
    EXPECT_EQ(stat.count(), 8u * perTask);
    EXPECT_DOUBLE_EQ(stat.sum(), 8.0 * perTask);
    EXPECT_DOUBLE_EQ(stat.mean(), 1.0);
}
