/**
 * @file
 * The persistent compile cache: store/lookup round trips, the
 * acceptance-bar warm rerun (>= 90% disk hits, bit-identical
 * schedules), corruption robustness (truncation, bit flips, version
 * bumps, garbage, a torn segment tail — always a miss plus eviction,
 * never a crash or a wrong schedule), a wrong but well-formed record
 * (served from disk, caught by sim::checkRecord), failed stores
 * (counted, never fatal), the size-budget compaction, the file count
 * of a cold run, and a two-engine shared-directory stress run whose
 * results must match a serial cache-less compile while never leaving
 * partial records behind.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/gp_scheduler.hh"
#include "core/pipeline.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "machine/configs.hh"
#include "sched/validate.hh"
#include "serialize/record.hh"
#include "sim/replay.hh"
#include "testing/fixtures.hh"
#include "workload/specfp.hh"

namespace fs = std::filesystem;

using namespace gpsched;
using namespace gpsched::testing;

namespace
{

/** Fresh empty cache directory unique to this test and process. */
std::string
freshCacheDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("gpsched_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Whole contents of @p path. */
std::string
readBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Every segment file currently in @p dir. */
std::vector<fs::path>
segmentFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".seg")
            files.push_back(entry.path());
    }
    return files;
}

/** Every non-segment file currently in @p dir. */
std::vector<fs::path>
strayFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() != ".seg")
            files.push_back(entry.path());
    }
    return files;
}

/** Where one record's bytes live. */
struct RecordSpan
{
    fs::path segment;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
};

/**
 * Every record in @p dir, found by walking each segment's framing;
 * a segment's walk ends where its bytes stop framing whole records.
 */
std::vector<RecordSpan>
recordSpans(const std::string &dir)
{
    std::vector<RecordSpan> spans;
    for (const fs::path &segment : segmentFiles(dir)) {
        const std::string bytes = readBytes(segment);
        std::uint64_t at = 0;
        while (bytes.size() - at >= recordHeaderSize) {
            const std::uint64_t length =
                recordLength(bytes.data() + at);
            if (length == 0 || length > bytes.size() - at)
                break;
            spans.push_back(RecordSpan{segment, at, length});
            at += length;
        }
    }
    return spans;
}

/** The bytes of @p span. */
std::string
spanBytes(const RecordSpan &span)
{
    return readBytes(span.segment).substr(span.offset, span.length);
}

/** Full bit-level comparison, including the schedule payload. */
void
expectLoopsIdentical(const CompiledLoop &a, const CompiledLoop &b,
                     const std::string &context)
{
    EXPECT_EQ(a.loopName, b.loopName) << context;
    EXPECT_EQ(a.moduloScheduled, b.moduloScheduled) << context;
    EXPECT_EQ(a.mii, b.mii) << context;
    EXPECT_EQ(a.ii, b.ii) << context;
    EXPECT_EQ(a.scheduleLength, b.scheduleLength) << context;
    EXPECT_EQ(a.cycles, b.cycles) << context;
    EXPECT_EQ(a.ops, b.ops) << context;
    EXPECT_EQ(a.ipc, b.ipc) << context;
    EXPECT_TRUE(a.stats == b.stats) << context;
    EXPECT_EQ(a.partitionRuns, b.partitionRuns) << context;
    EXPECT_EQ(a.scheduleAttempts, b.scheduleAttempts) << context;
    EXPECT_EQ(a.placements, b.placements) << context;
    EXPECT_EQ(a.transfers, b.transfers) << context;
    EXPECT_EQ(a.spills, b.spills) << context;
    EXPECT_EQ(a.partition, b.partition) << context;
}

/** A small multi-program batch over the synthetic suite. */
std::vector<EngineJob>
suiteBatch(const std::vector<Program> &suite,
           const MachineConfig &machine)
{
    std::vector<EngineJob> batch;
    for (const Program &program : suite) {
        for (const Ddg &loop : program.loops) {
            for (SchedulerKind kind :
                 {SchedulerKind::Uracam,
                  SchedulerKind::FixedPartition, SchedulerKind::Gp})
                batch.push_back(
                    EngineJob{&loop, &machine, kind, {}});
        }
    }
    return batch;
}

} // namespace

// --- basic round trip ---------------------------------------------

TEST(DiskCache, StoreThenLookupRoundTrips)
{
    std::string dir = freshCacheDir("roundtrip");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop compiled = compiler.compile(g);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});

    DiskCache cache(dir, 0);
    CompiledLoop out;
    EXPECT_FALSE(cache.lookup(key, out));
    cache.store(key, compiled);
    ASSERT_TRUE(cache.lookup(key, out));
    expectLoopsIdentical(compiled, out, "round trip");

    DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.corruptEvicted, 0u);

    // A second cache object over the same directory — a new process
    // in miniature — sees the record.
    DiskCache reopened(dir, 0);
    ASSERT_TRUE(reopened.lookup(key, out));
    expectLoopsIdentical(compiled, out, "reopened");
    fs::remove_all(dir);
}

// --- the warm-rerun acceptance bar --------------------------------

TEST(DiskCache, WarmRerunHitsOverNinetyPercentBitIdentical)
{
    std::string dir = freshCacheDir("warm");
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(3);
    MachineConfig m = fourClusterConfig(32, 1);

    std::vector<CompiledLoop> cold;
    {
        EngineOptions options;
        options.jobs = 2;
        options.cacheDir = dir;
        Engine engine(options);
        std::vector<EngineJob> batch = suiteBatch(suite, m);
        cold = unwrapAll(engine.compileBatch(batch));
        EngineStats stats = engine.stats();
        EXPECT_EQ(stats.diskHits, 0u);
        EXPECT_GT(stats.diskStores, 0u);
    }

    // A fresh engine (fresh in-memory cache): every unique shape
    // must now be served from disk.
    EngineOptions options;
    options.jobs = 2;
    options.cacheDir = dir;
    Engine engine(options);
    std::vector<EngineJob> batch = suiteBatch(suite, m);
    std::vector<CompiledLoop> warm =
        unwrapAll(engine.compileBatch(batch));

    EngineStats stats = engine.stats();
    EXPECT_GE(stats.diskHitRate(), 0.9)
        << "diskHits " << stats.diskHits << " diskMisses "
        << stats.diskMisses;
    EXPECT_EQ(stats.cacheMisses, 0u) << "nothing should recompile";

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        expectLoopsIdentical(cold[i], warm[i],
                             "batch index " + std::to_string(i));
    }
    fs::remove_all(dir);
}

// --- corruption robustness ----------------------------------------

namespace
{

/**
 * Compiles one loop through an engine bound to @p dir (appending
 * one record), corrupts that record with @p corrupt, then verifies
 * the corrupted store degrades to a miss: a fresh engine recompiles,
 * the result is bit-identical to a cache-less compile, and the loop
 * itself passes the independent schedule oracle.
 */
void
corruptionScenario(const std::string &tag,
                   const std::function<void(const RecordSpan &)>
                       &corrupt)
{
    std::string dir = freshCacheDir(tag);
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = memHeavyLoop(5, lat);

    // Reference: a cache-less compile, plus the oracle on a fresh
    // schedule of the same loop.
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop reference = compiler.compile(g);
    auto oracle = scheduleLoop(g, m);
    ASSERT_TRUE(oracle.has_value());
    auto validation = validateSchedule(g, m, *oracle);
    ASSERT_TRUE(validation) << validation.message;

    {
        EngineOptions options;
        options.jobs = 1;
        options.cacheDir = dir;
        Engine engine(options);
        engine.compileOne(
            EngineJob{&g, &m, SchedulerKind::Gp, {}});
    }
    std::vector<RecordSpan> records = recordSpans(dir);
    ASSERT_EQ(records.size(), 1u);
    corrupt(records[0]);

    EngineOptions options;
    options.jobs = 1;
    options.cacheDir = dir;
    Engine engine(options);
    CompiledLoop recompiled = unwrapOne(engine.compileOne(
        EngineJob{&g, &m, SchedulerKind::Gp, {}}));

    // The corrupted record was a miss (and was evicted), the loop
    // was recompiled, and the recompiled schedule is bit-identical
    // to the never-cached reference.
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.corruptEvicted, 1u);
    EXPECT_EQ(stats.cacheMisses, 1u);
    expectLoopsIdentical(reference, recompiled, tag);
    fs::remove_all(dir);
}

} // namespace

TEST(DiskCache, TruncatedRecordIsAMissAndEvicted)
{
    corruptionScenario("truncate", [](const RecordSpan &span) {
        fs::resize_file(span.segment, span.offset + span.length / 2);
    });
}

TEST(DiskCache, BitFlippedRecordIsAMissAndEvicted)
{
    corruptionScenario("bitflip", [](const RecordSpan &span) {
        std::string bytes = readBytes(span.segment);
        ASSERT_GT(span.length, recordHeaderSize);
        // Flip one payload byte (past the header) so the checksum
        // layer, not the framing, must catch it.
        std::size_t at =
            span.offset + recordHeaderSize + span.length / 3;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
        std::ofstream out(span.segment,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    });
}

TEST(DiskCache, VersionBumpedRecordIsAMissAndEvicted)
{
    corruptionScenario("verbump", [](const RecordSpan &span) {
        std::fstream io(span.segment, std::ios::binary |
                                          std::ios::in |
                                          std::ios::out);
        io.seekp(static_cast<std::streamoff>(span.offset +
                                             recordVersionOffset));
        char next = static_cast<char>(recordFormatVersion + 1);
        io.write(&next, 1);
    });
}

TEST(DiskCache, GarbageFileIsAMissAndEvicted)
{
    std::string dir = freshCacheDir("garbage");
    LatencyTable lat;
    MachineConfig m = twoClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    LoopKey key = makeLoopKey(g, m, SchedulerKind::Gp, {});

    DiskCache cache(dir, 0);
    // Plant garbage exactly where this key's record would live.
    LoopCompiler compiler(m, SchedulerKind::Gp);
    cache.store(key, compiler.compile(g));
    std::vector<RecordSpan> records = recordSpans(dir);
    ASSERT_EQ(records.size(), 1u);
    {
        std::fstream io(records[0].segment, std::ios::binary |
                                                std::ios::in |
                                                std::ios::out);
        io.seekp(static_cast<std::streamoff>(records[0].offset));
        io << "not a cache record at all";
    }

    CompiledLoop out;
    EXPECT_FALSE(cache.lookup(key, out));
    EXPECT_EQ(cache.stats().corruptEvicted, 1u);
    EXPECT_TRUE(segmentFiles(dir).empty()) << "bad record not evicted";
    fs::remove_all(dir);
}

/**
 * A writer that died (or is still running) mid-append leaves a torn
 * record at the end of its segment. A fresh instance must serve every
 * whole record before it, never serve the tail, and count the tail
 * as one corrupt record.
 */
TEST(DiskCache, TornSegmentTailKeepsEarlierRecordsAndIsNeverServed)
{
    std::string dir = freshCacheDir("torn");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<Ddg> loops;
    for (int n = 4; n < 8; ++n)
        loops.push_back(chainLoop(n, lat));
    std::vector<LoopKey> keys;
    std::vector<CompiledLoop> compiled;
    for (const Ddg &g : loops) {
        keys.push_back(makeLoopKey(g, m, SchedulerKind::Gp, {}));
        compiled.push_back(
            LoopCompiler(m, SchedulerKind::Gp).compile(g));
    }
    {
        DiskCache writer(dir, 0);
        for (std::size_t i = 0; i + 1 < loops.size(); ++i)
            writer.store(keys[i], compiled[i]);
    }
    std::vector<fs::path> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    const std::string last =
        encodeCacheRecord(keys.back(), compiled.back());
    {
        std::ofstream out(segments[0],
                          std::ios::binary | std::ios::app);
        out.write(last.data(),
                  static_cast<std::streamsize>(last.size() / 2));
    }

    DiskCache reader(dir, 0);
    EXPECT_EQ(reader.stats().corruptEvicted, 1u);
    CompiledLoop out;
    for (std::size_t i = 0; i + 1 < loops.size(); ++i) {
        ASSERT_TRUE(reader.lookup(keys[i], out)) << "record " << i;
        expectLoopsIdentical(compiled[i], out,
                             "record " + std::to_string(i));
    }
    EXPECT_FALSE(reader.lookup(keys.back(), out));

    // Appending behind the torn tail would hide the new record from
    // every later scan, so the reader's own store lands in a segment
    // of its own and is seen by the next instance.
    reader.store(keys.back(), compiled.back());
    DiskCache reopened(dir, 0);
    ASSERT_TRUE(reopened.lookup(keys.back(), out));
    expectLoopsIdentical(compiled.back(), out, "stored after tail");
    fs::remove_all(dir);
}

// --- a wrong but well-formed record --------------------------------

/**
 * The disk cache verifies a record's framing, not its schedule: a
 * well-formed record whose cycle count is off by one is served as a
 * disk hit like any other. The record contract is what catches it.
 */
TEST(DiskCache, WrongButWellFormedRecordIsServedAndFailsCheckRecord)
{
    std::string dir = freshCacheDir("wrongrecord");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    Ddg g = diamondLoop(lat);
    CompiledLoop wrong = LoopCompiler(m, SchedulerKind::Gp).compile(g);
    wrong.cycles += 1;
    {
        DiskCache cache(dir, 0);
        cache.store(makeLoopKey(g, m, SchedulerKind::Gp, {}), wrong);
    }

    EngineOptions options;
    options.jobs = 1;
    options.cacheDir = dir;
    Engine engine(options);
    CompileResult result =
        engine.compileOne(EngineJob{&g, &m, SchedulerKind::Gp, {}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.source, CompileSource::Disk);
    EXPECT_EQ(result.loop.cycles, wrong.cycles);

    sim::RecordCheck check = sim::checkRecord(g, m, result.loop);
    EXPECT_EQ(check.verdict, sim::RecordVerdict::MetricMismatch)
        << sim::toString(check.verdict) << ": " << check.detail;
    fs::remove_all(dir);
}

// --- fault injection at the cache boundary -------------------------

/**
 * A failed compile must be invisible to both cache tiers: no record
 * on disk, no in-memory entry, stats().failed counts it, a
 * rerun recompiles from scratch (no negative caching), and once the
 * input is fixed the same engine compiles, succeeds, and stores the
 * result exactly once.
 */
TEST(DiskCache, FailedCompileLeavesNoRecordAndRetryRecompiles)
{
    std::string dir = freshCacheDir("fault");
    MachineConfig m = fourClusterConfig(32, 1);
    // The flow edge promises latency 1; FMul takes 4 on this
    // machine, so computeMii rejects the loop with a CompileError.
    Ddg bad("wounded");
    NodeId mul = bad.addNode(Opcode::FMul);
    NodeId add = bad.addNode(Opcode::FAdd);
    bad.addEdge(mul, add, 1, 0, DepKind::Flow);
    bad.setTripCount(10);

    EngineOptions options;
    options.jobs = 2;
    options.cacheDir = dir;
    Engine engine(options);
    EngineJob job{&bad, &m, SchedulerKind::Gp, {}};

    CompileResult failed = engine.compileOne(job);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->kind(), CompileErrorKind::InvalidInput);
    EXPECT_EQ(failed.error->loopName(), "wounded");

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.diskStores, 0u);
    EXPECT_TRUE(recordSpans(dir).empty())
        << "a failed compile must never publish a record";

    // Retry: a fresh miss on both tiers, recompiled, same failure.
    CompileResult again = engine.compileOne(job);
    ASSERT_FALSE(again.ok());
    EngineStats retried = engine.stats();
    EXPECT_EQ(retried.failed, 2u);
    EXPECT_EQ(retried.cacheHits, 0u);
    EXPECT_EQ(retried.diskHits, 0u);
    EXPECT_EQ(retried.cacheMisses, 2u);

    // Fix the input (honest latency): the compile now succeeds and
    // publishes exactly one record through the same engine.
    LatencyTable lat;
    Ddg fixed("wounded");
    NodeId fmul = fixed.addNode(Opcode::FMul);
    NodeId fadd = fixed.addNode(Opcode::FAdd);
    fixed.addEdge(fmul, fadd, lat.latency(Opcode::FMul), 0,
                  DepKind::Flow);
    fixed.setTripCount(10);
    CompiledLoop ok = unwrapOne(engine.compileOne(
        EngineJob{&fixed, &m, SchedulerKind::Gp, {}}));
    EXPECT_GT(ok.ipc, 0.0);
    EngineStats healed = engine.stats();
    EXPECT_EQ(healed.failed, 2u);
    EXPECT_EQ(healed.diskStores, 1u);
    EXPECT_EQ(recordSpans(dir).size(), 1u);
    fs::remove_all(dir);
}

/**
 * Stores that fail on I/O are counted, never fatal, and never
 * surface a wrong result. Removing the directory under an open engine
 * fails every store as root too (nothing can be created in a
 * directory that no longer exists).
 */
TEST(DiskCache, FailedStoresAreCountedAndCompilesStillSucceed)
{
    std::string dir = freshCacheDir("storeerrors");
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(2);
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<EngineJob> batch = suiteBatch(suite, m);

    Engine reference(serialEngineOptions());
    std::vector<CompiledLoop> expected =
        unwrapAll(reference.compileBatch(batch));

    EngineOptions options;
    options.jobs = 2;
    options.cacheDir = dir;
    Engine engine(options);
    fs::remove_all(dir);
    std::vector<CompiledLoop> results =
        unwrapAll(engine.compileBatch(batch));

    EngineStats stats = engine.stats();
    EXPECT_GT(stats.diskStoreErrors, 0u);
    EXPECT_EQ(stats.diskStores, 0u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.failed, 0u);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expectLoopsIdentical(expected[i], results[i],
                             "batch index " + std::to_string(i));
    }
    EXPECT_FALSE(fs::exists(dir));
}

// --- size budget ---------------------------------------------------

TEST(DiskCache, CompactionEnforcesTheByteBudget)
{
    std::string dir = freshCacheDir("budget");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);

    // Size one record, then budget for roughly four of them.
    Ddg probe = chainLoop(8, lat);
    LoopCompiler compiler(m, SchedulerKind::Gp);
    CompiledLoop compiled = compiler.compile(probe);
    LoopKey probeKey = makeLoopKey(probe, m, SchedulerKind::Gp, {});
    const std::uint64_t recordSize =
        encodeCacheRecord(probeKey, compiled).size();
    const std::uint64_t budget = recordSize * 4;

    DiskCache cache(dir, budget);
    for (int n = 4; n < 20; ++n) {
        Ddg g = chainLoop(n, lat); // distinct shapes, distinct keys
        LoopCompiler c(m, SchedulerKind::Gp);
        cache.store(makeLoopKey(g, m, SchedulerKind::Gp, {}),
                    c.compile(g));
    }
    // Compaction kept the store within (about) the budget. Records
    // differ slightly in size, so allow one record of slack.
    EXPECT_LE(cache.residentBytes(), budget + recordSize);
    EXPECT_GT(cache.stats().compacted, 0u);
    EXPECT_FALSE(recordSpans(dir).empty());
    fs::remove_all(dir);
}

// --- file count ----------------------------------------------------

/**
 * Records share segment files: a cold run that stores 2000 records
 * leaves a handful of files, not one file (and one directory entry)
 * per record.
 */
TEST(DiskCache, ColdRunOfTwoThousandStoresLeavesFewFiles)
{
    std::string dir = freshCacheDir("filecount");
    LatencyTable lat;
    MachineConfig m = fourClusterConfig(32, 1);
    // The trip count is part of the key: one shape, 2000 keys.
    std::vector<Ddg> loops;
    for (int trip = 1; trip <= 2000; ++trip) {
        loops.push_back(chainLoop(6, lat));
        loops.back().setTripCount(trip);
    }
    std::vector<EngineJob> batch;
    for (const Ddg &g : loops)
        batch.push_back(EngineJob{&g, &m, SchedulerKind::Gp, {}});

    EngineOptions options;
    options.jobs = 2;
    options.cacheDir = dir;
    {
        Engine engine(options);
        unwrapAll(engine.compileBatch(batch));
        EXPECT_EQ(engine.stats().diskStores, 2000u);
    }
    std::size_t files = 0;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_LE(files, 4u) << "one file per record is back";
    EXPECT_EQ(recordSpans(dir).size(), 2000u);

    Engine warm(options);
    unwrapAll(warm.compileBatch(batch));
    EXPECT_EQ(warm.stats().diskHits, 2000u);
    EXPECT_EQ(warm.stats().cacheMisses, 0u);
    fs::remove_all(dir);
}

// --- concurrency ---------------------------------------------------

/**
 * Two engines — two in-memory caches, one shared directory — compile
 * an overlapping batch concurrently. Results must be bit-identical
 * to a serial cache-less run, and the store must contain only
 * complete, valid records afterwards (each writer appends whole
 * records to segments of its own); run under TSan to audit the
 * synchronization.
 */
TEST(DiskCache, ConcurrentEnginesSharingADirectoryStayExact)
{
    std::string dir = freshCacheDir("concurrent");
    LatencyTable lat;
    std::vector<Program> suite = specFp95Suite(lat);
    suite.resize(4);
    MachineConfig m = fourClusterConfig(32, 1);
    std::vector<EngineJob> batch = suiteBatch(suite, m);

    // Serial cache-less reference.
    Engine reference(serialEngineOptions());
    std::vector<CompiledLoop> expected =
        unwrapAll(reference.compileBatch(batch));

    EngineOptions options;
    options.jobs = 4;
    options.cacheDir = dir;
    Engine a(options);
    Engine b(options);

    std::vector<CompiledLoop> resultsA;
    std::vector<CompiledLoop> resultsB;
    std::thread threadA(
        [&] { resultsA = unwrapAll(a.compileBatch(batch)); });
    std::thread threadB(
        [&] { resultsB = unwrapAll(b.compileBatch(batch)); });
    threadA.join();
    threadB.join();

    ASSERT_EQ(resultsA.size(), expected.size());
    ASSERT_EQ(resultsB.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expectLoopsIdentical(expected[i], resultsA[i],
                             "engine A index " + std::to_string(i));
        expectLoopsIdentical(expected[i], resultsB[i],
                             "engine B index " + std::to_string(i));
    }

    // No partial records: no stray files remain, the records frame
    // every segment byte, and each decodes and verifies in full.
    EXPECT_TRUE(strayFiles(dir).empty());
    std::vector<RecordSpan> records = recordSpans(dir);
    EXPECT_FALSE(records.empty());
    std::uint64_t framed = 0;
    for (const RecordSpan &span : records) {
        framed += span.length;
        LoopKey key;
        CompiledLoop value;
        EXPECT_TRUE(decodeCacheRecord(spanBytes(span), key, value))
            << span.segment << " @" << span.offset
            << " is not a complete valid record";
    }
    std::uint64_t segmentBytes = 0;
    for (const fs::path &segment : segmentFiles(dir))
        segmentBytes += fs::file_size(segment);
    EXPECT_EQ(framed, segmentBytes) << "a segment has a torn tail";
    fs::remove_all(dir);
}
