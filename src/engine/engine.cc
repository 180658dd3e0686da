#include "engine/engine.hh"

#include <condition_variable>
#include <exception>
#include <limits>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/timer.hh"

namespace gpsched
{

const char *
compileSourceName(CompileSource source)
{
    switch (source) {
      case CompileSource::Compiled:
        return "compiled";
      case CompileSource::Memory:
        return "memory";
      case CompileSource::Disk:
        return "disk";
      case CompileSource::Coalesced:
        return "coalesced";
    }
    GPSCHED_PANIC("invalid CompileSource ", static_cast<int>(source));
}

EngineOptions
serialEngineOptions()
{
    EngineOptions options;
    options.jobs = 1;
    options.cacheEnabled = false;
    return options;
}

double
EngineStats::hitRate() const
{
    return jobsSubmitted == 0
               ? 0.0
               : static_cast<double>(cacheHits) /
                     static_cast<double>(jobsSubmitted);
}

double
EngineStats::diskHitRate() const
{
    const std::uint64_t probes = diskHits + diskMisses;
    return probes == 0 ? 0.0
                       : static_cast<double>(diskHits) /
                             static_cast<double>(probes);
}

namespace
{

int
effectiveJobs(int requested)
{
    GPSCHED_ASSERT(requested >= 0, "negative job count ", requested);
    return requested == 0 ? ThreadPool::hardwareConcurrency()
                          : requested;
}

std::uint32_t
nextEnginePid()
{
    // One trace pid per engine instance, process-wide.
    static std::atomic<std::uint32_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Engine::Engine(EngineOptions options)
    : options_(options), jobs_(effectiveJobs(options.jobs)),
      pid_(nextEnginePid()),
      // A 1-job engine runs inline on the submitting thread.
      pool_(jobs_ <= 1 ? 0 : jobs_,
            PoolTelemetry{options.metrics, options.trace, pid_}),
      cache_(options.cacheCapacity, options.cacheShards)
{
    if (options_.cacheEnabled && !options_.cacheDir.empty()) {
        disk_ = std::make_unique<DiskCache>(options_.cacheDir,
                                            options_.cacheMaxBytes);
    }
    if (options_.trace != nullptr)
        options_.trace->metadata(
            "process_name", pid_, 0,
            "gpsched engine " + std::to_string(pid_));
}

CompileResult
Engine::runJob(const EngineJob &job)
{
    // compileMs and source are always recorded: two monotonic clock
    // reads per job, independent of the telemetry options.
    std::uint64_t startNanos = monotonicNanos();
    CompileSource source = CompileSource::Compiled;
    CompileTrace trace;
    CompileResult result = runJobImpl(job, source, trace);
    result.source = source;
    result.compileMs =
        static_cast<double>(monotonicNanos() - startNanos) * 1e-6;
    result.trace = trace;
    if (!trace.empty()) {
        std::lock_guard<std::mutex> lock(totalsMutex_);
        totals_.merge(trace);
    }
    return result;
}

CompileResult
Engine::runJobImpl(const EngineJob &job, CompileSource &source,
                   CompileTrace &trace)
{
    GPSCHED_ASSERT(job.loop != nullptr && job.machine != nullptr,
                   "engine job without loop or machine");
    jobsSubmitted_.fetch_add(1, std::memory_order_relaxed);

    // Runs compiler.compile under the ambient telemetry context so
    // GPSCHED_PHASE_SPAN sites attribute into this job's trace, and
    // brackets the whole compile for the "compile" Chrome span and
    // the trace's whole-compile totals. With telemetry off this
    // reduces to the plain compile call.
    auto tracedCompile = [&](LoopCompiler &compiler) {
        TraceSink *sink = options_.trace;
        const bool collect = options_.collectPhases || sink != nullptr;
        if (!collect)
            return compiler.compile(*job.loop);
        TelemetryContext ctx;
        ctx.trace = &trace;
        ctx.sink = sink;
        ctx.pid = pid_;
        ScopedTelemetryContext scoped(ctx);
        std::uint64_t wall0 = traceNowNanos();
        std::uint64_t cpu0 = threadCpuNanos();
        auto finish = [&](bool ok) {
            std::uint64_t wall1 = traceNowNanos();
            trace.wallNanos = wall1 - wall0;
            trace.cpuNanos = threadCpuNanos() - cpu0;
            trace.compiles = 1;
            if (sink != nullptr) {
                TraceEvent event;
                event.name = "compile";
                event.cat = "compile";
                event.pid = pid_;
                event.tid = traceThreadId();
                event.tsNanos = wall0;
                event.durNanos = trace.wallNanos;
                event.args.emplace_back("loop", job.loop->name());
                event.args.emplace_back("scheme",
                                        toString(job.kind));
                if (!ok)
                    event.args.emplace_back("error", "CompileError");
                sink->complete(std::move(event));
            }
        };
        try {
            CompiledLoop compiled = compiler.compile(*job.loop);
            finish(true);
            return compiled;
        } catch (...) {
            finish(false);
            throw;
        }
    };

    // Brackets a cache/disk probe in a Chrome span; near-zero when
    // no sink is configured.
    auto probeSpan = [&](const char *name, const char *cat,
                         auto &&probe) {
        TraceSpan span(options_.trace, pid_, name, cat);
        const bool hit = probe();
        span.arg("hit", hit ? "true" : "false");
        return hit;
    };

    // Turns a caught CompileError into this job's diagnostic result,
    // re-labelled with the requesting loop's name (the error may
    // come from a structurally identical owner with another name).
    auto failWith = [&](CompileError error) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        error.setLoopName(job.loop->name());
        return CompileResult::failure(std::move(error));
    };

    if (!options_.cacheEnabled) {
        try {
            LoopCompiler compiler(*job.machine, job.kind,
                                  job.options);
            return CompileResult::success(tracedCompile(compiler));
        } catch (const CompileError &error) {
            return failWith(error);
        }
    }

    LoopKey key;
    {
        TraceSpan span(options_.trace, pid_, "loop-key", "cache");
        span.arg("loop", job.loop->name());
        key = makeLoopKey(*job.loop, *job.machine, job.kind,
                          job.options);
    }
    CompiledLoop result;
    if (probeSpan("cache-probe", "cache",
                  [&] { return cache_.lookup(key, result); })) {
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        source = CompileSource::Memory;
        // Names are excluded from the fingerprint; report the
        // requesting loop's name, not the first-seen shape's.
        result.loopName = job.loop->name();
        return CompileResult::success(std::move(result));
    }

    // Coalesce duplicates submitted concurrently: the first job for
    // a key becomes the owner and compiles; later ones await its
    // shared future. The owner publishes to the cache before
    // retiring the in-flight entry, and the re-check below runs
    // under the in-flight lock, so a key is compiled exactly once no
    // matter how submissions interleave.
    std::shared_future<CompiledLoop> pending;
    std::promise<CompiledLoop> promise;
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        if (cache_.lookup(key, result)) {
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            source = CompileSource::Memory;
            result.loopName = job.loop->name();
            return CompileResult::success(std::move(result));
        }
        auto it = inflight_.find(key.canonical);
        if (it != inflight_.end()) {
            pending = it->second;
        } else {
            inflight_.emplace(key.canonical,
                              promise.get_future().share());
        }
    }
    if (pending.valid()) {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        source = CompileSource::Coalesced;
        // The shared future carries the owner's exception; a
        // duplicate awaiting a failed owner observes the same
        // CompileError instead of hanging or crashing.
        try {
            result = pending.get();
        } catch (const CompileError &error) {
            return failWith(error);
        }
        result.loopName = job.loop->name();
        return CompileResult::success(std::move(result));
    }

    // Publishes an owned result: into the in-memory cache first (so
    // waiters released by the future, and late lookups, always see
    // it), then to coalesced waiters, then retires the in-flight
    // entry. Shared by the disk-hit and compile paths below so the
    // ordering-sensitive sequence exists once.
    auto publishAndRetire = [&] {
        cache_.insert(key, result);
        promise.set_value(result);
        std::lock_guard<std::mutex> lock(inflightMutex_);
        inflight_.erase(key.canonical);
    };

    // This thread owns the key. Probe the persistent layer before
    // compiling; coalesced duplicates wait on the future either way,
    // so each key touches the disk at most once per process run.
    if (disk_ &&
        probeSpan("disk-lookup", "disk",
                  [&] { return disk_->lookup(key, result); })) {
        publishAndRetire();
        source = CompileSource::Disk;
        result.loopName = job.loop->name();
        return CompileResult::success(std::move(result));
    }
    cacheMisses_.fetch_add(1, std::memory_order_relaxed);

    try {
        LoopCompiler compiler(*job.machine, job.kind, job.options);
        result = tracedCompile(compiler);
    } catch (...) {
        // Propagate the failure to coalesced waiters and retire the
        // in-flight entry, or this key would stay wedged forever.
        // Nothing is published to either cache layer: errors are
        // not negatively cached, so a retry of this key recompiles.
        promise.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> lock(inflightMutex_);
            inflight_.erase(key.canonical);
        }
        try {
            throw;
        } catch (const CompileError &error) {
            return failWith(error);
        }
        // Non-CompileError exceptions (gpsched bugs) keep
        // propagating; the thread pool contains and rethrows them
        // from wait().
    }
    if (disk_) {
        probeSpan("disk-store", "disk", [&] {
            disk_->store(key, result);
            return true;
        });
    }
    publishAndRetire();
    return CompileResult::success(std::move(result));
}

CompileResult
Engine::compileOne(const EngineJob &job)
{
    return runJob(job);
}

void
Engine::runWindowed(const std::function<bool(std::size_t)> &produce,
                    const std::function<void(std::size_t)> &task,
                    const std::function<void(std::size_t)> &retire)
{
    // What each live item's task left, indexed like the caller's
    // slots; `item` names the item that finished there, so a slot
    // needs no reset. Workers write it under the mutex and the
    // calling thread reads it there, which orders a task's writes
    // before its retire().
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    struct Finished
    {
        std::size_t item = kNone;
        std::exception_ptr error;
    };
    const std::size_t width = window();
    std::vector<Finished> slots(width);
    std::mutex mutex;
    std::condition_variable retirable;
    // The oldest live item while the calling thread sleeps on it, else
    // kNone; guarded by the mutex. Only that item's task wakes the
    // caller: a wake per finished item would preempt a busy worker
    // for nothing.
    std::size_t awaited = kNone;
    std::size_t produced = 0;
    std::size_t retired = 0;
    auto isDone = [&](std::size_t i) {
        return slots[i % width].item == i;
    };
    bool inputLeft = true;
    std::exception_ptr inputError;
    try {
        for (;;) {
            while (inputLeft && produced - retired < width) {
                try {
                    inputLeft = produce(produced);
                } catch (...) {
                    inputLeft = false;
                    inputError = std::current_exception();
                }
                if (!inputLeft)
                    break;
                const std::size_t i = produced++;
                pool_.submit([&, i] {
                    std::exception_ptr error;
                    try {
                        task(i);
                    } catch (...) {
                        error = std::current_exception();
                    }
                    std::lock_guard<std::mutex> lock(mutex);
                    slots[i % width] = Finished{i, error};
                    if (i == awaited)
                        retirable.notify_one();
                });
            }
            if (retired == produced)
                break;
            // Wait for the oldest item, then retire the finished run
            // at the head.
            std::size_t ready = 0;
            {
                std::unique_lock<std::mutex> lock(mutex);
                awaited = retired;
                retirable.wait(lock, [&] { return isDone(retired); });
                awaited = kNone;
                while (retired + ready < produced &&
                       isDone(retired + ready))
                    ++ready;
            }
            for (; ready > 0; --ready) {
                if (slots[retired % width].error)
                    std::rethrow_exception(slots[retired % width].error);
                retire(retired++);
            }
        }
    } catch (...) {
        // Tasks still running reference this frame; let them finish.
        pool_.wait();
        throw;
    }
    // Every task has signalled; wait() also covers its last unlock.
    pool_.wait();
    if (inputError)
        std::rethrow_exception(inputError);
}

std::vector<CompileResult>
Engine::compileBatch(const std::vector<EngineJob> &batch)
{
    std::vector<CompileResult> results(batch.size());
    runWindowed([&](std::size_t i) { return i < batch.size(); },
                [&](std::size_t i) { results[i] = runJob(batch[i]); },
                [](std::size_t) {});
    return results;
}

EngineStats
Engine::stats() const
{
    EngineStats stats;
    stats.jobsSubmitted =
        jobsSubmitted_.load(std::memory_order_relaxed);
    stats.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    stats.cacheMisses = cacheMisses_.load(std::memory_order_relaxed);
    stats.coalesced = coalesced_.load(std::memory_order_relaxed);
    stats.failed = failed_.load(std::memory_order_relaxed);
    if (disk_) {
        DiskCacheStats disk = disk_->stats();
        stats.diskHits = disk.hits;
        stats.diskMisses = disk.misses;
        stats.diskStores = disk.stores;
        stats.corruptEvicted = disk.corruptEvicted;
        stats.diskStoreErrors = disk.storeErrors;
    }
    return stats;
}

CompileTrace
Engine::phaseTotals() const
{
    std::lock_guard<std::mutex> lock(totalsMutex_);
    return totals_;
}

void
Engine::writeStatsJson(JsonWriter &json) const
{
    EngineStats s = stats();
    json.member("jobs", jobs_);
    json.member("jobsSubmitted", s.jobsSubmitted);
    json.member("cacheHits", s.cacheHits);
    json.member("cacheMisses", s.cacheMisses);
    json.member("coalesced", s.coalesced);
    json.member("failed", s.failed);
    json.member("hitRate", s.hitRate());
    json.member("cacheDir", disk_ ? disk_->dir() : std::string());
    json.member("diskHits", s.diskHits);
    json.member("diskMisses", s.diskMisses);
    json.member("diskStores", s.diskStores);
    json.member("corruptEvicted", s.corruptEvicted);
    json.member("diskStoreErrors", s.diskStoreErrors);
    json.member("diskHitRate", s.diskHitRate());
    // Additive: phase breakdown only when the engine collected one,
    // so pre-telemetry consumers of this block are unaffected.
    CompileTrace phases = phaseTotals();
    if (!phases.empty())
        writeCompileTracePhases(json, "phases", phases);
}

void
Engine::exportStats(MetricRegistry &registry) const
{
    EngineStats s = stats();
    registry.counter("engine.jobsSubmitted").set(s.jobsSubmitted);
    registry.counter("engine.cacheHits").set(s.cacheHits);
    registry.counter("engine.cacheMisses").set(s.cacheMisses);
    registry.counter("engine.coalesced").set(s.coalesced);
    registry.counter("engine.failed").set(s.failed);
    registry.gauge("engine.cacheSize")
        .set(static_cast<std::int64_t>(cache_.size()));
    if (disk_) {
        registry.counter("disk.hits").set(s.diskHits);
        registry.counter("disk.misses").set(s.diskMisses);
        registry.counter("disk.stores").set(s.diskStores);
        registry.counter("disk.corruptEvicted").set(s.corruptEvicted);
        registry.counter("disk.storeErrors").set(s.diskStoreErrors);
    }
    CompileTrace totals = phaseTotals();
    if (totals.empty())
        return;
    registry.counter("phase.compile.count").set(totals.compiles);
    registry.counter("phase.compile.wallMicros")
        .set(totals.wallNanos / 1000);
    registry.counter("phase.compile.cpuMicros")
        .set(totals.cpuNanos / 1000);
    for (std::size_t i = 0; i < kNumCompilePhases; ++i) {
        const PhaseTotals &phase = totals.phases[i];
        if (phase.count == 0)
            continue;
        std::string prefix =
            std::string("phase.") +
            compilePhaseName(static_cast<CompilePhase>(i));
        registry.counter(prefix + ".count").set(phase.count);
        registry.counter(prefix + ".wallMicros")
            .set(phase.wallNanos / 1000);
        registry.counter(prefix + ".cpuMicros")
            .set(phase.cpuNanos / 1000);
    }
}

} // namespace gpsched
