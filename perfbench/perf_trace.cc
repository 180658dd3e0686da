/**
 * @file
 * The benchmark's in-process runner (see README.md). It calls
 * gpsched's public functions in the order gpsched_cli does and wraps
 * each layer boundary in a span, so the per-layer numbers come from
 * the benchmark's own files and the program is unchanged.
 *
 *   perf_trace setup --ddg FILE --machine NAME --jobs J
 *                    [--cache-dir DIR]
 *       Times kSetupReps set-ups (parse every block, resolve the
 *       machine, construct the Engine with its pool and disk cache)
 *       and prints {"setup_s": [...]}.
 *
 *   perf_trace trace --ddg FILE --machine NAME --scheme gp|all
 *                    --jobs J [--cache-dir DIR] --work DIR
 *       One untraced and one traced pass of the CLI path, then
 *       isolated per-loop probes of the functions compileBatch hides,
 *       then compileBatch at 1, 2 and 4 jobs. Prints the per-layer
 *       metrics as JSON; writes every span to DIR/spans.json.
 *
 * --cache-dir is emptied before every set-up and every pass, as the
 * benchmark's CLI runs start from an empty store.
 *
 *   perf_trace run CMD [ARG...]
 *       Runs CMD as a child and prints {"exit", "wall_s", "cpu_s",
 *       "maxrss_kb"} from wait4. Linux folds the pre-exec memory of
 *       the forking process into the child's ru_maxrss, so the CLI is
 *       forked from this small process rather than from the harness.
 *
 * Every schedule a probe or a jobs-curve engine produces is compared
 * with the traced pass's; the count of differences is reported as
 * "mismatches" and must be 0.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/gp_scheduler.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "graph/textio.hh"
#include "machine/op.hh"
#include "machine/registry.hh"
#include "partition/multilevel.hh"
#include "sched/list_sched.hh"
#include "sched/mii.hh"
#include "sched/uracam.hh"
#include "serialize/record.hh"
#include "sim/sim.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/telemetry.hh"

using namespace gpsched;

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** A named interval, the span open when it began, and its pass. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span; -1 at top level
    int run = 0;     ///< pass id, shared by every span of one pass
};

/** Keeps spans in memory; they are written out once, at the end. */
class Tracer
{
  public:
    /** Spans are not recorded while false (the untraced pass). */
    bool enabled = true;

    /** Pass id stamped on spans opened from now on. */
    int run = 0;

    int open(const char *name)
    {
        if (!enabled)
            return -1;
        spans_.push_back(Span{name, now(), 0,
                              stack_.empty() ? -1 : stack_.back(),
                              run});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int index)
    {
        if (index < 0)
            return;
        spans_[index].endNs = now();
        stack_.pop_back();
    }

    /** Durations in milliseconds of every span named @p name. */
    std::vector<double> durationsMs(const char *name) const
    {
        std::vector<double> out;
        for (const Span &span : spans_) {
            if (std::strcmp(span.name, name) == 0)
                out.push_back((span.endNs - span.startNs) / 1e6);
        }
        return out;
    }

    double totalMs(const char *name) const
    {
        double total = 0.0;
        for (double ms : durationsMs(name))
            total += ms;
        return total;
    }

    void writeJson(std::ostream &os) const
    {
        JsonWriter json(os);
        json.beginArray();
        for (const Span &span : spans_) {
            json.beginObject();
            json.member("name", span.name);
            json.member("start_ns", span.startNs);
            json.member("end_ns", span.endNs);
            json.member("parent", span.parent);
            json.member("run", span.run);
            json.endObject();
        }
        json.endArray();
        os << "\n";
    }

  private:
    std::int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.open(name))
    {
    }
    ~SpanScope() { tracer_.close(index_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

struct Args
{
    std::string mode;
    std::string ddg;
    std::string machine;
    std::string scheme = "gp";
    int jobs = 1;
    std::string cacheDir;
    std::string work;
};

/** Set-ups timed by one `perf_trace setup`. run.py calls it once per
 *  measured CLI run, so its samples spread over the whole run. */
constexpr int kSetupReps = 2;

[[noreturn]] void
usage()
{
    std::cerr << "usage: perf_trace setup|trace --ddg FILE --machine "
                 "NAME [--scheme gp|all] --jobs J [--cache-dir DIR] "
                 "[--work DIR]\n";
    std::exit(2);
}

int
positive(const std::string &text)
{
    char *end = nullptr;
    long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || value < 1 ||
        value > 1024)
        usage();
    return static_cast<int>(value);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string value = argv[++i];
        if (flag == "--ddg")
            args.ddg = value;
        else if (flag == "--machine")
            args.machine = value;
        else if (flag == "--scheme")
            args.scheme = value;
        else if (flag == "--jobs")
            args.jobs = positive(value);
        else if (flag == "--cache-dir")
            args.cacheDir = value;
        else if (flag == "--work")
            args.work = value;
        else
            usage();
    }
    if ((args.mode != "setup" && args.mode != "trace") ||
        args.ddg.empty() || args.machine.empty() ||
        (args.mode == "trace" && args.work.empty()) ||
        (args.scheme != "gp" && args.scheme != "all"))
        usage();
    return args;
}

/** Every `ddg ... end` block of @p path, read as gpsched_cli does. */
std::vector<Ddg>
readCorpus(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        GPSCHED_FATAL("cannot open DDG file '", path, "'");
    std::vector<Ddg> loops;
    for (;;) {
        // Stop where only blank lines and comments remain.
        std::string line;
        std::streampos before = in.tellg();
        bool content = false;
        while (std::getline(in, line)) {
            line.erase(std::min(line.find('#'), line.size()));
            if (line.find_first_not_of(" \t\r") != std::string::npos) {
                content = true;
                break;
            }
            before = in.tellg();
        }
        if (!content)
            break;
        in.seekg(before);
        loops.push_back(readDdgText(in));
    }
    return loops;
}

/** The CLI's engine configuration, on an emptied cache directory. */
EngineOptions
freshEngineOptions(const Args &args)
{
    if (!args.cacheDir.empty())
        fs::remove_all(args.cacheDir);
    EngineOptions options;
    options.jobs = args.jobs;
    options.cacheDir = args.cacheDir;
    return options;
}

/** Same scheme order as gpsched_cli. */
std::vector<SchedulerKind>
schemesFor(const std::string &scheme)
{
    if (scheme == "all")
        return {SchedulerKind::Uracam, SchedulerKind::FixedPartition,
                SchedulerKind::Gp};
    return {SchedulerKind::Gp};
}

std::vector<EngineJob>
makeBatch(const std::vector<Ddg> &loops, const MachineConfig &machine,
          const std::vector<SchedulerKind> &schemes)
{
    std::vector<EngineJob> batch;
    for (const SchedulerKind kind : schemes) {
        for (const Ddg &loop : loops) {
            EngineJob job;
            job.loop = &loop;
            job.machine = &machine;
            job.kind = kind;
            batch.push_back(job);
        }
    }
    return batch;
}

/** The scheduling fields of two compiles agree (timing excluded). */
bool
sameSchedule(const CompiledLoop &a, const CompiledLoop &b)
{
    return a.loopName == b.loopName &&
           a.moduloScheduled == b.moduloScheduled && a.mii == b.mii &&
           a.ii == b.ii && a.scheduleLength == b.scheduleLength &&
           a.cycles == b.cycles && a.ops == b.ops && a.ipc == b.ipc &&
           a.stats == b.stats && a.partitionRuns == b.partitionRuns &&
           a.scheduleAttempts == b.scheduleAttempts &&
           a.placements == b.placements && a.transfers == b.transfers &&
           a.spills == b.spills && a.partition == b.partition;
}

/** Per-cluster original memory-op occupancy under @p partition, as
 *  the GP scheduler plans it (Section 3.3.4). */
std::vector<int>
plannedMemOps(const Ddg &ddg, const MachineConfig &machine,
              const Partition &partition)
{
    std::vector<int> planned(machine.numClusters(), 0);
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        const Opcode op = ddg.node(v).opcode;
        if (isMemoryOpcode(op))
            planned[partition.clusterOf(v)] +=
                machine.latencies().occupancy(op);
    }
    return planned;
}

/** Linear-interpolated quantile @p q of @p values (0 when empty). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * (values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
runSetup(const Args &args)
{
    std::vector<double> seconds;
    for (int r = 0; r < kSetupReps; ++r) {
        EngineOptions options = freshEngineOptions(args);
        Clock::time_point start = Clock::now();
        std::vector<Ddg> loops = readCorpus(args.ddg);
        MachineConfig machine =
            MachineRegistry::builtin().resolve(args.machine);
        auto engine = std::make_unique<Engine>(options);
        seconds.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
    }
    JsonWriter json(std::cout);
    json.beginObject();
    json.beginArray("setup_s");
    for (double s : seconds)
        json.element(s);
    json.endArray();
    json.endObject();
    std::cout << "\n";
    return 0;
}

/** What one pass of the CLI path leaves behind. The batch points into
 *  loops and machine, whose addresses survive a move of the pass. */
struct MainPass
{
    std::vector<Ddg> loops;
    std::unique_ptr<MachineConfig> machine;
    std::vector<EngineJob> batch;
    std::vector<CompileResult> results;
    EngineStats stats;
    double wallMs = 0.0;
};

/** gpsched_cli's run(): parse, resolve, Engine, compileBatch, replay
 *  every compiled loop. */
MainPass
runMainPass(const Args &args, Tracer &tracer)
{
    EngineOptions options = freshEngineOptions(args);
    MainPass pass;
    Clock::time_point start = Clock::now();
    SpanScope main(tracer, "main");
    std::unique_ptr<Engine> engine;
    {
        SpanScope setup(tracer, "setup");
        {
            SpanScope span(tracer, "graph.parse");
            pass.loops = readCorpus(args.ddg);
        }
        {
            SpanScope span(tracer, "machine.resolve");
            pass.machine = std::make_unique<MachineConfig>(
                MachineRegistry::builtin().resolve(args.machine));
        }
        {
            SpanScope span(tracer, "engine.open");
            engine = std::make_unique<Engine>(options);
        }
    }
    pass.batch =
        makeBatch(pass.loops, *pass.machine, schemesFor(args.scheme));
    {
        SpanScope span(tracer, "engine.batch");
        pass.results = engine->compileBatch(pass.batch);
    }
    {
        SpanScope replay(tracer, "sim.replay");
        for (std::size_t i = 0; i < pass.results.size(); ++i) {
            if (!pass.results[i].ok())
                continue;
            SpanScope span(tracer, "sim.simulate");
            sim::simulate(*pass.batch[i].loop, *pass.machine,
                          pass.results[i].loop);
        }
    }
    pass.stats = engine->stats();
    pass.wallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return pass;
}

/** Per-layer metrics, in the order they are printed. */
class Metrics
{
  public:
    void set(const std::string &name, double value)
    {
        entries_.emplace_back(name, value);
    }

    void writeJson(std::ostream &os) const
    {
        JsonWriter json(os);
        json.beginObject();
        for (const auto &[name, value] : entries_)
            json.member(name, value);
        json.endObject();
        os << "\n";
    }

  private:
    std::vector<std::pair<std::string, double>> entries_;
};

int
runTrace(const Args &args)
{
    Tracer tracer;
    Metrics m;
    std::uint64_t mismatches = 0;

    // Pass 0 untraced, pass 1 traced: their wall ratio is the
    // tracing overhead. The traced pass is the reference schedule.
    tracer.enabled = false;
    MainPass untraced = runMainPass(args, tracer);
    tracer.enabled = true;
    tracer.run = 1;
    MainPass pass = runMainPass(args, tracer);
    const MachineConfig &machine = *pass.machine;
    const std::vector<CompileResult> &results = pass.results;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok() || !untraced.results[i].ok() ||
            !sameSchedule(results[i].loop, untraced.results[i].loop))
            ++mismatches;
    }

    // Pass 2: isolated per-job probes, in the CLI's per-job order
    // (key, MII, partition, modulo attempt, compile, encode, store,
    // lookup) plus the list-scheduling fallback on every job.
    tracer.run = 2;
    const fs::path probeDir = fs::path(args.work) / "probe_cache";
    fs::remove_all(probeDir);
    DiskCache probeCache(probeDir.string(), 0);
    const LoopCompilerOptions options;
    std::vector<double> compileMs;
    std::vector<bool> fallback;
    double recordBytes = 0.0;
    int moduloOk = 0;
    {
        SpanScope probes(tracer, "probes");
        for (std::size_t i = 0; i < pass.batch.size(); ++i) {
            const Ddg &ddg = *pass.batch[i].loop;
            const SchedulerKind kind = pass.batch[i].kind;
            const bool partitioned = kind != SchedulerKind::Uracam &&
                                     machine.numClusters() > 1;
            LoopKey key;
            {
                SpanScope span(tracer, "engine.loop_key");
                key = makeLoopKey(ddg, machine, kind, options);
            }
            int mii = 0;
            {
                SpanScope span(tracer, "sched.mii");
                mii = computeMii(ddg, machine);
            }
            Partition part(ddg.numNodes(), machine.numClusters());
            if (partitioned) {
                SpanScope span(tracer, "partition.run");
                part = GpPartitioner(machine, options.partitioner)
                           .run(ddg, mii)
                           .partition;
            }
            {
                SpanScope span(tracer, "sched.modulo");
                PartialSchedule ps(
                    ddg, machine, mii,
                    partitioned ? plannedMemOps(ddg, machine, part)
                                : std::vector<int>{},
                    options.fomThreshold, options.transfer);
                ModuloScheduler scheduler(ddg, machine,
                                          {options.fomThreshold});
                ClusterPolicy policy = ClusterPolicy::FreeChoice;
                if (partitioned && kind == SchedulerKind::Gp)
                    policy = ClusterPolicy::PreferAssigned;
                else if (partitioned)
                    policy = ClusterPolicy::AssignedOnly;
                moduloOk += scheduler.schedule(
                    ps, policy, partitioned ? &part : nullptr);
            }
            {
                SpanScope span(tracer, "sched.list");
                listSchedule(ddg, machine);
            }
            CompiledLoop compiled;
            {
                SpanScope span(tracer, "core.compile");
                Clock::time_point t0 = Clock::now();
                compiled = LoopCompiler(machine, kind, options)
                               .compile(ddg);
                compileMs.push_back(
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count());
            }
            fallback.push_back(!compiled.moduloScheduled);
            if (!results[i].ok() ||
                !sameSchedule(compiled, results[i].loop))
                ++mismatches;
            std::string bytes;
            {
                SpanScope span(tracer, "serialize.encode");
                bytes = encodeCacheRecord(key, compiled);
            }
            recordBytes += bytes.size();
            LoopKey decodedKey;
            CompiledLoop decoded;
            {
                SpanScope span(tracer, "serialize.decode");
                if (!decodeCacheRecord(bytes, decodedKey, decoded))
                    ++mismatches;
            }
            if (decodedKey != key || !sameSchedule(decoded, compiled))
                ++mismatches;
            {
                SpanScope span(tracer, "engine.disk_store");
                probeCache.store(key, compiled);
            }
            CompiledLoop looked;
            bool hit = false;
            {
                SpanScope span(tracer, "engine.disk_lookup");
                hit = probeCache.lookup(key, looked);
            }
            if (!hit || !sameSchedule(looked, compiled))
                ++mismatches;
        }
    }

    // Passes 3-5: the jobs 1/2/4 curve on fresh engines without the
    // disk layer; the 1-job engine also yields the phase totals.
    static const char *const curveSpans[] = {
        "engine.batch_j1", "engine.batch_j2", "engine.batch_j4"};
    const int curveJobs[] = {1, 2, 4};
    CompileTrace phases;
    for (int c = 0; c < 3; ++c) {
        tracer.run = 3 + c;
        EngineOptions curveOptions;
        curveOptions.jobs = curveJobs[c];
        curveOptions.collectPhases = true;
        Engine engine(curveOptions);
        std::vector<CompileResult> curve;
        {
            SpanScope span(tracer, curveSpans[c]);
            curve = engine.compileBatch(pass.batch);
        }
        for (std::size_t i = 0; i < curve.size(); ++i) {
            if (!curve[i].ok() || !results[i].ok() ||
                !sameSchedule(curve[i].loop, results[i].loop))
                ++mismatches;
        }
        if (curveJobs[c] == 1)
            phases = engine.phaseTotals();
    }

    // --- metrics ------------------------------------------------------
    const double rows = static_cast<double>(results.size());
    std::int64_t nodes = 0;
    std::int64_t edges = 0;
    for (const Ddg &loop : pass.loops) {
        nodes += loop.numNodes();
        edges += loop.numEdges();
    }
    double jobMs = 0.0;
    double longestJobMs = 0.0;
    double partitionRuns = 0.0;
    double attempts = 0.0;
    double modulo = 0.0;
    double iiAboveMii = 0.0;
    for (const CompileResult &result : results) {
        jobMs += result.compileMs;
        longestJobMs = std::max(longestJobMs, result.compileMs);
        partitionRuns += result.loop.partitionRuns;
        attempts += result.loop.scheduleAttempts;
        if (result.loop.moduloScheduled) {
            ++modulo;
            iiAboveMii += result.loop.ii > result.loop.mii;
        }
    }
    const double batchMs = tracer.totalMs("engine.batch");
    const double j1 = tracer.totalMs(curveSpans[0]);

    m.set("graph.parse_ms", tracer.totalMs("graph.parse"));
    m.set("graph.nodes", static_cast<double>(nodes));
    m.set("graph.edges", static_cast<double>(edges));

    m.set("engine.open_ms", tracer.totalMs("engine.open"));
    m.set("engine.loop_key_ms", tracer.totalMs("engine.loop_key"));
    m.set("engine.disk_lookup_ms",
          tracer.totalMs("engine.disk_lookup"));
    m.set("engine.disk_hit_frac", pass.stats.diskHitRate());
    m.set("engine.disk_store_ms", tracer.totalMs("engine.disk_store"));
    m.set("engine.disk_bytes",
          static_cast<double>(probeCache.residentBytes()));
    m.set("engine.batch_ms", batchMs);
    m.set("engine.idle_frac", 1.0 - ratio(jobMs, args.jobs * batchMs));
    m.set("engine.longest_job_share", ratio(longestJobMs, batchMs));
    m.set("engine.speedup_j2",
          ratio(j1, tracer.totalMs(curveSpans[1])));
    m.set("engine.speedup_j4",
          ratio(j1, tracer.totalMs(curveSpans[2])));
    m.set("engine.batch_j1_ms", j1);
    m.set("engine.batch_j2_ms", tracer.totalMs(curveSpans[1]));
    m.set("engine.batch_j4_ms", tracer.totalMs(curveSpans[2]));

    m.set("serialize.encode_ms", tracer.totalMs("serialize.encode"));
    m.set("serialize.decode_ms", tracer.totalMs("serialize.decode"));
    m.set("serialize.record_bytes_mean", ratio(recordBytes, rows));

    m.set("sched.mii_ms", tracer.totalMs("sched.mii"));
    m.set("partition.run_ms", tracer.totalMs("partition.run"));
    m.set("partition.run_us_p99",
          1e3 * quantile(tracer.durationsMs("partition.run"), 0.99));
    m.set("partition.runs", partitionRuns);
    m.set("sched.modulo_ms", tracer.totalMs("sched.modulo"));
    m.set("sched.modulo_first_ok_frac", ratio(moduloOk, rows));
    m.set("sched.attempts", attempts);
    m.set("sched.ii_above_mii_frac", ratio(iiAboveMii, modulo));
    m.set("sched.list_ms", tracer.totalMs("sched.list"));

    // The slowest 5% of compiles and the fallback's share of time.
    std::vector<double> sorted = compileMs;
    std::sort(sorted.rbegin(), sorted.rend());
    const double compileTotal = sum(compileMs);
    const std::size_t tail = (sorted.size() + 19) / 20;
    double fallbackMs = 0.0;
    for (std::size_t i = 0; i < compileMs.size(); ++i)
        fallbackMs += fallback[i] ? compileMs[i] : 0.0;
    m.set("core.compile_ms", compileTotal);
    m.set("core.compile_ms_p50", quantile(compileMs, 0.50));
    m.set("core.compile_ms_p99", quantile(compileMs, 0.99));
    m.set("core.compile_ms_max", sorted.empty() ? 0.0 : sorted[0]);
    m.set("core.tail5_share",
          ratio(sum(std::vector<double>(sorted.begin(),
                                        sorted.begin() + tail)),
                compileTotal));
    m.set("core.fallback_frac",
          ratio(std::count(fallback.begin(), fallback.end(), true),
                rows));
    m.set("core.fallback_ms_share", ratio(fallbackMs, compileTotal));

    static const std::pair<CompilePhase, const char *> phaseNames[] = {
        {CompilePhase::Mii, "mii"},
        {CompilePhase::Coarsen, "coarsen"},
        {CompilePhase::InitialPartition, "initial_partition"},
        {CompilePhase::Refine, "refine"},
        {CompilePhase::ModuloSchedule, "modulo_schedule"},
        {CompilePhase::TransferPlanning, "transfer_planning"},
        {CompilePhase::ListSchedule, "list_schedule"},
    };
    for (const auto &[phase, name] : phaseNames) {
        const PhaseTotals &totals = phases.phase(phase);
        m.set(std::string("phase.") + name + "_ms",
              totals.wallNanos / 1e6);
        m.set(std::string("phase.") + name + "_count",
              static_cast<double>(totals.count));
    }

    m.set("sim.simulate_ms", tracer.totalMs("sim.simulate"));
    m.set("sim.simulate_us_p99",
          1e3 * quantile(tracer.durationsMs("sim.simulate"), 0.99));
    m.set("trace_overhead_frac",
          ratio(pass.wallMs, untraced.wallMs) - 1.0);

    // The untraced pass's set-up + batch + replay, which run.py
    // subtracts from the CLI's wall time to get tools.residual_ms.
    m.set("main.untraced_ms", untraced.wallMs);
    m.set("rows", rows);
    m.set("mismatches", static_cast<double>(mismatches));
    m.writeJson(std::cout);

    std::ofstream spans(fs::path(args.work) / "spans.json");
    if (!spans)
        GPSCHED_FATAL("cannot write spans under '", args.work, "'");
    tracer.writeJson(spans);
    return 0;
}

int
runChild(char **command)
{
    Clock::time_point start = Clock::now();
    pid_t pid = fork();
    if (pid < 0)
        GPSCHED_FATAL("fork failed");
    if (pid == 0) {
        execvp(command[0], command);
        _exit(127);
    }
    int status = 0;
    struct rusage usage = {};
    if (wait4(pid, &status, 0, &usage) != pid)
        GPSCHED_FATAL("wait4 failed");
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    auto seconds = [](const timeval &tv) {
        return tv.tv_sec + tv.tv_usec / 1e6;
    };
    JsonWriter json(std::cout);
    json.beginObject();
    json.member("exit", WIFEXITED(status) ? WEXITSTATUS(status)
                                          : 128 + WTERMSIG(status));
    json.member("wall_s", wall);
    json.member("cpu_s",
                seconds(usage.ru_utime) + seconds(usage.ru_stime));
    json.member("maxrss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
    json.endObject();
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 3 && std::strcmp(argv[1], "run") == 0)
        return runChild(argv + 2);
    Args args = parseArgs(argc, argv);
    return args.mode == "setup" ? runSetup(args) : runTrace(args);
}
