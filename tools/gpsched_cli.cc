/**
 * @file
 * gpsched command-line front-end: read text-format DDGs (see
 * graph/textio.hh; a file may hold several `ddg ... end` blocks),
 * schedule them through the batch engine for one machine under one
 * or all schemes, and emit a JSON report with per-loop schedule
 * metrics and engine/cache statistics.
 *
 *   gpsched_cli [options] <ddg-file>...
 *
 * The flags are declared once in parseArgs (support/flags.hh);
 * `gpsched_cli --help` prints them. --machine takes a registry name
 * (--list-machines; default 4c-r64-b1) or a .machine file path.
 * --keep-going turns each malformed or rejected loop into an error
 * object in the report; without it the first failing loop ends the
 * run with a fatal file:line diagnostic. --simulate holds every
 * compiled loop to the record contract (sim::checkRecord), on the
 * engine's pool. Exit status is 2 on a usage error, otherwise
 * nonzero iff a loop or a record check failed. With --trace, the
 * serial stages are cli.parse / cli.check / cli.report spans.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "engine/engine.hh"
#include "graph/textio.hh"
#include "machine/registry.hh"
#include "sim/replay.hh"
#include "support/compile_error.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/trace.hh"

using namespace gpsched;

namespace
{

struct CliOptions
{
    std::string machine = "4c-r64-b1";
    std::vector<SchedulerKind> schemes = {SchedulerKind::Gp};
    int jobs = 0;
    int repeat = 1;
    std::string cacheDir;
    bool keepGoing = false;
    bool simulate = false;
    std::string jsonPath = "-";
    std::string statsJsonPath; ///< metric-registry dump; empty = off
    std::string tracePath;     ///< Chrome trace file; empty = off
    std::vector<std::string> files;
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    bool listMachines = false;
    std::vector<std::pair<std::string, std::vector<SchedulerKind>>>
        schemes;
    std::vector<SchedulerKind> all;
    for (const auto &[name, kind] : schemeChoices()) {
        schemes.push_back({name, {kind}});
        all.push_back(kind);
    }
    schemes.push_back({"all", all});
    FlagTable flags(argv[0], "<ddg-file>...");
    flags.text("--machine", &options.machine, "SPEC",
               "registry name or .machine file path")
        .flag("--list-machines", &listMachines,
              "print the registry machine names and exit")
        .choice("--scheme", &options.schemes, schemes,
                "scheme(s) to compile with")
        .jobs(&options.jobs)
        .count("--repeat", &options.repeat, 1, 1 << 20,
               "compile the batch N times (cache demo)")
        .text("--cache-dir", &options.cacheDir, "PATH",
              "persistent compile cache directory (default off)")
        .flag("--keep-going", &options.keepGoing,
              "report failing loops as JSON error objects; exit 1 "
              "iff any loop failed")
        .flag("--simulate", &options.simulate,
              "hold every compiled loop to the record contract; exit "
              "1 iff a check fails")
        .text("--json", &options.jsonPath, "PATH",
              "JSON report path, '-' = stdout")
        .text("--stats-json", &options.statsJsonPath, "PATH",
              "write the unified metric registry as JSON")
        .text("--trace", &options.tracePath, "PATH",
              "write a Chrome trace-event file (Perfetto-loadable)");
    options.files = flags.parse(argc, argv);
    if (listMachines) {
        for (const std::string &name :
             MachineRegistry::builtin().names())
            std::cout << name << "\n";
        std::exit(0);
    }
    if (options.files.empty())
        flags.fail("no input files");
    return options;
}

/**
 * Records [@p startNanos, @p endNanos) as the complete event @p name
 * on the calling (main) thread under the engine's trace pid; no-op
 * without --trace. The CLI's serial stages (parse, the --simulate
 * check pass, report emission) are spanned this way.
 */
void
traceStage(TraceSink *sink, const Engine &engine, const char *name,
           std::uint64_t startNanos, std::uint64_t endNanos)
{
    if (sink == nullptr)
        return;
    TraceEvent event;
    event.name = name;
    event.cat = "cli";
    event.pid = engine.tracePid();
    event.tid = traceThreadId();
    event.tsNanos = startNanos;
    event.durNanos = endNanos - startNanos;
    sink->complete(std::move(event));
}

/** The report's error-object schema: kind, message, location. */
void
writeErrorObject(JsonWriter &json, const CompileError &error)
{
    json.beginObject("error");
    json.member("kind", toString(error.kind()));
    json.member("message", error.what());
    json.member("location", error.location());
    json.endObject();
}

void
writeReport(std::ostream &os, const CliOptions &options,
            const MachineConfig &machine,
            const std::vector<DdgBlock> &inputs,
            const std::vector<CompileResult> &results,
            const std::vector<std::optional<sim::RecordCheck>> &checks,
            const Engine &engine)
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", 1);
    json.member("tool", "gpsched_cli");
    json.beginObject("machine");
    json.member("name", machine.name());
    json.member("clusters", machine.numClusters());
    json.member("homogeneous", machine.homogeneous());
    json.member("totalIssueWidth", machine.totalIssueWidth());
    json.member("totalRegs", machine.totalRegs());
    json.member("buses", machine.numBuses());
    json.beginArray("clusterConfigs");
    for (int c = 0; c < machine.numClusters(); ++c) {
        const ClusterDesc &cluster = machine.cluster(c);
        json.beginObject();
        json.member("name", cluster.name);
        json.member("int",
                    machine.fuInCluster(c, FuClass::Int));
        json.member("fp", machine.fuInCluster(c, FuClass::Fp));
        json.member("mem",
                    machine.fuInCluster(c, FuClass::Mem));
        json.member("regs", cluster.regs);
        json.endObject();
    }
    json.endArray();
    json.beginArray("busClasses");
    for (int i = 0; i < machine.numBusClasses(); ++i) {
        json.beginObject();
        json.member("count", machine.busClass(i).count);
        json.member("latency", machine.busClass(i).latency);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.beginArray("loops");
    // Engine results cover the parsed inputs only, scheme-major in
    // the same order the batch was built.
    std::size_t next = 0;
    for (const SchedulerKind kind : options.schemes) {
        for (const DdgBlock &input : inputs) {
            json.beginObject();
            json.member("file", input.source);
            if (!input.parsed()) {
                json.member("name", input.parseError->loopName());
                json.member("scheme", toString(kind));
                writeErrorObject(json, *input.parseError);
                json.endObject();
                continue;
            }
            const CompileResult &result = results[next++];
            json.member("name", result.ok()
                                    ? result.loop.loopName
                                    : result.error->loopName());
            json.member("scheme", toString(kind));
            json.member("nodes", input.ddg.numNodes());
            json.member("edges", input.ddg.numEdges());
            json.member("tripCount", input.ddg.tripCount());
            // Per-row warm/cold inspectability: how this row was
            // obtained and how long the engine spent on it.
            json.member("source", compileSourceName(result.source));
            json.member("compileMs", result.compileMs);
            if (!result.ok()) {
                writeErrorObject(json, *result.error);
                json.endObject();
                continue;
            }
            const CompiledLoop &loop = result.loop;
            json.member("moduloScheduled", loop.moduloScheduled);
            json.member("mii", loop.mii);
            json.member("ii", loop.ii);
            json.member("scheduleLength", loop.scheduleLength);
            json.member("cycles", loop.cycles);
            json.member("ops", loop.ops);
            json.member("ipc", loop.ipc);
            json.member("busTransfers", loop.stats.busTransfers);
            json.member("memTransfers", loop.stats.memTransfers);
            json.member("spills", loop.stats.spills);
            json.member("partitionRuns", loop.partitionRuns);
            json.member("scheduleAttempts", loop.scheduleAttempts);
            json.member("schedSeconds", loop.schedSeconds);
            // --simulate: the replay and the record-contract verdict
            // ride on the row. next was already advanced past this
            // result.
            if (checks[next - 1].has_value()) {
                const sim::RecordCheck &check = *checks[next - 1];
                const sim::SimResult &s = check.sim;
                json.member("replayed", s.replayed);
                json.member("simOk", s.simOk);
                json.member("achievedII", s.achievedII);
                json.member("simCycles", s.simCycles);
                json.member("achievedIpc", s.achievedIpc);
                if (s.fault.has_value()) {
                    json.beginObject("simFault");
                    json.member("kind",
                                sim::toString(s.fault->kind));
                    json.member("cycle", s.fault->cycle);
                    json.member("node",
                                static_cast<int>(s.fault->node));
                    json.member("detail", s.fault->detail);
                    json.endObject();
                }
                if (!check.ok()) {
                    json.beginObject("recordCheck");
                    json.member("verdict", sim::toString(check.verdict));
                    json.member("detail", check.detail);
                    json.endObject();
                }
            }
            json.endObject();
        }
    }
    json.endArray();
    json.beginObject("engine");
    engine.writeStatsJson(json);
    json.member("repeat", options.repeat);
    json.member("keepGoing", options.keepGoing);
    json.member("simulate", options.simulate);
    json.endObject();
    json.endObject();
}

int
run(int argc, char **argv)
{
    CliOptions options = parseArgs(argc, argv);
    MachineConfig machine =
        MachineRegistry::builtin().resolve(options.machine);
    const std::uint64_t parseStart = traceNowNanos();
    std::vector<DdgBlock> inputs;
    for (const std::string &path : options.files) {
        for (DdgBlock &block : readDdgFile(path, options.keepGoing))
            inputs.push_back(std::move(block));
    }
    const std::uint64_t parseEnd = traceNowNanos();

    // Telemetry destinations outlive the engine (required: worker
    // threads write into them until the engine is destroyed).
    MetricRegistry registry;
    TraceSink trace;
    EngineOptions engineOptions;
    engineOptions.jobs = options.jobs;
    engineOptions.cacheDir = options.cacheDir;
    if (!options.statsJsonPath.empty()) {
        engineOptions.metrics = &registry;
        engineOptions.collectPhases = true;
    }
    if (!options.tracePath.empty()) {
        engineOptions.trace = &trace;
        engineOptions.collectPhases = true;
    }
    Engine engine(engineOptions);
    TraceSink *sink = engineOptions.trace;
    traceStage(sink, engine, "cli.parse", parseStart, parseEnd);

    std::vector<EngineJob> batch;
    batch.reserve(options.schemes.size() * inputs.size());
    for (const SchedulerKind kind : options.schemes) {
        for (const DdgBlock &input : inputs) {
            if (!input.parsed())
                continue;
            EngineJob job;
            job.loop = &input.ddg;
            job.machine = &machine;
            job.kind = kind;
            batch.push_back(job);
        }
    }

    std::vector<CompileResult> results;
    for (int r = 0; r < options.repeat; ++r)
        results = engine.compileBatch(batch);

    // --simulate: hold every successfully compiled loop to the
    // record contract; the verdicts ride on the report rows
    // (parallel to results, error rows keep their error object
    // untouched). The checks run on the engine's pool, each filling
    // its own slot; failures are reported afterwards in index
    // order, so the output does not depend on --jobs.
    std::vector<std::optional<sim::RecordCheck>> checks(
        results.size());
    bool simFailed = false;
    if (options.simulate) {
        const std::uint64_t checkStart = traceNowNanos();
        engine.runIndexed(results.size(), [&](std::size_t i) {
            if (results[i].ok())
                checks[i] = sim::checkRecord(*batch[i].loop, machine,
                                             results[i].loop);
        });
        traceStage(sink, engine, "cli.check", checkStart,
                   traceNowNanos());
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!checks[i].has_value() || checks[i]->ok())
                continue;
            simFailed = true;
            GPSCHED_WARN("record check of loop '",
                         results[i].loop.loopName, "' failed: ",
                         sim::toString(checks[i]->verdict), ": ",
                         checks[i]->detail);
        }
    }

    bool anyFailed = simFailed;
    for (const DdgBlock &input : inputs)
        anyFailed |= !input.parsed();
    for (const CompileResult &result : results) {
        if (!result.ok()) {
            anyFailed = true;
            // Without --keep-going the first compile failure ends
            // the run exactly like the historical fatal did.
            if (!options.keepGoing)
                throw *result.error;
        }
    }

    const std::uint64_t reportStart = traceNowNanos();
    if (options.jsonPath == "-") {
        writeReport(std::cout, options, machine, inputs,
                    results, checks, engine);
    } else {
        std::ofstream out(options.jsonPath);
        if (!out)
            GPSCHED_FATAL("cannot open JSON report path '",
                          options.jsonPath, "'");
        writeReport(out, options, machine, inputs, results,
                    checks, engine);
    }
    traceStage(sink, engine, "cli.report", reportStart,
               traceNowNanos());

    if (!options.statsJsonPath.empty()) {
        engine.exportStats(registry);
        std::ofstream out(options.statsJsonPath);
        if (!out)
            GPSCHED_FATAL("cannot open stats path '",
                          options.statsJsonPath, "'");
        registry.writeJson(out);
    }
    if (!options.tracePath.empty()) {
        std::ofstream out(options.tracePath);
        if (!out)
            GPSCHED_FATAL("cannot open trace path '",
                          options.tracePath, "'");
        trace.writeJson(out);
    }
    return anyFailed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Per-loop failures that escape this far (a parse error without
    // --keep-going, or a compile rejection of a non-keep-going run)
    // end the process with the same diagnostic shape fatal() prints.
    try {
        return run(argc, argv);
    } catch (const CompileError &error) {
        std::cerr << "fatal: " << error.diagnostic() << "\n";
        return 1;
    }
}
