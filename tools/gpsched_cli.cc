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
 * object in the report; without it the first failing loop in report
 * order ends the run with a fatal file:line diagnostic. --simulate
 * holds every compiled loop to the record contract
 * (sim::checkRecord). Exit status is 2 on a usage error, otherwise
 * nonzero iff a loop or a record check failed.
 *
 * The run streams (Engine::runWindowed): the main thread reads one
 * block at a time, the engine's pool compiles and checks it, and its
 * row is written once every earlier row is, so at most
 * Engine::window() loops are held at once. With --trace, the main
 * thread's read and emit stretches are cli.parse / cli.report spans
 * and each record check is a check span on its worker.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
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
 * One input file, read once per pass. A regular file is reopened
 * each time. Anything else (a pipe, /dev/stdin) can be read only
 * once, so a run of several passes holds its text in memory; a
 * single-pass run streams it.
 */
struct Input
{
    std::string path;

    /** The stream opened up front, kept for a single pass. */
    std::unique_ptr<std::istream> stream;

    /** The whole input, held when it must be read again. */
    std::optional<std::string> text;

    /** The stream for the next pass over this input. */
    std::unique_ptr<std::istream> open()
    {
        if (stream)
            return std::move(stream);
        if (text.has_value())
            return std::make_unique<std::istringstream>(*text);
        return std::make_unique<std::ifstream>(openDdgFile(path));
    }
};

/** Opens every input up front, so a missing file fails before any
 *  compile. */
std::vector<Input>
openInputs(const std::vector<std::string> &paths, int passes)
{
    std::vector<Input> inputs;
    for (const std::string &path : paths) {
        Input &input = inputs.emplace_back();
        input.path = path;
        auto stream = std::make_unique<std::ifstream>(openDdgFile(path));
        std::error_code error;
        if (std::filesystem::is_regular_file(path, error))
            continue;
        if (passes == 1) {
            input.stream = std::move(stream);
        } else {
            std::ostringstream text;
            text << stream->rdbuf();
            input.text = text.str();
        }
    }
    return inputs;
}

/** One live loop of the stream: its input block, the scheme it
 *  compiles under, and what the pool made of it. */
struct Row
{
    DdgBlock input;
    SchedulerKind kind = SchedulerKind::Gp;
    CompileResult result;
    std::optional<sim::RecordCheck> check;
};

/**
 * The blocks of one pass: every input once per scheme, scheme-major,
 * so the rows come out in report order. One input is open at a
 * time.
 */
class PassReader
{
  public:
    PassReader(std::vector<Input> &inputs,
               const std::vector<SchedulerKind> &schemes, bool keepGoing)
        : inputs_(inputs), schemes_(schemes), keepGoing_(keepGoing)
    {
    }

    /**
     * Reads the next block into @p row; false at the end of the pass,
     * or at an input that held no block (emptyInput() then names
     * it).
     */
    bool next(Row &row)
    {
        for (;;) {
            if (!reader_) {
                if (scheme_ == schemes_.size())
                    return false;
                stream_ = inputs_[file_].open();
                reader_.emplace(*stream_, inputs_[file_].path,
                                keepGoing_);
                blocksRead_ = 0;
            }
            if (reader_->next(row.input)) {
                ++blocksRead_;
                row.kind = schemes_[scheme_];
                return true;
            }
            if (blocksRead_ == 0) {
                emptyInput_ = inputs_[file_].path;
                return false;
            }
            reader_.reset();
            stream_.reset();
            if (++file_ == inputs_.size()) {
                file_ = 0;
                ++scheme_;
            }
        }
    }

    const std::optional<std::string> &emptyInput() const
    {
        return emptyInput_;
    }

  private:
    std::vector<Input> &inputs_;
    const std::vector<SchedulerKind> &schemes_;
    bool keepGoing_;
    std::size_t scheme_ = 0;
    std::size_t file_ = 0;
    std::unique_ptr<std::istream> stream_;
    std::optional<DdgBlockReader> reader_;
    std::size_t blocksRead_ = 0;
    std::optional<std::string> emptyInput_;
};

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

/** Opens the report and its loops array. */
void
writeReportHeader(JsonWriter &json, const MachineConfig &machine)
{
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
}

/** One element of the loops array. */
void
writeRow(JsonWriter &json, const Row &row)
{
    const DdgBlock &input = row.input;
    json.beginObject();
    json.member("file", input.source);
    if (!input.parsed()) {
        json.member("name", input.parseError->loopName());
        json.member("scheme", toString(row.kind));
        writeErrorObject(json, *input.parseError);
        json.endObject();
        return;
    }
    const CompileResult &result = row.result;
    json.member("name", result.ok() ? result.loop.loopName
                                    : result.error->loopName());
    json.member("scheme", toString(row.kind));
    json.member("nodes", input.ddg.numNodes());
    json.member("edges", input.ddg.numEdges());
    json.member("tripCount", input.ddg.tripCount());
    // Per-row warm/cold inspectability: how this row was obtained
    // and how long the engine spent on it.
    json.member("source", compileSourceName(result.source));
    json.member("compileMs", result.compileMs);
    if (!result.ok()) {
        writeErrorObject(json, *result.error);
        json.endObject();
        return;
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
    // --simulate: the replay and the record-contract verdict ride on
    // the row.
    if (row.check.has_value()) {
        const sim::RecordCheck &check = *row.check;
        const sim::SimResult &s = check.sim;
        json.member("replayed", s.replayed);
        json.member("simOk", s.simOk);
        json.member("achievedII", s.achievedII);
        json.member("simCycles", s.simCycles);
        json.member("achievedIpc", s.achievedIpc);
        if (s.fault.has_value()) {
            json.beginObject("simFault");
            json.member("kind", sim::toString(s.fault->kind));
            json.member("cycle", s.fault->cycle);
            json.member("node", static_cast<int>(s.fault->node));
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

/** Closes the loops array and the report with the engine block. */
void
writeReportTrailer(JsonWriter &json, const CliOptions &options,
                   const Engine &engine)
{
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
    std::ofstream reportFile;
    if (options.jsonPath != "-") {
        reportFile.open(options.jsonPath);
        if (!reportFile)
            GPSCHED_FATAL("cannot open JSON report path '",
                          options.jsonPath, "'");
    }
    std::ostream &reportStream =
        options.jsonPath == "-" ? std::cout : reportFile;
    // Each --repeat pass reads every input once per scheme.
    const int passes =
        options.repeat * static_cast<int>(options.schemes.size());
    std::vector<Input> inputs = openInputs(options.files, passes);

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

    JsonWriter json(reportStream);
    {
        TraceSpan span(sink, engine.tracePid(), "cli.report", "cli");
        writeReportHeader(json, machine);
    }

    // Each pass reads its blocks into the window's rows (main
    // thread), compiles each on the pool, and retires them in report
    // order. Only the last pass checks and emits; earlier --repeat
    // passes warm the caches. Without --keep-going the first failing
    // row in report order ends the run.
    std::vector<Row> rows(engine.window());
    bool anyFailed = false;
    for (int r = 0; r < options.repeat; ++r) {
        const bool lastPass = r + 1 == options.repeat;
        PassReader pass(inputs, options.schemes, options.keepGoing);
        auto produce = [&](std::size_t i) {
            TraceSpan span(sink, engine.tracePid(), "cli.parse", "cli");
            Row &row = rows[i % rows.size()];
            if (!pass.next(row))
                return false;
            // Warn once: in the first scheme of the first pass.
            if (!row.input.parsed() && r == 0 &&
                row.kind == options.schemes[0])
                warnSkippedBlock(row.input);
            return true;
        };
        auto task = [&](std::size_t i) {
            Row &row = rows[i % rows.size()];
            row.check.reset();
            if (!row.input.parsed())
                return;
            row.result = engine.compileOne(
                EngineJob{&row.input.ddg, &machine, row.kind, {}});
            if (lastPass && options.simulate && row.result.ok()) {
                TraceSpan span(sink, engine.tracePid(), "check", "cli");
                span.arg("loop", row.result.loop.loopName);
                row.check = sim::checkRecord(row.input.ddg, machine,
                                             row.result.loop);
            }
        };
        auto retire = [&](std::size_t i) {
            const Row &row = rows[i % rows.size()];
            const bool failed =
                !row.input.parsed() || !row.result.ok();
            anyFailed |= failed;
            if (failed && row.input.parsed() && !options.keepGoing)
                throw *row.result.error;
            if (!lastPass)
                return;
            TraceSpan span(sink, engine.tracePid(), "cli.report", "cli");
            writeRow(json, row);
            if (row.check.has_value() && !row.check->ok()) {
                anyFailed = true;
                GPSCHED_WARN("record check of loop '",
                             row.result.loop.loopName, "' failed: ",
                             sim::toString(row.check->verdict), ": ",
                             row.check->detail);
            }
        };
        engine.runWindowed(produce, task, retire);
        if (pass.emptyInput().has_value())
            GPSCHED_FATAL("no DDGs found in '", *pass.emptyInput(),
                          "'");
    }
    {
        TraceSpan span(sink, engine.tracePid(), "cli.report", "cli");
        writeReportTrailer(json, options, engine);
    }

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
