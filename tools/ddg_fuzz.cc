/**
 * @file
 * Differential fuzzing front-end over workload/fuzz.hh.
 *
 *   ddg_fuzz gen    — emit a seeded corpus as multi-DDG text
 *   ddg_fuzz sweep  — generate + compile every loop across all
 *                     schemes x the machine corpus, hold every record
 *                     to the two-oracle contract, auto-minimize any
 *                     failure and write reduced .ddg + reproducer
 *                     command lines to a failures directory
 *   ddg_fuzz repro  — re-run one emitted reproducer; exit 0 iff the
 *                     recorded failure still fires
 *
 * Exit status of `sweep` is 0 iff the whole corpus passed — which is
 * exactly what the nightly gate and the smoke CTest entry assert,
 * and what the --corrupt canary inverts to prove the harness can
 * actually fail.
 */

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/thread_pool.hh"
#include "graph/textio.hh"
#include "machine/registry.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "workload/fuzz.hh"

#ifndef GPSCHED_FUZZ_MACHINES_DIR
#define GPSCHED_FUZZ_MACHINES_DIR ""
#endif

namespace
{

using namespace gpsched;
using namespace gpsched::fuzz;

/** The --corrupt names. */
const std::vector<std::pair<std::string, ScheduleCorruption>>
    kCorruptions = {
        {"none", ScheduleCorruption::None},
        {"cluster", ScheduleCorruption::ClusterOutOfRange},
        {"cycles", ScheduleCorruption::CyclesOffByOne},
};

const char *
corruptFlag(ScheduleCorruption corruption)
{
    for (const auto &[name, value] : kCorruptions) {
        if (value == corruption)
            return name.c_str();
    }
    GPSCHED_PANIC("bad ScheduleCorruption");
}

/** Every subcommand's flags; each command reads its own. */
struct FuzzOptions
{
    std::uint64_t seed = 0xf022c0de5eedULL;
    int count = 100;
    bool smoke = false;
    int jobs = 0;
    std::string machinesDir = GPSCHED_FUZZ_MACHINES_DIR;
    std::string failuresDir = "fuzz-failures";
    std::string out;
    ScheduleCorruption corruption = ScheduleCorruption::None;
    std::string ddgPath;
    std::string machineSpec;
    std::optional<SchedulerKind> scheme;
    std::optional<FuzzVerdict> expect;
};

constexpr int kMaxLoops = 1 << 30;

/** The commands, each with a one-line summary. */
const std::vector<std::pair<std::string, std::string>> kCommands = {
    {"gen", "emit a seeded corpus as multi-DDG text"},
    {"sweep", "check the corpus on every scheme and machine; exit 1 "
              "iff a case fails (minimized into --failures)"},
    {"repro", "re-run one reproducer; exit 0 iff it still fails"},
};

/** The flag table of @p command, writing into @p o. */
FlagTable
commandFlags(const std::string &argv0, const std::string &command,
             FuzzOptions &o)
{
    FlagTable flags(argv0 + " " + command);
    if (command == "gen" || command == "sweep") {
        flags.u64("--seed", &o.seed, "corpus seed")
            .count("--count", &o.count, 1, kMaxLoops,
                   "corpus loops ($GPSCHED_FUZZ_LOOPS overrides the "
                   "default)");
    }
    if (command == "gen") {
        o.out = "-";
        flags.text("--out", &o.out, "PATH",
                   "corpus path, '-' = stdout");
    } else if (command == "sweep") {
        flags.flag("--smoke", &o.smoke, "sweep 50 loops")
            .jobs(&o.jobs)
            .text("--machines", &o.machinesDir, "DIR",
                  ".machine files swept beside the Table-1 presets")
            .text("--failures", &o.failuresDir, "DIR",
                  "where failing cases are minimized and recorded")
            .text("--out", &o.out, "PATH",
                  "also write the corpus there");
    } else {
        std::vector<std::pair<std::string, FuzzVerdict>> verdicts;
        for (FuzzVerdict v :
             {FuzzVerdict::Pass, FuzzVerdict::CompileRejected,
              FuzzVerdict::OracleDisagree,
              FuzzVerdict::ScheduleRejected,
              FuzzVerdict::MetricMismatch})
            verdicts.push_back({toString(v), v});
        flags.text("--ddg", &o.ddgPath, "FILE", "reproducer DDG file")
            .text("--machine", &o.machineSpec, "SPEC",
                  "registry name or .machine file path")
            .choice("--scheme", &o.scheme, schemeChoices(),
                    "scheme to compile")
            .choice("--expect", &o.expect, verdicts,
                    "only this failure verdict counts");
    }
    if (command != "gen") {
        flags.choice("--corrupt", &o.corruption, kCorruptions,
                     "damage every record before the oracles (canary)");
    }
    return flags;
}

/** Top-level usage: the commands, then each command's flags. */
std::string
usage(const std::string &argv0)
{
    std::string text = "usage: " + argv0 + " <command> [options]\n";
    for (const auto &[command, summary] : kCommands) {
        FuzzOptions defaults;
        text += "\n" + command + ": " + summary + "\n" +
                commandFlags(argv0, command, defaults).usage();
    }
    return text;
}

// ---------------------------------------------------------------
// gen
// ---------------------------------------------------------------

int
runGen(const FuzzOptions &o)
{
    LatencyTable lat;
    if (o.out == "-") {
        writeCorpus(std::cout, o.seed, o.count, lat);
        return 0;
    }
    std::ofstream os(o.out);
    if (!os)
        GPSCHED_FATAL("cannot write corpus to '", o.out, "'");
    writeCorpus(os, o.seed, o.count, lat);
    std::cerr << "wrote " << o.count << " loops (seed " << o.seed
              << ") to " << o.out << "\n";
    return 0;
}

// ---------------------------------------------------------------
// sweep
// ---------------------------------------------------------------

/** One failing case carried from the parallel sweep to the
 *  sequential minimization pass. */
struct SweepFailure
{
    FuzzCase fuzzCase;
    FuzzFailure first;
    std::size_t totalFailures = 0;
};

/** Case-insensitive-filesystem-safe artifact stem. */
std::string
artifactStem(const SweepFailure &f)
{
    std::string stem = f.fuzzCase.ddg.name() + "__" +
                       f.first.machine + "__" +
                       schemeName(f.first.scheme);
    for (char &c : stem) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) ||
              c == '_' || c == '-'))
            c = '_';
    }
    return stem;
}

int
runSweep(const std::string &argv0, const FuzzOptions &o)
{
    const int count = o.smoke ? 50 : o.count;

    LatencyTable lat;
    std::vector<FuzzMachine> machines = fuzzMachines(o.machinesDir);
    std::vector<MachineConfig> configs = fuzzConfigs(machines);

    if (!o.out.empty()) {
        std::ofstream os(o.out);
        if (!os)
            GPSCHED_FATAL("cannot write corpus to '", o.out, "'");
        writeCorpus(os, o.seed, count, lat);
    }

    std::mutex mu;
    long pairsCompiled = 0;
    long moduloScheduled = 0;
    std::vector<SweepFailure> failing;
    {
        ThreadPool pool(o.jobs == 0 ? ThreadPool::hardwareConcurrency()
                                    : o.jobs);
        for (int i = 0; i < count; ++i) {
            pool.submit([&, i] {
                FuzzCase c = corpusCase(o.seed, i, lat);
                FuzzCaseResult r =
                    runFuzzCase(c.ddg, configs, o.corruption);
                std::lock_guard<std::mutex> lock(mu);
                pairsCompiled += r.pairsCompiled;
                moduloScheduled += r.moduloScheduled;
                if (!r.ok()) {
                    failing.push_back({std::move(c),
                                       r.failures.front(),
                                       r.failures.size()});
                }
            });
        }
        pool.wait();
    }
    std::sort(failing.begin(), failing.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.fuzzCase.index < b.fuzzCase.index;
              });

    std::cout << "ddg_fuzz sweep: seed " << o.seed << ", " << count
              << " loops x " << machines.size() << " machines x 3 "
              << "schemes (corruption " << corruptFlag(o.corruption)
              << ")\n"
              << "  pairs compiled: " << pairsCompiled << " ("
              << moduloScheduled << " modulo-scheduled)\n"
              << "  failing cases:  " << failing.size() << "\n";
    if (failing.empty())
        return 0;

    // Minimize and record. Cap the minimized set so one systemic
    // failure cannot turn the nightly sweep into an hours-long
    // minimization marathon; the cap is logged, never silent.
    const std::size_t maxMinimized = 10;
    namespace fs = std::filesystem;
    fs::create_directories(o.failuresDir);
    std::string tool = fs::absolute(argv0).string();
    std::size_t minimized = 0;
    for (const SweepFailure &f : failing) {
        if (minimized >= maxMinimized) {
            std::cout << "  (minimization capped at " << maxMinimized
                      << " cases; " << failing.size() - minimized
                      << " more recorded unminimized)\n";
            break;
        }
        ++minimized;
        const FuzzMachine *fm = nullptr;
        for (const FuzzMachine &m : machines) {
            if (m.config.name() == f.first.machine)
                fm = &m;
        }
        GPSCHED_ASSERT(fm, "failure names unknown machine ",
                       f.first.machine);
        auto stillFails = [&](const Ddg &g) {
            FuzzCaseResult r =
                runFuzzCase(g, {fm->config}, o.corruption);
            for (const FuzzFailure &rf : r.failures) {
                if (rf.scheme == f.first.scheme &&
                    rf.kind == f.first.kind)
                    return true;
            }
            return false;
        };
        MinimizeStats stats;
        Ddg reduced =
            minimizeDdg(f.fuzzCase.ddg, stillFails, &stats, 4000);

        std::string stem = artifactStem(f);
        fs::path minPath = fs::path(o.failuresDir) / (stem + ".min.ddg");
        fs::path origPath =
            fs::path(o.failuresDir) / (stem + ".orig.ddg");
        fs::path reproPath = fs::path(o.failuresDir) / (stem + ".repro");
        auto header = [&](std::ostream &os) {
            os << "# " << f.first.toString() << "\n"
               << "# case " << f.fuzzCase.index << " seed "
               << f.fuzzCase.seed << " shape "
               << toString(f.fuzzCase.shape) << " corruption "
               << corruptFlag(o.corruption) << "\n";
        };
        {
            std::ofstream os(origPath);
            header(os);
            writeDdgText(os, f.fuzzCase.ddg);
        }
        {
            std::ofstream os(minPath);
            header(os);
            os << "# minimized " << stats.nodesBefore << " -> "
               << stats.nodesAfter << " nodes, " << stats.edgesBefore
               << " -> " << stats.edgesAfter << " edges in "
               << stats.probes << " probes\n";
            writeDdgText(os, reduced);
        }
        {
            std::ofstream os(reproPath);
            os << tool << " repro --ddg "
               << fs::absolute(minPath).string() << " --machine "
               << fm->spec << " --scheme "
               << schemeName(f.first.scheme) << " --corrupt "
               << corruptFlag(o.corruption) << " --expect "
               << toString(f.first.kind) << "\n";
        }
        std::cout << "  FAIL " << f.first.toString() << "\n"
                  << "       (" << f.totalFailures
                  << " failing pair(s); minimized "
                  << stats.nodesBefore << " -> " << stats.nodesAfter
                  << " nodes; artifacts: " << minPath.string()
                  << ", " << reproPath.string() << ")\n";
    }
    return 1;
}

// ---------------------------------------------------------------
// repro
// ---------------------------------------------------------------

int
runRepro(const FuzzOptions &o)
{
    MachineConfig machine =
        MachineRegistry::builtin().resolve(o.machineSpec);
    std::vector<DdgBlock> loops = readDdgFile(o.ddgPath, false);

    bool reproduced = false;
    for (const DdgBlock &block : loops) {
        FuzzCaseResult r =
            runFuzzCase(block.ddg, {machine}, o.corruption);
        for (const FuzzFailure &f : r.failures) {
            if (f.scheme != *o.scheme)
                continue;
            if (o.expect && f.kind != *o.expect)
                continue;
            std::cout << "reproduced: " << f.toString() << "\n";
            reproduced = true;
        }
    }
    if (!reproduced) {
        std::cout << "not reproduced: " << o.ddgPath << " @ "
                  << o.machineSpec << "/" << schemeName(*o.scheme)
                  << " compiles clean\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string argv0 = argv[0];
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "--help") {
        std::cout << usage(argv0);
        return 0;
    }
    bool known = false;
    for (const auto &entry : kCommands)
        known |= entry.first == command;
    if (!known) {
        std::cerr << argv0 << ": "
                  << (command.empty() ? "missing command"
                                      : "unknown command '" + command +
                                            "'")
                  << "\n"
                  << usage(argv0);
        return 2;
    }

    FuzzOptions o;
    if (const char *env = std::getenv("GPSCHED_FUZZ_LOOPS"); env && *env) {
        std::optional<int> loops = parseCountText(env, 1, kMaxLoops);
        if (!loops)
            GPSCHED_FATAL("bad GPSCHED_FUZZ_LOOPS '", env, "'");
        o.count = *loops;
    }
    FlagTable flags = commandFlags(argv0, command, o);
    flags.parse(argc - 1, argv + 1);
    if (command == "gen")
        return runGen(o);
    if (command == "sweep")
        return runSweep(argv0, o);
    if (o.ddgPath.empty() || o.machineSpec.empty() || !o.scheme)
        flags.fail("repro needs --ddg, --machine and --scheme");
    return runRepro(o);
}
