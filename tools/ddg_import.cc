/**
 * @file
 * JSON -> .ddg importer front-end over workload/import.hh.
 *
 *   ddg_import [--out PATH] [--keep-going] input.json...
 *
 * Each input file's loops are validated (NaN/negative latencies,
 * dangling edge indices, unknown opcodes, ... — every rejection a
 * CompileError whose message carries the input file:line) and
 * emitted as `ddg ... end` text blocks ready for gpsched_cli /
 * ddg_fuzz. Default output is stdout. A malformed file aborts the
 * run with its diagnostic unless --keep-going, which reports it on
 * stderr, skips it, and exits 1 after processing the rest — the
 * same per-item isolation contract as gpsched_cli.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/textio.hh"
#include "support/compile_error.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "workload/import.hh"

int
main(int argc, char **argv)
{
    using namespace gpsched;

    std::string out = "-";
    bool keepGoing = false;
    FlagTable flags(argv[0], "<input.json>...");
    flags.text("--out", &out, "PATH", ".ddg output path, '-' = stdout")
        .flag("--keep-going", &keepGoing,
              "report a malformed file, skip it, exit 1 at the end");
    std::vector<std::string> files = flags.parse(argc, argv);
    if (files.empty())
        flags.fail("no input files");

    std::ofstream fileOut;
    if (out != "-") {
        fileOut.open(out);
        if (!fileOut)
            GPSCHED_FATAL("cannot write '", out, "'");
    }
    std::ostream &os = out == "-" ? std::cout : fileOut;

    LatencyTable lat;
    int imported = 0;
    int failed = 0;
    for (const std::string &path : files) {
        std::ifstream in(path);
        if (!in)
            GPSCHED_FATAL("cannot open '", path, "'");
        try {
            std::vector<Ddg> loops = importDdgJson(in, path, lat);
            for (const Ddg &g : loops) {
                os << "# imported from " << path << "\n";
                writeDdgText(os, g);
                ++imported;
            }
        } catch (const CompileError &error) {
            ++failed;
            if (!keepGoing) {
                std::cerr << argv[0] << ": " << error.diagnostic()
                          << "\n";
                return 1;
            }
            std::cerr << argv[0] << ": skipping '" << path
                      << "': " << error.diagnostic() << "\n";
        }
    }
    std::cerr << argv[0] << ": imported " << imported << " loop(s), "
              << failed << " file(s) failed\n";
    return failed > 0 ? 1 : 0;
}
