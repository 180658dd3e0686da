/**
 * @file
 * Line-oriented text serialization of DDGs so loops can be dumped,
 * versioned and re-loaded (e.g. to reproduce a single interesting
 * loop outside the workload generator).
 *
 * Format:
 *   ddg <name> <trip-count>
 *   node <opcode> [label]
 *   edge <src> <dst> <latency> <distance> [flow|order]
 *   end
 * '#' starts a comment; blank lines are ignored. Every field is one
 * whitespace-free token, numbers are an optional '-' and decimal
 * digits, and a line with a token too many is malformed. A file may
 * hold several blocks (readDdgFile).
 */

#ifndef GPSCHED_GRAPH_TEXTIO_HH
#define GPSCHED_GRAPH_TEXTIO_HH

#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/ddg.hh"
#include "support/compile_error.hh"

namespace gpsched
{

/** Writes @p ddg in the text format. */
void writeDdgText(std::ostream &os, const Ddg &ddg);

/** True iff @p text can stand as one field of the text format (a
 *  loop name or node label writeDdgText can round-trip): non-empty,
 *  with no whitespace and no '#'. */
bool isDdgTextToken(std::string_view text);

/**
 * Parses one DDG and leaves @p is just past its `end` line (the
 * stream is read a line at a time, never buffered whole). Malformed
 * input throws CompileError (kind Parse, support/compile_error.hh)
 * so a batch front-end can report the bad block and keep going; the
 * loop name is attached once the `ddg` header line has been seen.
 */
Ddg readDdgText(std::istream &is);

/** One block of a multi-DDG stream: its source, and the loop or
 *  (keepGoing) the block's parse diagnostic. */
struct DdgBlock
{
    std::string source;
    Ddg ddg;
    std::optional<CompileError> parseError;

    bool parsed() const { return !parseError.has_value(); }
};

/**
 * Pull-style reader of a multi-DDG stream: each next() parses the
 * following `ddg ... end` block, skipping blank and comment lines
 * between blocks, so a caller holds one block at a time. The stream
 * is never seeked, so it may be a pipe.
 */
class DdgBlockReader
{
  public:
    /** Reads @p is, which must outlive the reader; @p source names
     *  it in the blocks and in diagnostics. */
    DdgBlockReader(std::istream &is, std::string source,
                   bool keepGoing);
    ~DdgBlockReader();

    DdgBlockReader(const DdgBlockReader &) = delete;
    DdgBlockReader &operator=(const DdgBlockReader &) = delete;

    /**
     * Parses the next block into @p block and returns true; false
     * at the end of the stream. A malformed block throws its
     * CompileError, or with keepGoing comes back with parseError
     * set (no warning: the caller decides) and reading resumes at
     * the next `ddg` line.
     */
    bool next(DdgBlock &block);

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** Warns that the malformed @p block (parseError set) is skipped. */
void warnSkippedBlock(const DdgBlock &block);

/**
 * Every block of @p is through DdgBlockReader; with @p keepGoing a
 * malformed block is recorded with warnSkippedBlock. Fatal when the
 * stream holds no block.
 */
std::vector<DdgBlock> readDdgBlocks(std::istream &is,
                                    const std::string &source,
                                    bool keepGoing);

/** Opens the DDG file at @p path; fatal if unreadable. */
std::ifstream openDdgFile(const std::string &path);

/** readDdgBlocks over the file at @p path; fatal if unreadable. */
std::vector<DdgBlock> readDdgFile(const std::string &path,
                                  bool keepGoing);

} // namespace gpsched

#endif // GPSCHED_GRAPH_TEXTIO_HH
