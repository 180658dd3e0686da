#include "graph/textio.hh"

#include <array>
#include <charconv>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "support/logging.hh"

namespace gpsched
{

void
writeDdgText(std::ostream &os, const Ddg &ddg)
{
    os << "ddg " << ddg.name() << " " << ddg.tripCount() << "\n";
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        const auto &n = ddg.node(v);
        os << "node " << toString(n.opcode) << " " << n.label << "\n";
    }
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        const auto &edge = ddg.edge(e);
        os << "edge " << edge.src << " " << edge.dst << " "
           << edge.latency << " " << edge.distance << " "
           << (edge.isFlow() ? "flow" : "order") << "\n";
    }
    os << "end\n";
}

namespace
{

/** Whitespace as `operator>>` skips it. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
           c == '\v' || c == '\f';
}

/** Most tokens a line may hold:
 *  `edge <src> <dst> <latency> <distance> <kind>`. */
constexpr int kMaxTokens = 6;

/** The tokens of one line, as views into the line buffer. */
struct Tokens
{
    std::array<std::string_view, kMaxTokens> at;

    /** Tokens on the line; kMaxTokens + 1 when it holds more. */
    int count = 0;
};

void
tokenize(std::string_view text, Tokens &tokens)
{
    tokens.count = 0;
    std::size_t i = 0;
    for (;;) {
        while (i < text.size() && isSpace(text[i]))
            ++i;
        if (i == text.size())
            return;
        if (tokens.count == kMaxTokens) {
            ++tokens.count;
            return;
        }
        const std::size_t start = i;
        while (i < text.size() && !isSpace(text[i]))
            ++i;
        tokens.at[tokens.count++] = text.substr(start, i - start);
    }
}

/** Parses a whole token as an optional '-' and decimal digits. */
template <typename Int>
bool
parseInt(std::string_view token, Int &value)
{
    const char *end = token.data() + token.size();
    auto [stop, error] = std::from_chars(token.data(), end, value);
    return error == std::errc() && stop == end;
}

/**
 * The reader's line source: one reused getline buffer, comments
 * stripped and blank lines skipped. The current line can be held
 * back for the next call, so readDdgBlocks finds where a block
 * starts without seeking the stream.
 */
class LineReader
{
  public:
    explicit LineReader(std::istream &is) : is_(is) {}

    /** Advances to the next line holding a token; false at the end
     *  of the stream. */
    bool
    next()
    {
        if (std::exchange(held_, false))
            return true;
        while (std::getline(is_, buffer_)) {
            text_ = buffer_;
            text_ = text_.substr(0, text_.find('#'));
            tokenize(text_, tokens_);
            if (tokens_.count > 0)
                return true;
        }
        return false;
    }

    /** Makes the next call to next() return the current line. */
    void hold() { held_ = true; }

    /** The current line, comment stripped. */
    std::string_view text() const { return text_; }

    const Tokens &tokens() const { return tokens_; }

  private:
    std::istream &is_;
    std::string buffer_;
    std::string_view text_;
    Tokens tokens_;
    bool held_ = false;
};

/** Parses lines up to and including the next `end` line. */
Ddg
parseBlock(LineReader &lines)
{
    bool headerSeen = false;
    Ddg ddg;

    // Parse rejections are per-loop CompileErrors, carrying the
    // block's name once the header has been seen so batch front-ends
    // can attribute the diagnostic to the right loop and move on.
    auto fail = [&](const std::string &message) {
        GPSCHED_COMPILE_ERROR(CompileErrorKind::Parse,
                              headerSeen ? ddg.name() : "", message);
    };

    while (lines.next()) {
        const Tokens &t = lines.tokens();
        const std::string_view keyword = t.at[0];
        if (keyword == "ddg") {
            if (headerSeen) {
                // The header opens the next block: leave it for
                // readDdgBlocks to resume at.
                lines.hold();
                fail(buildMessage("missing end before the next ddg "
                                  "header: '",
                                  lines.text(), "'"));
            }
            std::int64_t trips = 0;
            if (t.count != 3 || !parseInt(t.at[2], trips) || trips < 1)
                fail(buildMessage("malformed ddg header: '",
                                  lines.text(), "'"));
            ddg = Ddg(std::string(t.at[1]));
            ddg.setTripCount(trips);
            headerSeen = true;
        } else if (keyword == "node") {
            if (!headerSeen)
                fail("node before ddg header");
            if (t.count < 2 || t.count > 3)
                fail(buildMessage("malformed node line: '",
                                  lines.text(), "'"));
            Opcode opcode = Opcode::IAlu;
            if (!opcodeFromString(t.at[1], opcode))
                fail(buildMessage("unknown opcode mnemonic '", t.at[1],
                                  "'"));
            // The label is optional.
            ddg.addNode(opcode, std::string(t.count == 3 ? t.at[2]
                                                         : ""));
        } else if (keyword == "edge") {
            if (!headerSeen)
                fail("edge before ddg header");
            int src = 0, dst = 0, lat = 0, dist = 0;
            if (t.count < 5 || t.count > 6 || !parseInt(t.at[1], src) ||
                !parseInt(t.at[2], dst) || !parseInt(t.at[3], lat) ||
                !parseInt(t.at[4], dist))
                fail(buildMessage("malformed edge line: '",
                                  lines.text(), "'"));
            // Validate here what Ddg::addEdge asserts: its asserts
            // guard against gpsched bugs (panic), but this data is
            // user input and must reject with a recoverable
            // diagnostic instead.
            if (src < 0 || src >= ddg.numNodes() || dst < 0 ||
                dst >= ddg.numNodes())
                fail(buildMessage("edge references unknown node: '",
                                  lines.text(), "'"));
            if (lat < 0 || dist < 0)
                fail(buildMessage("negative edge latency/distance: '",
                                  lines.text(), "'"));
            if (src == dst && dist < 1)
                fail(buildMessage("self edge must be loop-carried: '",
                                  lines.text(), "'"));
            // The kind is optional and defaults to flow.
            const std::string_view kindText =
                t.count == 6 ? t.at[5] : "flow";
            DepKind kind = DepKind::Flow;
            if (kindText == "order")
                kind = DepKind::Order;
            else if (kindText != "flow")
                fail(buildMessage("unknown edge kind '", kindText,
                                  "'"));
            if (kind == DepKind::Flow &&
                !definesValue(ddg.node(src).opcode))
                fail(buildMessage("flow edge from non-defining op ",
                                  toString(ddg.node(src).opcode),
                                  ": '", lines.text(), "'"));
            ddg.addEdge(src, dst, lat, dist, kind);
        } else if (keyword == "end") {
            if (!headerSeen)
                fail("end before ddg header");
            if (t.count != 1)
                fail(buildMessage("malformed end line: '", lines.text(),
                                  "'"));
            return ddg;
        } else {
            fail(buildMessage("unknown keyword '", keyword, "'"));
        }
    }
    fail("unexpected end of input while reading ddg");
    GPSCHED_PANIC("unreachable"); // fail() always throws
}

} // namespace

bool
isDdgTextToken(std::string_view text)
{
    for (char c : text) {
        if (c == '#' || isSpace(c))
            return false;
    }
    return !text.empty();
}

Ddg
readDdgText(std::istream &is)
{
    LineReader lines(is);
    return parseBlock(lines);
}

struct DdgBlockReader::State
{
    State(std::istream &is, std::string name, bool skipBad)
        : lines(is), source(std::move(name)), keepGoing(skipBad)
    {
    }

    LineReader lines;
    std::string source;
    bool keepGoing;
};

DdgBlockReader::DdgBlockReader(std::istream &is, std::string source,
                               bool keepGoing)
    : state_(std::make_unique<State>(is, std::move(source), keepGoing))
{
}

DdgBlockReader::~DdgBlockReader() = default;

bool
DdgBlockReader::next(DdgBlock &block)
{
    LineReader &lines = state_->lines;
    if (!lines.next())
        return false;
    lines.hold();
    block.source = state_->source;
    block.parseError.reset();
    try {
        block.ddg = parseBlock(lines);
    } catch (const CompileError &error) {
        if (!state_->keepGoing)
            throw;
        block.ddg = Ddg();
        block.parseError = error;
        // Resume at the next `ddg` line: the one after the failing
        // line, or the failing line itself when it is the header
        // that cut the block short (parseBlock held it).
        while (lines.next()) {
            if (lines.tokens().at[0] == "ddg") {
                lines.hold();
                break;
            }
        }
    }
    return true;
}

void
warnSkippedBlock(const DdgBlock &block)
{
    GPSCHED_WARN("skipping malformed DDG block in '", block.source,
                 "': ", block.parseError->what());
}

std::vector<DdgBlock>
readDdgBlocks(std::istream &is, const std::string &source,
              bool keepGoing)
{
    DdgBlockReader reader(is, source, keepGoing);
    std::vector<DdgBlock> blocks;
    for (DdgBlock block; reader.next(block);) {
        if (!block.parsed())
            warnSkippedBlock(block);
        blocks.push_back(std::move(block));
    }
    if (blocks.empty())
        GPSCHED_FATAL("no DDGs found in '", source, "'");
    return blocks;
}

std::ifstream
openDdgFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        GPSCHED_FATAL("cannot open DDG file '", path, "'");
    return in;
}

std::vector<DdgBlock>
readDdgFile(const std::string &path, bool keepGoing)
{
    std::ifstream in = openDdgFile(path);
    return readDdgBlocks(in, path, keepGoing);
}

} // namespace gpsched
