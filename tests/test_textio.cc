/**
 * @file
 * Golden round-trip tests for the graph text format and the
 * Graphviz export: writing a DDG, reading it back and writing it
 * again must be a byte-for-byte fixed point, the parsed graph must
 * be structurally identical, and dot output must name every node
 * and edge of a fixture DDG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/ddg.hh"
#include "graph/ddg_builder.hh"
#include "graph/dot.hh"
#include "graph/textio.hh"
#include "support/compile_error.hh"
#include "support/random.hh"
#include "workload/fuzz.hh"
#include "workload/loop_shapes.hh"

using namespace gpsched;

namespace
{

/** Fixture with every serialized feature: both edge kinds, carried
 *  distances, labeled and unlabeled nodes, a non-default trip. */
Ddg
fixtureDdg()
{
    LatencyTable lat;
    DdgBuilder b("fixture", lat);
    NodeId ld = b.op(Opcode::Load, "ld");
    NodeId mul = b.op(Opcode::FMul, "mul");
    NodeId acc = b.op(Opcode::FAdd, "acc");
    NodeId st = b.op(Opcode::Store, "st");
    NodeId iv = b.op(Opcode::IAlu);
    b.flow(ld, mul);
    b.flow(mul, acc);
    b.carried(acc, acc, 1);
    b.flow(acc, st);
    b.flow(iv, ld);
    b.carried(iv, iv, 1);
    b.order(st, ld, 2);
    return b.tripCount(37).build();
}

std::string
toText(const Ddg &g)
{
    std::ostringstream oss;
    writeDdgText(oss, g);
    return oss.str();
}

Ddg
fromText(const std::string &text)
{
    std::istringstream iss(text);
    return readDdgText(iss);
}

void
expectSameGraph(const Ddg &a, const Ddg &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.tripCount(), b.tripCount());
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (NodeId v = 0; v < a.numNodes(); ++v) {
        EXPECT_EQ(a.node(v).opcode, b.node(v).opcode) << "node " << v;
        EXPECT_EQ(a.node(v).label, b.node(v).label) << "node " << v;
    }
    for (EdgeId e = 0; e < a.numEdges(); ++e) {
        EXPECT_EQ(a.edge(e).src, b.edge(e).src) << "edge " << e;
        EXPECT_EQ(a.edge(e).dst, b.edge(e).dst) << "edge " << e;
        EXPECT_EQ(a.edge(e).latency, b.edge(e).latency)
            << "edge " << e;
        EXPECT_EQ(a.edge(e).distance, b.edge(e).distance)
            << "edge " << e;
        EXPECT_EQ(a.edge(e).kind, b.edge(e).kind) << "edge " << e;
    }
}

} // namespace

TEST(TextIoGolden, WriteReadWriteIsAFixedPoint)
{
    Ddg g = fixtureDdg();
    std::string once = toText(g);
    Ddg parsed = fromText(once);
    std::string twice = toText(parsed);
    EXPECT_EQ(once, twice);
    expectSameGraph(g, parsed);
}

TEST(TextIoGolden, RandomLoopsRoundTrip)
{
    LatencyTable lat;
    Rng master(0x601dULL);
    for (int i = 0; i < 25; ++i) {
        Rng rng(master.next());
        RandomLoopParams params;
        params.numOps = 4 + static_cast<int>(rng.nextBelow(40));
        params.memFraction = rng.nextDouble() * 0.5;
        params.carriedProb = rng.nextDouble() * 0.4;
        Ddg g = randomLoop("rt" + std::to_string(i), lat, rng,
                           params);
        std::string once = toText(g);
        Ddg parsed = fromText(once);
        EXPECT_EQ(once, toText(parsed)) << "loop " << i;
        expectSameGraph(g, parsed);
    }
}

TEST(TextIoGolden, ReaderToleratesCommentsAndBlankLines)
{
    std::string text = "# a comment\n"
                       "\n"
                       "ddg tiny 5\n"
                       "node ialu a # trailing comment\n"
                       "node ialu\n"
                       "edge 0 1 1 0 order\n"
                       "end\n";
    Ddg g = fromText(text);
    EXPECT_EQ(g.name(), "tiny");
    EXPECT_EQ(g.tripCount(), 5);
    EXPECT_EQ(g.numNodes(), 2);
    ASSERT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.edge(0).kind, DepKind::Order);
    // Round-tripping the hand-written form is also a fixed point.
    EXPECT_EQ(toText(g), toText(fromText(toText(g))));
}

TEST(TextIoBlocks, StrictReadThrowsAndAnEmptyStreamIsFatal)
{
    std::istringstream bad("ddg ok 4\nnode ialu a\nend\n"
                           "ddg bad 4\nnode nope b\nend\n");
    EXPECT_THROW(readDdgBlocks(bad, "bad", false), CompileError);

    std::istringstream trailing("ddg ok 4\nnode ialu a\nend\n"
                                "# trailing comment\n\n");
    std::vector<DdgBlock> blocks =
        readDdgBlocks(trailing, "trailing", false);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].source, "trailing");

    std::istringstream empty("# only a comment\n\n");
    EXPECT_EXIT(readDdgBlocks(empty, "empty.ddg", true),
                testing::ExitedWithCode(1),
                "no DDGs found in 'empty.ddg'");
}

// Parity of the stream readers over a fuzz corpus (`ddg_fuzz gen
// --seed 1 --count 500`): round trips are exact, and reading block by
// block with a tellg/seekg peek between blocks (the benchmark's
// set-up loop does this) leaves the stream exactly where the next
// block starts, giving the same graphs as readDdgBlocks.
TEST(TextIoParity, FuzzCorpusReadsTheSameEveryWay)
{
    constexpr int kLoops = 500;
    LatencyTable lat;
    const std::string path = testing::TempDir() + "textio_parity.ddg";
    {
        std::ofstream out(path);
        fuzz::writeCorpus(out, 1, kLoops, lat);
    }

    std::vector<DdgBlock> blocks = readDdgFile(path, false);
    ASSERT_EQ(blocks.size(), static_cast<std::size_t>(kLoops));
    for (int i = 0; i < kLoops; ++i) {
        SCOPED_TRACE("loop " + std::to_string(i));
        const Ddg &g = blocks[i].ddg;
        expectSameGraph(fuzz::corpusCase(1, i, lat).ddg, g);
        expectSameGraph(g, fromText(toText(g)));
    }

    std::ifstream in(path);
    int read = 0;
    for (;;) {
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
        ASSERT_LT(read, kLoops);
        SCOPED_TRACE("peeked loop " + std::to_string(read));
        expectSameGraph(blocks[read].ddg, readDdgText(in));
        ++read;
    }
    EXPECT_EQ(read, kLoops);
    std::remove(path.c_str());
}

TEST(TextIoBlocks, KeepGoingResumesAtTheNextHeaderOnAPipe)
{
    // A non-seekable stream: readDdgBlocks never seeks. A block
    // without `end` fails, and its successor still parses.
    std::stringbuf buf("ddg ok 4\nnode ialu a\nend\n"
                       "ddg bad 4\nnode ialu a\nedge 0 1 1 0\n"
                       "node ialu b\nend\n"
                       "# between blocks\n"
                       "ddg open 4\nnode ialu a\n"
                       "ddg ok2 4\nnode ialu a\nend\n");
    struct NoSeek : std::streambuf
    {
        explicit NoSeek(std::streambuf &src) : src_(src) {}
        int_type underflow() override
        {
            int_type c = src_.sgetc();
            if (c != traits_type::eof()) {
                ch_ = traits_type::to_char_type(src_.sbumpc());
                setg(&ch_, &ch_, &ch_ + 1);
            }
            return c;
        }
        std::streambuf &src_;
        char ch_ = 0;
    } pipe(buf);
    std::istream is(&pipe);
    std::vector<DdgBlock> blocks = readDdgBlocks(is, "pipe", true);
    ASSERT_EQ(blocks.size(), 4u);
    EXPECT_TRUE(blocks[0].parsed());
    EXPECT_FALSE(blocks[1].parsed());
    EXPECT_EQ(blocks[1].parseError->loopName(), "bad");
    EXPECT_FALSE(blocks[2].parsed());
    EXPECT_EQ(blocks[2].parseError->loopName(), "open");
    EXPECT_TRUE(blocks[3].parsed());
    EXPECT_EQ(blocks[3].ddg.name(), "ok2");
}

TEST(DotGolden, NamesEveryNodeAndEdge)
{
    Ddg g = fixtureDdg();
    std::ostringstream oss;
    writeDot(oss, g);
    std::string dot = oss.str();

    EXPECT_NE(dot.find("digraph \"fixture\""), std::string::npos);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        std::string decl = "n" + std::to_string(v) + " [label=\"" +
                           g.node(v).label + "\\n" +
                           toString(g.node(v).opcode) + "\"";
        EXPECT_NE(dot.find(decl), std::string::npos)
            << "node " << v << " not declared in dot output";
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        std::string arrow = "n" + std::to_string(g.edge(e).src) +
                            " -> n" +
                            std::to_string(g.edge(e).dst) + " [";
        EXPECT_NE(dot.find(arrow), std::string::npos)
            << "edge " << e << " not drawn in dot output";
    }
}

TEST(DotGolden, UnassignedClusterEntriesStayUncolored)
{
    Ddg g = fixtureDdg();
    std::vector<int> clusters(static_cast<std::size_t>(g.numNodes()),
                              -1);
    clusters[0] = 0;
    std::ostringstream oss;
    writeDot(oss, g, &clusters);
    std::string dot = oss.str();
    // Exactly one node is colored; the -1 ("unassigned") entries
    // must not index the palette.
    EXPECT_EQ(dot.find("fillcolor="), dot.rfind("fillcolor="));
    EXPECT_NE(dot.find("fillcolor="), std::string::npos);
    // Edges touching unassigned nodes are not cut edges.
    EXPECT_EQ(dot.find("style=dashed"), std::string::npos);
}

TEST(DotGolden, ClusterMapColorsNodesAndDashesCutEdges)
{
    Ddg g = fixtureDdg();
    std::vector<int> clusters(static_cast<std::size_t>(g.numNodes()),
                              0);
    clusters[1] = 1; // put "mul" alone on cluster 1
    std::ostringstream oss;
    writeDot(oss, g, &clusters);
    std::string dot = oss.str();
    EXPECT_NE(dot.find("fillcolor="), std::string::npos);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}
