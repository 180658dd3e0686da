/**
 * @file
 * Unit tests for the JSON DDG importer (workload/import.hh): the
 * documented schema imports correctly in all three top-level forms
 * (single loop, {"loops": [...]}, bare array), defaults resolve in
 * the documented priority (per-edge latency > node latency > table),
 * and every malformed input is rejected with a recoverable
 * CompileError whose message carries a file:line pointer at the
 * offending JSON value — NaN and negative latencies, dangling edge
 * indices, overhead opcodes, bad dependence kinds, zero-distance
 * self-edges among them.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "machine/op.hh"
#include "support/compile_error.hh"
#include "workload/fuzz.hh"
#include "workload/import.hh"

using namespace gpsched;

namespace
{

std::vector<Ddg>
importText(const std::string &json)
{
    std::istringstream is(json);
    LatencyTable lat;
    return importDdgJson(is, "t.json", lat);
}

/** Asserts the import rejects with Parse kind and a diagnostic
 *  containing "t.json:" plus @p fragment. */
void
expectReject(const std::string &json, const std::string &fragment)
{
    try {
        importText(json);
        ADD_FAILURE() << "expected rejection containing '" << fragment
                      << "', but the import succeeded";
    } catch (const CompileError &e) {
        EXPECT_EQ(e.kind(), CompileErrorKind::Parse) << e.what();
        std::string message = e.what();
        EXPECT_NE(message.find("t.json:"), std::string::npos)
            << "diagnostic lacks the file:line pointer: " << message;
        EXPECT_NE(message.find(fragment), std::string::npos)
            << "diagnostic '" << message << "' lacks '" << fragment
            << "'";
        // The throwing guard itself is located too.
        EXPECT_NE(e.location().find("import.cc"), std::string::npos);
    }
}

} // namespace

// ---------------------------------------------------------------------
// Happy paths: the documented schema, all three top-level forms.
// ---------------------------------------------------------------------

TEST(Import, ImportsTheDocumentedSchema)
{
    auto loops = importText(R"({
      "loops": [
        {
          "name": "daxpy", "trip": 256,
          "nodes": [
            {"op": "load", "label": "x[i]", "latency": 3},
            {"op": "fmul"},
            {"op": "store"}
          ],
          "edges": [
            {"src": 0, "dst": 1, "latency": 3, "distance": 0,
             "kind": "flow"},
            {"src": 1, "dst": 2},
            {"src": 2, "dst": 2, "distance": 1, "kind": "order"}
          ]
        },
        {"name": "tiny", "nodes": [{"op": "ialu"}]}
      ]
    })");

    ASSERT_EQ(loops.size(), 2u);
    const Ddg &g = loops[0];
    EXPECT_EQ(g.name(), "daxpy");
    EXPECT_EQ(g.tripCount(), 256);
    ASSERT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.node(0).opcode, Opcode::Load);
    EXPECT_EQ(g.node(0).label, "x[i]");
    EXPECT_EQ(g.node(1).opcode, Opcode::FMul);
    ASSERT_EQ(g.numEdges(), 3);
    EXPECT_EQ(g.edge(0).latency, 3);
    EXPECT_TRUE(g.edge(0).isFlow());
    EXPECT_EQ(g.edge(2).kind, DepKind::Order);
    EXPECT_EQ(g.edge(2).distance, 1);

    EXPECT_EQ(loops[1].name(), "tiny");
    EXPECT_EQ(loops[1].tripCount(), 100) << "trip defaults to 100";
}

TEST(Import, AcceptsSingleLoopAndBareArrayForms)
{
    auto single = importText(
        R"({"name": "solo", "nodes": [{"op": "ialu"}]})");
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].name(), "solo");

    auto array = importText(
        R"([{"nodes": [{"op": "ialu"}]}, {"nodes": [{"op": "load"}]}])");
    EXPECT_EQ(array.size(), 2u);
    EXPECT_EQ(array[0].name(), "imported") << "name defaults";
}

TEST(Import, EdgeLatencyDefaultsToProducerNodeLatency)
{
    // Node 0 overrides its latency to 7; the edge omits "latency",
    // so it inherits 7 — not the table's Load latency.
    auto loops = importText(R"({
      "name": "defaults",
      "nodes": [{"op": "load", "latency": 7}, {"op": "ialu"}],
      "edges": [{"src": 0, "dst": 1}]
    })");
    ASSERT_EQ(loops.size(), 1u);
    ASSERT_EQ(loops[0].numEdges(), 1);
    EXPECT_EQ(loops[0].edge(0).latency, 7);

    // Without a node override the table default flows through.
    LatencyTable lat;
    auto tableDefault = importText(R"({
      "name": "defaults2",
      "nodes": [{"op": "load"}, {"op": "ialu"}],
      "edges": [{"src": 0, "dst": 1}]
    })");
    EXPECT_EQ(tableDefault[0].edge(0).latency,
              lat.latency(Opcode::Load));
}

TEST(Import, ImportedLoopsSurviveTheFullPipeline)
{
    auto loops = importText(R"({
      "name": "pipeline",
      "trip": 64,
      "nodes": [
        {"op": "load"}, {"op": "fmul"}, {"op": "fadd"},
        {"op": "store"}
      ],
      "edges": [
        {"src": 0, "dst": 1}, {"src": 1, "dst": 2},
        {"src": 2, "dst": 3},
        {"src": 2, "dst": 2, "distance": 1}
      ]
    })");
    ASSERT_EQ(loops.size(), 1u);
    auto configs = fuzz::fuzzConfigs(fuzz::fuzzMachines(""));
    fuzz::FuzzCaseResult r = fuzz::runFuzzCase(loops[0], configs);
    for (const fuzz::FuzzFailure &f : r.failures)
        ADD_FAILURE() << f.toString();
    EXPECT_GT(r.pairsCompiled, 0);
}

// ---------------------------------------------------------------------
// Rejections: every guard fires with a file:line diagnostic.
// ---------------------------------------------------------------------

TEST(Import, RejectsNaNAndNegativeLatencies)
{
    expectReject(
        R"({"name": "l", "nodes": [{"op": "load", "latency": nan}]})",
        "is NaN");
    expectReject(
        R"({"name": "l", "nodes": [{"op": "load", "latency": NaN}]})",
        "is NaN");
    expectReject(
        R"({"name": "l", "nodes": [{"op": "load", "latency": -2}]})",
        "out of range");
    expectReject(
        R"({"name": "l", "nodes": [{"op": "load", "latency": 1.5}]})",
        "must be an integer");
    expectReject(R"({"name": "l",
                     "nodes": [{"op": "load"}, {"op": "ialu"}],
                     "edges": [{"src": 0, "dst": 1,
                                "latency": inf}]})",
                 "is infinite");
}

TEST(Import, RejectsDanglingEdgeIndices)
{
    const char *base = R"({"name": "l",
                           "nodes": [{"op": "load"}, {"op": "ialu"}],
                           "edges": [%s]})";
    auto with = [&base](const std::string &edge) {
        std::string s = base;
        return s.replace(s.find("%s"), 2, edge);
    };
    expectReject(with(R"({"src": 9, "dst": 1})"),
                 "edge src 9 out of range");
    expectReject(with(R"({"src": 0, "dst": 2})"),
                 "edge dst 2 out of range");
    expectReject(with(R"({"src": -1, "dst": 1})"),
                 "out of range");
    expectReject(with(R"({"dst": 1})"), "out of range")
        ;  // src defaults to -1 → caught by the range guard
}

TEST(Import, RejectsBadOpcodesKindsAndShapes)
{
    expectReject(R"({"name": "l", "nodes": [{"op": "frobnicate"}]})",
                 "unknown opcode");
    expectReject(R"({"name": "l", "nodes": [{"op": "buscopy"}]})",
                 "scheduler overhead");
    expectReject(R"({"name": "l",
                     "nodes": [{"op": "load"}, {"op": "ialu"}],
                     "edges": [{"src": 0, "dst": 1,
                                "kind": "antidep"}]})",
                 "unknown edge kind");
    expectReject(R"({"name": "l", "nodes": [{"op": "ialu"}],
                     "edges": [{"src": 0, "dst": 0}]})",
                 "requires distance >= 1");
    expectReject(R"({"name": "l",
                     "nodes": [{"op": "store"}, {"op": "ialu"}],
                     "edges": [{"src": 0, "dst": 1,
                                "kind": "flow"}]})",
                 "defines no value");
    expectReject(R"({"name": "l", "trip": 0,
                     "nodes": [{"op": "ialu"}]})",
                 "out of range");
}

TEST(Import, RejectsNamesAndLabelsTheTextFormatCannotHold)
{
    // writeDdgText emits names and labels as single fields.
    expectReject(R"({"name": "l", "nodes": [{"op": "ialu",
                                            "label": "a b"}]})",
                 "\"label\" must be one token");
    expectReject(R"({"name": "l", "nodes": [{"op": "ialu",
                                            "label": "a#b"}]})",
                 "\"label\" must be one token");
    expectReject(R"({"name": "my loop", "nodes": [{"op": "ialu"}]})",
                 "\"name\" must be one token");
    expectReject(R"({"name": "", "nodes": [{"op": "ialu"}]})",
                 "\"name\" must be one token");
    // An empty label still means "auto-label".
    EXPECT_EQ(importText(R"({"nodes": [{"op": "ialu", "label": ""}]})")
                  .front()
                  .node(0)
                  .label,
              "ialu0");
}

TEST(Import, RejectsStructurallyEmptyDocuments)
{
    expectReject(R"({"name": "l"})",
                 "neither \"loops\" nor \"nodes\"");
    expectReject(R"({"name": "l", "nodes": []})", "\"nodes\" is empty");
    expectReject(R"({"loops": []})", "no loops in input");
    expectReject(R"(42)", "must be an object or array");
    expectReject(R"({"nodes": [{"op": "ialu"}]} trailing)",
                 "trailing content");
    expectReject(R"({"nodes": [{"op": "ialu)", "unterminated string");
}

TEST(Import, DiagnosticLinePointsAtTheOffendingValue)
{
    // The NaN sits on line 5 of this document.
    const std::string json = "{\n"
                             "  \"name\": \"l\",\n"
                             "  \"nodes\": [\n"
                             "    {\"op\": \"load\",\n"
                             "     \"latency\": nan}\n"
                             "  ]\n"
                             "}\n";
    try {
        importText(json);
        FAIL() << "NaN latency must be rejected";
    } catch (const CompileError &e) {
        std::string message = e.what();
        EXPECT_NE(message.find("t.json:5:"), std::string::npos)
            << message;
        EXPECT_EQ(e.loopName(), "l")
            << "the loop name was known by the time the guard fired";
    }
}
