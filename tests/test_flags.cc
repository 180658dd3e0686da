/**
 * @file
 * Unit tests for the shared command-line flag table
 * (support/flags.hh): every value kind's accept and reject rules,
 * the --jobs cap, the error rule's exit status, and the generated
 * usage text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/gp_scheduler.hh"
#include "support/flags.hh"

using namespace gpsched;

namespace
{

/** One destination per value kind. */
struct Dests
{
    bool smoke = false;
    int jobs = 1;
    std::uint64_t seed = 7;
    std::string json;
    std::vector<std::string> machines;
    SchedulerKind scheme = SchedulerKind::Gp;
};

FlagTable
tableFor(Dests &d)
{
    FlagTable flags("prog");
    flags.flag("--smoke", &d.smoke, "tiny workload")
        .jobs(&d.jobs)
        .u64("--seed", &d.seed, "corpus seed")
        .text("--json", &d.json, "PATH", "report path")
        .list("--machines", &d.machines, "LIST", "machine sweep")
        .choice("--scheme", &d.scheme, schemeChoices(), "scheme");
    return flags;
}

struct RejectCase
{
    std::vector<std::string> args;
    std::string error;
};

} // namespace

TEST(Flags, RejectsEachMalformedInputNamingFlagAndText)
{
    const std::vector<RejectCase> cases = {
        {{"--json"}, "--json needs a value"},
        {{"--bogus"}, "unknown option '--bogus'"},
        {{"--jobs", "1025"},
         "--jobs needs an integer in [0, 1024], got '1025'"},
        {{"--jobs", "-1"},
         "--jobs needs an integer in [0, 1024], got '-1'"},
        {{"--jobs", "4x"},
         "--jobs needs an integer in [0, 1024], got '4x'"},
        {{"--seed", "-1"},
         "--seed needs an unsigned integer (decimal or 0x-hex), got "
         "'-1'"},
        {{"--seed", "+1"},
         "--seed needs an unsigned integer (decimal or 0x-hex), got "
         "'+1'"},
        {{"--seed", "18446744073709551616"},
         "--seed needs an unsigned integer (decimal or 0x-hex), got "
         "'18446744073709551616'"},
        {{"--machines", ",,"},
         "--machines needs a comma-separated list with at least one "
         "entry, got ',,'"},
        {{"--scheme", "fast"},
         "--scheme needs one of uracam|fixed|gp, got 'fast'"},
        {{"loop.ddg"}, "unexpected argument 'loop.ddg'"},
    };
    for (const RejectCase &c : cases) {
        Dests d;
        FlagParse result = tableFor(d).tryParse(c.args);
        EXPECT_EQ(result.error, c.error) << c.args.front();
        EXPECT_FALSE(result.help);
    }
}

TEST(Flags, AcceptsEveryKind)
{
    Dests d;
    FlagParse result = tableFor(d).tryParse(
        {"--smoke", "--jobs", "0", "--seed", "0xf022c0de5eed", "--json",
         "-", "--machines", "a,,b", "--machines", "c", "--scheme",
         "fixed"});
    EXPECT_EQ(result.error, "");
    EXPECT_TRUE(d.smoke);
    EXPECT_EQ(d.jobs, 0);
    EXPECT_EQ(d.seed, 0xf022c0de5eedULL);
    EXPECT_EQ(d.json, "-");
    EXPECT_EQ(d.machines, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(d.scheme, SchedulerKind::FixedPartition);
}

TEST(Flags, JobsCapIsTheLastAcceptedValue)
{
    Dests d;
    EXPECT_EQ(tableFor(d).tryParse({"--jobs", "1024"}).error, "");
    EXPECT_EQ(d.jobs, kMaxJobs);
    EXPECT_NE(tableFor(d).tryParse({"--jobs", "1048576"}).error, "");
    EXPECT_EQ(d.jobs, kMaxJobs) << "a rejected value is never stored";
}

TEST(Flags, U64RejectsSignsTheOldStoullRuleWrapped)
{
    // std::stoull("-1", .., 0) returns 2^64-1; a seed must not.
    EXPECT_FALSE(parseU64Text("-1").has_value());
    EXPECT_FALSE(parseU64Text(" 1").has_value());
    EXPECT_FALSE(parseU64Text("0x").has_value());
    EXPECT_EQ(parseU64Text("0xf022c0de5eed"), 0xf022c0de5eedULL);
    EXPECT_EQ(parseU64Text("18446744073709551615"),
              18446744073709551615ULL);
    EXPECT_EQ(parseCountText("0x10", 0, 100), std::nullopt);
    EXPECT_EQ(parseCountText("010", 0, 100), 10);
}

TEST(Flags, HelpAndOperands)
{
    Dests d;
    FlagTable withFiles("prog", "<ddg-file>...");
    withFiles.jobs(&d.jobs);
    FlagParse result =
        withFiles.tryParse({"a.ddg", "--jobs", "2", "-", "b.ddg"});
    EXPECT_EQ(result.error, "");
    EXPECT_EQ(result.operands,
              (std::vector<std::string>{"a.ddg", "-", "b.ddg"}));
    EXPECT_TRUE(tableFor(d).tryParse({"--help", "--bogus"}).help);
}

TEST(Flags, UsageListsEachDeclaredFlagOnce)
{
    Dests d;
    const std::string usage = tableFor(d).usage();
    for (const char *name : {"--smoke", "--jobs", "--seed", "--json",
                             "--machines", "--scheme"}) {
        std::size_t first = usage.find(std::string(name) + " ");
        ASSERT_NE(first, std::string::npos) << name;
        EXPECT_EQ(usage.find(std::string(name) + " ", first + 1),
                  std::string::npos)
            << name << " listed twice:\n" << usage;
    }
    EXPECT_NE(usage.find("uracam|fixed|gp"), std::string::npos);
    EXPECT_NE(usage.find("(default gp)"), std::string::npos);
}

TEST(FlagsDeathTest, UsageErrorsExitTwoNamingTheFlag)
{
    Dests d;
    FlagTable flags = tableFor(d);
    char prog[] = "prog", jobs[] = "--jobs", value[] = "4096";
    char *argv[] = {prog, jobs, value};
    EXPECT_EXIT(flags.parse(3, argv), testing::ExitedWithCode(2),
                "prog: --jobs needs an integer in \\[0, 1024\\], got "
                "'4096'");
}
