/**
 * @file
 * Tests for the declarative flag-parsing facade shared by the tools:
 * decoding into destinations, the built-in --help, uniform
 * diagnostics, and the generated usage text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hh"

namespace
{

using dfi::cli::FlagSet;
using dfi::cli::ParseResult;

/** argv adapter: gtest-friendly parse of a token list. */
ParseResult
parseTokens(FlagSet &flags, std::vector<std::string> tokens,
            std::string &error)
{
    std::vector<char *> argv;
    std::string name = "tool";
    argv.push_back(name.data());
    for (std::string &token : tokens)
        argv.push_back(token.data());
    return flags.parse(static_cast<int>(argv.size()), argv.data(),
                       error);
}

TEST(Cli, DecodesEveryFlagKindIntoItsDestination)
{
    bool verbose = false;
    bool acted = false;
    std::uint64_t runs = 0;
    std::uint32_t jobs = 0;
    double scale = 0.0;
    std::string out;
    std::string custom_value;

    FlagSet flags("tool", "[options]");
    flags.flag("--verbose", "chatty", &verbose);
    flags.flag("--act", "run the action", [&acted] { acted = true; });
    flags.uint64("--runs", "N", "run count", &runs);
    flags.uint32("--jobs", "N", "thread count", &jobs);
    flags.number("--scale", "F", "scale factor", &scale);
    flags.text("--out", "PATH", "output path", &out);
    flags.custom("--mode", "M", "a custom decoder",
                 [&custom_value](const std::string &text,
                                 std::string &error) {
                     if (text == "bad") {
                         error = "mode may not be bad";
                         return false;
                     }
                     custom_value = text;
                     return true;
                 });

    std::string error;
    EXPECT_EQ(parseTokens(flags,
                          {"--verbose", "--act", "--runs", "42",
                           "--jobs", "4", "--scale", "0.5", "--out",
                           "base", "--mode", "fast"},
                          error),
              ParseResult::Ok)
        << error;
    EXPECT_TRUE(verbose);
    EXPECT_TRUE(acted);
    EXPECT_EQ(runs, 42u);
    EXPECT_EQ(jobs, 4u);
    EXPECT_DOUBLE_EQ(scale, 0.5);
    EXPECT_EQ(out, "base");
    EXPECT_EQ(custom_value, "fast");
}

TEST(Cli, HelpIsBuiltIn)
{
    FlagSet flags("tool", "[options]");
    bool verbose = false;
    flags.flag("--verbose", "chatty", &verbose);

    std::string error;
    EXPECT_EQ(parseTokens(flags, {"--help"}, error),
              ParseResult::Help);
    EXPECT_EQ(parseTokens(flags, {"-h"}, error), ParseResult::Help);
    // --help wins even mid-line and touches no destination.
    EXPECT_EQ(parseTokens(flags, {"--verbose", "--help"}, error),
              ParseResult::Help);
}

TEST(Cli, UniformDiagnostics)
{
    FlagSet flags("tool", "[options]");
    std::uint64_t runs = 0;
    flags.uint64("--runs", "N", "run count", &runs, 100);
    flags.custom("--mode", "M", "a custom decoder",
                 [](const std::string &text, std::string &error) {
                     error = "never valid";
                     return false;
                 });

    std::string error;
    EXPECT_EQ(parseTokens(flags, {"--bogus"}, error),
              ParseResult::Error);
    EXPECT_EQ(error, "unknown option '--bogus' (try --help)");

    EXPECT_EQ(parseTokens(flags, {"--runs"}, error),
              ParseResult::Error);
    EXPECT_EQ(error, "missing value for --runs");

    EXPECT_EQ(parseTokens(flags, {"--runs", "12x"}, error),
              ParseResult::Error);
    EXPECT_NE(error.find("invalid value '12x' for --runs"),
              std::string::npos)
        << error;

    // Out-of-range (max 100) fails the strict numeric grammar too.
    EXPECT_EQ(parseTokens(flags, {"--runs", "101"}, error),
              ParseResult::Error);
    EXPECT_NE(error.find("--runs"), std::string::npos) << error;

    // Custom decoder reasons are wrapped with the flag name.
    EXPECT_EQ(parseTokens(flags, {"--mode", "x"}, error),
              ParseResult::Error);
    EXPECT_NE(error.find("invalid value 'x' for --mode"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("never valid"), std::string::npos) << error;

    // Positional tokens are rejected unless a slot was registered.
    EXPECT_EQ(parseTokens(flags, {"stray"}, error),
              ParseResult::Error);
    EXPECT_NE(error.find("stray"), std::string::npos) << error;
}

TEST(Cli, PositionalsCollectInOrder)
{
    FlagSet flags("tool", "[options] FILE...");
    bool verbose = false;
    flags.flag("--verbose", "chatty", &verbose);
    std::vector<std::string> files;
    flags.positionals("FILE...", "input files", &files);

    std::string error;
    EXPECT_EQ(parseTokens(flags, {"a", "--verbose", "b", "c"}, error),
              ParseResult::Ok)
        << error;
    EXPECT_TRUE(verbose);
    EXPECT_EQ(files, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Cli, UsageListsSectionsFlagsAndHelp)
{
    FlagSet flags("tool", "[options] FILE");
    flags.section("selection");
    std::string core;
    flags.text("--core", "NAME", "core model name", &core);
    flags.section("output");
    bool verbose = false;
    flags.flag("--verbose", "chatty with a\nsecond help line",
               &verbose);
    std::vector<std::string> files;
    flags.positionals("FILE", "the input", &files);

    const std::string usage = flags.usage();
    EXPECT_NE(usage.find("usage: tool [options] FILE"),
              std::string::npos)
        << usage;
    EXPECT_NE(usage.find("selection:"), std::string::npos) << usage;
    EXPECT_NE(usage.find("output:"), std::string::npos) << usage;
    EXPECT_NE(usage.find("--core NAME"), std::string::npos) << usage;
    EXPECT_NE(usage.find("core model name"), std::string::npos)
        << usage;
    EXPECT_NE(usage.find("second help line"), std::string::npos)
        << usage;
    EXPECT_NE(usage.find("--verbose"), std::string::npos) << usage;
}

TEST(Cli, ReopenedSectionListsItsFlagsTogether)
{
    // How a tool appends its own flags to the sections that
    // inject::bindCampaignFlags registered.
    bool a = false, b = false, c = false;
    FlagSet flags("tool", "[options]");
    flags.section("execution");
    flags.flag("--shared", "registered first", &a);
    flags.section("output");
    flags.flag("--timing", "a shared output flag", &b);
    flags.section("execution");
    flags.flag("--own", "the tool's own", &c);

    EXPECT_EQ(flags.usage(), "usage: tool [options]\n"
                             "\n"
                             "execution:\n"
                             "  --shared  registered first\n"
                             "  --own     the tool's own\n"
                             "\n"
                             "output:\n"
                             "  --timing  a shared output flag\n");
}

} // namespace
