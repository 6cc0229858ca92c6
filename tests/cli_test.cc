/**
 * @file
 * Regression tests driving the real mpress_cli and mpress-verify
 * binaries (paths injected as MPRESS_CLI_PATH / MPRESS_VERIFY_PATH at
 * compile time).
 *
 * The exit-code contract is part of the CLI's interface:
 *   0  success
 *   1  usage/spec errors (unknown flag, unknown name)
 *   2  malformed flag *value* — the bug class this pins: a numeric
 *      flag that does not parse used to throw std::invalid_argument
 *      out of std::stoi and crash with an uncaught exception
 *   3  plan rejected by verification
 *
 * The serve/CLI byte-identity acceptance also lives here: a plan
 * served over the daemon socket must equal, byte for byte, what
 * `mpress_cli --save-plan` writes for the same job.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json.hh"

namespace mu = mpress::util;
namespace sv = mpress::serve;

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string output;  ///< stdout + stderr, interleaved
};

/** Run @p binary with @p args, capturing output and exit status. */
RunResult
runBinary(const char *binary, const std::string &args)
{
    RunResult res;
    std::string cmd = std::string(binary) + " " + args + " 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return res;
    }
    char buf[512];
    while (std::fgets(buf, sizeof buf, p) != nullptr)
        res.output += buf;
    int status = ::pclose(p);
    if (WIFEXITED(status))
        res.exitCode = WEXITSTATUS(status);
    return res;
}

RunResult
runCli(const std::string &args)
{
    return runBinary(MPRESS_CLI_PATH, args);
}

} // namespace

TEST(CliExitCodes, MalformedIntFlagValueExits2)
{
    // Each of these used to throw std::invalid_argument /
    // std::out_of_range from std::stoi and die with SIGABRT.
    for (const char *args :
         {"--microbatch banana", "--microbatch ''",
          "--microbatch 2x", "--microbatch 99999999999999999999",
          "--mb-per-mini 1.5", "--minibatches --threads",
          "--threads 0x10"}) {
        RunResult res = runCli(args);
        EXPECT_EQ(res.exitCode, 2) << args << "\n" << res.output;
        EXPECT_NE(res.output.find("malformed value"),
                  std::string::npos)
            << args << "\n" << res.output;
    }
}

TEST(CliExitCodes, VerifyMalformedIntFlagValueExits2)
{
    // mpress-verify parses the same job flags (it has no --threads);
    // these used to abort it with an uncaught std::stoi exception.
    for (const char *args :
         {"--microbatch banana", "--microbatch ''",
          "--microbatch 2x", "--microbatch 99999999999999999999",
          "--mb-per-mini 1.5", "--minibatches --threads"}) {
        RunResult res = runBinary(MPRESS_VERIFY_PATH,
                                  std::string("--plan x ") + args);
        EXPECT_EQ(res.exitCode, 2) << args << "\n" << res.output;
        EXPECT_NE(res.output.find("malformed value"),
                  std::string::npos)
            << args << "\n" << res.output;
    }
}

TEST(CliExitCodes, MalformedDoubleFlagValueExits2)
{
    for (const char *args :
         {"--deadline-ms soon", "--deadline-ms 1e999",
          "--deadline-ms nan", "--deadline-ms 5ms"}) {
        RunResult res = runCli(args);
        EXPECT_EQ(res.exitCode, 2) << args << "\n" << res.output;
    }
}

TEST(CliExitCodes, UsageErrorsExit1)
{
    EXPECT_EQ(runCli("--frobnicate").exitCode, 1);
    EXPECT_EQ(runCli("--model").exitCode, 1);          // missing value
    EXPECT_EQ(runCli("--strategy warp-drive").exitCode, 1);
    EXPECT_EQ(runCli("--topology dgx9").exitCode, 1);
    EXPECT_EQ(runCli("--threads 0").exitCode, 1);      // parses, invalid
    EXPECT_EQ(runCli("--deadline-ms -1").exitCode, 1); // parses, invalid
}

TEST(CliExitCodes, WellFormedRunExits0)
{
    RunResult res = runCli(
        "--model bert-0.35b --strategy recompute --minibatches 1"
        " --mb-per-mini 2");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("samples/s"), std::string::npos);
}

TEST(ServeCliParity, ServedPlanEqualsSavedPlanBytes)
{
    // The acceptance contract of the daemon: a plan served over the
    // socket is byte-identical to what the CLI writes for the same
    // job (both go through the identical api:: parse + plan path,
    // and the daemon's resident cache may only change wall-clock).
    std::string plan_file =
        ::testing::TempDir() + "serve_cli_parity_plan.txt";
    RunResult cli = runCli("--save-plan " + plan_file);
    ASSERT_EQ(cli.exitCode, 0) << cli.output;
    std::ifstream in(plan_file);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string cli_plan = buf.str();
    ASSERT_FALSE(cli_plan.empty());
    std::remove(plan_file.c_str());

    sv::Server server({});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    sv::Client client;
    ASSERT_TRUE(client.connect(server.port(), &error)) << error;
    std::string response;
    ASSERT_TRUE(client.call("{\"op\":\"plan\",\"id\":\"parity\"}",
                            &response, &error))
        << error;
    server.stop();

    mu::ParsedJson doc = mu::jsonParse(response);
    ASSERT_TRUE(doc.ok) << doc.error;
    ASSERT_TRUE(doc.value.boolOr("ok", false)) << response;
    const mu::JsonValue *result = doc.value.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->stringOr("planText", "<missing>"), cli_plan);
}
