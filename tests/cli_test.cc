/**
 * @file
 * Regression tests driving the real mpress_cli and mpress-verify
 * binaries (paths injected as MPRESS_CLI_PATH / MPRESS_VERIFY_PATH at
 * compile time), and the example programs that take a model preset
 * (MPRESS_OOM_RESCUE_PATH / MPRESS_ZERO_COMPARISON_PATH).
 *
 * The exit-code contract is part of the CLI's interface:
 *   0  success
 *   1  usage/spec errors (unknown flag, unknown name, a value out
 *      of bounds, a job shape that cannot be built)
 *   2  malformed flag *value* — the bug class this pins: a numeric
 *      flag that does not parse used to throw std::invalid_argument
 *      out of std::stoi and crash with an uncaught exception
 *   3  plan rejected by verification
 *
 * The serve/CLI byte-identity acceptance also lives here: a plan
 * served over the daemon socket must equal, byte for byte, what
 * `mpress_cli --save-plan` writes for the same job; and
 * mpress-verify must judge a saved plan exactly as
 * `mpress_cli --load-plan` does for the same job flags.
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

RunResult
runVerify(const std::string &args)
{
    return runBinary(MPRESS_VERIFY_PATH, args);
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** @p text without its last line. */
std::string
dropLastLine(const std::string &text)
{
    std::size_t end = text.find_last_of('\n', text.size() - 2);
    return end == std::string::npos ? "" : text.substr(0, end + 1);
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
    // Past the 256-thread bound: rejected at parse time, so no pool
    // is ever built.
    EXPECT_EQ(runCli("--threads 257").exitCode, 1);
    // 4 nodes x 8 GPUs = 32 stages for a 26-layer model: a job shape
    // that cannot be built, rejected before any session (it used to
    // reach util::fatal in the partitioner).
    RunResult overflow = runCli("--model bert-0.35b --topology 4x-dgx1");
    EXPECT_EQ(overflow.exitCode, 1) << overflow.output;
    EXPECT_NE(overflow.output.find("32 pipeline stages"),
              std::string::npos)
        << overflow.output;
    EXPECT_NE(overflow.output.find("26 layers"), std::string::npos)
        << overflow.output;
}

TEST(CliExitCodes, WellFormedRunExits0)
{
    RunResult res = runCli(
        "--model bert-0.35b --strategy recompute --minibatches 1"
        " --mb-per-mini 2");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("samples/s"), std::string::npos);
}

TEST(ExampleExitCodes, OomRescueRejectsAnUnknownPresetBeforeOutput)
{
    // The preset used to be resolved inside the strategy loop, after
    // the header was printed, and ended in util::fatal.
    RunResult res = runBinary(MPRESS_OOM_RESCUE_PATH, "bogus-9b");
    EXPECT_EQ(res.exitCode, 1) << res.output;
    EXPECT_EQ(res.output,
              "oom_rescue: unknown model preset 'bogus-9b'\n");
}

TEST(ExampleExitCodes, ZeroComparisonRejectsAnUnknownPresetBeforeOutput)
{
    RunResult res = runBinary(MPRESS_ZERO_COMPARISON_PATH, "bogus-9b");
    EXPECT_EQ(res.exitCode, 1) << res.output;
    EXPECT_EQ(res.output,
              "zero_comparison: unknown model preset 'bogus-9b'\n");
}

TEST(ServeCliParity, ServedPlanEqualsSavedPlanBytes)
{
    // The acceptance contract of the daemon: a plan served over the
    // socket is byte-identical to what the CLI writes for the same
    // job (both go through the identical api:: parse + plan path,
    // and the daemon's resident cache may only change wall-clock).
    struct Job
    {
        const char *flags;
        const char *request;
    };
    const Job jobs[] = {
        {"", "{\"op\":\"plan\",\"id\":\"parity\"}"},
        {"--model bert-0.35b --strategy recompute",
         "{\"op\":\"plan\",\"id\":\"parity\",\"job\":{"
         "\"model\":\"bert-0.35b\",\"strategy\":\"recompute\"}}"},
        {"--model bert-1.67b --system gpipe --topology 2x-dgx1"
         " --microbatch 8",
         "{\"op\":\"plan\",\"id\":\"parity\",\"job\":{"
         "\"model\":\"bert-1.67b\",\"system\":\"gpipe\","
         "\"topology\":\"2x-dgx1\",\"microbatch\":8}}"},
    };

    sv::Server server({});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    sv::Client client;
    ASSERT_TRUE(client.connect(server.port(), &error)) << error;
    for (const Job &job : jobs) {
        std::string plan_file =
            ::testing::TempDir() + "serve_cli_parity_plan.txt";
        RunResult cli =
            runCli(std::string(job.flags) + " --save-plan " + plan_file);
        ASSERT_EQ(cli.exitCode, 0) << job.flags << "\n" << cli.output;
        std::string cli_plan = readText(plan_file);
        ASSERT_FALSE(cli_plan.empty()) << job.flags;
        std::remove(plan_file.c_str());

        std::string response;
        ASSERT_TRUE(client.call(job.request, &response, &error))
            << error;
        mu::ParsedJson doc = mu::jsonParse(response);
        ASSERT_TRUE(doc.ok) << doc.error;
        ASSERT_TRUE(doc.value.boolOr("ok", false)) << response;
        const mu::JsonValue *result = doc.value.find("result");
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result->stringOr("planText", "<missing>"), cli_plan)
            << job.flags;
    }
    server.stop();
}

TEST(VerifyCliParity, ClusterPlanFindingsMatchLoadPlan)
{
    // mpress-verify reads the same job flags as mpress_cli, cluster
    // presets included: a 2-node plan saved by the CLI verifies
    // clean, and a corrupted copy draws the same findings and
    // summary from both front ends.
    const std::string job = " --model bert-0.64b --topology 2x-dgx1";
    std::string plan_file = ::testing::TempDir() + "verify_parity.plan";
    RunResult saved = runCli("--save-plan " + plan_file + job);
    ASSERT_EQ(saved.exitCode, 0) << saved.output;

    RunResult clean = runVerify("--plan " + plan_file + job);
    EXPECT_EQ(clean.exitCode, 0) << clean.output;
    EXPECT_EQ(clean.output, plan_file + ": clean\n");
    RunResult by_cluster =
        runVerify("--plan " + plan_file +
                  " --model bert-0.64b --cluster 2x-dgx1");
    EXPECT_EQ(by_cluster.exitCode, 0) << by_cluster.output;

    std::string bad_file = writeTemp(
        "verify_parity_bad.plan",
        readText(plan_file) + "act 99 0 gpu-cpu-swap\n"
                              "grant 2 2 1073741824\n");
    std::remove(plan_file.c_str());
    RunResult verify = runVerify("--plan " + bad_file + job);
    RunResult cli = runCli("--load-plan " + bad_file + job);
    std::remove(bad_file.c_str());
    EXPECT_EQ(verify.exitCode, 3) << verify.output;
    EXPECT_EQ(cli.exitCode, 3) << cli.output;
    EXPECT_NE(verify.output.find("swap-unknown-tensor"),
              std::string::npos)
        << verify.output;
    // Same findings table; the last line is each tool's summary.
    EXPECT_EQ(dropLastLine(verify.output), dropLastLine(cli.output));
    const std::string summary = "2 errors, 1 warning\n";
    EXPECT_EQ(verify.output.substr(verify.output.size() -
                                   summary.size()),
              summary);
    EXPECT_EQ(cli.output.substr(cli.output.size() - summary.size()),
              summary);
}

TEST(CliSweep, HostileScenarioExits1BeforeAnyRuns)
{
    // Each bad scenario sits behind a good one; the whole spec is
    // read and resolved before the pool starts, so nothing runs and
    // no report is printed.
    const char *bad[][2] = {
        {"{\"microbatch\":\"12\"}", "\"microbatch\""},
        {"{\"microbatch\":1e30}", "\"microbatch\""},
        {"{\"minibatches\":-3}", "\"minibatches\""},
        {"{\"model\":\"bogus\"}", "model"},
        {"{\"topology\":\"nope\"}", "topology"},
        {"[1,2]", "JSON object"},
    };
    for (const auto &c : bad) {
        std::string spec = writeTemp(
            "hostile_sweep.json",
            std::string("{\"scenarios\":[{\"strategy\":\"none\"},") +
                c[0] + "]}");
        RunResult res = runCli("--sweep " + spec);
        EXPECT_EQ(res.exitCode, 1) << c[0] << "\n" << res.output;
        EXPECT_NE(res.output.find("sweep scenario 1: "),
                  std::string::npos)
            << c[0] << "\n" << res.output;
        EXPECT_NE(res.output.find(c[1]), std::string::npos)
            << c[0] << "\n" << res.output;
        EXPECT_EQ(res.output.find("\"rows\""), std::string::npos)
            << c[0] << "\n" << res.output;
        std::remove(spec.c_str());
    }
}
