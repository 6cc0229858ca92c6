/**
 * @file
 * End-to-end tests of the MPressSession public API: every strategy
 * runs through one code path and reports uniform results; and of the
 * JobSpec readers and resolver every front end shares.
 */

#include <vector>

#include <gtest/gtest.h>

#include "api/job.hh"
#include "api/session.hh"

namespace api = mpress::api;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace pl = mpress::pipeline;
namespace mu = mpress::util;

namespace {

api::SessionConfig
baseConfig(const std::string &preset, int mb,
           pl::SystemKind system)
{
    api::SessionConfig cfg;
    cfg.model = mm::presetByName(preset);
    cfg.microbatch = mb;
    cfg.system = system;
    cfg.numStages = 8;
    cfg.microbatchesPerMinibatch = 8;
    cfg.minibatches = 2;
    return cfg;
}

} // namespace

class StrategySweep : public ::testing::TestWithParam<api::Strategy>
{};

TEST_P(StrategySweep, MediumBertRunsOrFailsCleanly)
{
    auto cfg = baseConfig("bert-0.64b", 12,
                          pl::SystemKind::PipeDream);
    cfg.strategy = GetParam();
    auto result = api::runSession(hw::Topology::dgx1V100(), cfg);
    EXPECT_EQ(result.strategy, GetParam());
    EXPECT_FALSE(result.name.empty());
    if (!result.oom) {
        EXPECT_GT(result.samplesPerSec, 0.0);
        EXPECT_GT(result.tflops, 0.0);
        EXPECT_GT(result.maxGpuPeak, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySweep,
    ::testing::Values(api::Strategy::None, api::Strategy::Recompute,
                      api::Strategy::GpuCpuSwap,
                      api::Strategy::D2dOnly,
                      api::Strategy::MPressFull,
                      api::Strategy::ZeroOffload));

TEST(Session, Figure7MediumSizeOrdering)
{
    // Bert-0.64B on PipeDream/DGX-1 (Fig. 7 "medium"): the stock
    // system OOMs; all four memory-saving systems succeed; MPress
    // (D2D) beats recompute, which beats GPU-CPU swap.
    auto topo = hw::Topology::dgx1V100();
    auto run = [&](api::Strategy s) {
        auto cfg = baseConfig("bert-0.64b", 12,
                              pl::SystemKind::PipeDream);
        cfg.strategy = s;
        return api::runSession(topo, cfg);
    };
    auto none = run(api::Strategy::None);
    auto swap = run(api::Strategy::GpuCpuSwap);
    auto recomp = run(api::Strategy::Recompute);
    auto d2d = run(api::Strategy::D2dOnly);
    auto mpress = run(api::Strategy::MPressFull);

    EXPECT_TRUE(none.oom);
    ASSERT_FALSE(swap.oom);
    ASSERT_FALSE(recomp.oom);
    ASSERT_FALSE(d2d.oom);
    ASSERT_FALSE(mpress.oom);
    EXPECT_GT(recomp.tflops, swap.tflops);
    EXPECT_GT(d2d.tflops, recomp.tflops);
    EXPECT_GE(mpress.tflops, recomp.tflops);
}

TEST(Session, StrategyNames)
{
    EXPECT_STREQ(api::strategyName(api::Strategy::MPressFull),
                 "mpress");
    EXPECT_STREQ(api::strategyName(api::Strategy::ZeroInfinity),
                 "zero-infinity");
}

TEST(Session, AccessorsExposeJobPieces)
{
    auto cfg = baseConfig("bert-0.35b", 4, pl::SystemKind::Dapple);
    api::MPressSession session(hw::Topology::dgx1V100(), cfg);
    EXPECT_EQ(session.partition().numStages(), 8);
    EXPECT_EQ(session.schedule().system, pl::SystemKind::Dapple);
    EXPECT_EQ(session.model().microbatchSize(), 4);
    EXPECT_EQ(session.topology().numGpus(), 8);
}

TEST(Session, MemoryBalancedPartitionCostsThroughput)
{
    // Sec. II-D: memory-balanced partitioning avoids some imbalance
    // but pays in throughput (~34% on real hardware).
    auto topo = hw::Topology::dgx1V100();
    auto cfg = baseConfig("bert-0.35b", 12,
                          pl::SystemKind::PipeDream);
    cfg.strategy = api::Strategy::None;
    auto compute_balanced = api::runSession(topo, cfg);
    cfg.partition = mpress::partition::Strategy::MemoryBalanced;
    auto memory_balanced = api::runSession(topo, cfg);
    ASSERT_FALSE(compute_balanced.oom);
    ASSERT_FALSE(memory_balanced.oom);
    EXPECT_GT(compute_balanced.samplesPerSec,
              memory_balanced.samplesPerSec);
    // But it does flatten the memory profile.
    EXPECT_LT(memory_balanced.maxGpuPeak,
              compute_balanced.maxGpuPeak);
}

TEST(Session, ZeroStrategiesPopulateZeroReport)
{
    auto cfg = baseConfig("gpt-5.3b", 2, pl::SystemKind::Dapple);
    cfg.strategy = api::Strategy::ZeroOffload;
    auto result = api::runSession(hw::Topology::dgx1V100(), cfg);
    ASSERT_FALSE(result.oom);
    EXPECT_GT(result.zeroReport.iterTime, 0);
    EXPECT_EQ(result.report.gpus.size(), 0u);  // pipeline unused
}

namespace {

/** api::readJobFlag over a whole argument list. */
api::JobError
readFlags(std::vector<const char *> args, api::JobSpec *job,
          api::JobFlags accept = api::JobFlags::All)
{
    args.insert(args.begin(), "prog");
    char *const *argv = const_cast<char *const *>(args.data());
    const int argc = static_cast<int>(args.size());
    api::JobError err;
    for (int i = 1; i < argc && err.kind == api::JobErrorKind::None;
         ++i) {
        if (!api::readJobFlag(argc, argv, &i, accept, job, &err))
            err = {api::JobErrorKind::Invalid, "not a job flag"};
    }
    return err;
}

api::JobSpec
readJson(const std::string &text, std::string *err)
{
    api::JobSpec job;
    mu::ParsedJson doc = mu::jsonParse(text);
    EXPECT_TRUE(doc.ok) << doc.error;
    if (!api::readJobJson(doc.value, &job, err)) {
        EXPECT_FALSE(err->empty());
    }
    return job;
}

} // namespace

TEST(JobSpec, FlagsAndJsonReadTheSameJob)
{
    api::JobSpec from_flags;
    api::JobError err = readFlags(
        {"--model", "bert-1.67b", "--system", "gpipe", "--strategy",
         "d2d-only", "--topology", "2x-dgx1", "--verify-mode", "strict",
         "--microbatch", "8", "--mb-per-mini", "4", "--minibatches",
         "3", "--threads", "2", "--portfolio", "--analytic-prune",
         "--deadline-ms", "250", "--cluster", "2x-dgx2"},
        &from_flags);
    ASSERT_EQ(err.kind, api::JobErrorKind::None) << err.message;

    std::string json_err;
    api::JobSpec from_json = readJson(
        "{\"model\":\"bert-1.67b\",\"system\":\"gpipe\","
        "\"strategy\":\"d2d-only\",\"topology\":\"2x-dgx1\","
        "\"verifyMode\":\"strict\",\"microbatch\":8,\"mbPerMini\":4,"
        "\"minibatches\":3,\"threads\":2,\"portfolio\":true,"
        "\"analyticPrune\":true,\"deadlineMs\":250,"
        "\"cluster\":\"2x-dgx2\"}",
        &json_err);
    ASSERT_TRUE(json_err.empty()) << json_err;

    for (const api::JobSpec *job : {&from_flags, &from_json}) {
        EXPECT_EQ(job->model, "bert-1.67b");
        EXPECT_EQ(job->system, "gpipe");
        EXPECT_EQ(job->strategy, "d2d-only");
        EXPECT_EQ(job->topology, "2x-dgx1");
        EXPECT_EQ(job->cluster, "2x-dgx2");
        EXPECT_EQ(job->verifyMode, "strict");
        EXPECT_EQ(job->microbatch, 8);
        EXPECT_EQ(job->mbPerMini, 4);
        EXPECT_EQ(job->minibatches, 3);
        EXPECT_EQ(job->threads, 2);
        EXPECT_TRUE(job->portfolio);
        EXPECT_TRUE(job->analyticPrune);
        EXPECT_EQ(job->deadlineMs, 250.0);
    }
}

TEST(JobSpec, BothReadersEnforceTheSameBounds)
{
    struct Case
    {
        const char *flag, *json, *value;
        bool ok;
    };
    const Case cases[] = {
        {"--threads", "threads", "256", true},
        {"--threads", "threads", "257", false},
        {"--threads", "threads", "0", false},
        {"--microbatch", "microbatch", "4096", true},
        {"--microbatch", "microbatch", "4097", false},
        {"--mb-per-mini", "mbPerMini", "0", false},
        {"--minibatches", "minibatches", "-3", false},
        {"--deadline-ms", "deadlineMs", "1e9", true},
        {"--deadline-ms", "deadlineMs", "-1", false},
    };
    for (const Case &c : cases) {
        api::JobSpec job;
        api::JobError err = readFlags({c.flag, c.value}, &job);
        EXPECT_EQ(err.kind, c.ok ? api::JobErrorKind::None
                                 : api::JobErrorKind::Invalid)
            << c.flag << " " << c.value;
        std::string json_err;
        readJson(std::string("{\"") + c.json + "\":" + c.value + "}",
                 &json_err);
        EXPECT_EQ(json_err.empty(), c.ok) << c.json << " " << c.value;
    }

    // A flag value that does not parse is a different failure class
    // from one out of bounds; on the JSON side, type confusion and
    // an int-overflowing number are plain errors.
    api::JobSpec job;
    EXPECT_EQ(readFlags({"--microbatch", "12x"}, &job).kind,
              api::JobErrorKind::Malformed);
    EXPECT_EQ(readFlags({"--microbatch"}, &job).kind,
              api::JobErrorKind::Invalid);
    for (const char *text :
         {"{\"microbatch\":\"12\"}", "{\"microbatch\":1e30}",
          "{\"microbatch\":1.5}", "{\"portfolio\":1}",
          "{\"cluster\":3}"}) {
        std::string json_err;
        readJson(text, &json_err);
        EXPECT_FALSE(json_err.empty()) << text;
    }
}

TEST(JobSpec, ShapeFlagsLeavePlannerFlagsToTheCaller)
{
    api::JobSpec job;
    EXPECT_EQ(readFlags({"--model", "bert-0.35b", "--topology",
                         "2x-dgx1", "--microbatch", "4"},
                        &job, api::JobFlags::Shape)
                  .kind,
              api::JobErrorKind::None);
    for (const char *flag :
         {"--strategy", "--threads", "--portfolio", "--analytic-prune",
          "--deadline-ms", "--verify-mode"}) {
        std::vector<const char *> args = {"prog", flag, "1"};
        int i = 1;
        api::JobError err;
        EXPECT_FALSE(api::readJobFlag(
            3, const_cast<char *const *>(args.data()), &i,
            api::JobFlags::Shape, &job, &err))
            << flag;
        EXPECT_EQ(i, 1) << flag;
    }
}

TEST(JobSpec, ResolveBindsTheJobOrReturnsATypedError)
{
    api::JobSpec job;
    job.model = "bert-0.35b";
    job.topology = "2x-dgx1";
    job.strategy = "recompute";
    job.microbatch = 4;
    job.threads = 3;
    api::JobError err;
    std::optional<api::ResolvedJob> resolved =
        api::resolveJob(job, &err);
    ASSERT_TRUE(resolved.has_value()) << err.message;
    EXPECT_EQ(resolved->topo.numGpus(), 16);
    EXPECT_EQ(resolved->cfg.numStages, 16);
    EXPECT_EQ(resolved->cfg.model.name, "bert-0.35b");
    EXPECT_EQ(resolved->cfg.strategy, api::Strategy::Recompute);
    EXPECT_EQ(resolved->cfg.microbatch, 4);
    EXPECT_EQ(resolved->cfg.planner.threads, 3);

    struct Case
    {
        std::string api::JobSpec::*field;
        const char *value;
        api::JobErrorKind kind;
    };
    const Case cases[] = {
        {&api::JobSpec::model, "bert-999b", api::JobErrorKind::Invalid},
        {&api::JobSpec::topology, "tpu-pod", api::JobErrorKind::Invalid},
        {&api::JobSpec::system, "megatron", api::JobErrorKind::Invalid},
        {&api::JobSpec::strategy, "magic", api::JobErrorKind::Invalid},
        {&api::JobSpec::verifyMode, "lenient",
         api::JobErrorKind::Invalid},
        // 32 stages for 26 layers: caught before any session.
        {&api::JobSpec::topology, "4x-dgx1", api::JobErrorKind::Invalid},
        {&api::JobSpec::cluster, "{\"nodes\":",
         api::JobErrorKind::Invalid},
        {&api::JobSpec::cluster,
         "{\"name\":\"bad\",\"nodes\":65,\"node\":\"dgx2\","
         "\"nicsPerNode\":1}",
         api::JobErrorKind::Rejected},
    };
    for (const Case &c : cases) {
        api::JobSpec bad;
        bad.model = "bert-0.35b";
        bad.*c.field = c.value;
        api::JobError bad_err;
        std::string findings;
        EXPECT_FALSE(api::resolveJob(bad, &bad_err, &findings))
            << c.value;
        EXPECT_EQ(bad_err.kind, c.kind) << c.value;
        EXPECT_FALSE(bad_err.message.empty());
        if (c.kind == api::JobErrorKind::Rejected) {
            EXPECT_FALSE(findings.empty());
        }
    }

    EXPECT_EQ(static_cast<int>(api::JobErrorKind::None), 0);
    EXPECT_EQ(static_cast<int>(api::JobErrorKind::Invalid), 1);
    EXPECT_EQ(static_cast<int>(api::JobErrorKind::Malformed), 2);
    EXPECT_EQ(static_cast<int>(api::JobErrorKind::Rejected), 3);
}
