/**
 * @file
 * Cross-version output pins.  The determinism tests compare runs of
 * one build with each other, so a change that shifts every run the
 * same way passes them.  These tests compare against literal values
 * recorded from an earlier build instead: a hot-path rewrite of the
 * executor or the planner must leave every plan, report fingerprint
 * and fault counter below byte-identical.
 *
 * If a change is *meant* to alter simulated results, update the
 * literals in the same commit and say why in its message.
 */

#include <cstdint>
#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "api/job.hh"
#include "api/session.hh"
#include "compaction/serialize.hh"
#include "fault/scenario.hh"
#include "runtime/executor.hh"

namespace api = mpress::api;
namespace cp = mpress::compaction;
namespace ft = mpress::fault;
namespace hw = mpress::hw;
namespace mu = mpress::util;
namespace rt = mpress::runtime;

namespace {

/** 64-bit FNV-1a of @p text as 16 hex digits. */
std::string
digest(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Makespan, throughput (hexfloat, so no rounding hides a change),
 *  savings, fault counters and per-GPU peak/final bytes. */
std::string
fingerprint(const rt::TrainingReport &r)
{
    std::ostringstream os;
    os << r.oom << ":" << r.makespan << ":" << std::hexfloat
       << r.samplesPerSec << std::defaultfloat << ":"
       << r.savings.d2dSwap << ":" << r.savings.gpuCpuSwap << ":"
       << r.savings.recompute;
    const auto &f = r.faults;
    os << ":" << f.degradedTransfers << ":" << f.transferFailures
       << ":" << f.retries << ":" << f.fallbackGpuCpuSwap << ":"
       << f.fallbackRecompute << ":" << f.straggledTasks << ":"
       << f.hostPressureEvents << ":" << f.hostPressurePeak << ":"
       << f.healthyMinibatches << ":" << f.degradedMinibatches;
    for (const auto &g : r.gpus)
        os << ":" << g.peak << "/" << g.finalUsed;
    return os.str();
}

/** Resolve a job the way every front end does. */
api::ResolvedJob
resolve(api::JobSpec job)
{
    api::JobError err;
    auto resolved = api::resolveJob(job, &err);
    if (!resolved)
        ADD_FAILURE() << err.message;
    return std::move(resolved.value());
}

/** The compacted single-node job: gpt-5.3b / DAPPLE / dgx1 at
 *  microbatch 4, whose MPressFull plan uses GPU-CPU swap, D2D swap
 *  and recompute. */
api::MPressSession
compactedSession()
{
    api::JobSpec job;
    job.model = "gpt-5.3b";
    job.system = "dapple";
    job.microbatch = 4;
    auto resolved = resolve(job);
    return api::MPressSession(std::move(resolved.topo),
                              std::move(resolved.cfg));
}

} // namespace

TEST(CrossVersion, CompactedSingleNodePlanAndReport)
{
    const auto session = compactedSession();
    const auto result = session.run();
    ASSERT_FALSE(result.oom);
    ASSERT_GT(result.plan.countKind(cp::Kind::GpuCpuSwap), 0);
    ASSERT_GT(result.plan.countKind(cp::Kind::D2dSwap), 0);
    ASSERT_GT(result.plan.countKind(cp::Kind::Recompute), 0);
    EXPECT_EQ(digest(cp::planToText(result.plan)), "70e9bd344dcf3bc5");
    EXPECT_EQ(fingerprint(result.report),
              "0:10503425358:0x1.85f7d0387b7a6p+2:19713228800:"
              "52009369600:12582912000:0:0:0:0:0:0:0:0:0:0:"
              "29021002006/12459315200:28351302442/11800473600:"
              "28923486486/11800473600:27240755200/11800473600:"
              "22233139200/9833728000:23648716800/9833728000:"
              "16019660800/7866982400:27847389866/9833728000");
}

TEST(CrossVersion, FaultedReplayWalksTheWholeLadder)
{
    // Replay the planned job with every D2D stripe failing and no
    // retries, on a host pool too small to take every demoted stash
    // and no SSD: early demotions land on the host (fallback swap),
    // later ones on the bottom rung (fallback recompute).  The plan
    // is tight enough that it cannot absorb them all, so the replay
    // ends in a reported OOM; that outcome is pinned too.
    const auto session = compactedSession();
    const auto planned = session.run();
    ASSERT_FALSE(planned.oom);

    hw::Topology topo = session.topology();
    topo.setHostMemory(4 * mu::kGB);
    topo.setNvmeCapacity(0);
    ft::Scenario scenario;
    scenario.seed = 7;
    for (int g = 0; g < topo.numGpus(); ++g) {
        ft::FaultEvent fail;
        fail.kind = ft::EventKind::TransferFail;
        fail.start = 0;
        fail.end = 1000000 * mu::kMsec;
        fail.src = g;
        fail.probability = 1.0;
        scenario.events.push_back(fail);
    }
    rt::ExecutorConfig cfg = session.config().executor;
    cfg.faults = &scenario;
    cfg.maxTransferRetries = 0;
    const auto report =
        rt::runTraining(topo, session.model(), session.partition(),
                        session.schedule(), planned.plan, cfg);
    EXPECT_GT(report.faults.fallbackGpuCpuSwap, 0);
    EXPECT_GT(report.faults.fallbackRecompute, 0);
    EXPECT_EQ(fingerprint(report),
              "1:2132767556:0x0p+0:0:0:0:0:31:0:6:13:0:0:0:0:0:"
              "28968573206/28869529600:28023622442/27502899200:"
              "29028344086/28970905600:28158259200/28158259200:"
              "22023424000/17960192000:17960192000/13896960000:"
              "11143782400/7866982400:26086656000/22023424000");
}

TEST(CrossVersion, ShardedTwoNodePlanAndReport)
{
    // bert-1.67b / PipeDream / 2x-dgx1: a compacted plan (GPU-CPU
    // swap and recompute) replayed on two window-synchronised shards.
    api::JobSpec job;
    job.model = "bert-1.67b";
    job.topology = "2x-dgx1";
    const auto resolved = resolve(job);
    const auto result = api::runSession(resolved.topo, resolved.cfg);
    ASSERT_FALSE(result.oom);
    EXPECT_GT(result.report.simWindows, 0u);
    EXPECT_EQ(digest(cp::planToText(result.plan)), "003b35c11d9784b4");
    EXPECT_EQ(fingerprint(result.report),
              "0:14787577678:0x1.c03e534915736p+4:0:139783569408:"
              "99354673152:0:0:0:0:0:0:0:0:0:0:"
              "12823293952/2650009600:28176110592/2313507840:"
              "26557633536/2313507840:24939156480/2313507840:"
              "21702202368/2313507840:20083725312/2313507840:"
              "18465248256/2313507840:23320679424/2313507840:"
              "27680658432/2313507840:27680658432/2313507840:"
              "24509764608/2313507840:26095211520/2313507840:"
              "11055020032/1542338560:7884126208/1542338560:"
              "2235412480/616935424:14225913856/1542338560");
}
