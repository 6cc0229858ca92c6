/**
 * @file
 * Unit tests for the compaction library: plan types, D2D striping
 * (equal and bandwidth-weighted) and the swap metadata table.
 */

#include <gtest/gtest.h>

#include "compaction/metadata.hh"
#include "compaction/plan.hh"
#include "compaction/striping.hh"
#include "hw/topology.hh"

namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mu = mpress::util;

TEST(Plan, DefaultsAndLookup)
{
    cp::CompactionPlan plan;
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.kindFor({0, 3}), cp::Kind::None);
    EXPECT_EQ(plan.gpuForStage(5), 5);  // identity mapping

    plan.activations[{0, 3}] = cp::Kind::D2dSwap;
    plan.activations[{0, 4}] = cp::Kind::Recompute;
    plan.activations[{1, 9}] = cp::Kind::Recompute;
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.kindFor({0, 3}), cp::Kind::D2dSwap);
    EXPECT_EQ(plan.countKind(cp::Kind::Recompute), 2);
    EXPECT_EQ(plan.countKind(cp::Kind::GpuCpuSwap), 0);

    plan.stageToGpu = {7, 6, 5, 4, 3, 2, 1, 0};
    EXPECT_EQ(plan.gpuForStage(0), 7);
}

TEST(Plan, KindNames)
{
    EXPECT_STREQ(cp::kindName(cp::Kind::None), "none");
    EXPECT_STREQ(cp::kindName(cp::Kind::Recompute), "recompute");
    EXPECT_STREQ(cp::kindName(cp::Kind::GpuCpuSwap), "gpu-cpu-swap");
    EXPECT_STREQ(cp::kindName(cp::Kind::D2dSwap), "d2d-swap");
}

TEST(Striping, StripesSumToTensorSize)
{
    auto topo = hw::Topology::dgx1V100();
    std::vector<cp::SpareGrant> grants = {
        {1, 10 * mu::kGiB}, {3, 10 * mu::kGiB}, {4, 10 * mu::kGiB}};
    mu::Bytes size = 216 * mu::kMB;
    auto plan = cp::makeStripePlan(topo, 0, grants, size);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.totalBytes(), size);
}

TEST(Striping, AsymmetricSharesAreLaneWeighted)
{
    // From GPU0 on DGX-1: GPU1 has 1 lane, GPU3 and GPU4 have 2.
    auto topo = hw::Topology::dgx1V100();
    std::vector<cp::SpareGrant> grants = {
        {1, 10 * mu::kGiB}, {3, 10 * mu::kGiB}, {4, 10 * mu::kGiB}};
    mu::Bytes size = 500 * mu::kMB;
    auto plan = cp::makeStripePlan(topo, 0, grants, size);
    ASSERT_EQ(plan.stripes.size(), 3u);

    mu::Bytes to1 = 0, to3 = 0, to4 = 0;
    for (const auto &s : plan.stripes) {
        if (s.targetGpu == 1)
            to1 = s.bytes;
        if (s.targetGpu == 3)
            to3 = s.bytes;
        if (s.targetGpu == 4)
            to4 = s.bytes;
    }
    // 1 : 2 : 2 lane weighting.
    EXPECT_NEAR(static_cast<double>(to3) / to1, 2.0, 0.05);
    EXPECT_NEAR(static_cast<double>(to4) / to1, 2.0, 0.05);
}

TEST(Striping, SymmetricSharesAreEqual)
{
    auto topo = hw::Topology::dgx2A100();
    std::vector<cp::SpareGrant> grants = {
        {4, 10 * mu::kGiB}, {5, 10 * mu::kGiB}, {6, 10 * mu::kGiB}};
    mu::Bytes size = 300 * mu::kMB;
    auto plan = cp::makeStripePlan(topo, 0, grants, size);
    ASSERT_EQ(plan.stripes.size(), 3u);
    mu::Bytes lo = plan.stripes[0].bytes, hi = lo;
    for (const auto &s : plan.stripes) {
        lo = std::min(lo, s.bytes);
        hi = std::max(hi, s.bytes);
    }
    EXPECT_LE(hi - lo, 2);  // equal up to integer rounding
    EXPECT_EQ(plan.totalBytes(), size);
}

TEST(Striping, BudgetCapsRespected)
{
    auto topo = hw::Topology::dgx1V100();
    // GPU3 has double lanes but a tiny budget: the water-filling pass
    // must spill its excess onto the others.
    std::vector<cp::SpareGrant> grants = {
        {1, 10 * mu::kGiB}, {3, 16 * mu::kMB}, {4, 10 * mu::kGiB}};
    mu::Bytes size = 500 * mu::kMB;
    auto plan = cp::makeStripePlan(topo, 0, grants, size);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.totalBytes(), size);
    for (const auto &s : plan.stripes) {
        if (s.targetGpu == 3) {
            EXPECT_LE(s.bytes, 16 * mu::kMB);
        }
    }
}

TEST(Striping, InsufficientBudgetReturnsEmpty)
{
    auto topo = hw::Topology::dgx1V100();
    std::vector<cp::SpareGrant> grants = {{1, 1 * mu::kMB}};
    auto plan = cp::makeStripePlan(topo, 0, grants, 500 * mu::kMB);
    EXPECT_TRUE(plan.empty());
}

TEST(Striping, UnreachableImportersIgnored)
{
    auto topo = hw::Topology::dgx1V100();
    // GPU7 is not an NVLink neighbor of GPU0.
    std::vector<cp::SpareGrant> grants = {{7, 10 * mu::kGiB}};
    auto plan = cp::makeStripePlan(topo, 0, grants, 100 * mu::kMB);
    EXPECT_TRUE(plan.empty());

    // But mixing a reachable one works.
    grants.push_back({3, 10 * mu::kGiB});
    plan = cp::makeStripePlan(topo, 0, grants, 100 * mu::kMB);
    ASSERT_EQ(plan.stripes.size(), 1u);
    EXPECT_EQ(plan.stripes[0].targetGpu, 3);
}

TEST(Striping, ZeroBytesYieldsEmptyPlan)
{
    auto topo = hw::Topology::dgx1V100();
    std::vector<cp::SpareGrant> grants = {{3, mu::kGiB}};
    EXPECT_TRUE(cp::makeStripePlan(topo, 0, grants, 0).empty());
}

TEST(Striping, CappedTailImporterDoesNotTakeTheRemainder)
{
    // Regression: the integer-division remainder was assigned to the
    // positionally-last candidate even after it had capped at its
    // budget.  With the tail importer capped, no open candidate took
    // the round-off and the residue fallback handed it to the *first*
    // open importer instead of the lane-weighted remainder-taker.
    //
    // From GPU0 on DGX-1: GPU1 has 1 lane, GPU3 and GPU4 have 2.
    // GPU4 (the tail) gets a 7-byte budget so it caps in round one.
    auto topo = hw::Topology::dgx1V100();
    std::vector<cp::SpareGrant> grants = {
        {1, 10 * mu::kGiB}, {3, 10 * mu::kGiB}, {4, 7}};
    mu::Bytes size = 102;
    auto plan = cp::makeStripePlan(topo, 0, grants, size);
    ASSERT_EQ(plan.stripes.size(), 3u);
    EXPECT_EQ(plan.totalBytes(), size);

    mu::Bytes to1 = 0, to3 = 0, to4 = 0;
    for (const auto &s : plan.stripes) {
        if (s.targetGpu == 1)
            to1 = s.bytes;
        if (s.targetGpu == 3)
            to3 = s.bytes;
        if (s.targetGpu == 4)
            to4 = s.bytes;
    }
    // Round 1: lane-weighted over 5 lanes gives GPU1 102/5 = 20 and
    // GPU3 204/5 = 40; GPU4 caps at its 7-byte budget, leaving 35.
    // Round 2 (GPU4 capped): GPU1 takes 35/3 = 11 and GPU3, the last
    // *open* candidate, absorbs the remainder 24.  The buggy version
    // skipped the capped tail and drifted the residue to GPU1.
    EXPECT_EQ(to4, 7);
    EXPECT_EQ(to1, 31);
    EXPECT_EQ(to3, 64);
}

TEST(Striping, PlanTimeTracksSlowestStripe)
{
    auto topo = hw::Topology::dgx1V100();
    std::vector<cp::SpareGrant> grants = {
        {1, 10 * mu::kGiB}, {3, 10 * mu::kGiB}};
    mu::Bytes size = 300 * mu::kMB;
    auto plan = cp::makeStripePlan(topo, 0, grants, size);
    auto t_striped = cp::stripePlanTime(topo, 0, plan);

    std::vector<cp::SpareGrant> single = {{1, 10 * mu::kGiB}};
    auto plan_single = cp::makeStripePlan(topo, 0, single, size);
    auto t_single = cp::stripePlanTime(topo, 0, plan_single);

    // Striping over 3 lanes (1 + 2) beats a single-lane transfer.
    EXPECT_LT(t_striped, t_single);
}

TEST(Metadata, LifecycleRoundTrip)
{
    cp::SwapMetadataTable table;
    cp::InstanceKey key{{0, 5}, 2};
    table.beginSwapOut(key, cp::Kind::GpuCpuSwap, {}, 1000);
    EXPECT_EQ(table.size(), 1u);
    auto *rec = table.find(key);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->state, cp::SwapState::SwappingOut);
    EXPECT_EQ(rec->bytes, 1000);

    table.markResident(key);
    EXPECT_EQ(table.find(key)->state, cp::SwapState::Resident);
    table.markSwappingIn(key);
    EXPECT_EQ(table.find(key)->state, cp::SwapState::SwappingIn);
    table.complete(key);
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(key), nullptr);
}

TEST(Metadata, RecordsStripePlan)
{
    cp::SwapMetadataTable table;
    cp::StripePlan plan;
    plan.stripes.push_back({3, 600, 2});
    plan.stripes.push_back({4, 400, 2});
    cp::InstanceKey key{{1, 7}, 0};
    table.beginSwapOut(key, cp::Kind::D2dSwap, plan, 1000);
    const auto *rec = table.find(key);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->plan.stripes.size(), 2u);
    EXPECT_EQ(rec->plan.totalBytes(), 1000);
}

TEST(Metadata, DoubleSwapOutPanics)
{
    cp::SwapMetadataTable table;
    cp::InstanceKey key{{0, 0}, 0};
    table.beginSwapOut(key, cp::Kind::GpuCpuSwap, {}, 10);
    EXPECT_DEATH(
        table.beginSwapOut(key, cp::Kind::GpuCpuSwap, {}, 10),
        "double swap-out");
}

TEST(Metadata, MissingRecordPanics)
{
    cp::SwapMetadataTable table;
    EXPECT_DEATH(table.complete({{0, 0}, 0}), "not found");
    EXPECT_DEATH(table.markResident({{0, 0}, 0}), "not found");
}

TEST(Metadata, DistinguishesMicrobatches)
{
    cp::SwapMetadataTable table;
    table.beginSwapOut({{0, 5}, 0}, cp::Kind::GpuCpuSwap, {}, 10);
    table.beginSwapOut({{0, 5}, 1}, cp::Kind::GpuCpuSwap, {}, 10);
    EXPECT_EQ(table.size(), 2u);
    table.complete({{0, 5}, 0});
    EXPECT_NE(table.find({{0, 5}, 1}), nullptr);
    EXPECT_EQ(table.find({{0, 5}, 0}), nullptr);
}

TEST(Metadata, KeyBeyondTheGridGrowsIt)
{
    // The dense slots grow on demand: a lookup past the grid is a
    // plain miss, and a swap-out there extends it without disturbing
    // the records already held.
    cp::SwapMetadataTable table;
    table.beginSwapOut({{0, 1}, 0}, cp::Kind::GpuCpuSwap, {}, 10);
    EXPECT_EQ(table.find({{3, 90}, 40}), nullptr);
    EXPECT_EQ(table.find({{0, 1}, 7}), nullptr);
    auto &far = table.beginSwapOut({{3, 90}, 40}, cp::Kind::D2dSwap,
                                   {}, 30);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.find({{3, 90}, 40}), &far);
    EXPECT_EQ(far.bytes, 30);
    ASSERT_NE(table.find({{0, 1}, 0}), nullptr);
    EXPECT_EQ(table.find({{0, 1}, 0})->bytes, 10);
    EXPECT_EQ(table.find({{3, 90}, 39}), nullptr);
    EXPECT_EQ(table.find({{3, 89}, 40}), nullptr);
}

TEST(Metadata, ReSwapOutAfterCompleteReusesTheSlot)
{
    cp::SwapMetadataTable table;
    cp::InstanceKey key{{2, 4}, 3};
    auto &first = table.beginSwapOut(key, cp::Kind::D2dSwap,
                                     {{{5, 60, 1}}}, 60);
    table.markResident(key);
    first.onNvme = true;
    table.complete(key);
    EXPECT_TRUE(table.empty());

    // The retired record is handed out again, reset to a fresh
    // swap-out of the new kind.
    auto &second =
        table.beginSwapOut(key, cp::Kind::GpuCpuSwap, {}, 20);
    EXPECT_EQ(&second, &first);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(second.kind, cp::Kind::GpuCpuSwap);
    EXPECT_EQ(second.state, cp::SwapState::SwappingOut);
    EXPECT_EQ(second.bytes, 20);
    EXPECT_TRUE(second.plan.empty());
    EXPECT_FALSE(second.onNvme);
}

TEST(Metadata, AbortDropsTheRecordFromSize)
{
    cp::SwapMetadataTable table;
    table.beginSwapOut({{0, 2}, 0}, cp::Kind::D2dSwap, {}, 10);
    table.beginSwapOut({{0, 2}, 1}, cp::Kind::D2dSwap, {}, 10);
    table.beginSwapOut({{0, 3}, 0}, cp::Kind::GpuCpuSwap, {}, 10);
    EXPECT_EQ(table.size(), 3u);
    table.abort({{0, 2}, 1});
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.find({{0, 2}, 1}), nullptr);
    EXPECT_NE(table.find({{0, 2}, 0}), nullptr);
    EXPECT_DEATH(table.abort({{0, 2}, 1}), "not found");
    table.abort({{0, 2}, 0});
    table.complete({{0, 3}, 0});
    EXPECT_TRUE(table.empty());
}

TEST(Metadata, SameLayerOtherStageMisses)
{
    // The stage is not a grid coordinate but is part of the key:
    // (stage 1, layer 5) never aliases a live (stage 0, layer 5).
    cp::SwapMetadataTable table;
    table.beginSwapOut({{0, 5}, 2}, cp::Kind::GpuCpuSwap, {}, 10);
    EXPECT_NE(table.find({{0, 5}, 2}), nullptr);
    EXPECT_EQ(table.find({{1, 5}, 2}), nullptr);
    EXPECT_DEATH(table.markResident({{1, 5}, 2}), "not found");
    EXPECT_DEATH(table.complete({{1, 5}, 2}), "not found");
    // A layer belongs to one stage, so a second stage claiming the
    // same live (layer, microbatch) is refused, not aliased.
    EXPECT_DEATH(
        table.beginSwapOut({{1, 5}, 2}, cp::Kind::GpuCpuSwap, {}, 10),
        "held by stage 0");
    EXPECT_EQ(table.size(), 1u);
}
