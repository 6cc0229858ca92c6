/**
 * @file
 * Unit tests for the discrete-event engine, streams and join counters.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/shard.hh"
#include "sim/stream.hh"

using mpress::sim::Engine;
using mpress::sim::JoinCounter;
using mpress::sim::Stream;
using mpress::util::Tick;

TEST(Engine, RunsEventsInTimeOrder)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(30, [&] { order.push_back(3); });
    eng.schedule(10, [&] { order.push_back(1); });
    eng.schedule(20, [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 30);
    EXPECT_EQ(eng.eventsExecuted(), 3u);
}

TEST(Engine, SameTickFifoOrder)
{
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eng.schedule(100, [&order, i] { order.push_back(i); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsCanScheduleEvents)
{
    Engine eng;
    int fired = 0;
    eng.schedule(5, [&] {
        eng.scheduleIn(10, [&] {
            ++fired;
            EXPECT_EQ(eng.now(), 15);
        });
    });
    eng.run();
    EXPECT_EQ(fired, 1);
}

TEST(Engine, RunUntilStopsAtLimit)
{
    Engine eng;
    int fired = 0;
    eng.schedule(10, [&] { ++fired; });
    eng.schedule(20, [&] { ++fired; });
    bool drained = eng.runUntil(15);
    EXPECT_FALSE(drained);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eng.runUntil(100));
    EXPECT_EQ(fired, 2);
}

TEST(Engine, StopInterruptsRun)
{
    Engine eng;
    int fired = 0;
    eng.schedule(1, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule(2, [&] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 1);
    eng.run();  // resumes with remaining events
    EXPECT_EQ(fired, 2);
}

TEST(Engine, ResetClearsState)
{
    Engine eng;
    eng.schedule(50, [] {});
    eng.run();
    EXPECT_EQ(eng.now(), 50);
    eng.reset();
    EXPECT_EQ(eng.now(), 0);
    EXPECT_TRUE(eng.empty());
    EXPECT_EQ(eng.eventsExecuted(), 0u);
}

TEST(Engine, PastSchedulingPanics)
{
    Engine eng;
    eng.schedule(10, [&] {
        EXPECT_DEATH(eng.schedule(5, [] {}), "past");
    });
    eng.run();
}

TEST(Stream, SerializesTasks)
{
    Engine eng;
    Stream s(eng, "test");
    std::vector<std::pair<Tick, Tick>> spans;
    eng.schedule(0, [&] {
        s.submit(10, [&](Tick a, Tick b) { spans.emplace_back(a, b); });
        s.submit(5, [&](Tick a, Tick b) { spans.emplace_back(a, b); });
    });
    eng.run();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0], (std::pair<Tick, Tick>{0, 10}));
    EXPECT_EQ(spans[1], (std::pair<Tick, Tick>{10, 15}));
    EXPECT_EQ(s.busyTime(), 15);
    EXPECT_EQ(s.tasks(), 2u);
}

TEST(Stream, IdleGapBeforeLateSubmission)
{
    Engine eng;
    Stream s(eng, "test");
    Tick started = -1;
    eng.schedule(100, [&] {
        s.submit(10, [&](Tick a, Tick) { started = a; });
    });
    eng.run();
    EXPECT_EQ(started, 100);
    EXPECT_EQ(s.busyUntil(), 110);
    EXPECT_EQ(s.busyTime(), 10);  // idle time not counted
}

TEST(Stream, ZeroDurationTask)
{
    Engine eng;
    Stream s(eng, "test");
    Tick end = -1;
    eng.schedule(7, [&] { s.submit(0, [&](Tick, Tick b) { end = b; }); });
    eng.run();
    EXPECT_EQ(end, 7);
}

TEST(JoinCounter, FiresAfterAllArrivals)
{
    int fired = 0;
    JoinCounter j(3, [&] { ++fired; });
    j.arrive();
    j.arrive();
    EXPECT_EQ(fired, 0);
    j.arrive();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(j.remaining(), 0);
}

TEST(JoinCounter, ZeroCountFiresImmediately)
{
    int fired = 0;
    JoinCounter j(0, [&] { ++fired; });
    EXPECT_EQ(fired, 1);
}

TEST(StreamAndEngine, InterleavedStreamsOverlap)
{
    // Two independent streams run concurrently; total makespan is the
    // max of the two, not the sum — this is the property the D2D swap
    // overlap argument rests on.
    Engine eng;
    Stream compute(eng, "compute");
    Stream copy(eng, "copy");
    Tick compute_end = 0, copy_end = 0;
    eng.schedule(0, [&] {
        compute.submit(100, [&](Tick, Tick b) { compute_end = b; });
        copy.submit(60, [&](Tick, Tick b) { copy_end = b; });
    });
    eng.run();
    EXPECT_EQ(compute_end, 100);
    EXPECT_EQ(copy_end, 60);
    EXPECT_EQ(eng.now(), 100);
}

// ---------------------------------------------------------------
// Fast-path queue semantics (pooled slots, inline callables)
// ---------------------------------------------------------------

TEST(Engine, EventAtExactRunUntilLimitFires)
{
    Engine eng;
    int fired = 0;
    eng.schedule(15, [&] { ++fired; });
    eng.schedule(16, [&] { ++fired; });
    EXPECT_FALSE(eng.runUntil(15));  // inclusive limit
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.now(), 15);
    EXPECT_EQ(eng.queueDepth(), 1u);
}

TEST(Engine, StopLeavesRemainderQueued)
{
    Engine eng;
    int fired = 0;
    eng.schedule(1, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule(2, [&] { ++fired; });
    eng.schedule(3, [&] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.queueDepth(), 2u);
    eng.run();
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(eng.empty());
}

TEST(Engine, ResetRewindsAndReleasesPendingCallbacks)
{
    Engine eng;
    eng.schedule(5, [] {});
    eng.run();
    // A pending event with an owning capture: reset() must destroy
    // it (the ASan leg catches a leak here).
    eng.schedule(10, [p = std::make_unique<int>(7)] { (void)*p; });
    eng.reset();
    EXPECT_EQ(eng.now(), 0);
    EXPECT_EQ(eng.eventsExecuted(), 0u);
    EXPECT_EQ(eng.queueDepth(), 0u);
    EXPECT_EQ(eng.poolSlots(), 0u);
    // The engine is fully reusable, including same-tick FIFO order
    // from a rewound sequence counter.
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eng.schedule(3, [&order, i] { order.push_back(i); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

namespace {

/** Self-rescheduling closure used to pin the slot-recycling
 *  guarantee: a chain must not grow the slab. */
struct ChainHop
{
    Engine *eng;
    int *count;
    int left;
    void
    operator()()
    {
        ++*count;
        if (--left > 0)
            eng->scheduleIn(1, *this);
    }
};

} // namespace

TEST(Engine, SelfSchedulingChainPlateausThePool)
{
    Engine eng;
    int count = 0;
    eng.scheduleIn(1, ChainHop{&eng, &count, 10000});
    eng.run();
    EXPECT_EQ(count, 10000);
    // The executing hop's slot is recycled right after it runs, so a
    // chain alternates between at most two slots.
    EXPECT_LE(eng.poolSlots(), 2u);
    EXPECT_EQ(eng.eventsExecuted(), 10000u);
}

TEST(Engine, MoveOnlyCaptureRoundTrips)
{
    // std::function required copyable callables; the pooled queue
    // must accept move-only captures and destroy them exactly once.
    Engine eng;
    int out = 0;
    auto p = std::make_unique<int>(41);
    eng.schedule(1, [&out, p = std::move(p)] { out = *p + 1; });
    eng.run();
    EXPECT_EQ(out, 42);
}

TEST(Stream, CompletionCanResubmitToTheSameStream)
{
    // Reentrancy through the internal completion ring: a completion
    // firing at the ring head submits more work to the same stream.
    Engine eng;
    Stream stream(eng, "reentrant");
    Tick final_end = 0;
    eng.schedule(0, [&] {
        stream.submit(10, [&](Tick, Tick) {
            stream.submit(5, [&](Tick, Tick b) { final_end = b; });
        });
    });
    eng.run();
    EXPECT_EQ(final_end, 15);
    EXPECT_EQ(stream.tasks(), 2u);
}

TEST(Stream, NameIsAViewOfOwnedStorage)
{
    Engine eng;
    std::string name = "pcie.d2h.gpu0";
    Stream stream(eng, name);
    name.clear();  // the stream owns its copy
    EXPECT_EQ(stream.name(), "pcie.d2h.gpu0");
}

// ---------------------------------------------------------------
// ShardGroup — conservative-window shards
// ---------------------------------------------------------------

using mpress::sim::ShardGroup;

namespace {

/** Two engines wrapped in a group with lookahead L. */
struct TwoShards
{
    Engine a;
    Engine b;
    ShardGroup group;

    explicit TwoShards(Tick lookahead)
        : group({&a, &b}, lookahead)
    {}
};

} // namespace

TEST(ShardGroup, CrossShardMessageFiresAtItsTick)
{
    TwoShards s(10);
    std::vector<std::pair<int, Tick>> fired;
    s.a.schedule(5, [&] {
        fired.push_back({0, s.a.now()});
        s.group.post(0, 1, s.a.now() + 10,
                     [&] { fired.push_back({1, s.b.now()}); });
    });
    s.group.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], (std::pair<int, Tick>{0, 5}));
    EXPECT_EQ(fired[1], (std::pair<int, Tick>{1, 15}));
}

TEST(ShardGroup, MessageExactlyAtTheLookaheadHorizonFires)
{
    // The tightest legal send: when == posting tick + L, landing on
    // the first tick of the *next* window.  A window bound that was
    // inclusive where it should be exclusive (or vice versa) either
    // drops this message or fires it inside the current window.
    TwoShards s(7);
    Tick fired_at = -1;
    // Give the destination a later event so the run doesn't end
    // before the message's tick.
    s.b.schedule(100, [] {});
    s.a.schedule(3, [&] {
        s.group.post(0, 1, s.a.now() + 7,
                     [&] { fired_at = s.b.now(); });
    });
    s.group.run();
    EXPECT_EQ(fired_at, 10);
    EXPECT_EQ(s.group.maxNow(), 100);
}

TEST(ShardGroup, ZeroLatencySelfSendUsesTheEngineDirectly)
{
    // Intra-shard effects bypass the mailbox entirely: an event may
    // schedule another at its own tick on its own engine, exactly as
    // in a single-engine simulation.
    TwoShards s(10);
    std::vector<int> order;
    s.a.schedule(4, [&] {
        order.push_back(1);
        s.a.schedule(s.a.now(), [&] { order.push_back(2); });
        s.a.scheduleIn(0, [&] { order.push_back(3); });
    });
    s.b.schedule(50, [] {});
    s.group.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardGroup, StopMidWindowIsWindowGranular)
{
    // A shard engine's stop() from inside an event halts the group
    // at the next window boundary: every shard finishes the current
    // window, nothing in later windows runs, and stopped() reports
    // the early halt.
    TwoShards s(10);
    std::vector<int> fired;
    s.a.schedule(1, [&] {
        fired.push_back(1);
        s.a.stop();
    });
    // Same window (ticks [1, 11)): must still run.
    s.b.schedule(5, [&] { fired.push_back(2); });
    // Next window: must not run.
    s.a.schedule(40, [&] { fired.push_back(3); });
    s.b.schedule(41, [&] { fired.push_back(4); });
    s.group.run();
    EXPECT_TRUE(s.group.stopped());
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(ShardGroup, MergeOrderIsWhenThenSourceThenSeq)
{
    // Messages from different sources landing on the same shard at
    // the same tick fire in (when, src, per-src seq) order no matter
    // the order the outboxes drained in.
    Engine a, b, c;
    ShardGroup group({&a, &b, &c}, 5);
    std::vector<int> order;
    // Both sources post two messages to shard 2 at the same tick.
    b.schedule(0, [&] {
        group.post(1, 2, 10, [&] { order.push_back(10); });
        group.post(1, 2, 10, [&] { order.push_back(11); });
    });
    a.schedule(0, [&] {
        group.post(0, 2, 10, [&] { order.push_back(0); });
        group.post(0, 2, 10, [&] { order.push_back(1); });
    });
    // A local event on the destination at the same tick: injected
    // messages occupy the low sequence band, so it fires last.
    c.schedule(10, [&] { order.push_back(99); });
    group.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 99}));
}

TEST(ShardGroup, ResetRetainsSlabsAndReplaysIdentically)
{
    Engine a, b;
    ShardGroup group({&a, &b}, 4);
    auto load = [&](std::vector<Tick> *fired) {
        a.schedule(0, [&, fired] {
            fired->push_back(a.now());
            group.post(0, 1, 4, [&, fired] {
                fired->push_back(b.now());
            });
        });
    };
    std::vector<Tick> first, second;
    load(&first);
    group.run();
    EXPECT_GE(group.windowsRun(), 1u);
    group.reset();
    EXPECT_EQ(a.now(), 0);
    EXPECT_EQ(b.now(), 0);
    load(&second);
    group.run();
    EXPECT_EQ(first, second);
    group.reset();
    group.shrink();
    EXPECT_EQ(a.reservedSlots(), 0u);
}
