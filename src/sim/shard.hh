/**
 * @file
 * ShardGroup — conservative-window execution of several sim::Engine
 * shards with deterministic cross-shard messaging.
 *
 * The sharding rule is the node boundary: each cluster node gets its
 * own engine (event heap + pooled slot arena), and anything that
 * crosses nodes rides the inter-node NIC, whose latency floor L is the
 * group's *lookahead*.  No event executed on one shard can affect a
 * peer shard sooner than L ticks later, so the group advances every
 * shard through the window [W, W+L) in turn, where W is the earliest
 * pending event across all shards.
 *
 * Cross-shard effects travel as *messages*: post() appends to a
 * per-source outbox during the window, and at the window barrier the
 * group merges all outboxes in exact (when, srcShard, per-src seq)
 * order and injects them into the destination engines.  Injected
 * messages occupy the engine's low sequence band, so at equal ticks
 * every message fires before any local event, in injection order.
 * The window bounds, the merge order, and the injection band are all
 * pure functions of the event set, so the per-shard execution order
 * never depends on the order shards are advanced within a window.
 *
 * The group is single-threaded on purpose: a window carries about a
 * microsecond of events, less than any thread handoff costs.
 */

#ifndef MPRESS_SIM_SHARD_HH
#define MPRESS_SIM_SHARD_HH

#include <cstdint>
#include <vector>

#include "sim/engine.hh"

namespace mpress {
namespace sim {

/**
 * Advances a fixed set of engine shards in conservative time windows.
 *
 * The engines are owned by the caller and must outlive the group.
 */
class ShardGroup
{
  public:
    /**
     * @param engines  one engine per shard (node); addresses must be
     *                 stable for the group's lifetime
     * @param lookahead  minimum cross-shard latency L in ticks
     *                   (>= 1): every post() must target a tick at
     *                   least L after the event that posts it
     */
    ShardGroup(std::vector<Engine *> engines, Tick lookahead);

    ShardGroup(const ShardGroup &) = delete;
    ShardGroup &operator=(const ShardGroup &) = delete;

    int shards() const { return static_cast<int>(_engines.size()); }
    Engine &shard(int i) { return *_engines[i]; }
    Tick lookahead() const { return _lookahead; }

    /**
     * Post a cross-shard message: @p fn runs on shard @p dst at tick
     * @p when.  Must be called from an event executing on shard
     * @p src during run(), with @p when at least lookahead() past the
     * posting event's tick (enforced: when must not precede the
     * current window's horizon).  Intra-shard effects (including
     * zero-latency self-sends) use the shard engine's schedule()
     * directly — the mailbox is only for crossings.
     */
    void post(int src, int dst, Tick when, EventFn fn);

    /**
     * Run every shard to completion (all heaps empty) or until a
     * shard engine stops.  Stop is window-granular: all shards finish
     * the current window before the group halts, which keeps the
     * executed event set deterministic.
     */
    void run();

    /** True when the last run() halted early (a shard engine's
     *  stop()). */
    bool stopped() const { return _haltedEarly; }

    /** Latest simulated time across shards (the group makespan). */
    Tick maxNow() const;

    /** Reset every shard engine and all mailbox state.  Pooled slabs
     *  are retained, as with Engine::reset(). */
    void reset();

    /** Release retained slabs on every shard (after reset()). */
    void shrink();

    /** Windows executed by the last run() (observability). */
    std::uint64_t windowsRun() const { return _windows; }

  private:
    struct OutMsg
    {
        Tick when = 0;
        std::uint64_t seq = 0;  ///< per-source counter
        int src = 0;
        int dst = 0;
        EventFn fn;
    };

    void deliverPending();

    std::vector<Engine *> _engines;
    Tick _lookahead;

    /// One outbox per source shard, drained at window barriers.
    std::vector<std::vector<OutMsg>> _outbox;
    std::vector<std::uint64_t> _outSeq;
    std::vector<OutMsg> _merge;  ///< scratch for the barrier merge
    Tick _horizon = 0;           ///< current window's exclusive bound
    bool _haltedEarly = false;
    std::uint64_t _windows = 0;
};

} // namespace sim
} // namespace mpress

#endif // MPRESS_SIM_SHARD_HH
