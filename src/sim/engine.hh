/**
 * @file
 * Discrete-event simulation engine.
 *
 * The engine owns a time-ordered event queue.  Events scheduled for the
 * same tick fire in scheduling order (a monotonically increasing
 * sequence number breaks ties), which makes every simulation fully
 * deterministic.
 *
 * Fast-path internals: callbacks live in a chunked slab of pooled
 * slots (recycled through a freelist, so a steady-state simulation
 * reuses a handful of slots forever) and the queue is an index-based
 * binary heap of plain {when, seq, slot} records.  Ordering is
 * identical to the original priority_queue<Event, _, EventLater>:
 * earliest tick first, ties broken by lowest sequence number.
 * schedule() is a template that constructs the closure directly in its
 * slot (no intermediate callable object, no move), chunks never move
 * so callbacks are invoked in place, and callbacks are
 * util::InlineFunction, so captures up to the inline capacity never
 * touch the allocator.
 */

#ifndef MPRESS_SIM_ENGINE_HH
#define MPRESS_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "util/inline_function.hh"
#include "util/units.hh"

namespace mpress {
namespace sim {

using util::Tick;

/** Event callback.  The 64-byte capacity is graded to the largest
 *  hot-path capture in the runtime (the executor's striped-swap retry
 *  closures); bigger captures still work via heap fallback. */
using EventFn = util::InlineFunction<void(), 64>;

/**
 * The event-driven simulation core.
 *
 * Usage: schedule closures at absolute ticks (or relative via
 * scheduleIn), then run() to drain the queue.  Closures may schedule
 * further events; the simulation ends when the queue empties or an
 * explicit stop() is requested.
 */
class Engine
{
  public:
    using Callback = EventFn;

    Engine() = default;

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p fn at absolute tick @p when (>= now()).  The
     *  closure is constructed directly in its pooled slot. */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        Slot &slot = slotRef(enqueue(when));
        slot.fn.emplace(std::forward<F>(fn));
    }

    /**
     * Schedule a cross-shard message at absolute tick @p when.
     * Messages occupy a sequence band *below* every locally scheduled
     * event, so at equal ticks all of a tick's injected messages fire
     * before any local event — and fire in injection order.  The
     * sharded runner (sim::ShardGroup) injects each window's mailbox
     * in one canonical order, which makes the execution sequence a
     * pure function of the event set, independent of the order the
     * shards advance within a window.  Single-engine simulations
     * never call this, so their event order is untouched.
     */
    template <typename F>
    void
    injectMessage(Tick when, F &&fn)
    {
        Slot &slot = slotRef(enqueueInjected(when));
        slot.fn.emplace(std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(_now + delay, std::forward<F>(fn));
    }

    /** Run until the event queue drains or stop() is called. */
    void run();

    /**
     * Run until simulated time would exceed @p limit; events at
     * exactly @p limit still fire.  Returns true if the queue drained.
     */
    bool runUntil(Tick limit);

    /** Request that run() return after the current event. */
    void stop() { _stopped = true; }

    /** True when stop() fired during the last run()/runUntil() call
     *  (both clear the flag on entry).  The sharded runner checks
     *  this after every window to halt the whole group. */
    bool stopped() const { return _stopped; }

    /** Number of events executed since construction or reset(). */
    std::uint64_t eventsExecuted() const { return _eventsExecuted; }

    /** True if no events remain. */
    bool empty() const { return _heap.empty(); }

    /** Tick of the earliest pending event; only valid when
     *  !empty().  The sharded runner computes window bounds from
     *  this. */
    Tick nextEventTime() const { return _heap.front().when; }

    /** Clear all pending events and rewind time to zero.  Pending
     *  callbacks are destroyed but the slab chunks and heap capacity
     *  are retained, so a reused engine runs allocation-free up to
     *  its previous high-water mark (executor-arena reuse).  Must not
     *  be called from inside a running event: the event's own closure
     *  lives in a slot being recycled. */
    void reset();

    /**
     * Release the retained slab chunks and heap storage entirely.
     * Only legal when the queue is empty (reset() first); the next
     * simulation re-grows from nothing.  This is the arena high-water
     * policy's lever: a serving process that just ran a 512-GPU job
     * calls shrink() instead of holding peak-sized pools forever.
     */
    void shrink();

    /** Slab size of the callback pool (high-water mark of events
     *  simultaneously pending; steady-state chains plateau). */
    std::size_t poolSlots() const { return _slotCount; }

    /** Events currently pending. */
    std::size_t queueDepth() const { return _heap.size(); }

    /** Deepest the event queue ever got since construction or
     *  reset(). */
    std::size_t queuePeak() const { return _heapPeak; }

    /** Slots the retained slab chunks can hold without allocating
     *  (survives reset(); shrink() drops it to zero). */
    std::size_t
    reservedSlots() const
    {
        return _chunks.size() * kChunkSize;
    }

  private:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** First sequence number of locally scheduled events.  Injected
     *  cross-shard messages draw from [0, kLocalSeqBase); locals from
     *  [kLocalSeqBase, ...).  Relative order among locals is exactly
     *  the pre-band ordering, so single-engine runs are
     *  byte-identical to the historical encoding. */
    static constexpr std::uint64_t kLocalSeqBase = std::uint64_t{1}
                                                   << 62;

    /** Slots per slab chunk.  Chunks are never reallocated, so a
     *  callback's address stays valid while it executes even if it
     *  schedules further events. */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    struct Slot
    {
        Callback fn;
        std::uint32_t next = kNoSlot;  ///< freelist link
    };

    /** Heap record; plain data so sift operations never move
     *  callbacks around. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Same ordering as the original EventLater comparator: the heap
     *  front is the entry no other is earlier than. */
    static bool
    later(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    Slot &
    slotRef(std::uint32_t s)
    {
        return _chunks[s >> kChunkShift][s & (kChunkSize - 1)];
    }

    /** Validate @p when, reserve a slot, push the heap record; the
     *  caller fills the slot's callback in place. */
    std::uint32_t enqueue(Tick when);

    /** Like enqueue(), but drawing from the injected-message band. */
    std::uint32_t enqueueInjected(Tick when);

    std::uint32_t pushEntry(Tick when, std::uint64_t seq);
    std::uint32_t acquireSlot();
    HeapEntry popTop();

    std::vector<HeapEntry> _heap;
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::uint32_t _slotCount = 0;  ///< slots ever handed out
    std::uint32_t _freeHead = kNoSlot;
    std::size_t _heapPeak = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = kLocalSeqBase;
    std::uint64_t _nextInjectSeq = 0;
    std::uint64_t _eventsExecuted = 0;
    bool _stopped = false;
};

} // namespace sim
} // namespace mpress

#endif // MPRESS_SIM_ENGINE_HH
