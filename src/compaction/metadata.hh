/**
 * @file
 * Swap metadata table (Sec. III-C).
 *
 * For every tensor instance that goes through D2D swap, MPress
 * records the number of sub-blocks, their sizes and their target
 * devices before the swap-out executes; the swap-in operator is
 * driven from this record and retires it on completion.  The same
 * table tracks GPU-CPU swapped instances (a single "stripe" to the
 * host) so that the executor has one lookup path.
 *
 * The executor touches this table on every swap event, so a lookup
 * is two array indexes, not a tree walk: a grid of slots indexed
 * [layer][microbatch] (rows grow on demand) names a record in a
 * pooled store whose retired records are reused.  A layer belongs to
 * exactly one stage of a partition, so the stage is not a grid
 * coordinate; it is part of the key every lookup compares.
 */

#ifndef MPRESS_COMPACTION_METADATA_HH
#define MPRESS_COMPACTION_METADATA_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "compaction/striping.hh"
#include "memory/liveness.hh"

namespace mpress {
namespace compaction {

/** Key of one swapped tensor instance: tensor class + microbatch. */
struct InstanceKey
{
    TensorRef ref;
    int microbatch = 0;

    bool
    operator==(const InstanceKey &o) const
    {
        return ref == o.ref && microbatch == o.microbatch;
    }
};

/** Lifecycle states of a swapped tensor instance. */
enum class SwapState
{
    SwappingOut,  ///< swap-out issued, sub-blocks in flight
    Resident,     ///< fully offloaded (host or peer GPUs)
    SwappingIn,   ///< swap-in issued
};

/** One record in the metadata table. */
struct SwapRecord
{
    InstanceKey key;
    Kind kind = Kind::None;  ///< GpuCpuSwap or D2dSwap
    StripePlan plan;         ///< empty for GPU-CPU swap
    Bytes bytes = 0;
    SwapState state = SwapState::SwappingOut;
    /** GPU-CPU swap spilled past the host pool onto NVMe (the
     *  multi-level hierarchy of Sec. V). */
    bool onNvme = false;
};

/**
 * Registry of in-flight and offloaded swap instances.
 */
class SwapMetadataTable
{
  public:
    /** Create a record as the swap-out operator is issued; panics if
     *  the instance is already tracked (double swap-out), if its
     *  layer or microbatch is negative, or if another stage's record
     *  holds the same (layer, microbatch).  The reference stays valid
     *  until the record is retired. */
    SwapRecord &beginSwapOut(InstanceKey key, Kind kind,
                             StripePlan plan, Bytes bytes);

    /** Look up a record; nullptr if absent. */
    SwapRecord *find(InstanceKey key);
    const SwapRecord *find(InstanceKey key) const;

    /** Mark an instance fully offloaded. */
    void markResident(InstanceKey key);

    /** Mark a swap-in issued. */
    void markSwappingIn(InstanceKey key);

    /** Retire a record once the swap-in lands; panics if absent. */
    void complete(InstanceKey key);

    /**
     * Drop a record whose swap-out was undone (the fault ladder
     * demoting a failed D2D swap to another kind re-registers the
     * instance under the fallback kind); panics if absent.
     */
    void abort(InstanceKey key);

    std::size_t size() const { return _records.size() - _free.size(); }
    bool empty() const { return size() == 0; }

  private:
    static constexpr std::int32_t kNoRecord = -1;

    /** The grid cell of @p key; nullptr when outside the grid. */
    std::int32_t *slotOf(InstanceKey key);
    SwapRecord &require(InstanceKey key);
    /** Retire @p key's record; panics if absent. */
    void release(InstanceKey key);

    /** _slots[layer][microbatch]: index into _records or kNoRecord. */
    std::vector<std::vector<std::int32_t>> _slots;
    /** Record storage; a deque, so a record never moves while it is
     *  live and the references handed out stay valid. */
    std::deque<SwapRecord> _records;
    /** Retired _records entries, reused last-in first-out. */
    std::vector<std::int32_t> _free;
};

} // namespace compaction
} // namespace mpress

#endif // MPRESS_COMPACTION_METADATA_HH
