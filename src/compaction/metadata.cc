#include "compaction/metadata.hh"

#include "util/logging.hh"

namespace mpress {
namespace compaction {

std::int32_t *
SwapMetadataTable::slotOf(InstanceKey key)
{
    if (key.ref.layer < 0 || key.microbatch < 0)
        return nullptr;
    const auto l = static_cast<std::size_t>(key.ref.layer);
    const auto m = static_cast<std::size_t>(key.microbatch);
    if (l >= _slots.size() || m >= _slots[l].size())
        return nullptr;
    return &_slots[l][m];
}

SwapRecord &
SwapMetadataTable::beginSwapOut(InstanceKey key, Kind kind,
                                StripePlan plan, Bytes bytes)
{
    if (key.ref.layer < 0 || key.microbatch < 0) {
        util::panic("swap key (%d,%d) mb %d is negative", key.ref.stage,
                    key.ref.layer, key.microbatch);
    }
    const auto l = static_cast<std::size_t>(key.ref.layer);
    const auto m = static_cast<std::size_t>(key.microbatch);
    if (l >= _slots.size())
        _slots.resize(l + 1);
    if (m >= _slots[l].size())
        _slots[l].resize(m + 1, kNoRecord);
    std::int32_t &slot = _slots[l][m];
    if (slot != kNoRecord) {
        const InstanceKey &held =
            _records[static_cast<std::size_t>(slot)].key;
        if (held == key) {
            util::panic("double swap-out of tensor (%d,%d) mb %d",
                        key.ref.stage, key.ref.layer, key.microbatch);
        }
        // A layer belongs to one stage, so a live record of the same
        // (layer, microbatch) under another stage is a malformed key.
        util::panic("swap slot (layer %d, mb %d) of stage %d is held"
                    " by stage %d",
                    key.ref.layer, key.microbatch, key.ref.stage,
                    held.ref.stage);
    }
    if (_free.empty()) {
        slot = static_cast<std::int32_t>(_records.size());
        _records.emplace_back();
    } else {
        slot = _free.back();
        _free.pop_back();
    }
    SwapRecord &rec = _records[static_cast<std::size_t>(slot)];
    rec = SwapRecord{key, kind, std::move(plan), bytes};
    return rec;
}

SwapRecord *
SwapMetadataTable::find(InstanceKey key)
{
    const std::int32_t *slot = slotOf(key);
    if (slot == nullptr || *slot == kNoRecord)
        return nullptr;
    SwapRecord &rec = _records[static_cast<std::size_t>(*slot)];
    return rec.key == key ? &rec : nullptr;
}

const SwapRecord *
SwapMetadataTable::find(InstanceKey key) const
{
    return const_cast<SwapMetadataTable *>(this)->find(key);
}

SwapRecord &
SwapMetadataTable::require(InstanceKey key)
{
    SwapRecord *rec = find(key);
    if (!rec) {
        util::panic("swap record (%d,%d) mb %d not found",
                    key.ref.stage, key.ref.layer, key.microbatch);
    }
    return *rec;
}

void
SwapMetadataTable::release(InstanceKey key)
{
    require(key);
    std::int32_t &slot = *slotOf(key);
    _free.push_back(slot);
    slot = kNoRecord;
}

void
SwapMetadataTable::markResident(InstanceKey key)
{
    require(key).state = SwapState::Resident;
}

void
SwapMetadataTable::markSwappingIn(InstanceKey key)
{
    require(key).state = SwapState::SwappingIn;
}

void
SwapMetadataTable::complete(InstanceKey key)
{
    release(key);
}

void
SwapMetadataTable::abort(InstanceKey key)
{
    release(key);
}

} // namespace compaction
} // namespace mpress
