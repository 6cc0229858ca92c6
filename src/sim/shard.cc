#include "sim/shard.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace mpress {
namespace sim {

ShardGroup::ShardGroup(std::vector<Engine *> engines, Tick lookahead)
    : _engines(std::move(engines)), _lookahead(lookahead)
{
    if (_engines.empty())
        util::panic("ShardGroup needs at least one shard");
    if (_lookahead < 1)
        util::panic("ShardGroup lookahead must be >= 1 tick (got %lld)",
                    static_cast<long long>(_lookahead));
    _outbox.resize(_engines.size());
    _outSeq.assign(_engines.size(), 0);
}

void
ShardGroup::post(int src, int dst, Tick when, EventFn fn)
{
    // The conservative-window contract: a message posted during the
    // window [W, horizon) may not land before the horizon, or a peer
    // shard that already advanced past `when` would miss it.  Fabric
    // paths satisfy this by construction (cross-node sends cost at
    // least the NIC latency = lookahead).
    if (when < _horizon) {
        util::panic("cross-shard message at %lld precedes window "
                    "horizon %lld (lookahead violated, src=%d dst=%d)",
                    static_cast<long long>(when),
                    static_cast<long long>(_horizon), src, dst);
    }
    OutMsg msg;
    msg.when = when;
    msg.seq = _outSeq[src]++;
    msg.src = src;
    msg.dst = dst;
    msg.fn = std::move(fn);
    _outbox[src].push_back(std::move(msg));
}

void
ShardGroup::deliverPending()
{
    _merge.clear();
    for (std::size_t src = 0; src < _outbox.size(); ++src) {
        for (OutMsg &msg : _outbox[src])
            _merge.push_back(std::move(msg));
        _outbox[src].clear();
    }
    if (_merge.empty())
        return;
    // Canonical delivery order: (when, srcShard, per-src seq) — a
    // total order over messages that depends only on what was posted,
    // never on the order the shards ran within the window.
    std::stable_sort(_merge.begin(), _merge.end(),
                     [](const OutMsg &a, const OutMsg &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         if (a.src != b.src)
                             return a.src < b.src;
                         return a.seq < b.seq;
                     });
    for (OutMsg &msg : _merge)
        _engines[msg.dst]->injectMessage(msg.when, std::move(msg.fn));
    _merge.clear();
}

void
ShardGroup::run()
{
    _haltedEarly = false;
    _windows = 0;
    for (;;) {
        deliverPending();
        Tick window = std::numeric_limits<Tick>::max();
        bool any = false;
        for (Engine *eng : _engines) {
            if (!eng->empty()) {
                any = true;
                window = std::min(window, eng->nextEventTime());
            }
        }
        if (!any)
            break;
        // Shards run events in [window, horizon); an event at exactly
        // the horizon waits for the next window, because a message
        // posted at horizon-1 can land right at the horizon and must
        // sort before (or at the same tick as) anything not yet run.
        Tick horizon = window + _lookahead;
        _horizon = horizon;
        ++_windows;
        bool engineStopped = false;
        for (Engine *eng : _engines) {
            eng->runUntil(horizon - 1);
            engineStopped = engineStopped || eng->stopped();
        }
        if (engineStopped) {
            _haltedEarly = true;
            break;
        }
    }
    _horizon = 0;
}

Tick
ShardGroup::maxNow() const
{
    Tick t = 0;
    for (const Engine *eng : _engines)
        t = std::max(t, eng->now());
    return t;
}

void
ShardGroup::reset()
{
    for (Engine *eng : _engines)
        eng->reset();
    for (std::vector<OutMsg> &box : _outbox)
        box.clear();
    _outSeq.assign(_engines.size(), 0);
    _merge.clear();
    _horizon = 0;
    _haltedEarly = false;
    _windows = 0;
}

void
ShardGroup::shrink()
{
    for (Engine *eng : _engines)
        eng->shrink();
    for (std::vector<OutMsg> &box : _outbox) {
        box.clear();
        box.shrink_to_fit();
    }
    _merge.clear();
    _merge.shrink_to_fit();
}

} // namespace sim
} // namespace mpress
