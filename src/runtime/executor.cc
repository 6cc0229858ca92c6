#include "runtime/executor.hh"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>

#include "fault/injector.hh"
#include "obs/export.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mpress {
namespace runtime {

using compaction::InstanceKey;
using compaction::Kind;
using compaction::SwapState;
using memory::TensorRef;
using model::TensorKind;
using pipeline::TaskKind;
using util::Tick;

namespace {

/** Per-instance swap-in tracking state. */
enum class InState : std::uint8_t
{
    NotNeeded,
    Pending,   ///< instance offloaded, swap-in not yet issued
    InFlight,  ///< swap-in issued
    Done,
};

/** Consecutive over-water runs before an arena releases slabs. */
constexpr int kShrinkAfter = 8;

} // namespace

struct Executor::Impl
{
    const hw::Topology &topo;
    const model::TransformerModel &mdl;
    const partition::Partition &part;
    const pipeline::Schedule &sched;
    const compaction::CompactionPlan &plan;
    ExecutorConfig cfg;

    /** Engine storage for self-contained runs; unused (and empty)
     *  when cfg.arena supplies reusable engines. */
    sim::Engine ownEngine;
    std::vector<std::unique_ptr<sim::Engine>> ownNodeEngines;
    std::unique_ptr<sim::ShardGroup> ownGroup;

    /** One engine per simulation shard (node); a single entry on
     *  single-node topologies.  Points into the arena or the own*
     *  storage above. */
    std::vector<sim::Engine *> engines;
    /** The conservative-window coordinator; null on single-node
     *  topologies (the run is a plain Engine::run()). */
    sim::ShardGroup *group = nullptr;
    /** Shards: topo.numNodes() when the topology has an inter-node
     *  fabric, else 1. */
    int numNodes = 1;

    /** Fabric storage for self-contained runs (or the first run on a
     *  fresh arena); empty when the arena's retained fabric is
     *  reused. */
    std::unique_ptr<hw::Fabric> ownFabric;
    /** The fabric in use: the arena's retained one (reset at
     *  construction) or ownFabric. */
    hw::Fabric *fabric = nullptr;

    std::vector<std::unique_ptr<sim::Stream>> compute;
    std::vector<std::unique_ptr<memory::DeviceMemoryTracker>> gpuMem;

    /** Spare-capacity grants, keyed by exporter GPU.  The map's
     *  structure is frozen after construction (lookups use find());
     *  each exporter's budgets are only mutated from events on the
     *  exporter's own shard, so no result depends on the order the
     *  shards advance within a window. */
    std::map<int, std::vector<compaction::SpareGrant>> grantsLeft;

    // Schedule progress.  Element g/s/id is only written by events on
    // its owning node's shard; cross-node reads of taskDone happen
    // strictly after the paired arrival message (mailbox barrier).
    std::vector<char> taskDone;
    std::vector<char> arrivalDone;
    std::vector<std::size_t> cursor;
    std::vector<char> stageBusy;

    TrainingReport report;
    /** Minibatch completion times merged across nodes in finalize(). */
    std::vector<Tick> minibatchDone;

    struct BwdChain
    {
        const pipeline::Task *task = nullptr;
        std::vector<std::size_t> layersRev;
        std::size_t next = 0;
        std::size_t nextPrefetch = 0;
        int inflightSwapIns = 0;
        Tick stallStart = -1;
    };

    /**
     * Everything a node's shard mutates from its own events.  The
     * sharding rule is the node boundary: an instance's exporter GPU
     * fixes the node that owns its swap metadata, fault draws, trace
     * and observability records, so no shard reads another shard's
     * state mid-window.  On single-node topologies there is exactly
     * one NodeState and the run is byte-identical to the historical
     * single-engine executor.
     */
    struct NodeState
    {
        int node = 0;
        sim::Engine *engine = nullptr;

        /** This node's slice of the cluster host pool / NVMe. */
        std::unique_ptr<memory::PinnedHostPool> host;
        Bytes baseHost = 0;
        Bytes nvmeCap = 0;
        Bytes nvmeUsed = 0;
        /** Sum of currently active host-pressure cuts (this node's
         *  share); node 0 additionally tracks the cluster-wide total
         *  for the report. */
        Bytes hostPressureCut = 0;
        Bytes totalPressureCut = 0;

        compaction::SwapMetadataTable swapTable;
        // Per-instance state lives in the executor-wide `instances`
        // slab; this node's shard touches only its own instances.
        std::map<int, BwdChain> bwdChains;  // keyed by task id
        /** Weight-version fetch progress for stash-offloaded backward
         *  tasks: absent = not issued, 1 = in flight, 2 = landed. */
        std::map<int, int> versionFetch;

        /** Per-node injector (seed salted by node id; node 0 draws
         *  the exact unsalted stream). */
        std::unique_ptr<fault::Injector> injector;

        SavingsBreakdown savings;
        Bytes d2dOverflow = 0;
        Bytes nvmeSpill = 0;
        /** Dynamic fault counters; summed into the report. */
        FaultSummary faults;

        // First OOM observed on this shard (candidate; merged in
        // finalize, earliest across nodes wins).
        bool oom = false;
        int oomGpu = -1;
        Tick oomTime = 0;

        std::vector<MemorySample> memTimeline;
        sim::TraceRecorder trace;
        obs::Observability obsData;
        memory::LivenessTable liveness;

        /** Completion time of each minibatch's last local OptimStep
         *  and the count of local stages still pending per minibatch
         *  (global done-time = max over nodes). */
        std::vector<Tick> lastOptim;
        std::vector<int> optRemaining;
    };

    /** Fixed after construction; lambdas capture element pointers. */
    std::vector<NodeState> nodes;

    /** Executor-side state of one activation instance. */
    struct InstanceState
    {
        Tick genTime = -1;  ///< forward completion; -1 = not yet run
        /** Backward chain stalled on this instance's swap-in. */
        BwdChain *blockedOn = nullptr;
        /** The planned kind, until the fault ladder demotes it. */
        Kind kind = Kind::None;
        InState in = InState::NotNeeded;
    };

    /**
     * One element per (layer, global microbatch), at index
     * layer * sched.totalMicrobatches() + microbatch (instance()):
     * every per-instance lookup on the event path is an array index.
     * Sized once at construction.  The slab keeps the sharding rule:
     * an instance's stage fixes its GPU and so its node, and only
     * that node's shard touches the element.
     */
    std::vector<InstanceState> instances;

    // Metric ids are identical in every node's registry (same
    // registration order), so one set of handles serves all shards.
    obs::MetricsRegistry::Id mSwapOut = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mSwapIn = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mD2dOut = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mD2dIn = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mNvmeSpill =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mRecompute =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mAllocStalls =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mHostUsed =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultFail =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultRetry =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultFallbackSwap =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultFallbackRecompute =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultStraggle =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultDegraded =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultPressure =
        obs::MetricsRegistry::kInvalid;

    hw::Precision precision;

    // ---- node / shard helpers -------------------------------------

    int gpuOf(int stage) const { return plan.gpuForStage(stage); }

    int
    nodeOfGpu(int g) const
    {
        return numNodes > 1 ? topo.nodeOf(g) : 0;
    }

    bool
    sameNode(int a, int b) const
    {
        return nodeOfGpu(a) == nodeOfGpu(b);
    }

    NodeState &
    nsOf(int gpu)
    {
        return nodes[static_cast<std::size_t>(nodeOfGpu(gpu))];
    }

    NodeState &nsOfStage(int stage) { return nsOf(gpuOf(stage)); }

    InstanceState &
    instance(InstanceKey key)
    {
        return instances[static_cast<std::size_t>(key.ref.layer) *
                             static_cast<std::size_t>(
                                 sched.totalMicrobatches()) +
                         static_cast<std::size_t>(key.microbatch)];
    }

    sim::Engine &engineOf(int gpu) { return *nsOf(gpu).engine; }

    /** Deliver @p fn to @p dst node's shard through the group's
     *  deterministic mailbox, one lookahead after now.  Only valid on
     *  multi-node runs (group != nullptr). */
    void
    postToNode(int src, int dst, sim::EventFn fn)
    {
        group->post(src, dst,
                    nodes[static_cast<std::size_t>(src)].engine->now() +
                        group->lookahead(),
                    std::move(fn));
    }

    bool
    anyOom() const
    {
        for (const auto &ns : nodes) {
            if (ns.oom)
                return true;
        }
        return false;
    }

    Impl(const hw::Topology &t, const model::TransformerModel &m,
         const partition::Partition &p, const pipeline::Schedule &s,
         const compaction::CompactionPlan &pl, ExecutorConfig c)
        : topo(t), mdl(m), part(p), sched(s), plan(pl), cfg(c)
    {
        if (part.numStages() != sched.numStages)
            util::fatal("partition has %d stages, schedule %d",
                        part.numStages(), sched.numStages);
        if (sched.numStages > topo.numGpus()) {
            // More stages than GPUs is legal only with an explicit
            // stage-to-GPU mapping (interleaved virtual stages, as in
            // Megatron's interleaved 1F1B): several stages then share
            // one device's compute queue and memory.
            if (static_cast<int>(plan.stageToGpu.size()) !=
                sched.numStages)
                util::fatal("schedule needs %d GPUs, topology has %d"
                            " (interleaving requires an explicit"
                            " stage-to-GPU mapping)",
                            sched.numStages, topo.numGpus());
        }
        for (int g : plan.stageToGpu) {
            if (g < 0 || g >= topo.numGpus())
                util::fatal("stage mapped to invalid GPU %d", g);
        }

        if (!(cfg.memOverheadFactor > 0.0))
            util::fatal("memOverheadFactor must be positive, got %g",
                        cfg.memOverheadFactor);
        if (cfg.swapInLookahead <= 0)
            util::fatal("swapInLookahead must be positive, got %d",
                        cfg.swapInLookahead);
        if (cfg.maxTransferRetries < 0)
            util::fatal("maxTransferRetries must be >= 0, got %d",
                        cfg.maxTransferRetries);
        if (cfg.retryBackoff < 0)
            util::fatal("retryBackoff must be >= 0, got %lld",
                        static_cast<long long>(cfg.retryBackoff));

        numNodes = topo.multiNodeFabric() ? topo.numNodes() : 1;
        precision = mdl.config().precision;
        setupEngines();

        const Bytes effective = static_cast<Bytes>(
            static_cast<double>(topo.gpu().memCapacity) /
            cfg.memOverheadFactor);
        for (int g = 0; g < topo.numGpus(); ++g) {
            sim::Engine &eng =
                *engines[static_cast<std::size_t>(nodeOfGpu(g))];
            compute.push_back(std::make_unique<sim::Stream>(
                eng, util::strformat("gpu%d.compute", g)));
            gpuMem.push_back(
                std::make_unique<memory::DeviceMemoryTracker>(
                    util::strformat("gpu%d", g), effective));
        }

        // Split the cluster host pool and NVMe along the node
        // boundary (a node swaps to its own pinned memory and SSDs);
        // a single node keeps the whole pool, exactly as before.
        nodes.resize(static_cast<std::size_t>(numNodes));
        const Bytes host_total = topo.hostMemory();
        const Bytes host_share =
            host_total / static_cast<Bytes>(numNodes);
        const Bytes nvme_total = topo.nvmeCapacity();
        const Bytes nvme_share =
            nvme_total / static_cast<Bytes>(numNodes);
        for (int n = 0; n < numNodes; ++n) {
            NodeState &ns = nodes[static_cast<std::size_t>(n)];
            ns.node = n;
            ns.engine = engines[static_cast<std::size_t>(n)];
            ns.baseHost =
                host_share +
                (n == 0 ? host_total -
                              host_share * static_cast<Bytes>(numNodes)
                        : 0);
            ns.host =
                std::make_unique<memory::PinnedHostPool>(ns.baseHost);
            ns.nvmeCap =
                nvme_share +
                (n == 0 ? nvme_total -
                              nvme_share * static_cast<Bytes>(numNodes)
                        : 0);
            ns.trace.setEnabled(c.recordTimeline);
            ns.lastOptim.assign(
                static_cast<std::size_t>(sched.numMinibatches), 0);
            ns.optRemaining.assign(
                static_cast<std::size_t>(sched.numMinibatches), 0);
        }
        for (int st = 0; st < sched.numStages; ++st) {
            for (auto &rem : nsOfStage(st).optRemaining)
                ++rem;
        }

        allocQueue.resize(static_cast<std::size_t>(topo.numGpus()));
        pendingFreeBytes.assign(
            static_cast<std::size_t>(topo.numGpus()), 0);

        grantsLeft = plan.spareGrants;

        // A layer's planned kind is its own stage's plan entry; an
        // entry filed under any other stage is ignored.
        const auto mbs =
            static_cast<std::size_t>(sched.totalMicrobatches());
        instances.assign(mdl.numLayers() * mbs, InstanceState{});
        for (const auto &st : part.stages) {
            for (std::size_t l = st.firstLayer; l <= st.lastLayer; ++l) {
                const Kind kind =
                    plan.kindFor({st.index, static_cast<int>(l)});
                for (std::size_t m = 0; m < mbs; ++m)
                    instances[l * mbs + m].kind = kind;
            }
        }

        taskDone.assign(sched.tasks.size(), 0);
        arrivalDone.assign(sched.tasks.size(), 0);
        for (const auto &t2 : sched.tasks) {
            bool needs_transfer =
                (t2.kind == TaskKind::Forward && t2.stage > 0) ||
                (t2.kind == TaskKind::Backward &&
                 t2.stage < sched.numStages - 1);
            arrivalDone[static_cast<std::size_t>(t2.id)] =
                needs_transfer ? 0 : 1;
        }
        cursor.assign(static_cast<std::size_t>(sched.numStages), 0);
        stageBusy.assign(static_cast<std::size_t>(sched.numStages), 0);

        report.trace.setEnabled(c.recordTimeline);
        report.jobName = util::strformat(
            "%s/%s/%s", mdl.config().name.c_str(), sched.name.c_str(),
            topo.name().c_str());
        report.overheads.resize(
            static_cast<std::size_t>(sched.numStages));
        for (int st = 0; st < sched.numStages; ++st)
            report.overheads[static_cast<std::size_t>(st)].stage = st;

        if (cfg.recordMetrics)
            setupObservability();
        if (cfg.faults)
            setupFaults();
    }

    /**
     * Select (and reset) the engines, coordinator and fabric: the
     * arena's retained set when one is supplied, self-owned storage
     * otherwise.  Single-node topologies use one engine and no group;
     * multi-node topologies always get one engine per node plus a
     * ShardGroup — the window structure is part of the simulation's
     * semantics.
     */
    void
    setupEngines()
    {
        const Tick look = hw::Fabric::lookaheadFor(topo);
        if (cfg.arena == nullptr) {
            if (numNodes == 1) {
                engines = {&ownEngine};
            } else {
                for (int n = 0; n < numNodes; ++n)
                    ownNodeEngines.push_back(
                        std::make_unique<sim::Engine>());
                for (auto &e : ownNodeEngines)
                    engines.push_back(e.get());
                ownGroup =
                    std::make_unique<sim::ShardGroup>(engines, look);
                group = ownGroup.get();
            }
            ownFabric =
                group ? std::make_unique<hw::Fabric>(*group, topo)
                      : std::make_unique<hw::Fabric>(*engines[0],
                                                     topo);
            fabric = ownFabric.get();
            return;
        }

        ExecutorArena &ar = *cfg.arena;
        bool over = false;
        if (numNodes == 1) {
            // Sample the high-water ratio before reset() zeroes the
            // per-run slot count (reservedSlots survives).
            over = ar.engine.reservedSlots() >
                   std::max<std::size_t>(2 * ar.engine.poolSlots(),
                                         1024);
            ar.engine.reset();
            engines = {&ar.engine};
        } else {
            const bool rebuild =
                static_cast<int>(ar.nodeEngines.size()) != numNodes ||
                ar.group == nullptr || ar.group->lookahead() != look;
            if (rebuild) {
                // The retained fabric (if any) was bound to the old
                // group/engines; drop it so it is rebuilt below.
                ar.fabric.reset();
                ar.fabricTopo = nullptr;
                ar.group.reset();
                ar.nodeEngines.clear();
                for (int n = 0; n < numNodes; ++n)
                    ar.nodeEngines.push_back(
                        std::make_unique<sim::Engine>());
                std::vector<sim::Engine *> ptrs;
                for (auto &e : ar.nodeEngines)
                    ptrs.push_back(e.get());
                ar.group = std::make_unique<sim::ShardGroup>(
                    std::move(ptrs), look);
            } else {
                std::size_t reserved = 0;
                std::size_t used = 0;
                for (auto &e : ar.nodeEngines) {
                    reserved += e->reservedSlots();
                    used += e->poolSlots();
                }
                over = reserved >
                       std::max<std::size_t>(2 * used, 1024);
                ar.group->reset();
            }
            for (auto &e : ar.nodeEngines)
                engines.push_back(e.get());
            group = ar.group.get();
        }
        if (ar.fabric == nullptr || ar.fabricTopo != &topo) {
            // Build against this exact topology object (the arena
            // owner keeps one stable copy per worker); the resets
            // above already cleared every pending completion the
            // fabric streams could reference.
            ar.fabric =
                group ? std::make_unique<hw::Fabric>(*group, topo)
                      : std::make_unique<hw::Fabric>(*engines[0],
                                                     topo);
            ar.fabricTopo = &topo;
        } else {
            ar.fabric->reset();
        }
        fabric = ar.fabric.get();
        applyShrinkPolicy(over);
    }

    /** High-water policy: after kShrinkAfter consecutive runs whose
     *  retained slabs could hold over twice what was actually used,
     *  release the engines' and fabric's retained storage so a
     *  long-lived daemon does not hold one huge plan's peak arenas
     *  forever.  Engines were reset above, so their heaps are empty
     *  (a shrink() precondition). */
    void
    applyShrinkPolicy(bool over)
    {
        ExecutorArena &ar = *cfg.arena;
        if (!over) {
            ar.overStreak = 0;
            return;
        }
        if (++ar.overStreak < kShrinkAfter)
            return;
        ar.overStreak = 0;
        ++ar.shrinks;
        if (group)
            group->shrink();
        else
            engines[0]->shrink();
        fabric->shrink();
    }

    /** Arm the injectors: count the schedule, install the fabric
     *  shaper for link-degrade windows, and schedule host-pressure
     *  windows on every node's engine. */
    void
    setupFaults()
    {
        const fault::Scenario &sc = *cfg.faults;
        report.faults.enabled = true;
        report.faults.scheduledLinkDegrade =
            sc.countOf(fault::EventKind::LinkDegrade);
        report.faults.scheduledTransferFail =
            sc.countOf(fault::EventKind::TransferFail);
        report.faults.scheduledGpuStraggle =
            sc.countOf(fault::EventKind::GpuStraggle);
        report.faults.scheduledHostPressure =
            sc.countOf(fault::EventKind::HostPressure);

        if (cfg.recordMetrics) {
            for (auto &ns : nodes) {
                mFaultFail = ns.obsData.metrics.counter(
                    "fault.transfer.failures");
                mFaultRetry = ns.obsData.metrics.counter(
                    "fault.transfer.retries");
                mFaultFallbackSwap = ns.obsData.metrics.counter(
                    "fault.fallback.swap");
                mFaultFallbackRecompute = ns.obsData.metrics.counter(
                    "fault.fallback.recompute");
                mFaultStraggle = ns.obsData.metrics.counter(
                    "fault.straggle.tasks");
                mFaultDegraded = ns.obsData.metrics.counter(
                    "fault.degraded.transfers");
                mFaultPressure = ns.obsData.metrics.gauge(
                    "fault.host.pressure.bytes");
            }
        }

        for (auto &ns : nodes) {
            ns.injector = std::make_unique<fault::Injector>(
                sc, *ns.engine,
                static_cast<std::uint64_t>(ns.node));
        }

        fabric->setTransferShaper(
            [this](hw::FabricResource res, int node, int a, int b,
                   Bytes, Tick dur) {
                // The query runs on the engine executing the shaped
                // leg; route it to that node's injector so every draw
                // stays on its own shard's deterministic order.
                NodeState &ns =
                    nodes[node < 0 ? 0
                                   : static_cast<std::size_t>(node)];
                double stretch =
                    ns.injector->transferStretch(res, a, b);
                if (stretch <= 1.0)
                    return dur;
                ++ns.faults.degradedTransfers;
                ns.obsData.metrics.add(mFaultDegraded,
                                       ns.engine->now(), 1.0);
                return static_cast<Tick>(
                    static_cast<double>(dur) * stretch);
            });

        // Host pressure cuts every node's pool slice proportionally;
        // node 0 additionally keeps the cluster-wide running total
        // for the report and metric (on one node, share == bytes and
        // the mutation order matches the historical handler exactly).
        const auto nn = static_cast<Bytes>(nodes.size());
        for (const auto &e : sc.events) {
            if (e.kind != fault::EventKind::HostPressure)
                continue;
            const Bytes base_share = e.bytes / nn;
            for (auto &node_state : nodes) {
                NodeState *np = &node_state;
                const Bytes share =
                    base_share +
                    (np->node == 0 ? e.bytes - base_share * nn : 0);
                np->engine->schedule(e.start, [this, np, share, e]() {
                    np->hostPressureCut += share;
                    if (np->node == 0) {
                        np->totalPressureCut += e.bytes;
                        ++np->faults.hostPressureEvents;
                        np->faults.hostPressurePeak =
                            std::max(np->faults.hostPressurePeak,
                                     np->totalPressureCut);
                    }
                    np->host->setCapacity(np->baseHost -
                                          np->hostPressureCut);
                    if (np->node == 0) {
                        np->obsData.metrics.set(
                            mFaultPressure, np->engine->now(),
                            static_cast<double>(
                                np->totalPressureCut));
                    }
                    traceInstant(*np, "fault: host-pressure on", -1);
                });
                np->engine->schedule(e.end, [this, np, share, e]() {
                    np->hostPressureCut -= share;
                    if (np->node == 0)
                        np->totalPressureCut -= e.bytes;
                    np->host->setCapacity(np->baseHost -
                                          np->hostPressureCut);
                    if (np->node == 0) {
                        np->obsData.metrics.set(
                            mFaultPressure, np->engine->now(),
                            static_cast<double>(
                                np->totalPressureCut));
                    }
                    traceInstant(*np, "fault: host-pressure off", -1);
                });
            }
        }
    }

    /** Emit a fault marker into @p ns's trace (lane -1 = host-wide). */
    void
    traceInstant(NodeState &ns, std::string name, int lane)
    {
        if (!cfg.recordTimeline)
            return;
        ns.trace.recordInstant(std::move(name), "fault",
                               lane < 0 ? 0 : lane,
                               ns.engine->now());
    }

    /** Apply any active straggle window to a compute duration. */
    Tick
    computeDur(int gpu, Tick dur)
    {
        NodeState &ns = nsOf(gpu);
        if (!ns.injector)
            return dur;
        double stretch = ns.injector->computeStretch(gpu);
        if (stretch <= 1.0)
            return dur;
        ++ns.faults.straggledTasks;
        ns.obsData.metrics.add(mFaultStraggle, ns.engine->now(), 1.0);
        return static_cast<Tick>(static_cast<double>(dur) * stretch);
    }

    /** Enable every node's bundle and hook every tracker and stream.
     *  With recordMetrics off none of this runs, the metric ids stay
     *  kInvalid, and the instrumented call sites below are no-ops.
     *  Every node registers the same metrics in the same order, so
     *  one set of ids addresses all per-node registries. */
    void
    setupObservability()
    {
        for (auto &ns : nodes) {
            ns.obsData.enabled = true;
            ns.obsData.metrics = obs::MetricsRegistry(true);
            ns.obsData.memory = obs::MemoryTimeline(true);
            ns.obsData.utilization = obs::UtilizationRecorder(true);

            mSwapOut = ns.obsData.metrics.counter("swap.out.bytes");
            mSwapIn = ns.obsData.metrics.counter("swap.in.bytes");
            mD2dOut = ns.obsData.metrics.counter("d2d.out.bytes");
            mD2dIn = ns.obsData.metrics.counter("d2d.in.bytes");
            mNvmeSpill =
                ns.obsData.metrics.counter("nvme.spill.bytes");
            mRecompute =
                ns.obsData.metrics.counter("recompute.ticks");
            mAllocStalls = ns.obsData.metrics.counter("alloc.stalls");
            mHostUsed =
                ns.obsData.metrics.gauge("host.pinned.used.bytes");
        }

        for (int g = 0; g < topo.numGpus(); ++g) {
            gpuMem[static_cast<std::size_t>(g)]->setObserver(
                [this, g](TensorKind kind, Bytes delta) {
                    NodeState &ns = nsOf(g);
                    ns.obsData.memory.record(ns.engine->now(), g,
                                             kind, delta);
                });
            nsOf(g).obsData.utilization.attach(
                *compute[static_cast<std::size_t>(g)],
                obs::Resource::Compute, g);
        }
        for (auto &ns : nodes) {
            NodeState *np = &ns;
            ns.host->setObserver([this, np](TensorKind, Bytes) {
                np->obsData.metrics.set(
                    mHostUsed, np->engine->now(),
                    static_cast<double>(np->host->used()));
            });
        }
        fabric->visitStreams([this](hw::FabricResource res, int node,
                                    int gpu, sim::Stream &stream) {
            NodeState &ns =
                nodes[node < 0 ? 0 : static_cast<std::size_t>(node)];
            ns.obsData.utilization.attach(stream, obsResource(res),
                                          gpu);
        });
    }

    static obs::Resource
    obsResource(hw::FabricResource res)
    {
        switch (res) {
          case hw::FabricResource::NvlinkEgress:
            return obs::Resource::NvlinkEgress;
          case hw::FabricResource::NvlinkIngress:
            return obs::Resource::NvlinkIngress;
          case hw::FabricResource::PcieH2D:
            return obs::Resource::PcieH2D;
          case hw::FabricResource::PcieD2H:
            return obs::Resource::PcieD2H;
          case hw::FabricResource::NvmeWrite:
            return obs::Resource::NvmeWrite;
          case hw::FabricResource::NvmeRead:
            return obs::Resource::NvmeRead;
          case hw::FabricResource::NicEgress:
            return obs::Resource::NicEgress;
          case hw::FabricResource::NicIngress:
            return obs::Resource::NicIngress;
        }
        return obs::Resource::Compute;
    }

    // ---- timeline -------------------------------------------------

    void
    sampleMem(int gpu)
    {
        if (!cfg.recordTimeline)
            return;
        NodeState &ns = nsOf(gpu);
        ns.memTimeline.push_back(
            {ns.engine->now(), gpu,
             gpuMem[static_cast<std::size_t>(gpu)]->used()});
    }

    void
    traceSpan(const char *kind, int stage, int mb, int gpu,
              Tick start, Tick end)
    {
        if (!cfg.recordTimeline)
            return;
        nsOf(gpu).trace.record(
            util::strformat("%s s%d mb%d", kind, stage, mb),
            kind, gpu, start, end);
    }

    // ---- memory helpers -------------------------------------------

    void
    gpuAlloc(int gpu, TensorKind kind, Bytes bytes)
    {
        bool ok = gpuMem[static_cast<std::size_t>(gpu)]->alloc(kind,
                                                               bytes);
        sampleMem(gpu);
        NodeState &ns = nsOf(gpu);
        if (!ok && cfg.failFastOnOom && !ns.oom) {
            ns.oom = true;
            ns.oomGpu = gpu;
            ns.oomTime = ns.engine->now();
            // Window-granular on sharded runs: the group halts after
            // every shard finishes the current window, keeping the
            // executed event set deterministic.
            ns.engine->stop();
        }
    }

    void
    gpuFree(int gpu, TensorKind kind, Bytes bytes)
    {
        gpuMem[static_cast<std::size_t>(gpu)]->free(kind, bytes);
        sampleMem(gpu);
        drainAllocQueue(gpu);
    }

    // ---- allocation backpressure ----------------------------------
    //
    // The memory manager blocks a requester when the allocation does
    // not fit but in-flight swap-outs will free memory soon — this is
    // what lets swap-everything plans run arbitrarily large models at
    // reduced speed instead of crashing (Fig. 7's GPU-CPU swap bars).
    // A request that cannot ever be satisfied (no pending frees) is a
    // genuine OOM.

    struct PendingAlloc
    {
        TensorKind kind;
        Bytes bytes;
        sim::EventFn fn;
    };
    std::vector<std::deque<PendingAlloc>> allocQueue;
    std::vector<Bytes> pendingFreeBytes;

    /** Allocate, stalling the continuation until memory frees.
     *  A request that can never be satisfied leaves the simulation
     *  deadlocked with the waiter queued; run() detects the drained
     *  event queue with unfinished work and reports it as OOM —
     *  mirroring a real allocator that blocks on pending frees and
     *  raises OOM only when none can arrive. */
    void
    gpuAllocBlocking(int gpu, TensorKind kind, Bytes bytes,
                     sim::EventFn fn)
    {
        auto g = static_cast<std::size_t>(gpu);
        auto &mem = *gpuMem[g];
        if (!cfg.failFastOnOom) {
            // Profiling mode measures true demand: never block.
            gpuAlloc(gpu, kind, bytes);
            fn();
            return;
        }
        if (allocQueue[g].empty() && mem.available() >= bytes) {
            mem.alloc(kind, bytes);
            sampleMem(gpu);
            fn();
            return;
        }
        NodeState &ns = nsOf(gpu);
        ns.obsData.metrics.add(mAllocStalls, ns.engine->now(), 1.0);
        allocQueue[g].push_back({kind, bytes, std::move(fn)});
    }

    void
    drainAllocQueue(int gpu)
    {
        auto g = static_cast<std::size_t>(gpu);
        auto &mem = *gpuMem[g];
        while (!allocQueue[g].empty() &&
               mem.available() >= allocQueue[g].front().bytes) {
            PendingAlloc req = std::move(allocQueue[g].front());
            allocQueue[g].pop_front();
            mem.alloc(req.kind, req.bytes);
            sampleMem(gpu);
            req.fn();
        }
    }

    // ---- P2P stage-to-stage transfers -----------------------------

    void
    p2pTransfer(int src_gpu, int dst_gpu, Bytes bytes,
                sim::EventFn done)
    {
        if (bytes <= 0 || src_gpu == dst_gpu) {
            if (sameNode(src_gpu, dst_gpu)) {
                engineOf(src_gpu).scheduleIn(0, std::move(done));
            } else {
                // Degenerate cross-node hand-off: even an empty
                // message must respect the shard lookahead.
                postToNode(nodeOfGpu(src_gpu), nodeOfGpu(dst_gpu),
                           std::move(done));
            }
            return;
        }
        if (fabric->lanesBetween(src_gpu, dst_gpu) > 0) {
            // Direct lanes: NVLink within a node, the NIC path across
            // nodes (done then fires on the destination shard).
            fabric->d2dTransfer(src_gpu, dst_gpu, bytes, 1,
                                std::move(done));
        } else {
            // No direct NVLink: bounce through host memory.
            fabric->gpuToHost(src_gpu, bytes,
                              [this, dst_gpu, bytes,
                               cb = std::move(done)]() mutable {
                                  fabric->hostToGpu(dst_gpu, bytes,
                                                    std::move(cb));
                              });
        }
    }

    // ---- schedule driving -----------------------------------------

    bool
    eligible(const pipeline::Task &t) const
    {
        // Arrival first: for tasks fed from another node, the arrival
        // message is the happens-before edge that makes the producing
        // task's done flag safe to read.
        if (arrivalDone[static_cast<std::size_t>(t.id)] == 0)
            return false;
        for (int dep : t.deps) {
            if (!taskDone[static_cast<std::size_t>(dep)])
                return false;
        }
        return true;
    }

    void
    tryAdvance(int stage)
    {
        auto s = static_cast<std::size_t>(stage);
        if (stageBusy[s])
            return;
        const auto &order = sched.perStageOrder[s];
        if (cursor[s] >= order.size())
            return;
        const pipeline::Task &t = sched.task(order[cursor[s]]);
        // Stash-offloaded backward tasks need their weight version
        // fetched from the host; the fetch is independent of the
        // gradient arrival, so issue it as soon as the task reaches
        // the queue head and let it overlap the wait.
        if (t.kind == TaskKind::Backward &&
            plan.stashOffloaded(t.stage)) {
            NodeState &ns = nsOfStage(t.stage);
            auto fetch = ns.versionFetch.find(t.id);
            if (fetch == ns.versionFetch.end()) {
                ns.versionFetch[t.id] = 1;
                const int gpu = gpuOf(t.stage);
                const auto &stage_part =
                    part.stages[static_cast<std::size_t>(t.stage)];
                const Tick t0 = ns.engine->now();
                fabric->gpuToHost(gpu, stage_part.paramBytes, [] {});
                fabric->hostToGpu(
                    gpu, stage_part.paramBytes, [this, &t, t0]() {
                        nsOfStage(t.stage).versionFetch[t.id] = 2;
                        // Only the unhidden part is overhead; if the
                        // task was already runnable we stalled.
                        (void)t0;
                        tryAdvance(t.stage);
                    });
                return;
            }
            if (fetch->second != 2)
                return;
        }
        if (!eligible(t))
            return;
        ++cursor[s];
        stageBusy[s] = 1;
        switch (t.kind) {
          case TaskKind::Forward:
            launchForward(t);
            break;
          case TaskKind::Backward:
            launchBackward(t);
            break;
          case TaskKind::OptimStep:
            launchOptim(t);
            break;
        }
    }

    void
    finishTask(const pipeline::Task &t)
    {
        taskDone[static_cast<std::size_t>(t.id)] = 1;
        stageBusy[static_cast<std::size_t>(t.stage)] = 0;

        if (t.kind == TaskKind::Forward &&
            t.stage < sched.numStages - 1) {
            // Ship the boundary activation downstream.
            int nxt = sched.fwdId(t.stage + 1, t.microbatch);
            Bytes bytes =
                part.stages[static_cast<std::size_t>(t.stage)]
                    .outputBytes;
            int dst_stage = t.stage + 1;
            p2pTransfer(gpuOf(t.stage), gpuOf(dst_stage), bytes,
                        [this, nxt, dst_stage]() {
                            arrivalDone[static_cast<std::size_t>(nxt)] =
                                1;
                            tryAdvance(dst_stage);
                        });
        } else if (t.kind == TaskKind::Backward && t.stage > 0) {
            // Ship the input gradient upstream (same size as the
            // upstream stage's boundary activation).
            int nxt = sched.bwdId(t.stage - 1, t.microbatch);
            Bytes bytes =
                part.stages[static_cast<std::size_t>(t.stage - 1)]
                    .outputBytes;
            int dst_stage = t.stage - 1;
            p2pTransfer(gpuOf(t.stage), gpuOf(dst_stage), bytes,
                        [this, nxt, dst_stage]() {
                            arrivalDone[static_cast<std::size_t>(nxt)] =
                                1;
                            tryAdvance(dst_stage);
                        });
        } else if (t.kind == TaskKind::OptimStep) {
            NodeState &ns = nsOfStage(t.stage);
            auto k = static_cast<std::size_t>(t.minibatch);
            if (--ns.optRemaining[k] == 0)
                ns.lastOptim[k] = ns.engine->now();
        }

        tryAdvance(t.stage);
    }

    // ---- forward pass ---------------------------------------------

    /** True when this instance's activation-saving bytes should count
     *  toward the per-iteration savings breakdown (one steady
     *  minibatch is sampled to avoid warmup skew). */
    bool
    countsForSavings(int minibatch) const
    {
        int sample = sched.numMinibatches > 1 ? 1 : 0;
        return minibatch == sample;
    }

    void
    launchForward(const pipeline::Task &t)
    {
        runFwdLayer(t,
                    part.stages[static_cast<std::size_t>(t.stage)]
                        .firstLayer);
    }

    void
    runFwdLayer(const pipeline::Task &t, std::size_t pos)
    {
        const auto &stage =
            part.stages[static_cast<std::size_t>(t.stage)];
        if (pos > stage.lastLayer) {
            finishTask(t);
            return;
        }
        const model::Layer &layer = mdl.layer(pos);
        const int gpu = gpuOf(t.stage);

        // Allocation may stall behind in-flight swap-outs; the layer
        // kernel launches once the stash fits.
        gpuAllocBlocking(
            gpu, TensorKind::Activation, layer.activationStash,
            [this, &t, pos, gpu, &layer]() {
                Tick dur = computeDur(
                    gpu, topo.gpu().computeTime(layer.fwdFlops,
                                                precision));
                compute[static_cast<std::size_t>(gpu)]->submit(
                    dur, [this, &t, pos, gpu](Tick a, Tick b) {
                        traceSpan("fwd", t.stage, t.microbatch, gpu,
                                  a, b);
                        onFwdLayerDone(t, pos);
                    });
            });
    }

    void
    onFwdLayerDone(const pipeline::Task &t, std::size_t pos)
    {
        InstanceKey key{{t.stage, static_cast<int>(pos)},
                        t.microbatch};
        NodeState &ns = nsOfStage(t.stage);
        InstanceState &inst = instance(key);
        inst.genTime = ns.engine->now();

        const model::Layer &layer = mdl.layer(pos);
        const int gpu = gpuOf(t.stage);

        switch (inst.kind) {
          case Kind::None:
            break;
          case Kind::Recompute: {
            // Drop the stash, keep the segment boundary.
            gpuFree(gpu, TensorKind::Activation,
                    layer.activationStash);
            gpuAlloc(gpu, TensorKind::Activation, layer.outputBytes);
            inst.in = InState::NotNeeded;
            if (countsForSavings(t.minibatch)) {
                ns.savings.recompute +=
                    layer.activationStash - layer.outputBytes;
            }
            break;
          }
          case Kind::GpuCpuSwap: {
            // When neither the host pool nor the NVMe can take the
            // stash, it simply stays resident.
            startHostSwapOut(key, gpu, layer.activationStash,
                             t.minibatch);
            break;
          }
          case Kind::D2dSwap: {
            startD2dSwapOut(key, gpu, layer.activationStash,
                            t.minibatch);
            break;
          }
        }

        runFwdLayer(t, pos + 1);
    }

    void
    startD2dSwapOut(InstanceKey key, int gpu, Bytes bytes,
                    int minibatch)
    {
        NodeState &ns = nsOf(gpu);
        auto it = grantsLeft.find(gpu);
        if (it == grantsLeft.end()) {
            ns.d2dOverflow += bytes;
            return;
        }
        compaction::StripePlan stripe_plan;
        if (plan.d2dStriping) {
            stripe_plan = compaction::makeStripePlan(topo, gpu,
                                                     it->second,
                                                     bytes);
        } else {
            // Figure 9 ablation baseline: the whole tensor goes to
            // one importer over a single lane.
            for (const auto &grant : it->second) {
                if (grant.budget >= bytes &&
                    topo.pathLanes(gpu, grant.importerGpu) > 0) {
                    stripe_plan.stripes.push_back(
                        {grant.importerGpu, bytes, 1});
                    break;
                }
            }
        }
        if (stripe_plan.empty()) {
            ns.d2dOverflow += bytes;
            return;
        }
        // Debit budgets; same-node importers reserve their memory at
        // issue.  A cross-node stripe's reservation is made on the
        // importer's own shard when the data lands (issueSwapOutStripe)
        // — the importer's budget is still debited here, exporter-side.
        for (const auto &stripe : stripe_plan.stripes) {
            for (auto &grant : it->second) {
                if (grant.importerGpu == stripe.targetGpu) {
                    grant.budget -= stripe.bytes;
                    break;
                }
            }
            if (sameNode(gpu, stripe.targetGpu)) {
                gpuAlloc(stripe.targetGpu, TensorKind::Activation,
                         stripe.bytes);
            }
        }
        ns.obsData.metrics.add(mD2dOut, ns.engine->now(),
                               static_cast<double>(bytes));
        auto &rec = ns.swapTable.beginSwapOut(key, Kind::D2dSwap,
                                              stripe_plan, bytes);
        instance(key).in = InState::Pending;
        pendingFreeBytes[static_cast<std::size_t>(gpu)] += bytes;

        auto attempt = std::make_shared<SwapOutAttempt>();
        attempt->key = key;
        attempt->gpu = gpu;
        attempt->minibatch = minibatch;
        attempt->remaining = static_cast<int>(rec.plan.stripes.size());
        attempt->landed.assign(rec.plan.stripes.size(), 0);
        for (std::size_t i = 0; i < rec.plan.stripes.size(); ++i) {
            if (sameNode(gpu, rec.plan.stripes[i].targetGpu))
                attempt->landed[i] = 1;
        }
        for (std::size_t i = 0; i < rec.plan.stripes.size(); ++i)
            issueSwapOutStripe(attempt, rec.plan.stripes[i],
                               static_cast<int>(i), 0);
    }

    /** One D2D swap-out in flight: stripes resolve independently
     *  (possibly after retries); the instance settles when the last
     *  stripe does.  landed[i] marks stripes whose importer memory is
     *  reserved, so a demotion frees exactly what was taken. */
    struct SwapOutAttempt
    {
        InstanceKey key;
        int gpu = -1;
        int minibatch = 0;
        int remaining = 0;
        bool anyFailed = false;
        std::vector<char> landed;
    };

    void
    issueSwapOutStripe(std::shared_ptr<SwapOutAttempt> attempt,
                       compaction::Stripe stripe, int idx, int try_no)
    {
        const int gpu = attempt->gpu;
        NodeState &ns = nsOf(gpu);
        // Draw the failure at issue time so the PRNG consumption
        // order follows the exporter shard's deterministic event
        // order.  A failed stripe still occupies its lanes for the
        // full duration — the data just never lands.
        const bool fails =
            ns.injector &&
            ns.injector->failsD2dStripe(gpu, stripe.targetGpu);
        if (fails) {
            ++ns.faults.transferFailures;
            ns.obsData.metrics.add(mFaultFail, ns.engine->now(), 1.0);
            traceInstant(
                ns,
                util::strformat("fault: d2d stripe fail s%d mb%d",
                                attempt->key.ref.stage,
                                attempt->key.microbatch),
                gpu);
        }
        if (sameNode(gpu, stripe.targetGpu)) {
            fabric->d2dTransfer(
                gpu, stripe.targetGpu, stripe.bytes, stripe.lanes,
                [this, attempt, stripe, idx, try_no, fails]() {
                    resolveSwapOutStripe(attempt, stripe, idx, try_no,
                                         !fails);
                });
            return;
        }
        // Cross-node stripe: the transfer's completion fires on the
        // importer's shard, which reserves the landed bytes on its
        // own memory tracker and acknowledges back to the exporter
        // through the mailbox.
        const int src_node = nodeOfGpu(gpu);
        const int dst_node = nodeOfGpu(stripe.targetGpu);
        fabric->d2dTransfer(
            gpu, stripe.targetGpu, stripe.bytes, stripe.lanes,
            [this, attempt, stripe, idx, try_no, fails, src_node,
             dst_node]() {
                if (!fails) {
                    gpuAlloc(stripe.targetGpu, TensorKind::Activation,
                             stripe.bytes);
                }
                postToNode(dst_node, src_node,
                           [this, attempt, stripe, idx, try_no,
                            fails]() {
                               resolveSwapOutStripe(attempt, stripe,
                                                    idx, try_no,
                                                    !fails);
                           });
            });
    }

    /** Exporter-side settlement of one swap-out stripe (called
     *  directly for same-node stripes, via the ack message for
     *  cross-node ones). */
    void
    resolveSwapOutStripe(
        const std::shared_ptr<SwapOutAttempt> &attempt,
        compaction::Stripe stripe, int idx, int try_no, bool ok)
    {
        if (ok) {
            attempt->landed[static_cast<std::size_t>(idx)] = 1;
            swapOutStripeResolved(attempt);
            return;
        }
        if (!cfg.faultLadder) {
            // Ladder disabled: the stripe is lost, the swap-out never
            // completes, and the backward deadlocks into an OOM
            // report.
            return;
        }
        NodeState &ns = nsOf(attempt->gpu);
        if (try_no < cfg.maxTransferRetries) {
            ++ns.faults.retries;
            ns.obsData.metrics.add(mFaultRetry, ns.engine->now(),
                                   1.0);
            ns.engine->scheduleIn(
                cfg.retryBackoff << try_no,
                [this, attempt, stripe, idx, try_no]() {
                    issueSwapOutStripe(attempt, stripe, idx,
                                       try_no + 1);
                });
            return;
        }
        attempt->anyFailed = true;
        swapOutStripeResolved(attempt);
    }

    void
    swapOutStripeResolved(const std::shared_ptr<SwapOutAttempt> &at)
    {
        if (--at->remaining > 0)
            return;
        if (!at->anyFailed) {
            finishD2dSwapOut(*at);
            return;
        }
        demoteFailedD2d(*at);
    }

    void
    finishD2dSwapOut(const SwapOutAttempt &at)
    {
        NodeState &ns = nsOf(at.gpu);
        const auto *r = ns.swapTable.find(at.key);
        pendingFreeBytes[static_cast<std::size_t>(at.gpu)] -= r->bytes;
        gpuFree(at.gpu, TensorKind::Activation, r->bytes);
        ns.swapTable.markResident(at.key);
        if (countsForSavings(at.minibatch))
            ns.savings.d2dSwap += r->bytes;
        wakeIfBlocked(at.key);
    }

    /** A stripe exhausted its retries: undo the whole D2D swap-out
     *  (free landed importer reservations, re-credit grants) and walk
     *  the instance down the ladder — GPU-CPU swap, then recompute. */
    void
    demoteFailedD2d(const SwapOutAttempt &at)
    {
        const InstanceKey key = at.key;
        const int gpu = at.gpu;
        NodeState &ns = nsOf(gpu);
        auto *rec = ns.swapTable.find(key);
        const Bytes bytes = rec->bytes;
        auto git = grantsLeft.find(gpu);
        for (std::size_t i = 0; i < rec->plan.stripes.size(); ++i) {
            const auto &stripe = rec->plan.stripes[i];
            if (at.landed[i]) {
                if (sameNode(gpu, stripe.targetGpu)) {
                    gpuFree(stripe.targetGpu, TensorKind::Activation,
                            stripe.bytes);
                } else {
                    const int target = stripe.targetGpu;
                    const Bytes sb = stripe.bytes;
                    postToNode(ns.node, nodeOfGpu(target),
                               [this, target, sb]() {
                                   gpuFree(target,
                                           TensorKind::Activation,
                                           sb);
                               });
                }
            }
            if (git != grantsLeft.end()) {
                for (auto &grant : git->second) {
                    if (grant.importerGpu == stripe.targetGpu) {
                        grant.budget += stripe.bytes;
                        break;
                    }
                }
            }
        }
        pendingFreeBytes[static_cast<std::size_t>(gpu)] -= bytes;
        ns.swapTable.abort(key);
        InstanceState &inst = instance(key);
        inst.in = InState::NotNeeded;

        if (startHostSwapOut(key, gpu, bytes, at.minibatch)) {
            inst.kind = Kind::GpuCpuSwap;
            ++ns.faults.fallbackGpuCpuSwap;
            ns.obsData.metrics.add(mFaultFallbackSwap,
                                   ns.engine->now(), 1.0);
            traceInstant(
                ns,
                util::strformat("fault: fallback swap s%d mb%d",
                                key.ref.stage, key.microbatch),
                gpu);
            return;
        }

        // Bottom rung: drop the stash and recompute in the backward
        // pass, exactly like a planned Kind::Recompute instance.
        const model::Layer &layer =
            mdl.layer(static_cast<std::size_t>(key.ref.layer));
        inst.kind = Kind::Recompute;
        ++ns.faults.fallbackRecompute;
        ns.obsData.metrics.add(mFaultFallbackRecompute,
                               ns.engine->now(), 1.0);
        traceInstant(
            ns,
            util::strformat("fault: fallback recompute s%d mb%d",
                            key.ref.stage, key.microbatch),
            gpu);
        gpuFree(gpu, TensorKind::Activation, layer.activationStash);
        gpuAlloc(gpu, TensorKind::Activation, layer.outputBytes);
        inst.in = InState::NotNeeded;
        if (countsForSavings(at.minibatch)) {
            ns.savings.recompute +=
                layer.activationStash - layer.outputBytes;
        }

        // A backward chain may already be stalled on the old swap-in;
        // the tensor will now be recomputed, so resume it.
        if (BwdChain *chain = inst.blockedOn) {
            inst.blockedOn = nullptr;
            if (chain->stallStart >= 0) {
                report
                    .overheads[static_cast<std::size_t>(
                        chain->task->stage)]
                    .swapInStall +=
                    ns.engine->now() - chain->stallStart;
                chain->stallStart = -1;
            }
            runBwdLayer(*chain);
        }
    }

    /**
     * Issue a GPU-CPU swap-out (the planned Kind::GpuCpuSwap path and
     * the ladder's first fallback).  Returns false — with no side
     * effects beyond the host-pool probe — when neither the node's
     * host-pool slice nor its NVMe can take the bytes; the stash then
     * stays resident.
     */
    bool
    startHostSwapOut(InstanceKey key, int gpu, Bytes bytes,
                     int minibatch)
    {
        NodeState &ns = nsOf(gpu);
        bool to_nvme = false;
        if (!ns.host->reserve(bytes)) {
            ns.host->release(bytes);
            // Host pool exhausted: spill to NVMe when the server
            // has one (Sec. V multi-level hierarchy), otherwise
            // keep resident.
            if (ns.nvmeUsed + bytes <= ns.nvmeCap) {
                to_nvme = true;
                ns.nvmeUsed += bytes;
                ns.nvmeSpill += bytes;
                ns.obsData.metrics.add(mNvmeSpill, ns.engine->now(),
                                       static_cast<double>(bytes));
            } else {
                return false;
            }
        }
        ns.obsData.metrics.add(mSwapOut, ns.engine->now(),
                               static_cast<double>(bytes));
        auto &rec0 = ns.swapTable.beginSwapOut(key, Kind::GpuCpuSwap,
                                               {}, bytes);
        rec0.onNvme = to_nvme;
        instance(key).in = InState::Pending;
        pendingFreeBytes[static_cast<std::size_t>(gpu)] += bytes;
        fabric->gpuToHost(
            gpu, bytes, [this, key, gpu, minibatch]() {
                NodeState &n2 = nsOf(gpu);
                auto *rec = n2.swapTable.find(key);
                pendingFreeBytes[static_cast<std::size_t>(gpu)] -=
                    rec->bytes;
                gpuFree(gpu, TensorKind::Activation, rec->bytes);
                if (countsForSavings(minibatch))
                    n2.savings.gpuCpuSwap += rec->bytes;
                if (!rec->onNvme) {
                    n2.swapTable.markResident(key);
                    wakeIfBlocked(key);
                    return;
                }
                // Second leg: stream through to the SSD.
                fabric->hostToNvme(
                    n2.node, rec->bytes, [this, key, gpu]() {
                        nsOf(gpu).swapTable.markResident(key);
                        wakeIfBlocked(key);
                    });
            });
        return true;
    }

    // ---- backward pass --------------------------------------------

    void
    launchBackward(const pipeline::Task &t)
    {
        const auto &stage =
            part.stages[static_cast<std::size_t>(t.stage)];
        NodeState &ns = nsOfStage(t.stage);
        BwdChain chain;
        chain.task = &t;
        for (std::size_t pos = stage.lastLayer + 1;
             pos > stage.firstLayer; --pos)
            chain.layersRev.push_back(pos - 1);
        auto [it, ok] = ns.bwdChains.emplace(t.id, std::move(chain));
        (void)ok;

        issuePrefetches(it->second);
        runBwdLayer(it->second);
    }

    void
    issuePrefetches(BwdChain &chain)
    {
        while (chain.nextPrefetch < chain.layersRev.size() &&
               chain.inflightSwapIns < cfg.swapInLookahead) {
            std::size_t pos = chain.layersRev[chain.nextPrefetch];
            InstanceKey key{{chain.task->stage,
                             static_cast<int>(pos)},
                            chain.task->microbatch};
            ++chain.nextPrefetch;
            if (instance(key).in != InState::Pending)
                continue;
            issueSwapIn(chain, key);
        }
    }

    void
    issueSwapIn(BwdChain &chain, InstanceKey key)
    {
        NodeState &ns = nsOfStage(chain.task->stage);
        auto *rec = ns.swapTable.find(key);
        if (!rec || rec->state != SwapState::Resident)
            return;  // swap-out still in flight; will stall later
        instance(key).in = InState::InFlight;
        ++chain.inflightSwapIns;
        ns.obsData.metrics.add(rec->kind == Kind::D2dSwap ? mD2dIn
                                                          : mSwapIn,
                               ns.engine->now(),
                               static_cast<double>(rec->bytes));
        ns.swapTable.markSwappingIn(key);
        const int gpu = gpuOf(chain.task->stage);

        // Re-materialize the stash on the exporter GPU; the transfer
        // waits if the allocation must stall behind pending frees.
        gpuAllocBlocking(
            gpu, TensorKind::Activation, rec->bytes,
            [this, key, gpu]() {
                NodeState &n2 = nsOf(gpu);
                const auto *r = n2.swapTable.find(key);
                if (r->kind == Kind::GpuCpuSwap && r->onNvme) {
                    fabric->nvmeToHost(
                        n2.node, r->bytes, [this, key, gpu]() {
                            const auto *rec2 =
                                nsOf(gpu).swapTable.find(key);
                            fabric->hostToGpu(gpu, rec2->bytes,
                                              [this, key]() {
                                                  onSwapInDone(key);
                                              });
                        });
                } else if (r->kind == Kind::GpuCpuSwap) {
                    fabric->hostToGpu(gpu, r->bytes, [this, key]() {
                        onSwapInDone(key);
                    });
                } else {
                    auto attempt = std::make_shared<SwapInAttempt>();
                    attempt->key = key;
                    attempt->gpu = gpu;
                    attempt->remaining =
                        static_cast<int>(r->plan.stripes.size());
                    for (const auto &stripe : r->plan.stripes)
                        issueSwapInStripe(attempt, stripe, 0);
                }
            });
    }

    /** One D2D swap-in in flight; completes when every stripe has
     *  been fetched back from its importer. */
    struct SwapInAttempt
    {
        InstanceKey key;
        int gpu = -1;
        int remaining = 0;
    };

    void
    issueSwapInStripe(std::shared_ptr<SwapInAttempt> attempt,
                      compaction::Stripe stripe, int try_no)
    {
        const int gpu = attempt->gpu;
        NodeState &ns = nsOf(gpu);
        // The draw stays on the exporter's shard even for cross-node
        // stripes, keeping the consumption order deterministic.
        const bool fails =
            ns.injector &&
            ns.injector->failsD2dStripe(stripe.targetGpu, gpu);
        if (fails) {
            ++ns.faults.transferFailures;
            ns.obsData.metrics.add(mFaultFail, ns.engine->now(), 1.0);
            traceInstant(
                ns,
                util::strformat("fault: d2d stripe fail s%d mb%d",
                                attempt->key.ref.stage,
                                attempt->key.microbatch),
                gpu);
        }
        // The completion below runs on the transfer's destination —
        // the exporter's own shard — so it may touch ns state freely.
        auto done = [this, attempt, stripe, try_no, fails]() {
            if (!fails) {
                if (--attempt->remaining == 0)
                    onSwapInDone(attempt->key);
                return;
            }
            if (!cfg.faultLadder) {
                // Ladder disabled: the stripe never arrives and the
                // blocked backward deadlocks into OOM.
                return;
            }
            NodeState &n2 = nsOf(attempt->gpu);
            if (try_no < cfg.maxTransferRetries) {
                ++n2.faults.retries;
                n2.obsData.metrics.add(mFaultRetry, n2.engine->now(),
                                       1.0);
                n2.engine->scheduleIn(
                    cfg.retryBackoff << try_no,
                    [this, attempt, stripe, try_no]() {
                        issueSwapInStripe(attempt, stripe,
                                          try_no + 1);
                    });
                return;
            }
            // Retries exhausted on the direct link: the data still
            // lives on the importer, so reroute the stripe through
            // host memory over PCIe — the swap-in's GPU-CPU fallback
            // rung.
            ++n2.faults.fallbackGpuCpuSwap;
            n2.obsData.metrics.add(mFaultFallbackSwap,
                                   n2.engine->now(), 1.0);
            traceInstant(
                n2,
                util::strformat(
                    "fault: stripe reroute via host s%d mb%d",
                    attempt->key.ref.stage, attempt->key.microbatch),
                attempt->gpu);
            rerouteSwapInStripe(attempt, stripe);
        };
        if (sameNode(stripe.targetGpu, gpu)) {
            fabric->d2dTransfer(stripe.targetGpu, gpu, stripe.bytes,
                                stripe.lanes, std::move(done));
            return;
        }
        // Cross-node pull: the transfer must be issued from the
        // importer's shard (it occupies the importer's egress NICs),
        // so send a pull-request through the mailbox; the two-leg
        // completion then lands back here on the exporter's shard.
        const int imp_node = nodeOfGpu(stripe.targetGpu);
        postToNode(ns.node, imp_node,
                   [this, attempt, stripe,
                    d = std::move(done)]() mutable {
                       fabric->d2dTransfer(stripe.targetGpu,
                                           attempt->gpu, stripe.bytes,
                                           stripe.lanes,
                                           std::move(d));
                   });
    }

    /** Ladder reroute of one swap-in stripe via host memory: D2H on
     *  the importer, then H2D on the exporter, hopping shards through
     *  the mailbox when the two differ. */
    void
    rerouteSwapInStripe(std::shared_ptr<SwapInAttempt> attempt,
                        compaction::Stripe stripe)
    {
        const int gpu = attempt->gpu;
        if (sameNode(stripe.targetGpu, gpu)) {
            fabric->gpuToHost(
                stripe.targetGpu, stripe.bytes,
                [this, attempt, stripe]() {
                    fabric->hostToGpu(
                        attempt->gpu, stripe.bytes,
                        [this, attempt]() {
                            if (--attempt->remaining == 0)
                                onSwapInDone(attempt->key);
                        });
                });
            return;
        }
        const int exp_node = nodeOfGpu(gpu);
        const int imp_node = nodeOfGpu(stripe.targetGpu);
        postToNode(
            exp_node, imp_node,
            [this, attempt, stripe, exp_node, imp_node]() {
                fabric->gpuToHost(
                    stripe.targetGpu, stripe.bytes,
                    [this, attempt, stripe, exp_node, imp_node]() {
                        postToNode(
                            imp_node, exp_node,
                            [this, attempt, stripe]() {
                                fabric->hostToGpu(
                                    attempt->gpu, stripe.bytes,
                                    [this, attempt]() {
                                        if (--attempt->remaining == 0)
                                            onSwapInDone(
                                                attempt->key);
                                    });
                            });
                    });
            });
    }

    /** A swap-out just finished: if a backward chain is already
     *  stalled on this instance, issue its swap-in immediately. */
    void
    wakeIfBlocked(InstanceKey key)
    {
        const InstanceState &inst = instance(key);
        if (inst.blockedOn != nullptr && inst.in == InState::Pending)
            issueSwapIn(*inst.blockedOn, key);
    }

    void
    onSwapInDone(InstanceKey key)
    {
        NodeState &ns = nsOfStage(key.ref.stage);
        auto *rec = ns.swapTable.find(key);
        const int gpu = gpuOf(key.ref.stage);
        if (rec->kind == Kind::GpuCpuSwap) {
            if (rec->onNvme)
                ns.nvmeUsed -= rec->bytes;
            else
                ns.host->release(rec->bytes);
        } else {
            auto git = grantsLeft.find(gpu);
            for (const auto &stripe : rec->plan.stripes) {
                if (sameNode(gpu, stripe.targetGpu)) {
                    gpuFree(stripe.targetGpu, TensorKind::Activation,
                            stripe.bytes);
                } else {
                    const int target = stripe.targetGpu;
                    const Bytes sb = stripe.bytes;
                    postToNode(ns.node, nodeOfGpu(target),
                               [this, target, sb]() {
                                   gpuFree(target,
                                           TensorKind::Activation,
                                           sb);
                               });
                }
                if (git != grantsLeft.end()) {
                    for (auto &grant : git->second) {
                        if (grant.importerGpu == stripe.targetGpu) {
                            grant.budget += stripe.bytes;
                            break;
                        }
                    }
                }
            }
        }
        ns.swapTable.complete(key);
        InstanceState &inst = instance(key);
        inst.in = InState::Done;

        if (BwdChain *chain = inst.blockedOn) {
            inst.blockedOn = nullptr;
            --chain->inflightSwapIns;
            if (chain->stallStart >= 0) {
                report
                    .overheads[static_cast<std::size_t>(
                        chain->task->stage)]
                    .swapInStall +=
                    ns.engine->now() - chain->stallStart;
                chain->stallStart = -1;
            }
            issuePrefetches(*chain);
            runBwdLayer(*chain);
        } else {
            // Not blocked: the instance's backward task owns the
            // chain whose in-flight counter this swap-in holds.
            auto it = ns.bwdChains.find(
                sched.bwdId(key.ref.stage, key.microbatch));
            if (it != ns.bwdChains.end()) {
                --it->second.inflightSwapIns;
                issuePrefetches(it->second);
            }
        }
    }

    void
    runBwdLayer(BwdChain &chain)
    {
        const pipeline::Task &t = *chain.task;
        NodeState &ns = nsOfStage(t.stage);
        if (chain.next >= chain.layersRev.size()) {
            ns.bwdChains.erase(t.id);
            finishTask(t);
            return;
        }
        std::size_t pos = chain.layersRev[chain.next];
        InstanceKey key{{t.stage, static_cast<int>(pos)},
                        t.microbatch};
        InstanceState &inst = instance(key);
        const InState st = inst.in;

        if (st == InState::Pending || st == InState::InFlight) {
            // Needed tensor is off-device: stall the compute queue.
            if (st == InState::Pending) {
                // Prefetch window missed it (e.g. swap-out was still
                // in flight); issue now.
                auto *rec = ns.swapTable.find(key);
                if (rec && rec->state == SwapState::Resident)
                    issueSwapIn(chain, key);
            }
            chain.stallStart = ns.engine->now();
            inst.blockedOn = &chain;
            return;
        }

        // Captured by pointer: model::Layer holds a std::string, so a
        // by-value capture would heap-allocate per backward event.
        // The model outlives the run, so the pointer is stable.
        const model::Layer *layer = &mdl.layer(pos);
        const int gpu = gpuOf(t.stage);
        const Kind kind = inst.kind;

        if (cfg.recordLiveness && inst.genTime >= 0) {
            ns.liveness.record(key.ref, layer->activationStash,
                               t.microbatch, inst.genTime,
                               ns.engine->now());
        }

        auto submit_bwd = [this, &chain, gpu, layer]() {
            Tick dur = computeDur(
                gpu,
                topo.gpu().computeTime(layer->bwdFlops(), precision));
            compute[static_cast<std::size_t>(gpu)]->submit(
                dur, [this, &chain, gpu, layer](Tick a, Tick b) {
                    traceSpan("bwd", chain.task->stage,
                              chain.task->microbatch, gpu, a, b);
                    gpuFree(gpu, TensorKind::Activation,
                            layer->activationStash);
                    ++chain.next;
                    issuePrefetches(chain);
                    runBwdLayer(chain);
                });
        };

        if (kind == Kind::Recompute) {
            // Re-run the forward pass on the compute queue, then do
            // the backward.
            Tick redo = computeDur(
                gpu,
                topo.gpu().computeTime(layer->fwdFlops, precision));
            report.overheads[static_cast<std::size_t>(t.stage)]
                .recomputeTime += redo;
            ns.obsData.metrics.add(mRecompute, ns.engine->now(),
                                   static_cast<double>(redo));
            compute[static_cast<std::size_t>(gpu)]->submit(
                redo,
                [this, &chain, gpu, layer, submit_bwd](Tick a,
                                                       Tick b) {
                    traceSpan("recompute", chain.task->stage,
                              chain.task->microbatch, gpu, a, b);
                    gpuAlloc(gpu, TensorKind::Activation,
                             layer->activationStash);
                    gpuFree(gpu, TensorKind::Activation,
                            layer->outputBytes);
                    submit_bwd();
                });
        } else {
            submit_bwd();
        }
    }

    // ---- optimizer step -------------------------------------------

    void
    launchOptim(const pipeline::Task &t)
    {
        const auto &stage =
            part.stages[static_cast<std::size_t>(t.stage)];
        const int gpu = gpuOf(t.stage);
        NodeState &ns = nsOfStage(t.stage);
        // Adam is memory-bound: touches params, grads and state.
        Bytes touched = stage.paramBytes + stage.gradBytes +
                        stage.optStateBytes;
        Tick dur = topo.gpu().hbm.transferTime(touched);

        bool offload =
            static_cast<std::size_t>(t.stage) <
                plan.offloadOptState.size() &&
            plan.offloadOptState[static_cast<std::size_t>(t.stage)];

        if (!offload) {
            compute[static_cast<std::size_t>(gpu)]->submit(
                computeDur(gpu, dur),
                [this, &t](Tick, Tick) { finishTask(t); });
            return;
        }

        // Optimizer state lives on the host permanently; the step
        // runs on the CPU (gradients down, fresh parameters up),
        // which moves 1/3 the bytes of a state round-trip — the same
        // mechanism ZeRO-Offload uses.  The CPU-side Adam is
        // host-memory-bound.
        (void)dur;
        const Tick t0 = ns.engine->now();
        const Bytes grad_bytes = stage.gradBytes;
        const Bytes param_bytes = stage.paramBytes;
        const Tick cpu_step = util::Bandwidth::fromGBps(25.0)
                                  .transferTime(stage.optStateBytes);
        fabric->gpuToHost(gpu, grad_bytes, [this, &t, gpu, t0,
                                            param_bytes, cpu_step]() {
            engineOf(gpu).scheduleIn(cpu_step, [this, &t, gpu, t0,
                                                param_bytes]() {
                fabric->hostToGpu(gpu, param_bytes, [this, &t, t0]() {
                    report.overheads[static_cast<std::size_t>(t.stage)]
                        .optimStall +=
                        nsOfStage(t.stage).engine->now() - t0;
                    finishTask(t);
                });
            });
        });
    }

    // ---- top level -------------------------------------------------

    void
    allocateStatic()
    {
        for (const auto &stage : part.stages) {
            const int gpu = gpuOf(stage.index);
            NodeState &ns = nsOf(gpu);
            int versions = sched.weightVersions(stage.index);
            if (plan.stashOffloaded(stage.index) && versions > 2) {
                // Older versions live in host memory; the GPU keeps
                // the active version plus the one being consumed.
                ns.host->reserve(stage.paramBytes * (versions - 2));
                ns.savings.gpuCpuSwap +=
                    stage.paramBytes * (versions - 2);
                versions = 2;
            }
            gpuAlloc(gpu, TensorKind::Parameter,
                     stage.paramBytes * versions);
            gpuAlloc(gpu, TensorKind::Gradient, stage.gradBytes);

            bool offload =
                static_cast<std::size_t>(stage.index) <
                    plan.offloadOptState.size() &&
                plan.offloadOptState[static_cast<std::size_t>(
                    stage.index)];
            if (offload) {
                ns.host->reserve(stage.optStateBytes);
                ns.savings.gpuCpuSwap += stage.optStateBytes;
            } else {
                gpuAlloc(gpu, TensorKind::OptimizerState,
                         stage.optStateBytes);
            }
        }
    }

    TrainingReport
    run()
    {
        allocateStatic();
        if (!anyOom()) {
            for (auto &node_state : nodes) {
                NodeState *np = &node_state;
                np->engine->schedule(0, [this, np]() {
                    for (int s = 0; s < sched.numStages; ++s) {
                        if (nodeOfGpu(gpuOf(s)) == np->node)
                            tryAdvance(s);
                    }
                });
            }
            if (group)
                group->run();
            else
                engines[0]->run();
            detectDeadlock();
        }
        finalize();
        return std::move(report);
    }

    /** The event queues drained but work remains: an allocation is
     *  blocked with no free ever coming — memory exhaustion. */
    void
    detectDeadlock()
    {
        if (anyOom())
            return;
        bool complete = true;
        for (int s = 0; s < sched.numStages; ++s) {
            complete &=
                cursor[static_cast<std::size_t>(s)] ==
                    sched.perStageOrder[static_cast<std::size_t>(s)]
                        .size() &&
                !stageBusy[static_cast<std::size_t>(s)];
        }
        if (complete)
            return;
        report.oom = true;
        report.oomTime = group ? group->maxNow() : engines[0]->now();
        for (std::size_t g = 0; g < allocQueue.size(); ++g) {
            if (!allocQueue[g].empty()) {
                report.oomGpu = static_cast<int>(g);
                break;
            }
        }
    }

    void
    finalize()
    {
        // Merge per-node OOM candidates (earliest wins, ties broken
        // by GPU id) unless detectDeadlock already filled the report.
        if (!report.oom) {
            for (const auto &ns : nodes) {
                if (!ns.oom)
                    continue;
                if (!report.oom || ns.oomTime < report.oomTime ||
                    (ns.oomTime == report.oomTime &&
                     ns.oomGpu < report.oomGpu)) {
                    report.oom = true;
                    report.oomTime = ns.oomTime;
                    report.oomGpu = ns.oomGpu;
                }
            }
        }

        report.makespan = group ? group->maxNow() : engines[0]->now();

        if (cfg.recordMetrics) {
            for (auto &ns : nodes) {
                ns.obsData.makespan = report.makespan;
                obs::mergeCounterEvents(ns.obsData, ns.trace);
            }
        }

        if (cfg.recordTimeline) {
            if (numNodes == 1) {
                report.trace = std::move(nodes[0].trace);
            } else {
                // Deterministic merge: concatenate per-shard streams
                // in node order (the exporters sort by time anyway).
                for (auto &ns : nodes) {
                    for (const auto &sp : ns.trace.spans())
                        report.trace.record(sp.name, sp.category,
                                            sp.lane, sp.start,
                                            sp.end);
                    for (const auto &in : ns.trace.instants())
                        report.trace.recordInstant(in.name,
                                                   in.category,
                                                   in.lane, in.time);
                    for (const auto &ct : ns.trace.counters())
                        report.trace.recordCounter(ct.name, ct.lane,
                                                   ct.time, ct.value);
                }
            }
            for (int g = 0; g < topo.numGpus(); ++g) {
                report.trace.nameLane(
                    g, util::strformat("gpu%d", g));
            }
            if (numNodes == 1) {
                report.memTimeline = std::move(nodes[0].memTimeline);
            } else {
                for (auto &ns : nodes) {
                    report.memTimeline.insert(
                        report.memTimeline.end(),
                        ns.memTimeline.begin(), ns.memTimeline.end());
                }
            }
        }

        for (int g = 0; g < topo.numGpus(); ++g) {
            const auto &mem = *gpuMem[static_cast<std::size_t>(g)];
            GpuMemStats stats;
            stats.gpu = g;
            stats.capacity = topo.gpu().memCapacity;
            if (report.makespan > 0) {
                stats.computeUtilization =
                    static_cast<double>(
                        compute[static_cast<std::size_t>(g)]
                            ->busyTime()) /
                    static_cast<double>(report.makespan);
            }
            stats.peak = mem.peak();
            stats.peakActivations =
                mem.peakByKind(TensorKind::Activation);
            stats.peakParams = mem.peakByKind(TensorKind::Parameter);
            stats.peakGrads = mem.peakByKind(TensorKind::Gradient);
            stats.peakOptState =
                mem.peakByKind(TensorKind::OptimizerState);
            stats.finalUsed = mem.used();
            stats.oom = mem.oomOccurred();
            report.gpus.push_back(stats);
        }
        report.hostPeak = 0;
        for (const auto &ns : nodes)
            report.hostPeak += ns.host->peak();
        report.nvlinkBusyTime = fabric->nvlinkBusyTime();
        report.pcieBusyTime = fabric->pcieBusyTime();
        report.nicBusyTime = fabric->nicBusyTime();

        if (cfg.recordMetrics) {
            if (numNodes == 1) {
                report.observability = std::move(nodes[0].obsData);
            } else {
                obs::Observability merged;
                merged.enabled = true;
                merged.makespan = report.makespan;
                merged.metrics = obs::MetricsRegistry(true);
                merged.memory = obs::MemoryTimeline(true);
                merged.utilization = obs::UtilizationRecorder(true);
                for (auto &ns : nodes) {
                    merged.metrics.absorb(
                        ns.obsData.metrics,
                        util::strformat("node%d/", ns.node));
                    for (const auto &ev :
                         ns.obsData.memory.events()) {
                        merged.memory.record(ev.time, ev.gpu,
                                             ev.kind, ev.delta);
                    }
                    for (const auto &ch :
                         ns.obsData.utilization.channels()) {
                        int id = merged.utilization.addChannel(
                            ch.resource, ch.gpu, ch.name);
                        for (const auto &b : ch.intervals)
                            merged.utilization.recordBusy(id, b.start,
                                                          b.end);
                    }
                }
                report.observability = std::move(merged);
            }
        }

        if (cfg.recordLiveness) {
            if (numNodes == 1) {
                report.liveness = std::move(nodes[0].liveness);
            } else {
                for (auto &ns : nodes) {
                    for (const auto *li : ns.liveness.all()) {
                        for (const auto &w : li->windows)
                            report.liveness.record(li->ref, li->size,
                                                   w.microbatch,
                                                   w.generated,
                                                   w.nextUse);
                    }
                }
            }
        }

        for (std::size_t i = 0; i < engines.size(); ++i) {
            ShardStat st;
            st.shard = static_cast<int>(i);
            st.events = engines[i]->eventsExecuted();
            st.poolSlots =
                static_cast<std::uint64_t>(engines[i]->poolSlots());
            st.queuePeak =
                static_cast<std::uint64_t>(engines[i]->queuePeak());
            report.shardStats.push_back(st);
        }
        report.simWindows = group ? group->windowsRun() : 0;

        for (const auto &ns : nodes) {
            report.savings.recompute += ns.savings.recompute;
            report.savings.gpuCpuSwap += ns.savings.gpuCpuSwap;
            report.savings.d2dSwap += ns.savings.d2dSwap;
            report.d2dOverflow += ns.d2dOverflow;
            report.nvmeSpill += ns.nvmeSpill;
            if (report.faults.enabled) {
                report.faults.degradedTransfers +=
                    ns.faults.degradedTransfers;
                report.faults.transferFailures +=
                    ns.faults.transferFailures;
                report.faults.retries += ns.faults.retries;
                report.faults.fallbackGpuCpuSwap +=
                    ns.faults.fallbackGpuCpuSwap;
                report.faults.fallbackRecompute +=
                    ns.faults.fallbackRecompute;
                report.faults.straggledTasks +=
                    ns.faults.straggledTasks;
                report.faults.hostPressureEvents +=
                    ns.faults.hostPressureEvents;
                report.faults.hostPressurePeak =
                    std::max(report.faults.hostPressurePeak,
                             ns.faults.hostPressurePeak);
            }
        }

        if (report.oom)
            return;

        // Global minibatch completion = latest local OptimStep across
        // nodes (every node saw its own last step; the max is the
        // cluster-wide finish).
        minibatchDone.assign(
            static_cast<std::size_t>(sched.numMinibatches), 0);
        for (const auto &ns : nodes) {
            for (std::size_t k = 0; k < minibatchDone.size(); ++k)
                minibatchDone[k] =
                    std::max(minibatchDone[k], ns.lastOptim[k]);
        }

        const int n = sched.numMinibatches;
        Tick steady;
        if (n > 1) {
            steady = (minibatchDone[static_cast<std::size_t>(n - 1)] -
                      minibatchDone[0]) /
                     static_cast<Tick>(n - 1);
        } else {
            steady = report.makespan;
        }
        if (steady <= 0)
            steady = report.makespan;
        report.steadyIterTime = steady;

        double secs = util::toSeconds(steady);
        double samples_per_mini =
            static_cast<double>(sched.microbatchesPerMinibatch) *
            mdl.microbatchSize();
        report.samplesPerSec = samples_per_mini / secs;

        double flops_per_mini =
            3.0 * mdl.totalFwdFlops() *
            sched.microbatchesPerMinibatch;
        report.tflops = flops_per_mini / secs / 1e12;

        if (report.faults.enabled)
            splitFaultThroughput(samples_per_mini);
    }

    /** Classify each minibatch as healthy or degraded by whether its
     *  window overlapped any scheduled fault event, and report the
     *  throughput of both populations. */
    void
    splitFaultThroughput(double samples_per_mini)
    {
        auto overlaps_fault = [this](Tick s, Tick e) {
            for (const auto &ev : cfg.faults->events) {
                if (ev.start < e && s < ev.end)
                    return true;
            }
            return false;
        };
        Tick healthy_time = 0;
        Tick degraded_time = 0;
        Tick prev = 0;
        for (Tick done : minibatchDone) {
            if (overlaps_fault(prev, done)) {
                ++report.faults.degradedMinibatches;
                degraded_time += done - prev;
            } else {
                ++report.faults.healthyMinibatches;
                healthy_time += done - prev;
            }
            prev = done;
        }
        if (healthy_time > 0) {
            report.faults.healthySamplesPerSec =
                samples_per_mini * report.faults.healthyMinibatches /
                util::toSeconds(healthy_time);
        }
        if (degraded_time > 0) {
            report.faults.degradedSamplesPerSec =
                samples_per_mini *
                report.faults.degradedMinibatches /
                util::toSeconds(degraded_time);
        }
    }
};

Executor::Executor(const hw::Topology &topo,
                   const model::TransformerModel &mdl,
                   const partition::Partition &part,
                   const pipeline::Schedule &sched,
                   const compaction::CompactionPlan &plan,
                   ExecutorConfig config)
    : _impl(std::make_unique<Impl>(topo, mdl, part, sched, plan,
                                   config))
{}

Executor::~Executor() = default;

TrainingReport
Executor::run()
{
    return _impl->run();
}

TrainingReport
runTraining(const hw::Topology &topo,
            const model::TransformerModel &mdl,
            const partition::Partition &part,
            const pipeline::Schedule &sched,
            const compaction::CompactionPlan &plan,
            ExecutorConfig config)
{
    Executor exec(topo, mdl, part, sched, plan, config);
    return exec.run();
}

Bytes
TrainingReport::maxGpuPeak() const
{
    Bytes best = 0;
    for (const auto &g : gpus)
        best = std::max(best, g.peak);
    return best;
}

Bytes
TrainingReport::minGpuPeak() const
{
    if (gpus.empty())
        return 0;
    Bytes best = gpus.front().peak;
    for (const auto &g : gpus) {
        if (g.peak > 0)
            best = std::min(best, g.peak);
    }
    return best;
}

Bytes
TrainingReport::totalGpuPeak() const
{
    Bytes total = 0;
    for (const auto &g : gpus)
        total += g.peak;
    return total;
}

} // namespace runtime
} // namespace mpress
