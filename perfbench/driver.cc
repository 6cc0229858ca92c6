/**
 * @file
 * Workload driver of the repository benchmark (see README.md).
 *
 * Runs one named workload for a fixed wall-clock window and writes
 * the raw observations as one JSON document: per-request latencies
 * and outcomes, correctness-check failures, process CPU time and
 * high-water memory, the simulated throughput of every plan, and —
 * in a traced run — the spans of every call the driver made.
 * run.py turns these into the reported metrics.
 *
 * Every layer is timed from outside: the driver brackets its own
 * calls into each module's public functions.  Nothing inside src/ is
 * instrumented, and every workload runs the library's default
 * PlannerConfig / ExecutorConfig / ServerConfig.
 *
 * Usage:
 *   perfbench_driver --workload <plan-node|plan-cluster|serve-mix>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    --out <file> [--setup-only]
 *
 * --setup-only performs the workload's set-up, writes the ready
 * instant and exits; run.py launches it several times to time
 * process start-up plus set-up.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hh"
#include "compaction/serialize.hh"
#include "planner/planner.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "util/pool.hh"
#include "util/random.hh"
#include "util/strings.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace mpress;
using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string
num(double v)
{
    return util::strformat("%.17g", std::isfinite(v) ? v : 0.0);
}

// ---------------------------------------------------------------
// Spans of the traced run
// ---------------------------------------------------------------

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;   ///< index of the enclosing span, -1 at the root
    int request = -1;  ///< request the span belongs to
    std::vector<std::pair<std::string, double>> args;
};

/** In-memory span recorder; a no-op when tracing is off.  Used from
 *  one thread only. */
class Tracer
{
  public:
    Tracer(bool on, Clock::time_point epoch) : _on(on), _epoch(epoch)
    {}

    bool on() const { return _on; }
    const std::vector<Span> &spans() const { return _spans; }

    int
    open(const char *name, int request)
    {
        if (!_on)
            return -1;
        Span s;
        s.name = name;
        s.startUs = usNow();
        s.parent = _stack.empty() ? -1 : _stack.back();
        s.request = request;
        _spans.push_back(std::move(s));
        _stack.push_back(static_cast<int>(_spans.size()) - 1);
        return _stack.back();
    }

    void
    close(int span)
    {
        if (span < 0)
            return;
        _spans[span].endUs = usNow();
        _stack.pop_back();
    }

    void
    arg(int span, const char *key, double value)
    {
        if (span >= 0)
            _spans[span].args.emplace_back(key, value);
    }

  private:
    double
    usNow() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         _epoch)
            .count();
    }

    bool _on;
    Clock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, int request)
        : _tracer(tracer), _span(tracer.open(name, request))
    {}
    ~Scope() { _tracer.close(_span); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void arg(const char *key, double v) { _tracer.arg(_span, key, v); }

  private:
    Tracer &_tracer;
    int _span;
};

/** Call @p fn inside a span named @p name. */
template <class Fn>
auto
timed(Tracer &tracer, const char *name, int request, Fn &&fn)
{
    Scope scope(tracer, name, request);
    return fn();
}

// ---------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------

/** One training job in the vocabulary of the serve protocol. */
struct Job
{
    std::string model;
    std::string topology;
    std::string system;
    int microbatch = 12;
    int mbPerMini = 8;
    int minibatches = 2;

    std::string
    key() const
    {
        return util::strformat("%s/%s/%s/mb%d/%dx%d", model.c_str(),
                               topology.c_str(), system.c_str(),
                               microbatch, mbPerMini, minibatches);
    }

    /** The "job" object of a serve request. */
    std::string
    wire() const
    {
        return util::strformat(
            "{\"model\":\"%s\",\"topology\":\"%s\",\"system\":\"%s\","
            "\"strategy\":\"mpress\",\"microbatch\":%d,"
            "\"mbPerMini\":%d,\"minibatches\":%d}",
            model.c_str(), topology.c_str(), system.c_str(),
            microbatch, mbPerMini, minibatches);
    }
};

/** GPT on DAPPLE and Bert on PipeDream, as bench/common.hh sets them
 *  up for the paper's figures. */
Job
gptJob(const std::string &model, const std::string &topology)
{
    return Job{model, topology, "dapple", 2, 64, 2};
}

Job
bertJob(const std::string &model, const std::string &topology)
{
    return Job{model, topology, "pipedream", 12, 1, 24};
}

/** A job resolved to a topology and a session config, built exactly
 *  as the daemon builds a request (serve/server.cc buildJob): default
 *  planner, executor and verification settings, one stage per GPU. */
struct Resolved
{
    hw::Topology topo;
    api::SessionConfig cfg;
};

std::optional<Resolved>
resolve(const Job &job)
{
    std::optional<hw::Topology> topo =
        api::topologyFromName(job.topology);
    api::SessionConfig cfg;
    if (!topo || !model::findPreset(job.model, &cfg.model) ||
        !api::systemKindFromName(job.system, &cfg.system))
        return std::nullopt;
    cfg.strategy = api::Strategy::MPressFull;
    cfg.microbatch = job.microbatch;
    cfg.numStages = topo->numGpus();
    cfg.microbatchesPerMinibatch = job.mbPerMini;
    cfg.minibatches = job.minibatches;
    return Resolved{std::move(*topo), std::move(cfg)};
}

// ---------------------------------------------------------------
// Run record
// ---------------------------------------------------------------

struct RequestRecord
{
    std::string op;   ///< plan, plan_hit, plan_miss, analyze, ...
    std::string job;  ///< job key ("" for stats)
    double latencyMs = 0.0;
    double latenessMs = 0.0;  ///< open loop: send time - due time
    bool ok = false;
};

/** Everything the driver observed in one run. */
struct Record
{
    std::vector<RequestRecord> requests;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::map<std::string, double> planSamplesPerSec;
    std::uint64_t plannerCacheHits = 0;
    std::uint64_t plannerCacheMisses = 0;
    std::optional<serve::ServerStats> server;
    double sloMs = 0.0;
    double offeredRate = 0.0;

    int failedChecks = 0;
    std::vector<std::string> messages;

    /** First plan text seen per job key. */
    std::map<std::string, std::string> firstPlan;

    /** Record a correctness check; false when it failed. */
    bool
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            ++failedChecks;
            if (messages.size() < 20)
                messages.push_back(what);
        }
        return ok;
    }

    /** Identical jobs must yield byte-identical plan text. */
    bool
    samePlan(const std::string &key, const std::string &text,
             const char *where)
    {
        auto [it, fresh] = firstPlan.emplace(key, text);
        return fresh || check(it->second == text,
                              std::string("plan text differs (") +
                                  where + "): " + key);
    }
};

double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

long
maxRssKb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------
// In-process planning
// ---------------------------------------------------------------

/** Outcome of planning one job in-process. */
struct Planned
{
    std::string planText;
    double samplesPerSec = 0.0;
    bool feasible = false;
    bool verified = false;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    double requestMs = 0.0;  ///< traced path: the request span
};

/** Untraced request: one cold api::MPressSession::run(). */
Planned
planSession(const Resolved &job)
{
    api::MPressSession session(job.topo, job.cfg);
    api::SessionResult result = session.run();
    Planned p;
    p.planText = compaction::planToText(result.plan);
    p.samplesPerSec = result.samplesPerSec;
    p.feasible = result.planResult.feasible && !result.oom;
    p.verified = result.verification.ok();
    p.cacheHits = result.planResult.trialCacheHits;
    p.cacheMisses = result.planResult.trialCacheMisses;
    return p;
}

/**
 * Traced request: the steps of MPressSession::run() for MPressFull —
 * session construction, planMPress, verifyPlan — each in its own
 * span, followed by probes that time the layers those steps call
 * internally (model, partition, schedule, topology, profile, mapper,
 * one DES trial, analyzer, plan text round trip).  The probes sit
 * outside the request span, so the request span stays comparable
 * with the untraced latency.  The analyzer certificate is checked
 * against the probe's DES run.
 */
Planned
planTraced(const Job &job, const Resolved &r, int request,
           Tracer &tr, Record &rec)
{
    const api::SessionConfig &cfg = r.cfg;
    std::optional<api::MPressSession> session;
    planner::PlanResult plan;
    Planned p;
    {
        const Clock::time_point t0 = Clock::now();
        Scope req(tr, "request", request);
        timed(tr, "session.build", request,
              [&] { session.emplace(r.topo, cfg); });
        {
            Scope s(tr, "planner.plan", request);
            plan = planner::planMPress(
                session->topology(), session->model(),
                session->partition(), session->schedule(), cfg.planner,
                cfg.executor);
            s.arg("trials",
                  static_cast<double>(plan.trialCacheMisses));
        }
        verify::Report report = timed(tr, "verify.verify", request, [&] {
            return session->verifyPlan(plan.plan);
        });
        p.planText = compaction::planToText(plan.plan);
        p.samplesPerSec = plan.finalReport.samplesPerSec;
        p.feasible = plan.feasible && !plan.finalReport.oom;
        p.verified = report.ok();
        p.cacheHits = plan.trialCacheHits;
        p.cacheMisses = plan.trialCacheMisses;
        p.requestMs = msBetween(t0, Clock::now());
    }

    const hw::Topology &topo = session->topology();
    const model::TransformerModel &mdl = session->model();
    const partition::Partition &part = session->partition();
    const pipeline::Schedule &sched = session->schedule();
    timed(tr, "model.build", request, [&] {
        return model::TransformerModel(cfg.model, cfg.microbatch);
    });
    timed(tr, "partition.partition", request, [&] {
        return partition::partitionModel(mdl, cfg.numStages,
                                         cfg.partition);
    });
    timed(tr, "pipeline.schedule", request, [&] {
        return pipeline::buildSchedule(cfg.system, cfg.numStages,
                                       cfg.microbatchesPerMinibatch,
                                       cfg.minibatches);
    });
    timed(tr, "cluster.build", request,
          [&] { return api::topologyFromName(job.topology); });
    planner::ProfileResult profile =
        timed(tr, "planner.profile", request, [&] {
            return planner::profileJob(topo, mdl, part, sched,
                                       cfg.executor);
        });
    // planMPress maps devices only when some stage overflows.
    bool overflow = false;
    for (util::Bytes peak : profile.stagePeak)
        overflow |= peak > profile.usableCapacity;
    if (overflow) {
        util::ThreadPool pool(cfg.planner.threads);
        timed(tr, "planner.mapper", request, [&] {
            return planner::searchDeviceMapping(
                topo, profile.stagePeak, profile.usableCapacity,
                cfg.planner.mapper, {}, &pool);
        });
    }
    runtime::TrainingReport trial;
    {
        Scope s(tr, "runtime.trial", request);
        trial = runtime::runTraining(topo, mdl, part, sched, plan.plan,
                                     cfg.executor);
        std::uint64_t events = 0;
        for (const runtime::ShardStat &shard : trial.shardStats)
            events += shard.events;
        s.arg("events", static_cast<double>(events));
        s.arg("windows", static_cast<double>(trial.simWindows));
        s.arg("shards", static_cast<double>(trial.shardStats.size()));
    }
    analysis::AnalysisCertificate cert =
        timed(tr, "analysis.analyze", request,
              [&] { return session->analyzePlan(plan.plan); });
    timed(tr, "compaction.roundtrip", request, [&] {
        return compaction::planFromText(
            compaction::planToText(plan.plan));
    });

    const std::string key = job.key();
    rec.check(cert.valid && cert.gpus.size() == trial.gpus.size(),
              "certificate invalid: " + key);
    for (std::size_t g = 0;
         g < std::min(cert.gpus.size(), trial.gpus.size()); ++g) {
        rec.check(cert.gpus[g].upper >= trial.gpus[g].peak,
                  util::strformat("certificate upper bound under the "
                                  "DES peak on gpu %zu: ",
                                  g) +
                      key);
    }
    rec.check(trial.oom || cert.latencyLowerBound <= trial.makespan,
              "certificate latency bound over the DES makespan: " +
                  key);
    return p;
}

/** Per-request checks shared by every planning path. */
bool
checkPlanned(const std::string &key, const Planned &p,
             const char *where, Record &rec)
{
    bool ok = rec.check(p.feasible, "infeasible plan: " + key);
    ok &= rec.check(p.verified, "plan fails verification: " + key);
    compaction::ParsedPlan parsed = compaction::planFromText(p.planText);
    ok &= rec.check(parsed.ok && compaction::planToText(parsed.plan) ==
                                     p.planText,
                    "plan text does not round-trip: " + key);
    ok &= rec.samePlan(key, p.planText, where);
    rec.planSamplesPerSec[key] = p.samplesPerSec;
    return ok;
}

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string out;
};

/** Seeded Fisher-Yates shuffle. */
template <class T>
void
shuffle(std::vector<T> &v, util::SplitMix64 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

/** Latency limits of the closed-loop workloads (slo_met_ratio). */
constexpr double kPlanNodeSloMs = 2000.0;
constexpr double kPlanClusterSloMs = 10000.0;

/** Seeded job order: the cycle is reshuffled every pass, so every
 *  job keeps its share while the order varies with the seed. */
class Rotation
{
  public:
    Rotation(std::vector<int> cycle, std::uint64_t seed)
        : _cycle(std::move(cycle)), _rng(seed)
    {}

    int
    next()
    {
        if (_pos == _order.size()) {
            _order = _cycle;
            shuffle(_order, _rng);
            _pos = 0;
        }
        return _order[_pos++];
    }

  private:
    std::vector<int> _cycle;
    util::SplitMix64 _rng;
    std::vector<int> _order;
    std::size_t _pos = 0;
};

/**
 * plan-node / plan-cluster: one client, closed loop, a cold
 * in-process planning request per iteration.  @p cycle lists job
 * indices with repetition (a job listed twice runs twice as often).
 */
int
runPlanLoop(const Options &opt, const std::vector<Job> &jobs,
            const std::vector<int> &cycle, double slo_ms, Tracer &tr,
            Record &rec, const std::function<void()> &ready)
{
    rec.sloMs = slo_ms;
    std::vector<Resolved> resolved;
    for (const Job &job : jobs) {
        std::optional<Resolved> r = resolve(job);
        if (!r) {
            std::fprintf(stderr, "unknown job %s\n", job.key().c_str());
            return 2;
        }
        resolved.push_back(std::move(*r));
    }
    ready();
    if (opt.setupOnly)
        return 0;

    Rotation rotation(cycle, opt.seed);
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    for (int request = 0; Clock::now() < deadline; ++request) {
        const int j = rotation.next();
        const std::string key = jobs[j].key();
        const Clock::time_point t0 = Clock::now();
        Planned p = tr.on()
                        ? planTraced(jobs[j], resolved[j], request, tr,
                                     rec)
                        : planSession(resolved[j]);
        RequestRecord r;
        r.op = "plan";
        r.job = key;
        // Traced: the request span, not the probes after it.
        r.latencyMs =
            tr.on() ? p.requestMs : msBetween(t0, Clock::now());
        r.ok = checkPlanned(key, p, "repeat", rec);
        rec.plannerCacheHits += p.cacheHits;
        rec.plannerCacheMisses += p.cacheMisses;
        rec.requests.push_back(r);
    }
    rec.wallS = msBetween(start, Clock::now()) / 1000.0;
    rec.cpuS = cpuSeconds() - cpu0;
    return 0;
}

int
runPlanNode(const Options &opt, Tracer &tr, Record &rec,
            const std::function<void()> &ready)
{
    std::vector<Job> jobs = {
        bertJob("bert-1.67b", "dgx1"),
        bertJob("bert-6.2b", "dgx1"),
        gptJob("gpt-15.4b", "dgx1"),
        gptJob("gpt-25.5b", "dgx2"),
    };
    // gpt-25.5b twice per pass: the per-job latencies form separated
    // clusters, and this share keeps the median inside the gpt-15.4b
    // cluster and the tail inside the gpt-25.5b one, clear of the
    // gaps where a one-request shift would move them.
    return runPlanLoop(opt, jobs, {0, 1, 2, 3, 3}, kPlanNodeSloMs, tr,
                       rec, ready);
}

int
runPlanCluster(const Options &opt, Tracer &tr, Record &rec,
               const std::function<void()> &ready)
{
    std::vector<Job> jobs = {
        gptJob("gpt-25.5b", "2x-hgx-h100"),
        gptJob("gpt-25.5b", "4x-hgx-h100"),
        gptJob("gpt-25.5b", "8x-hgx-h100"),
    };
    return runPlanLoop(opt, jobs, {0, 1, 2}, kPlanClusterSloMs, tr, rec,
                       ready);
}

// serve-mix ------------------------------------------------------

/** Offered load and latency limit of serve-mix (also stated in
 *  BENCHMARK.json and README.md). */
constexpr double kServeRatePerS = 3.0;
constexpr double kServeSloMs = 250.0;

/** The generator is declared unable to keep its schedule (the run is
 *  invalid, not slow) past these send lateness limits. */
constexpr double kLatenessP50LimitMs = 5.0;
constexpr double kLatenessMaxLimitMs = 250.0;

enum class OpKind
{
    PlanHot,
    PlanDistinct,
    Analyze,
    Robustness,
    Stats,
};

const char *
opName(OpKind k)
{
    switch (k) {
      case OpKind::PlanHot:
      case OpKind::PlanDistinct:
        return "plan";
      case OpKind::Analyze:
        return "analyze";
      case OpKind::Robustness:
        return "robustness";
      case OpKind::Stats:
        return "stats";
    }
    return "?";
}

/** Repeated jobs: after their first request every trial is a
 *  resident trial-cache hit.  The two dgx1 jobs need compaction and
 *  cost about the same per op (about 45-70 ms of host time each for
 *  a plan hit, an analyze or a robustness op on a 4-thread Xeon
 *  host), so together they form one class of costly ops.  The last
 *  job runs on two dgx1 nodes, so its requests and its probe run the
 *  sharded engine (sim::ShardGroup windows).  It fits without
 *  compaction and costs a few milliseconds: a heavier multi-node job
 *  brings the sharded engine's unsteady wall time (see plan-cluster)
 *  into the tail.  It only gets a small plan share of its own
 *  (serveSchedule). */
std::vector<Job>
hotJobs()
{
    return {
        Job{"bert-1.67b", "dgx1", "pipedream", 16, 8, 2},
        Job{"gpt-5.3b", "dgx1", "dapple", 8, 8, 2},
        Job{"bert-1.67b", "2x-dgx1", "gpipe", 8, 8, 2},
    };
}

/** Distinct single-node jobs that all need compaction and all plan
 *  feasibly: each request of a run takes the next one, so each is a
 *  new trial-cache key. */
std::vector<Job>
distinctJobs()
{
    std::vector<Job> jobs;
    for (const char *m : {"bert-1.67b", "bert-4.0b", "gpt-5.3b"})
        for (const char *s : {"pipedream", "dapple", "gpipe"})
            for (int mb : {8, 16, 24})
                for (int per_mini : {4, 6, 8})
                    for (int minis : {2, 3})
                        jobs.push_back(
                            Job{m, "dgx2", s, mb, per_mini, minis});
    // A fixed order (not the run's seed), so that the prefix a run
    // takes mixes models and systems.
    util::SplitMix64 rng(0x5eed);
    shuffle(jobs, rng);
    return jobs;
}

/** Fault matrix of the robustness op. */
const char *kScenarios =
    "[{\"name\":\"straggler\",\"events\":[{\"type\":\"gpu-straggle\","
    "\"start_ms\":0,\"end_ms\":200,\"gpu\":0,\"factor\":1.5}]},"
    "{\"name\":\"slow-link\",\"events\":[{\"type\":\"link-degrade\","
    "\"start_ms\":0,\"end_ms\":200,\"src\":0,\"dst\":1,"
    "\"factor\":0.25}]}]";

struct ServeOp
{
    OpKind kind;
    int job = -1;  ///< index into the hot or distinct list
    double dueMs = 0.0;
};

/**
 * Seeded schedule of one run: round(rate x seconds) requests with a
 * fixed op mix in seeded order.  The shares place the two reported
 * latencies inside classes of ops of about the same cost, not in the
 * gap between two classes (README.md, "serve-mix arrivals and op
 * mix"):
 *
 *  - 16 % costly ops on the dgx1 hot jobs (8 % plan, 5 % analyze,
 *    3 % robustness), cycling over the two jobs.  That is about 24
 *    requests in 50 s, so the tail (the 11th-largest latency) falls
 *    inside this class.
 *  - 2 % plans of the 2-node hot job.
 *  - 10 % stats.
 *  - The rest are distinct dgx2 plans, each a new cache key and
 *    mostly cheaper than the hot ops, so the median falls inside
 *    them.  Cheap misses keep the server lightly loaded, so a burst
 *    rarely stacks two costly ops, which would move the tail by
 *    a factor of two from one seed to the next.
 *
 * Arrival times are a Poisson process at the offered rate
 * conditioned on the count — sorted uniform instants over the window
 * — so requests come in bursts, as in bench/bench_serve_load's open
 * loop, while every seed offers exactly the same load.  The distinct
 * jobs of a run are always the same subset of the pool, so
 * plan_samples_per_s does not move with the seed.
 */
std::vector<ServeOp>
serveSchedule(std::uint64_t seed, double seconds, std::size_t hot_jobs,
              std::size_t distinct_jobs)
{
    const auto n = static_cast<std::size_t>(
        std::max(20.0, std::round(kServeRatePerS * seconds)));
    const auto share = [n](double f) {
        return static_cast<std::size_t>(std::round(f * n));
    };
    const std::size_t single_node_hot = hot_jobs - 1;
    std::vector<ServeOp> ops;
    auto add = [&](OpKind kind, std::size_t count) {
        for (std::size_t i = 0; i < count && ops.size() < n; ++i)
            ops.push_back(
                ServeOp{kind, static_cast<int>(i % single_node_hot)});
    };
    add(OpKind::PlanHot, share(0.08));
    add(OpKind::Analyze, share(0.05));
    add(OpKind::Robustness, share(0.03));
    for (std::size_t i = 0; i < std::max<std::size_t>(2, share(0.02)); ++i)
        ops.push_back(
            ServeOp{OpKind::PlanHot, static_cast<int>(single_node_hot)});
    const std::size_t stats = share(0.10);
    const std::size_t first_distinct = ops.size();
    add(OpKind::PlanDistinct,
        std::min(n - ops.size() - stats, distinct_jobs));
    for (std::size_t i = first_distinct; i < ops.size(); ++i)
        ops[i].job = static_cast<int>(i - first_distinct);
    add(OpKind::Stats, n - ops.size());

    util::SplitMix64 rng(seed);
    shuffle(ops, rng);
    std::vector<double> due(ops.size());
    for (double &d : due)
        d = rng.nextDouble() * seconds * 1000.0;
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < ops.size(); ++i)
        ops[i].dueMs = due[i];
    return ops;
}

std::string
requestLine(const ServeOp &op, std::size_t id,
            const std::vector<Job> &hot,
            const std::vector<Job> &distinct)
{
    std::string head = util::strformat("{\"op\":\"%s\",\"id\":\"%zu\"",
                                       opName(op.kind), id);
    const Job &job = op.kind == OpKind::PlanDistinct ? distinct[op.job]
                                                     : hot[op.job];
    switch (op.kind) {
      case OpKind::Stats:
        return head + "}";
      case OpKind::Robustness:
        return head + ",\"job\":" + job.wire() +
               ",\"scenarios\":" + kScenarios + "}";
      default:
        return head + ",\"job\":" + job.wire() + "}";
    }
}

int
runServeMix(const Options &opt, Tracer &tr, Record &rec,
            const std::function<void()> &ready)
{
    serve::Server server(serve::ServerConfig{});
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "server start: %s\n", err.c_str());
        return 2;
    }
    serve::Client client;
    std::string pong;
    if (!client.connect(server.port(), &err) ||
        !client.call("{\"op\":\"ping\",\"id\":\"ping\"}", &pong, &err)) {
        std::fprintf(stderr, "ping: %s\n", err.c_str());
        return 2;
    }
    ready();
    if (opt.setupOnly)
        return 0;

    const std::vector<Job> hot = hotJobs();
    const std::vector<Job> distinct = distinctJobs();
    const std::vector<ServeOp> ops = serveSchedule(
        opt.seed, opt.seconds, hot.size(), distinct.size());
    rec.sloMs = kServeSloMs;
    rec.offeredRate = kServeRatePerS;

    std::vector<Clock::time_point> sent(ops.size());
    std::vector<Clock::time_point> done(ops.size());
    std::vector<std::string> responses(ops.size());
    std::vector<std::atomic<bool>> answered(ops.size());

    // One connection: this thread sends on the schedule, the
    // receiver matches responses by id.  send() and recv() touch
    // disjoint Client state (the fd is only read).
    std::thread receiver([&] {
        std::string line;
        for (std::size_t got = 0; got < ops.size(); ++got) {
            if (!client.recvLine(&line))
                return;
            const Clock::time_point now = Clock::now();
            util::ParsedJson doc = util::jsonParse(line);
            std::string id =
                doc.ok ? doc.value.stringOr("id", "") : std::string();
            char *end = nullptr;
            unsigned long i = std::strtoul(id.c_str(), &end, 10);
            if (id.empty() || *end != '\0' || i >= ops.size() ||
                answered[i])
                return;
            done[i] = now;
            responses[i] = std::move(line);
            answered[i] = true;
        }
    });

    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            ops[i].dueMs));
        std::this_thread::sleep_until(due);
        sent[i] = Clock::now();
        if (!client.sendLine(requestLine(ops[i], i, hot, distinct)))
            break;
    }
    // Every request is answered; a wedged server is stopped (which
    // closes the connection and releases the receiver) after a grace
    // period.
    const auto give_up = Clock::now() + std::chrono::seconds(60);
    auto all_answered = [&] {
        for (const auto &a : answered)
            if (!a)
                return false;
        return true;
    };
    while (!all_answered() && Clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rec.server = server.stats();
    if (!all_answered())
        server.stop();
    receiver.join();
    Clock::time_point last = start;
    for (std::size_t i = 0; i < ops.size(); ++i)
        if (answered[i])
            last = std::max(last, done[i]);
    rec.wallS = msBetween(start, last) / 1000.0;
    rec.cpuS = cpuSeconds() - cpu0;
    server.stop();

    // Outcomes.  Plans are checked after the window, in-process:
    // verification, text round trip, identical jobs byte-identical.
    std::map<std::string, Resolved> sessions;
    auto resolved = [&](const Job &job) -> const Resolved * {
        auto it = sessions.find(job.key());
        if (it == sessions.end()) {
            std::optional<Resolved> r = resolve(job);
            if (!r)
                return nullptr;
            it = sessions.emplace(job.key(), std::move(*r)).first;
        }
        return &it->second;
    };
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ServeOp &op = ops[i];
        const Job &job = op.kind == OpKind::PlanDistinct
                             ? distinct[op.job]
                             : hot[op.job];
        RequestRecord r;
        r.op = opName(op.kind);
        r.job = op.kind == OpKind::Stats ? "" : job.key();
        r.latenessMs = msBetween(start, sent[i]) - op.dueMs;
        if (!answered[i]) {
            rec.check(false, "no response to request " +
                                 std::to_string(i));
            rec.requests.push_back(r);
            continue;
        }
        r.latencyMs = msBetween(start, done[i]) - op.dueMs;
        util::ParsedJson doc = util::jsonParse(responses[i]);
        const util::JsonValue *result =
            doc.ok ? doc.value.find("result") : nullptr;
        r.ok = doc.ok && doc.value.boolOr("ok", false) &&
               result != nullptr;
        if (!r.ok) {
            const util::JsonValue *error =
                doc.ok ? doc.value.find("error") : nullptr;
            rec.check(false,
                      util::strformat(
                          "request %zu (%s) failed: %s", i,
                          r.op.c_str(),
                          error ? error->stringOr("kind", "?").c_str()
                                : "unparsable response"));
            rec.requests.push_back(r);
            continue;
        }
        if (op.kind != OpKind::Robustness && op.kind != OpKind::Stats) {
            const auto hits = static_cast<std::uint64_t>(
                result->numberOr("trialCacheHits", 0));
            const auto misses = static_cast<std::uint64_t>(
                result->numberOr("trialCacheMisses", 0));
            rec.plannerCacheHits += hits;
            rec.plannerCacheMisses += misses;
            if (op.kind != OpKind::Analyze)
                r.op = misses == 0 ? "plan_hit" : "plan_miss";
            r.ok &= rec.check(!result->boolOr("oom", true),
                              "infeasible plan: " + job.key());
            rec.planSamplesPerSec[job.key()] =
                result->numberOr("samplesPerSec", 0.0);
        }
        if (op.kind == OpKind::PlanHot ||
            op.kind == OpKind::PlanDistinct) {
            const std::string text = result->stringOr("planText", "");
            const Resolved *job_r = resolved(job);
            compaction::ParsedPlan parsed =
                compaction::planFromText(text);
            r.ok &= rec.check(
                parsed.ok && compaction::planToText(parsed.plan) == text,
                "served plan text does not round-trip: " + job.key());
            if (parsed.ok && job_r != nullptr) {
                api::MPressSession session(job_r->topo, job_r->cfg);
                r.ok &= rec.check(session.verifyPlan(parsed.plan).ok(),
                                  "served plan fails verification: " +
                                      job.key());
            }
            r.ok &= rec.samePlan(job.key(), text, "served repeat");
        }
        if (op.kind == OpKind::Robustness) {
            const util::JsonValue *rows = result->find("rows");
            r.ok &= rec.check(rows != nullptr && rows->isArray() &&
                                  rows->items().size() == 2,
                              "robustness rows missing");
        }
        rec.requests.push_back(r);
    }

    // Served vs in-process: every hot job and the first two distinct
    // jobs of the run are planned again here and must match byte for
    // byte.  In the traced run these in-process plans are the
    // per-layer probes.
    std::vector<Job> again = hot;
    int extra = 0;
    for (const ServeOp &op : ops) {
        if (op.kind == OpKind::PlanDistinct && extra < 2) {
            again.push_back(distinct[op.job]);
            ++extra;
        }
    }
    int request = static_cast<int>(ops.size());
    for (const Job &job : again) {
        const Resolved *job_r = resolved(job);
        if (job_r == nullptr)
            continue;
        Planned p = tr.on() ? planTraced(job, *job_r, request++, tr, rec)
                            : planSession(*job_r);
        if (rec.firstPlan.count(job.key()) != 0)
            rec.samePlan(job.key(), p.planText, "in-process vs served");
    }
    return 0;
}

// ---------------------------------------------------------------
// Output
// ---------------------------------------------------------------

void
writeRecord(std::ofstream &out, const Options &opt, const Record &rec,
            const Tracer &tr, std::int64_t ready_ns)
{
    out << "{\"workload\":" << util::jsonQuote(opt.workload)
        << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
        << ",\"ready_ns\":" << ready_ns
        << ",\"compiler\":" << util::jsonQuote(PERFBENCH_COMPILER)
        << ",\"build_type\":" << util::jsonQuote(PERFBENCH_BUILD_TYPE)
        << ",\"hardware_threads\":"
        << util::ThreadPool::hardwareThreads();
    if (opt.setupOnly) {
        out << "}\n";
        return;
    }
    out << ",\"wall_s\":" << num(rec.wallS) << ",\"cpu_s\":"
        << num(rec.cpuS) << ",\"max_rss_kb\":" << maxRssKb()
        << ",\"failed_checks\":" << rec.failedChecks
        << ",\"planner_cache_hits\":" << rec.plannerCacheHits
        << ",\"planner_cache_misses\":" << rec.plannerCacheMisses;
    out << ",\"slo_ms\":" << num(rec.sloMs);
    if (rec.offeredRate > 0) {
        out << ",\"offered_rate\":" << num(rec.offeredRate)
            << ",\"lateness_limits_ms\":[" << num(kLatenessP50LimitMs)
            << "," << num(kLatenessMaxLimitMs) << "]";
    }
    if (rec.server) {
        const serve::ServerStats &s = *rec.server;
        out << ",\"server\":{\"cache_entries\":" << s.cacheEntries
            << ",\"cache_hits\":" << s.cacheHits
            << ",\"cache_misses\":" << s.cacheMisses
            << ",\"overloaded\":" << s.overloaded
            << ",\"requests\":" << s.requests << "}";
    }
    out << ",\"messages\":[";
    for (std::size_t i = 0; i < rec.messages.size(); ++i)
        out << (i ? "," : "") << util::jsonQuote(rec.messages[i]);
    out << "],\"plans\":{";
    const char *sep = "";
    for (const auto &[key, sps] : rec.planSamplesPerSec) {
        out << sep << util::jsonQuote(key) << ":" << num(sps);
        sep = ",";
    }
    out << "},\"requests\":[";
    sep = "";
    for (const RequestRecord &r : rec.requests) {
        out << sep << "{\"op\":" << util::jsonQuote(r.op)
            << ",\"job\":" << util::jsonQuote(r.job)
            << ",\"latency_ms\":" << num(r.latencyMs)
            << ",\"lateness_ms\":" << num(r.latenessMs)
            << ",\"ok\":" << (r.ok ? "true" : "false") << "}";
        sep = ",";
    }
    out << "],\"spans\":[";
    sep = "";
    for (const Span &s : tr.spans()) {
        out << sep << "{\"name\":" << util::jsonQuote(s.name)
            << ",\"start_us\":" << num(s.startUs)
            << ",\"end_us\":" << num(s.endUs)
            << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << ",\"args\":{";
        const char *asep = "";
        for (const auto &[k, v] : s.args) {
            out << asep << util::jsonQuote(k) << ":" << num(v);
            asep = ",";
        }
        out << "}}";
        sep = ",";
    }
    out << "]}\n";
}

bool
parseArgs(int argc, char **argv, Options *opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            opt->workload = value();
        else if (a == "--seed")
            opt->seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt->seconds = std::atof(value().c_str());
        else if (a == "--trace")
            opt->trace = value() == "1";
        else if (a == "--out")
            opt->out = value();
        else if (a == "--setup-only")
            opt->setupOnly = true;
        else
            return false;
    }
    return !opt->workload.empty() && !opt->out.empty() &&
           opt->seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload <name> "
                     "--seed <n> --seconds <s> --trace <0|1> "
                     "--out <file> [--setup-only]\n");
        return 2;
    }
    const Clock::time_point epoch = Clock::now();
    Tracer tracer(opt.trace && !opt.setupOnly, epoch);
    Record rec;
    std::int64_t ready_ns = 0;
    auto ready = [&] { ready_ns = monotonicNs(); };

    int rc = 2;
    if (opt.workload == "plan-node")
        rc = runPlanNode(opt, tracer, rec, ready);
    else if (opt.workload == "plan-cluster")
        rc = runPlanCluster(opt, tracer, rec, ready);
    else if (opt.workload == "serve-mix")
        rc = runServeMix(opt, tracer, rec, ready);
    else
        std::fprintf(stderr, "unknown workload %s\n",
                     opt.workload.c_str());
    if (rc != 0)
        return rc;

    std::ofstream out(opt.out);
    writeRecord(out, opt, rec, tracer, ready_ns);
    return out ? 0 : 2;
}
