/**
 * @file
 * mpress_cli — command-line driver for the simulator.
 *
 *   mpress_cli [options]
 *     --model <preset>        bert-0.35b..6.2b, gpt-5.3b..25.5b,
 *                             gpt3-175b            [bert-0.64b]
 *     --system <name>         pipedream|dapple|gpipe [pipedream]
 *     --strategy <name>       none|recompute|gpu-cpu-swap|d2d-only|
 *                             mpress|zero-offload|zero-infinity
 *                                                  [mpress]
 *     --topology <name>       dgx1|dgx2, or a cluster preset such as
 *                             2x-dgx2, 8x-hgx-h100 or any
 *                             <N>x-<node> with N in 1..64 [dgx1]
 *     --cluster <spec|name>   build a multi-node cluster topology
 *                             from a JSON spec file or a preset name
 *                             (overrides --topology); the spec is
 *                             statically verified and rejected
 *                             (exit 3) on errors.  Spec fields:
 *                             {"name","nodes","node","nic",
 *                              "nicsPerNode","nicGbps",
 *                              "nicLatencyUs","nodeIds":[...]}
 *                             with node in dgx1|dgx1-p100|dgx2|
 *                             hgx-h100|dual-a100 and nic in
 *                             ib-hdr|ib-ndr|roce100
 *     --microbatch <n>        per-microbatch samples [12]
 *     --mb-per-mini <n>       microbatches per minibatch [8]
 *     --minibatches <n>       training window length [2]
 *                             (each of the three in 1..4096)
 *     --threads <n>           worker threads for the planner's
 *                             emulator-feedback search, and for
 *                             running sweep scenarios [1, max 256]
 *     --analyze               print the static analysis certificate
 *                             of the executed plan (per-GPU
 *                             peak-memory intervals, latency lower
 *                             bound, throughput upper bound)
 *     --analytic-prune        planner strategies only: score ladder
 *                             trials with the static analyzer first
 *                             and skip emulation for provably
 *                             non-acceptable ones (same final plan)
 *     --portfolio             planner strategies only: race the
 *                             greedy wavefront against a
 *                             simulated-annealing walker and an
 *                             analysis-guided best-first explorer
 *                             on the --threads pool; prints one
 *                             accounting row per strategy
 *     --deadline-ms <ms>      anytime budget for the refinement
 *                             race, checked between wavefront
 *                             rounds; always returns a verified
 *                             plan [0 = no deadline, max 1e9]
 *     --save-plan <file>      write the executed plan (plan format)
 *     --load-plan <file>      run a previously saved plan instead of
 *                             planning (forces a custom strategy)
 *     --verify-mode <name>    off|permissive|strict [permissive];
 *                             loaded plans are statically verified
 *                             and rejected on errors (strict also
 *                             rejects on warnings)
 *     --timeline <file>       write a chrome-trace JSON (includes
 *                             counter tracks when --metrics is on)
 *     --metrics <file>        write the observability bundle as JSON
 *                             (metrics, per-GPU memory timelines,
 *                             per-stream utilization)
 *     --faults <spec.json>    inject a fault scenario into the run
 *                             (see below); the scenario is statically
 *                             verified against the topology first and
 *                             rejected (exit 3) on errors
 *     --no-fault-ladder       disable the degradation ladder: an
 *                             injected transfer failure is terminal
 *                             instead of retried / demoted
 *
 *   Fault spec — {"name","seed","events":[...]} where each event is
 *     {"type":"link-degrade",  "start_ms","end_ms","src","dst",
 *      "factor"}                bandwidth multiplier on one NVLink
 *     {"type":"link-degrade",  "start_ms","end_ms","gpu","factor"}
 *                               ... or on one GPU's PCIe lanes
 *     {"type":"transfer-fail", "start_ms","end_ms","src"[,"dst"],
 *      "probability"}           D2D stripes fail with probability p
 *     {"type":"gpu-straggle",  "start_ms","end_ms","gpu","factor"}
 *                               compute slowdown on one GPU
 *     {"type":"host-pressure", "start_ms","end_ms","bytes_gb"}
 *                               shrink the pinned-host pool
 *
 *   Robustness mode — replay one plan across a scenario matrix:
 *     --robustness <file>     {"scenarios":[<fault spec>,...]}; plans
 *                             fault-free, then replays the final plan
 *                             under every scenario on the --threads
 *                             pool and prints a JSON report (rows in
 *                             spec order, nearest-rank percentiles)
 *     --robustness-out <file> write the JSON report here instead
 *     --robustness-csv <file> also write the report as CSV
 *
 *   Sweep mode — plan/emulate many configurations in one process:
 *     --sweep <spec.json>     run every scenario in the spec across
 *                             the --threads pool and print a combined
 *                             JSON report to stdout
 *     --sweep-out <file>      write the JSON report here instead
 *     --sweep-csv <file>      also write the report as CSV
 *
 *   The spec is {"scenarios":[{...},...]}; each scenario object may
 *   set "name" plus any api::JobSpec field ("model", "topology",
 *   "cluster", "system", "strategy", "verifyMode", "microbatch",
 *   "mbPerMini", "minibatches", "threads", "portfolio",
 *   "analyticPrune", "deadlineMs"), strictly typed and bounded as in
 *   the job flags; any omitted field inherits the command-line
 *   option, except "threads", which defaults to 1 (--threads sizes
 *   the scenario pool).  Every scenario is read and resolved before
 *   any runs.  Report rows keep spec order whatever the thread count.
 *
 * The job flags (--model .. --deadline-ms, --verify-mode) are read
 * by api::readJobFlag and bound by api::resolveJob, the same reader
 * and resolver mpress-serve and mpress-verify use.
 *
 * Exit status: 0 on success; 1 on usage/spec errors, including a
 * value that parses but is out of bounds, an unknown name, or a job
 * shape that cannot be built (more GPUs than model layers); 2 on a
 * malformed flag value (a numeric flag that does not parse) — and 2
 * on OOM of a single run (a malformed flag never starts a run, so
 * the phases cannot be confused); 3 on a plan, cluster spec or fault
 * scenario rejected by verification.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/job.hh"
#include "api/session.hh"
#include "compaction/serialize.hh"
#include "fault/scenario.hh"
#include "obs/export.hh"
#include "util/json.hh"
#include "util/pool.hh"
#include "util/strings.hh"
#include "verify/verify.hh"

namespace api = mpress::api;
namespace cp = mpress::compaction;
namespace ft = mpress::fault;
namespace hw = mpress::hw;
namespace mu = mpress::util;
namespace rt = mpress::runtime;
namespace vf = mpress::verify;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "mpress_cli: %s (see file header for"
                         " options)\n",
                 msg);
    std::exit(1);
}

/** Report a job reader / resolver failure and exit with its status
 *  (the JobErrorKind value: 2 malformed value, 1 invalid job, 3
 *  rejected cluster spec). */
[[noreturn]] void
failJob(const api::JobError &err, const std::string &where = "")
{
    std::fprintf(stderr, "mpress_cli: %s%s\n", where.c_str(),
                 err.message.c_str());
    std::exit(static_cast<int>(err.kind));
}

/** api::resolveJob, printing any cluster-spec findings to stderr;
 *  exits on failure. */
api::ResolvedJob
resolveOrExit(const api::JobSpec &job, const std::string &where = "")
{
    api::JobError err;
    std::string findings;
    std::optional<api::ResolvedJob> resolved =
        api::resolveJob(job, &err, &findings);
    std::fputs(findings.c_str(), stderr);
    if (!resolved)
        failJob(err, where);
    return std::move(*resolved);
}

/** Slurp @p path; exits with @p what in the message on failure. */
std::string
readFile(const std::string &path, const char *what)
{
    std::ifstream in(path);
    if (!in)
        usage(what);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** One sweep scenario: its report labels and its resolved job. */
struct Scenario
{
    std::string name;
    std::string topology;  ///< preset name, or the cluster's name
    api::JobSpec job;
    api::ResolvedJob resolved;
};

/**
 * Read and resolve every --sweep scenario before any runs; each is
 * @p defaults overridden by one spec object's job fields.  Exits
 * with a message naming the scenario index on malformed input.
 */
std::vector<Scenario>
readSweepSpec(const std::string &path, const api::JobSpec &defaults)
{
    mu::ParsedJson doc =
        mu::jsonParse(readFile(path, "cannot read --sweep file"));
    if (!doc.ok) {
        std::fprintf(stderr, "mpress_cli: bad sweep spec: %s\n",
                     doc.error.c_str());
        std::exit(1);
    }
    const mu::JsonValue *list = doc.value.find("scenarios");
    if (!list || !list->isArray() || list->items().empty())
        usage("sweep spec needs a non-empty \"scenarios\" array");

    std::vector<Scenario> out;
    for (std::size_t i = 0; i < list->items().size(); ++i) {
        const mu::JsonValue &item = list->items()[i];
        const std::string where =
            mu::strformat("sweep scenario %zu: ", i);
        api::JobSpec job = defaults;
        std::string err;
        if (!item.isObject())
            err = "must be a JSON object";
        else
            api::readJobJson(item, &job, &err);
        if (!err.empty())
            failJob({api::JobErrorKind::Invalid, err}, where);
        api::ResolvedJob resolved = resolveOrExit(job, where);
        std::string topology =
            job.cluster.empty() ? job.topology : resolved.topo.name();
        std::string name = job.model + "/" + job.system + "/" +
                           job.strategy + "/" + topology;
        if (!api::getString(item, "name", &name, &err))
            failJob({api::JobErrorKind::Invalid, err}, where);
        out.push_back({std::move(name), std::move(topology),
                       std::move(job), std::move(resolved)});
    }
    return out;
}

/** Run every scenario across the pool; rows come back in spec order
 *  regardless of which worker finished first. */
std::vector<mpress::obs::SweepRow>
runSweep(const std::vector<Scenario> &scenarios, int threads)
{
    std::vector<mpress::obs::SweepRow> rows(scenarios.size());
    mu::ThreadPool pool(
        std::min(threads, mu::ThreadPool::hardwareThreads()));
    pool.parallelFor(scenarios.size(), [&](std::size_t i) {
        // Each scenario plans on its own "threads" (1 by default):
        // the sweep parallelizes across scenarios, not within one.
        const Scenario &s = scenarios[i];
        auto t0 = std::chrono::steady_clock::now();
        api::SessionResult result =
            api::runSession(s.resolved.topo, s.resolved.cfg);
        auto t1 = std::chrono::steady_clock::now();

        mpress::obs::SweepRow &row = rows[i];
        row.name = s.name;
        row.model = s.job.model;
        row.system = s.job.system;
        row.strategy = s.job.strategy;
        row.topology = s.topology;
        row.oom = result.oom;
        row.rejected = result.rejected;
        row.samplesPerSec = result.samplesPerSec;
        row.tflops = result.tflops;
        row.maxGpuPeak = result.maxGpuPeak;
        row.planIterations = result.planResult.iterations;
        row.planMs =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
    });
    return rows;
}

/** Statically verify @p scenario; prints findings and exits 3 when
 *  the schedule is rejected. */
void
gateScenario(const hw::Topology &topo, const ft::Scenario &scenario)
{
    vf::Report report = vf::verifyScenario(topo, scenario);
    if (!report.clean())
        std::fputs(report.render().c_str(), stderr);
    if (!report.ok()) {
        std::fprintf(stderr,
                     "fault scenario \"%s\" rejected: %s\n",
                     scenario.name.c_str(),
                     report.summary().c_str());
        std::exit(3);
    }
}

/** One-line resilience digest after a fault-injected run. */
void
printFaultSummary(const rt::FaultSummary &f)
{
    std::printf("faults: %d failed transfers, %d retries,"
                " %d swap fallbacks, %d recompute fallbacks,"
                " %d straggled tasks, %d pressure windows\n",
                f.transferFailures, f.retries, f.fallbackGpuCpuSwap,
                f.fallbackRecompute, f.straggledTasks,
                f.hostPressureEvents);
    std::printf("faults: %d healthy minibatches (%.1f samples/s),"
                " %d degraded (%.1f samples/s)\n",
                f.healthyMinibatches, f.healthySamplesPerSec,
                f.degradedMinibatches, f.degradedSamplesPerSec);
}

/** Flatten the planner's robustness rows into the exporter shape. */
std::vector<mpress::obs::RobustnessRow>
toObsRows(const std::vector<mpress::planner::RobustnessRow> &rows)
{
    std::vector<mpress::obs::RobustnessRow> out;
    out.reserve(rows.size());
    for (const auto &r : rows) {
        mpress::obs::RobustnessRow o;
        o.scenario = r.scenario;
        o.oom = r.report.oom;
        o.samplesPerSec = r.report.samplesPerSec;
        o.throughputRatio = r.throughputRatio;
        o.transferFailures = r.report.faults.transferFailures;
        o.retries = r.report.faults.retries;
        o.fallbackGpuCpuSwap = r.report.faults.fallbackGpuCpuSwap;
        o.fallbackRecompute = r.report.faults.fallbackRecompute;
        o.straggledTasks = r.report.faults.straggledTasks;
        o.hostPressureEvents = r.report.faults.hostPressureEvents;
        out.push_back(std::move(o));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    api::JobSpec job;
    std::string save_plan, load_plan, timeline, metrics;
    std::string sweep, sweep_out, sweep_csv;
    std::string faults, robustness, robustness_out, robustness_csv;
    bool fault_ladder = true;
    bool analyze = false;

    for (int i = 1; i < argc; ++i) {
        api::JobError err;
        if (api::readJobFlag(argc, argv, &i, api::JobFlags::All, &job,
                             &err)) {
            if (err.kind != api::JobErrorKind::None)
                failJob(err);
            continue;
        }
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage(flag);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--sweep"))
            sweep = need("--sweep");
        else if (!std::strcmp(argv[i], "--sweep-out"))
            sweep_out = need("--sweep-out");
        else if (!std::strcmp(argv[i], "--sweep-csv"))
            sweep_csv = need("--sweep-csv");
        else if (!std::strcmp(argv[i], "--save-plan"))
            save_plan = need("--save-plan");
        else if (!std::strcmp(argv[i], "--load-plan"))
            load_plan = need("--load-plan");
        else if (!std::strcmp(argv[i], "--timeline"))
            timeline = need("--timeline");
        else if (!std::strcmp(argv[i], "--metrics"))
            metrics = need("--metrics");
        else if (!std::strcmp(argv[i], "--faults"))
            faults = need("--faults");
        else if (!std::strcmp(argv[i], "--no-fault-ladder"))
            fault_ladder = false;
        else if (!std::strcmp(argv[i], "--analyze"))
            analyze = true;
        else if (!std::strcmp(argv[i], "--robustness"))
            robustness = need("--robustness");
        else if (!std::strcmp(argv[i], "--robustness-out"))
            robustness_out = need("--robustness-out");
        else if (!std::strcmp(argv[i], "--robustness-csv"))
            robustness_csv = need("--robustness-csv");
        else
            usage("unknown option");
    }

    if (!sweep.empty()) {
        api::JobSpec defaults = job;
        defaults.threads = 1;  // --threads sizes the scenario pool
        auto scenarios = readSweepSpec(sweep, defaults);
        auto rows = runSweep(scenarios, job.threads);
        if (!sweep_csv.empty()) {
            std::ofstream out(sweep_csv);
            mpress::obs::exportSweepCsv(out, rows);
            std::fprintf(stderr, "sweep CSV written to %s\n",
                         sweep_csv.c_str());
        }
        if (!sweep_out.empty()) {
            std::ofstream out(sweep_out);
            mpress::obs::exportSweepJson(out, rows);
            out << "\n";
            std::fprintf(stderr, "sweep report written to %s\n",
                         sweep_out.c_str());
        } else {
            std::stringstream report;
            mpress::obs::exportSweepJson(report, rows);
            std::printf("%s\n", report.str().c_str());
        }
        return 0;
    }

    api::ResolvedJob resolved = resolveOrExit(job);
    const hw::Topology &topo = resolved.topo;
    api::SessionConfig &cfg = resolved.cfg;
    cfg.executor.recordTimeline = !timeline.empty();
    cfg.executor.recordMetrics = !metrics.empty();
    cfg.executor.faultLadder = fault_ladder;

    // The scenario must outlive every executor that reads it
    // (ExecutorConfig::faults is non-owning).
    ft::Scenario scenario;
    if (!faults.empty()) {
        if (!robustness.empty())
            usage("--faults and --robustness are exclusive");
        ft::ParsedScenario parsed = ft::parseScenario(
            readFile(faults, "cannot read --faults file"));
        if (!parsed.ok) {
            std::fprintf(stderr, "mpress_cli: bad fault spec: %s\n",
                         parsed.error.c_str());
            return 1;
        }
        scenario = parsed.scenario;
        gateScenario(topo, scenario);
        cfg.executor.faults = &scenario;
    }

    if (!robustness.empty()) {
        ft::ParsedScenarioMatrix matrix = ft::parseScenarioMatrix(
            readFile(robustness, "cannot read --robustness file"));
        if (!matrix.ok) {
            std::fprintf(stderr,
                         "mpress_cli: bad robustness spec: %s\n",
                         matrix.error.c_str());
            return 1;
        }
        if (matrix.scenarios.empty())
            usage("robustness spec has no scenarios");

        api::RobustnessRun run =
            api::runRobustness(topo, cfg, matrix.scenarios);
        std::fputs(run.findings.c_str(), stderr);
        if (run.status != api::RobustnessStatus::Ok) {
            std::fprintf(stderr, "mpress_cli: %s\n", run.error.c_str());
            return run.status == api::RobustnessStatus::NotPipeline ? 1
                                                                    : 3;
        }
        const mpress::planner::RobustnessResult &rr = run.result;

        mpress::obs::RobustnessSummary summary;
        summary.baselineSamplesPerSec = rr.baseline.samplesPerSec;
        summary.worst = rr.worst;
        summary.p10 = rr.p10;
        summary.p50 = rr.p50;
        auto rows = toObsRows(rr.rows);
        if (!robustness_csv.empty()) {
            std::ofstream out(robustness_csv);
            mpress::obs::exportRobustnessCsv(out, rows);
            std::fprintf(stderr, "robustness CSV written to %s\n",
                         robustness_csv.c_str());
        }
        if (!robustness_out.empty()) {
            std::ofstream out(robustness_out);
            mpress::obs::exportRobustnessJson(out, summary, rows);
            out << "\n";
            std::fprintf(stderr, "robustness report written to %s\n",
                         robustness_out.c_str());
        } else {
            std::stringstream report;
            mpress::obs::exportRobustnessJson(report, summary, rows);
            std::printf("%s\n", report.str().c_str());
        }
        std::fprintf(stderr,
                     "robustness over %zu scenarios: worst %.2f,"
                     " p10 %.2f, p50 %.2f of baseline\n",
                     matrix.scenarios.size(), rr.worst, rr.p10,
                     rr.p50);
        return 0;
    }

    api::SessionResult result;
    if (!load_plan.empty()) {
        // Run the saved plan directly through the executor.
        auto parsed = cp::planFromText(
            readFile(load_plan, "cannot read --load-plan file"));
        if (!parsed.ok) {
            std::fprintf(stderr, "bad plan: %s\n",
                         parsed.error.c_str());
            return 1;
        }
        api::MPressSession session(topo, cfg);
        if (cfg.verifyMode != api::VerifyMode::Off) {
            result.verification = session.verifyPlan(parsed.plan);
            if (!result.verification.clean())
                std::fputs(result.verification.render().c_str(),
                           stderr);
            if (!result.verification.ok()) {
                std::fprintf(stderr, "plan rejected: %s\n",
                             result.verification.summary().c_str());
                return 3;
            }
        }
        result.plan = parsed.plan;
        result.report = rt::runTraining(
            topo, session.model(), session.partition(),
            session.schedule(), parsed.plan, cfg.executor);
        result.oom = result.report.oom;
        result.samplesPerSec = result.report.samplesPerSec;
        result.tflops = result.report.tflops;
        result.maxGpuPeak = result.report.maxGpuPeak();
        result.name = job.model + "/" + job.system + "/loaded-plan";
    } else {
        result = api::runSession(topo, cfg);
        if (result.rejected) {
            std::fputs(result.verification.render().c_str(), stderr);
            std::fprintf(stderr, "plan rejected: %s\n",
                         result.verification.summary().c_str());
            return 3;
        }
    }

    std::printf("%s on %s: ", result.name.c_str(),
                topo.name().c_str());
    if (result.oom) {
        std::printf("OOM (gpu %d)\n", result.report.oomGpu);
        if (result.report.faults.enabled)
            printFaultSummary(result.report.faults);
        return 2;
    }
    std::printf("%.1f samples/s, %.1f TFLOPS, max GPU peak %s\n",
                result.samplesPerSec, result.tflops,
                mu::formatBytes(result.maxGpuPeak).c_str());
    if (result.report.faults.enabled)
        printFaultSummary(result.report.faults);

    if (!result.planResult.strategyStats.empty()) {
        for (std::size_t i = 0;
             i < result.planResult.strategyStats.size(); ++i) {
            const auto &s = result.planResult.strategyStats[i];
            std::printf(
                "strategy %zu %-16s %3llu trials, %2llu commits, "
                "best %.1f samples/s%s%s\n",
                i, s.name.c_str(),
                static_cast<unsigned long long>(s.proposed),
                static_cast<unsigned long long>(s.committed),
                s.bestScore,
                static_cast<int>(i) ==
                        result.planResult.winnerStrategy
                    ? " [winner]"
                    : "",
                s.exhausted ? "" : " (cut off by deadline)");
        }
    }

    if (analyze) {
        // ZeRO baselines carry no plan to analyze.
        if (!api::isPipelineStrategy(cfg.strategy)) {
            std::fprintf(stderr,
                         "--analyze needs a pipeline strategy\n");
        } else {
            api::MPressSession session(topo, cfg);
            std::fputs(
                session.analyzePlan(result.plan).render().c_str(),
                stdout);
        }
    }
    if (!save_plan.empty()) {
        std::ofstream out(save_plan);
        out << cp::planToText(result.plan);
        std::printf("plan written to %s\n", save_plan.c_str());
    }
    if (!timeline.empty()) {
        std::ofstream out(timeline);
        result.report.trace.exportChromeTrace(out);
        std::printf("trace written to %s\n", timeline.c_str());
    }
    if (!metrics.empty()) {
        std::ofstream out(metrics);
        mpress::obs::exportJson(out, result.report.observability);
        out << "\n";
        std::printf("metrics written to %s\n", metrics.c_str());
    }
    return 0;
}
