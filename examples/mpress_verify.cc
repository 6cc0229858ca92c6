/**
 * @file
 * mpress_verify — static plan checker ("linter") CLI.
 *
 * Verifies a serialized compaction plan against a job description
 * without running the simulator, printing the diagnostic table on any
 * findings:
 *
 *   mpress_verify --plan <file> [options]
 *     --plan <file>           plan to check (required; plan format)
 *     --model <preset>        bert-0.35b..gpt3-175b [bert-0.64b]
 *     --system <name>         pipedream|dapple|gpipe [pipedream]
 *     --topology <name>       dgx1|dgx2, or a cluster preset such as
 *                             2x-dgx1 or 8x-hgx-h100 [dgx1]
 *     --cluster <spec|name>   cluster preset or JSON spec file
 *                             (overrides --topology; verified and
 *                             rejected with exit 3 on errors)
 *     --microbatch <n>        per-microbatch samples [12]
 *     --mb-per-mini <n>       microbatches per minibatch [8]
 *     --minibatches <n>       training window length [2]
 *                             (each of the three in 1..4096)
 *     --strict                promote warnings to errors
 *     --analyze               also run the static plan analyzer:
 *                             prints the certificate (per-GPU
 *                             peak-memory intervals, latency lower
 *                             bound, throughput upper bound) and adds
 *                             the cap-proved-overflow / cap-unproven
 *                             rules to the verification pass
 *
 * The job flags are mpress_cli's (read by api::readJobFlag, bound by
 * api::resolveJob), so a plan saved by `mpress_cli ... --save-plan`
 * is checked here with the same flags; the planner-only ones
 * (--strategy, --threads, ...) are rejected as unknown options.
 *
 * Exit status: 0 when the plan verifies clean of errors, 3 when it or
 * the cluster spec is rejected, 1 on usage errors (including an
 * out-of-bounds value, an unknown name or more GPUs than model
 * layers), 2 on a malformed numeric flag value.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "api/job.hh"
#include "api/session.hh"
#include "compaction/serialize.hh"

namespace api = mpress::api;
namespace cp = mpress::compaction;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "mpress_verify: %s (see file header for"
                         " options)\n",
                 msg);
    std::exit(1);
}

/** Report a job reader / resolver failure and exit with its status. */
[[noreturn]] void
failJob(const api::JobError &err)
{
    std::fprintf(stderr, "mpress_verify: %s\n", err.message.c_str());
    std::exit(static_cast<int>(err.kind));
}

} // namespace

int
main(int argc, char **argv)
{
    api::JobSpec job;
    std::string plan_file;
    bool analyze = false;

    for (int i = 1; i < argc; ++i) {
        api::JobError err;
        if (api::readJobFlag(argc, argv, &i, api::JobFlags::Shape, &job,
                             &err)) {
            if (err.kind != api::JobErrorKind::None)
                failJob(err);
            continue;
        }
        if (!std::strcmp(argv[i], "--plan")) {
            if (i + 1 >= argc)
                usage("--plan needs a value");
            plan_file = argv[++i];
        } else if (!std::strcmp(argv[i], "--strict")) {
            job.verifyMode = "strict";
        } else if (!std::strcmp(argv[i], "--analyze")) {
            analyze = true;
        } else {
            usage("unknown option");
        }
    }
    if (plan_file.empty())
        usage("--plan is required");

    api::JobError err;
    std::string findings;
    std::optional<api::ResolvedJob> resolved =
        api::resolveJob(job, &err, &findings);
    std::fputs(findings.c_str(), stderr);
    if (!resolved)
        failJob(err);

    std::ifstream in(plan_file);
    if (!in)
        usage("cannot read --plan file");
    std::stringstream buf;
    buf << in.rdbuf();
    auto parsed = cp::planFromText(buf.str());
    if (!parsed.ok) {
        std::fprintf(stderr, "bad plan: %s\n", parsed.error.c_str());
        return 3;
    }

    resolved->cfg.verifyOptions.analysis = analyze;
    api::MPressSession session(resolved->topo, resolved->cfg);
    if (analyze)
        std::fputs(session.analyzePlan(parsed.plan).render().c_str(),
                   stdout);
    auto report = session.verifyPlan(parsed.plan);
    if (!report.clean())
        std::fputs(report.render().c_str(), stdout);
    std::printf("%s: %s\n", plan_file.c_str(),
                report.summary().c_str());
    return report.ok() ? 0 : 3;
}
