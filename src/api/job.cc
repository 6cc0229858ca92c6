#include "api/job.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "cluster/cluster.hh"
#include "model/model.hh"
#include "util/strings.hh"
#include "verify/verify.hh"

namespace mpress {
namespace api {

namespace {

/** How a job flag's value is read. */
enum class FlagType
{
    String,
    Int,
    Double,
    Bool,     ///< takes no value
    Cluster,  ///< preset name or spec file
};

/** One job flag and the JSON member it sets.  readJobJson() owns
 *  every type and bound check, so the flags cannot drift from the
 *  wire vocabulary. */
struct FlagRow
{
    const char *flag;
    const char *member;
    FlagType type;
    bool shape;  ///< part of JobFlags::Shape
};

const FlagRow kFlagRows[] = {
    {"--model", "model", FlagType::String, true},
    {"--topology", "topology", FlagType::String, true},
    {"--cluster", "cluster", FlagType::Cluster, true},
    {"--system", "system", FlagType::String, true},
    {"--microbatch", "microbatch", FlagType::Int, true},
    {"--mb-per-mini", "mbPerMini", FlagType::Int, true},
    {"--minibatches", "minibatches", FlagType::Int, true},
    {"--strategy", "strategy", FlagType::String, false},
    {"--verify-mode", "verifyMode", FlagType::String, false},
    {"--threads", "threads", FlagType::Int, false},
    {"--portfolio", "portfolio", FlagType::Bool, false},
    {"--analytic-prune", "analyticPrune", FlagType::Bool, false},
    {"--deadline-ms", "deadlineMs", FlagType::Double, false},
};

bool
getBool(const util::JsonValue &doc, const char *key, bool *out,
        std::string *err)
{
    const util::JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    if (!v->isBool()) {
        *err = util::strformat("\"%s\" must be a boolean", key);
        return false;
    }
    *out = v->boolean();
    return true;
}

/** Integer in [lo, hi]; rejects non-integral numbers ("1.5"). */
bool
getInt(const util::JsonValue &doc, const char *key, int lo, int hi,
       int *out, std::string *err)
{
    double n = *out;
    if (!getDouble(doc, key, lo, hi, &n, err) || n != std::floor(n)) {
        *err = util::strformat(
            "\"%s\" must be an integer in [%d, %d]", key, lo, hi);
        return false;
    }
    *out = static_cast<int>(n);
    return true;
}

/** "cluster" is either a preset name (string) or an inline spec
 *  object; the object form is re-rendered to canonical text so the
 *  strict spec parser + verifyClusterSpec see exactly what the
 *  client sent.  Anything else is a typed error. */
bool
getCluster(const util::JsonValue &doc, std::string *out,
           std::string *err)
{
    const util::JsonValue *v = doc.find("cluster");
    if (v == nullptr)
        return true;
    if (v->isString()) {
        *out = v->str();
        return true;
    }
    if (v->isObject()) {
        *out = util::jsonRender(*v);
        return true;
    }
    *err = "\"cluster\" must be a preset name or a spec object";
    return false;
}

/** Convert one flag's text to the JSON value readJobJson() checks;
 *  false (with @p err) when the text does not parse. */
bool
flagValue(const FlagRow &f, const std::string &text,
          util::JsonValue *out, JobError *err)
{
    int n = 0;
    double d = 0.0;
    switch (f.type) {
      case FlagType::Int:
        if (!util::parseInt(text, &n))
            break;
        *out = util::JsonValue::makeNumber(n);
        return true;
      case FlagType::Double:
        if (!util::parseDouble(text, &d))
            break;
        *out = util::JsonValue::makeNumber(d);
        return true;
      case FlagType::Cluster:
        // A preset name, else a spec file whose text the job carries
        // exactly as a wire request would.
        if (!cluster::clusterByName(text)) {
            std::ifstream in(text);
            std::stringstream buf;
            buf << in.rdbuf();
            if (!in || buf.str().empty()) {
                *err = {JobErrorKind::Invalid,
                        "cannot read --cluster file '" + text + "'"};
                return false;
            }
            *out = util::JsonValue::makeString(buf.str());
            return true;
        }
        [[fallthrough]];
      default:
        *out = util::JsonValue::makeString(text);
        return true;
    }
    // A value that does not parse is a different mistake from one
    // that parses out of bounds: scripts tell them apart by exit code.
    *err = {JobErrorKind::Malformed,
            util::strformat("%s: malformed value '%s' (expected a"
                            " number in range)",
                            f.flag, text.c_str())};
    return false;
}

} // namespace

bool
readJobFlag(int argc, char *const *argv, int *i, JobFlags accept,
            JobSpec *job, JobError *err)
{
    const FlagRow *f = std::find_if(
        std::begin(kFlagRows), std::end(kFlagRows),
        [&](const FlagRow &row) {
            return !std::strcmp(argv[*i], row.flag) &&
                   (row.shape || accept == JobFlags::All);
        });
    if (f == std::end(kFlagRows))
        return false;
    util::JsonValue value = util::JsonValue::makeBool(true);
    if (f->type != FlagType::Bool) {
        if (*i + 1 >= argc) {
            *err = {JobErrorKind::Invalid,
                    std::string(f->flag) + " needs a value"};
            return true;
        }
        if (!flagValue(*f, argv[++*i], &value, err))
            return true;
    }
    std::string msg;
    if (!readJobJson(
            util::JsonValue::makeObject({{f->member, std::move(value)}}),
            job, &msg))
        *err = {JobErrorKind::Invalid, std::string(f->flag) + ": " + msg};
    return true;
}

bool
readJobJson(const util::JsonValue &doc, JobSpec *job, std::string *err)
{
    // Upper bounds are sanity rails against absurd resource asks, not
    // semantic validation: names are checked by resolveJob().
    return getString(doc, "model", &job->model, err) &&
           getCluster(doc, &job->cluster, err) &&
           getString(doc, "topology", &job->topology, err) &&
           getString(doc, "system", &job->system, err) &&
           getString(doc, "strategy", &job->strategy, err) &&
           getString(doc, "verifyMode", &job->verifyMode, err) &&
           getInt(doc, "microbatch", 1, 4096, &job->microbatch,
                  err) &&
           getInt(doc, "mbPerMini", 1, 4096, &job->mbPerMini, err) &&
           getInt(doc, "minibatches", 1, 4096, &job->minibatches,
                  err) &&
           getInt(doc, "threads", 1, 256, &job->threads, err) &&
           getBool(doc, "portfolio", &job->portfolio, err) &&
           getBool(doc, "analyticPrune", &job->analyticPrune, err) &&
           getDouble(doc, "deadlineMs", 0.0, 1e9, &job->deadlineMs,
                     err);
}

std::optional<ResolvedJob>
resolveJob(const JobSpec &job, JobError *err,
           std::string *clusterFindings)
{
    auto fail = [&](JobErrorKind kind, std::string message) {
        *err = {kind, std::move(message)};
        return std::nullopt;
    };

    std::optional<hw::Topology> topo;
    if (!job.cluster.empty()) {
        std::optional<cluster::ClusterSpec> spec =
            cluster::clusterByName(job.cluster);
        if (!spec) {
            cluster::ParsedClusterSpec parsed =
                cluster::parseClusterSpec(job.cluster);
            if (!parsed.ok)
                return fail(JobErrorKind::Invalid,
                            "bad cluster spec: " + parsed.error);
            spec = parsed.spec;
        }
        verify::Report report = verify::verifyClusterSpec(*spec);
        if (!report.clean() && clusterFindings != nullptr)
            *clusterFindings = report.render();
        if (!report.ok())
            return fail(JobErrorKind::Rejected,
                        util::strformat("cluster spec \"%s\" rejected:"
                                        " %s",
                                        spec->name.c_str(),
                                        report.summary().c_str()));
        topo = cluster::buildCluster(*spec);
    } else {
        topo = topologyFromName(job.topology);
        if (!topo)
            return fail(JobErrorKind::Invalid,
                        "unknown topology \"" + job.topology + "\"");
    }

    SessionConfig cfg;
    std::string unknown;
    if (!model::findPreset(job.model, &cfg.model))
        unknown = "model preset \"" + job.model;
    else if (!systemKindFromName(job.system, &cfg.system))
        unknown = "system \"" + job.system;
    else if (!strategyFromName(job.strategy, &cfg.strategy))
        unknown = "strategy \"" + job.strategy;
    else if (!verifyModeFromName(job.verifyMode, &cfg.verifyMode))
        unknown = "verifyMode \"" + job.verifyMode;
    if (!unknown.empty())
        return fail(JobErrorKind::Invalid, "unknown " + unknown + "\"");

    // One pipeline stage per GPU, at least one layer per stage: the
    // partitioner would otherwise util::fatal on this job.  The layer
    // count does not depend on the microbatch size.
    const int stages = topo->numGpus();
    const std::size_t layers =
        model::TransformerModel(cfg.model, 1).numLayers();
    if (static_cast<std::size_t>(stages) > layers)
        return fail(JobErrorKind::Invalid,
                    util::strformat("%s needs %d pipeline stages (one"
                                    " per GPU) but model %s has only"
                                    " %zu layers",
                                    topo->name().c_str(), stages,
                                    job.model.c_str(), layers));

    cfg.microbatch = job.microbatch;
    cfg.numStages = stages;
    cfg.microbatchesPerMinibatch = job.mbPerMini;
    cfg.minibatches = job.minibatches;
    cfg.planner.threads = job.threads;
    cfg.planner.portfolio = job.portfolio;
    cfg.planner.analyticPrune = job.analyticPrune;
    cfg.planner.deadlineMs = job.deadlineMs;
    return ResolvedJob{std::move(*topo), std::move(cfg)};
}

bool
getString(const util::JsonValue &doc, const char *key,
          std::string *out, std::string *err)
{
    const util::JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    if (!v->isString()) {
        *err = util::strformat("\"%s\" must be a string", key);
        return false;
    }
    *out = v->str();
    return true;
}

bool
getDouble(const util::JsonValue &doc, const char *key, double lo,
          double hi, double *out, std::string *err)
{
    const util::JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    double n = v->isNumber() ? v->number() : std::nan("");
    if (!std::isfinite(n) || n < lo || n > hi) {
        *err = util::strformat(
            "\"%s\" must be a number in [%g, %g]", key, lo, hi);
        return false;
    }
    *out = n;
    return true;
}

} // namespace api
} // namespace mpress
