/**
 * @file
 * JobSpec — the one description of a training job that every front
 * end reads.
 *
 * A job is the planner's input tuple: model preset, inter-operator
 * system, memory strategy, server (topology or cluster) and batch
 * shape, plus the planner knobs a request may set.  mpress_cli flags,
 * each --sweep scenario, the mpress-serve "job" object and the
 * mpress-verify flags all fill the same JobSpec through the two
 * readers below, with the same names, defaults and bounds, and then
 * bind it to concrete objects through resolveJob().  A served job
 * and the equivalent command line are therefore the same job (the
 * byte-identical-plan contract depends on it), and a hostile value
 * becomes a typed JobError on every front end instead of a
 * util::fatal deep inside the session.
 *
 * Vocabulary (JSON name / flag, default, bound):
 *   model         --model           bert-0.64b
 *   topology      --topology        dgx1 (or a cluster preset)
 *   cluster       --cluster         preset name or spec (overrides
 *                                   topology; a flag names a preset
 *                                   or a spec file, JSON a preset
 *                                   name or an inline spec object)
 *   system        --system          pipedream
 *   strategy      --strategy        mpress
 *   verifyMode    --verify-mode     permissive
 *   microbatch    --microbatch      12      [1, 4096]
 *   mbPerMini     --mb-per-mini     8       [1, 4096]
 *   minibatches   --minibatches     2       [1, 4096]
 *   threads       --threads         1       [1, 256]
 *   portfolio     --portfolio       false
 *   analyticPrune --analytic-prune  false
 *   deadlineMs    --deadline-ms     0       [0, 1e9]
 *
 * Upper bounds are sanity rails against absurd resource asks
 * ("minibatches": 1e9 would emulate for hours; "threads": 1e6 would
 * ask for a million OS threads), not semantic validation: names are
 * checked when resolveJob() binds the job.
 */

#ifndef MPRESS_API_JOB_HH
#define MPRESS_API_JOB_HH

#include <optional>
#include <string>

#include "api/session.hh"
#include "util/json.hh"

namespace mpress {
namespace api {

/** One training job as the front ends describe it. */
struct JobSpec
{
    std::string model = "bert-0.64b";
    std::string topology = "dgx1";

    /** Multi-node cluster selector; empty = use @ref topology.  Holds
     *  a cluster preset name or the text of a cluster spec (an
     *  inline JSON object is re-rendered to canonical text), which
     *  resolveJob() pushes through the strict spec parser and
     *  verifyClusterSpec. */
    std::string cluster;
    std::string system = "pipedream";
    std::string strategy = "mpress";
    std::string verifyMode = "permissive";
    int microbatch = 12;
    int mbPerMini = 8;
    int minibatches = 2;
    int threads = 1;
    bool portfolio = false;
    bool analyticPrune = false;
    double deadlineMs = 0.0;
};

/** Typed failure classes of the job readers and resolveJob().  Each
 *  value is the command-line exit status of that failure. */
enum class JobErrorKind
{
    None = 0,
    Invalid = 1,    ///< wrong type, out of bounds, unknown name or
                    ///< a job shape that cannot be built
    Malformed = 2,  ///< a flag value that does not parse
    Rejected = 3,   ///< cluster spec rejected by verifyClusterSpec
};

/** A job reader / resolver failure. */
struct JobError
{
    JobErrorKind kind = JobErrorKind::None;
    std::string message;
};

/** Which job flags a command-line front end accepts. */
enum class JobFlags
{
    /** --model --system --topology --cluster --microbatch
     *  --mb-per-mini --minibatches: the job a plan is checked
     *  against (mpress-verify). */
    Shape,
    /** Shape plus --strategy --verify-mode --threads --portfolio
     *  --analytic-prune --deadline-ms (mpress_cli). */
    All,
};

/**
 * Read the job flag at argv[*i] (and its value, advancing *i past
 * it) into @p job.  Returns false, touching nothing, when argv[*i]
 * is not a job flag of @p accept, so the caller parses it as its own;
 * otherwise true, with @p err set when the value is missing,
 * malformed or out of bounds.  --cluster reads a spec file unless
 * its value names a cluster preset.
 */
bool readJobFlag(int argc, char *const *argv, int *i,
                 JobFlags accept, JobSpec *job, JobError *err);

/**
 * Read the job fields of JSON object @p doc over @p job: absent
 * members keep @p job's values (so @p job supplies the defaults),
 * unknown members are ignored.  Strict typing is the point:
 * {"microbatch":"12"} is malformed, not coercible, and 1e30 is out
 * of bounds rather than an undefined int cast.  Returns false with
 * @p err naming the field on the first bad member (JobErrorKind
 * Invalid).
 */
bool readJobJson(const util::JsonValue &doc, JobSpec *job,
                 std::string *err);

/** A JobSpec bound to concrete objects. */
struct ResolvedJob
{
    hw::Topology topo;
    SessionConfig cfg;
};

/**
 * Bind @p job to a topology and session config through the checked
 * name parsers (model::findPreset, *FromName, topologyFromName) and,
 * for a cluster, the strict spec parser and verifyClusterSpec.  Also
 * rejects a job whose stage count (one stage per GPU) exceeds the
 * model's layer count, before any MPressSession is built.  nullopt
 * with @p err on any failure; @p clusterFindings (optional) receives
 * the rendered verifyClusterSpec findings whenever they are not
 * clean, warnings included.
 */
std::optional<ResolvedJob>
resolveJob(const JobSpec &job, JobError *err,
           std::string *clusterFindings = nullptr);

/**
 * Typed JSON member helpers behind readJobJson(), shared with the
 * serve protocol's "id" and stall "ms" and the sweep's "name".  Each
 * returns false (with a message naming @p key) when the member
 * exists but has the wrong type or an out-of-range value; an absent
 * member keeps @p out and succeeds.
 */
bool getString(const util::JsonValue &doc, const char *key,
               std::string *out, std::string *err);
/** Finite double in [lo, hi]. */
bool getDouble(const util::JsonValue &doc, const char *key, double lo,
               double hi, double *out, std::string *err);

} // namespace api
} // namespace mpress

#endif // MPRESS_API_JOB_HH
