#include "serve/protocol.hh"

#include "util/strings.hh"

namespace mpress {
namespace serve {

namespace {

/** Map the wire op name; false on an unknown op. */
bool
opFromName(const std::string &name, RequestOp *out)
{
    for (RequestOp op :
         {RequestOp::Ping, RequestOp::Stats, RequestOp::Plan,
          RequestOp::Analyze, RequestOp::Robustness, RequestOp::Stall,
          RequestOp::Shutdown}) {
        if (name == requestOpName(op)) {
            *out = op;
            return true;
        }
    }
    return false;
}

} // namespace

const char *
requestOpName(RequestOp op)
{
    switch (op) {
      case RequestOp::Ping:
        return "ping";
      case RequestOp::Stats:
        return "stats";
      case RequestOp::Plan:
        return "plan";
      case RequestOp::Analyze:
        return "analyze";
      case RequestOp::Robustness:
        return "robustness";
      case RequestOp::Stall:
        return "stall";
      case RequestOp::Shutdown:
        return "shutdown";
    }
    return "?";
}

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::None:
        return "none";
      case ErrorKind::ParseError:
        return "parse-error";
      case ErrorKind::BadRequest:
        return "bad-request";
      case ErrorKind::Overloaded:
        return "overloaded";
      case ErrorKind::Unsupported:
        return "unsupported";
      case ErrorKind::RejectedPlan:
        return "rejected-plan";
      case ErrorKind::Internal:
        return "internal";
    }
    return "?";
}

ParsedRequest
parseRequest(const std::string &line, const util::JsonLimits &limits)
{
    ParsedRequest out;
    auto reject = [&](ErrorKind kind, std::string message) {
        out.errorKind = kind;
        out.error = std::move(message);
        return out;
    };
    util::ParsedJson doc = util::jsonParse(line, limits);
    if (!doc.ok)
        return reject(ErrorKind::ParseError,
                      util::strformat(
                          "%s: %s",
                          util::jsonErrorKindName(doc.errorKind),
                          doc.error.c_str()));
    if (!doc.value.isObject())
        return reject(ErrorKind::BadRequest,
                      "request must be a JSON object");

    // Echo "id" even when a later field is rejected, so the client
    // can still match the error to its request.
    std::string err;
    if (!api::getString(doc.value, "id", &out.request.id, &err))
        return reject(ErrorKind::BadRequest, err);
    out.id = out.request.id;

    const util::JsonValue *op = doc.value.find("op");
    if (op == nullptr || !op->isString() ||
        !opFromName(op->str(), &out.request.op))
        return reject(ErrorKind::BadRequest,
                      "unknown or missing \"op\"");

    // Job fields live in a nested "job" object (the canonical
    // shape); bare top-level fields are accepted as shorthand.  A
    // present-but-non-object "job" is a typed error, not a silent
    // fall-through to the default job.
    const util::JsonValue *job_node = doc.value.find("job");
    if (job_node != nullptr && !job_node->isObject())
        return reject(ErrorKind::BadRequest,
                      "\"job\" must be an object");
    const util::JsonValue &job_src =
        job_node != nullptr ? *job_node : doc.value;

    switch (out.request.op) {
      case RequestOp::Plan:
      case RequestOp::Analyze:
      case RequestOp::Robustness:
        if (!api::readJobJson(job_src, &out.request.job, &err))
            return reject(ErrorKind::BadRequest, err);
        if (out.request.op == RequestOp::Robustness) {
            const util::JsonValue *sc = doc.value.find("scenarios");
            if (sc == nullptr || !sc->isArray() ||
                sc->items().empty())
                return reject(ErrorKind::BadRequest,
                              "robustness needs a non-empty"
                              " \"scenarios\" array");
            // Hand the subtree to the text-based scenario parser in
            // the same shape the --robustness file uses.
            out.request.scenariosText =
                "{\"scenarios\":" + util::jsonRender(*sc) + "}";
        }
        break;
      case RequestOp::Stall:
        if (!api::getDouble(doc.value, "ms", 0.0, 60000.0,
                            &out.request.stallMs, &err))
            return reject(ErrorKind::BadRequest, err);
        break;
      case RequestOp::Ping:
      case RequestOp::Stats:
      case RequestOp::Shutdown:
        break;
    }
    out.ok = true;
    return out;
}

std::string
errorResponse(const std::string &id, ErrorKind kind,
              const std::string &message)
{
    return util::strformat(
        "{\"id\":%s,\"ok\":false,\"error\":{\"kind\":%s,"
        "\"message\":%s}}",
        util::jsonQuote(id).c_str(),
        util::jsonQuote(errorKindName(kind)).c_str(),
        util::jsonQuote(message).c_str());
}

std::string
okResponse(const std::string &id, RequestOp op,
           const std::string &resultBody)
{
    return util::strformat(
        "{\"id\":%s,\"ok\":true,\"op\":%s,\"result\":%s}",
        util::jsonQuote(id).c_str(),
        util::jsonQuote(requestOpName(op)).c_str(),
        resultBody.c_str());
}

} // namespace serve
} // namespace mpress
