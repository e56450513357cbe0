// The serve wire protocol: JSON-lines requests and responses.
//
// One request object per line, one response line per request, in request
// order per connection:
//
//   {"id":1,"verb":"load_graph","name":"g","network":"er","nodes":300,...}
//   {"id":2,"verb":"load_params","name":"p","config":"config12"}
//   {"id":3,"verb":"solve","graph":"g","params":"p",
//    "algorithm":"bundle-grd","budgets":[3,3],"seed":4}
//   {"id":4,"verb":"stats"}
//   {"id":5,"verb":"shutdown"}
//
// Responses are `{"id":...,"ok":true,"result":{...},"serve":{...}}` on
// success — `result` carries the deterministic payload (allocation,
// welfare, pool sizes; bit-identical warm/cold/concurrent by the
// determinism contract) and `serve` the load-dependent accounting (cache
// hit, RR sets sampled vs reused, queue/solve latency) — or
// `{"id":...,"ok":false,"error":{"code":...,"message":...}}` on failure.
// `id` is echoed verbatim (number, string, or null when absent) so
// clients can pipeline. The verbs are the table in serve/server.cc; this
// header is only the envelope: parsing, error codes, response framing.
#pragma once

#include <climits>
#include <cmath>
#include <string>

#include "common/status.h"
#include "serve/json.h"

namespace uic {
namespace serve {

/// \brief Machine-readable error classes (the HTTP-status analogue noted
/// per code). Stable protocol surface: clients dispatch on `code`.
enum class ErrorCode {
  kBadRequest,         ///< malformed JSON / missing field / unknown verb (400)
  kNotFound,           ///< unknown session name or algorithm (404)
  kFailedPrecondition, ///< solver/problem validation failed (412)
  kOverloaded,         ///< admission queue full — shed, retry later (429)
  kDeadlineExceeded,   ///< queued past the request's deadline_ms (504)
  kUnavailable,        ///< server draining for shutdown (503)
  kInternal,           ///< anything else (500)
};

/// Wire name of `code` (e.g. "overloaded").
const char* ErrorCodeName(ErrorCode code);

/// Map a lower-layer Status (loader, registry, solver validation) onto
/// the protocol error vocabulary.
ErrorCode CodeFromStatus(const Status& status);

/// \brief A parsed request envelope.
struct Request {
  Json id;           ///< echoed verbatim; null when the client sent none
  std::string verb;  ///< required, non-empty
  Json body;         ///< the full request object (verb-specific fields)
  /// End-to-end budget in milliseconds: the scheduler fails the request
  /// with kDeadlineExceeded if it is still queued past the deadline, and
  /// the solve path re-checks at phase boundaries so an admitted request
  /// that blows its budget mid-solve errors (with partial stats) instead
  /// of returning a full result late; 0 = no deadline.
  double deadline_ms = 0.0;
};

/// Parse one request line. InvalidArgument on malformed JSON, a
/// non-object document, a missing/empty `verb`, or a negative/non-number
/// `deadline_ms`.
[[nodiscard]] Result<Request> ParseRequest(const std::string& line);

// --- request-body fields ----------------------------------------------
// Each reader returns `def` when `key` is absent.

/// A string field; InvalidArgument for a value of any other type.
[[nodiscard]] Result<std::string> GetStringField(const Json& body,
                                                 const char* key,
                                                 const std::string& def = "");

/// An integer field in [lo, hi]; InvalidArgument for anything else.
[[nodiscard]] Result<long long> GetIntField(const Json& body, const char* key,
                                            long long def,
                                            long long lo = LLONG_MIN,
                                            long long hi = LLONG_MAX);

/// A number field in [lo, hi]; InvalidArgument for anything else.
[[nodiscard]] Result<double> GetNumberField(const Json& body, const char* key,
                                            double def, double lo = -HUGE_VAL,
                                            double hi = HUGE_VAL);

/// `{"id":...,"ok":true,"result":...}` with an optional trailing `serve`
/// section (pass a null Json to omit it). Returns the line WITHOUT a
/// trailing newline.
std::string OkResponse(const Json& id, const Json& result,
                       const Json& serve_info);

/// `{"id":...,"ok":false,"error":{"code":...,"message":...}}`.
std::string ErrorResponse(const Json& id, ErrorCode code,
                          const std::string& message);

/// As above, with an `error.partial` member carrying whatever progress
/// stats the server had when it gave up (omitted when `partial` is null).
/// Used by mid-solve deadline_exceeded responses: the client learns how
/// far the solve got, but gets no result it could mistake for a full one.
std::string ErrorResponse(const Json& id, ErrorCode code,
                          const std::string& message, const Json& partial);

}  // namespace serve
}  // namespace uic
