#include "serve/protocol.h"

namespace uic {
namespace serve {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kFailedPrecondition: return "failed_precondition";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ErrorCode CodeFromStatus(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
    case Status::Code::kInternal:
      return ErrorCode::kInternal;
    case Status::Code::kInvalidArgument:
    case Status::Code::kOutOfRange:
      return ErrorCode::kBadRequest;
    case Status::Code::kNotFound:
      return ErrorCode::kNotFound;
    case Status::Code::kIOError:
      return ErrorCode::kNotFound;
    case Status::Code::kFailedPrecondition:
      return ErrorCode::kFailedPrecondition;
    case Status::Code::kDeadlineExceeded:
      return ErrorCode::kDeadlineExceeded;
  }
  return ErrorCode::kInternal;
}

Result<Request> ParseRequest(const std::string& line) {
  Result<Json> doc = Json::Parse(line);
  if (!doc.ok()) return doc.status();
  if (!doc.value().is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request request;
  request.body = doc.MoveValue();
  if (const Json* id = request.body.Find("id")) request.id = *id;
  const Json* verb = request.body.Find("verb");
  if (verb == nullptr || !verb->is_string() || verb->AsString().empty()) {
    return Status::InvalidArgument("request needs a non-empty string 'verb'");
  }
  request.verb = verb->AsString();
  if (const Json* deadline = request.body.Find("deadline_ms")) {
    if (!deadline->is_number() || deadline->AsDouble() < 0.0) {
      return Status::InvalidArgument(
          "'deadline_ms' must be a non-negative number");
    }
    request.deadline_ms = deadline->AsDouble();
  }
  return request;
}

Result<std::string> GetStringField(const Json& body, const char* key,
                                   const std::string& def) {
  const Json* field = body.Find(key);
  if (field == nullptr) return def;
  if (!field->is_string()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a string");
  }
  return field->AsString();
}

Result<long long> GetIntField(const Json& body, const char* key,
                              long long def, long long lo, long long hi) {
  const Json* field = body.Find(key);
  if (field == nullptr) return def;
  if (!field->is_number()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a number");
  }
  const long long v = field->AsInt();
  if (field->AsDouble() != static_cast<double>(v) || v < lo || v > hi) {
    std::string message = std::string("'") + key + "' must be an integer";
    if (lo != LLONG_MIN || hi != LLONG_MAX) {
      message += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    }
    return Status::InvalidArgument(message);
  }
  return v;
}

Result<double> GetNumberField(const Json& body, const char* key, double def,
                              double lo, double hi) {
  const Json* field = body.Find(key);
  if (field == nullptr) return def;
  if (!field->is_number() || field->AsDouble() < lo || field->AsDouble() > hi) {
    std::string message = std::string("'") + key + "' must be a number";
    if (lo != -HUGE_VAL || hi != HUGE_VAL) {
      message += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    }
    return Status::InvalidArgument(message);
  }
  return field->AsDouble();
}

std::string OkResponse(const Json& id, const Json& result,
                       const Json& serve_info) {
  Json response = Json::Object();
  response.Set("id", id);
  response.Set("ok", Json::Bool(true));
  response.Set("result", result);
  if (!serve_info.is_null()) response.Set("serve", serve_info);
  return response.Dump();
}

std::string ErrorResponse(const Json& id, ErrorCode code,
                          const std::string& message) {
  return ErrorResponse(id, code, message, Json());
}

std::string ErrorResponse(const Json& id, ErrorCode code,
                          const std::string& message, const Json& partial) {
  Json error = Json::Object();
  error.Set("code", Json::Str(ErrorCodeName(code)));
  error.Set("message", Json::Str(message));
  if (!partial.is_null()) error.Set("partial", partial);
  Json response = Json::Object();
  response.Set("id", id);
  response.Set("ok", Json::Bool(false));
  response.Set("error", std::move(error));
  return response.Dump();
}

}  // namespace serve
}  // namespace uic
