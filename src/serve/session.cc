#include "serve/session.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/failpoint.h"
#include "serve/protocol.h"

namespace uic {
namespace serve {

Result<GraphSession> SessionRegistry::AddGraph(const std::string& name,
                                               Graph graph) {
  if (name.empty()) {
    return Status::InvalidArgument("graph session name must be non-empty");
  }
  {
    // error(...) makes a load fail after validation — the registry must
    // stay exactly as it was; delay_ms(n) widens load/unload races.
    const failpoint::Hit fp = UIC_FAILPOINT("serve.session.add_graph");
    failpoint::SleepFor(fp);
    if (fp.action == failpoint::Action::kError) {
      return Status::Internal("injected fault at serve.session.add_graph");
    }
  }
  MutexLock lock(mu_);
  const bool replacing = graphs_.count(name) > 0;
  if (!replacing && graphs_.size() >= max_graphs_) {
    return Status::FailedPrecondition(
        "graph session limit reached (" + std::to_string(max_graphs_) +
        "); unload one first");
  }
  GraphSession session;
  session.name = name;
  session.generation = next_generation_++;
  session.graph = std::make_shared<const Graph>(std::move(graph));
  graphs_[name] = session;
  return session;
}

Result<ParamsSession> SessionRegistry::AddParams(const std::string& name,
                                                 ItemParams params) {
  if (name.empty()) {
    return Status::InvalidArgument("params session name must be non-empty");
  }
  MutexLock lock(mu_);
  const bool replacing = params_.count(name) > 0;
  if (!replacing && params_.size() >= max_params_) {
    return Status::FailedPrecondition(
        "params session limit reached (" + std::to_string(max_params_) +
        "); unload one first");
  }
  ParamsSession session;
  session.name = name;
  session.generation = next_generation_++;
  session.params = std::make_shared<const ItemParams>(std::move(params));
  params_.insert_or_assign(name, session);
  return session;
}

Result<GraphSession> SessionRegistry::GetGraph(const std::string& name) const {
  {
    // Simulates losing the race with an unload: the lookup fails the way
    // it would if another client dropped the session a beat earlier.
    const failpoint::Hit fp = UIC_FAILPOINT("serve.session.get_graph");
    failpoint::SleepFor(fp);
    if (fp.action == failpoint::Action::kError) {
      return Status::NotFound("injected fault at serve.session.get_graph: '" +
                              name + "' vanished");
    }
  }
  MutexLock lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no loaded graph named '" + name + "'");
  }
  return it->second;
}

Result<ParamsSession> SessionRegistry::GetParams(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = params_.find(name);
  if (it == params_.end()) {
    return Status::NotFound("no loaded params named '" + name + "'");
  }
  return it->second;
}

Status SessionRegistry::RemoveGraph(const std::string& name,
                                    uint64_t* generation) {
  MutexLock lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no loaded graph named '" + name + "'");
  }
  if (generation != nullptr) *generation = it->second.generation;
  graphs_.erase(it);
  return Status::OK();
}

Status SessionRegistry::RemoveParams(const std::string& name) {
  MutexLock lock(mu_);
  auto it = params_.find(name);
  if (it == params_.end()) {
    return Status::NotFound("no loaded params named '" + name + "'");
  }
  params_.erase(it);
  return Status::OK();
}

Json SessionRegistry::Describe() const {
  MutexLock lock(mu_);
  Json graphs = Json::Array();
  for (const auto& [name, session] : graphs_) {
    Json entry = Json::Object();
    entry.Set("name", Json::Str(name));
    entry.Set("generation",
              Json::Int(static_cast<long long>(session.generation)));
    entry.Set("nodes", Json::Int(session.graph->num_nodes()));
    entry.Set("edges",
              Json::Int(static_cast<long long>(session.graph->num_edges())));
    graphs.Append(std::move(entry));
  }
  Json params = Json::Array();
  for (const auto& [name, session] : params_) {
    Json entry = Json::Object();
    entry.Set("name", Json::Str(name));
    entry.Set("generation",
              Json::Int(static_cast<long long>(session.generation)));
    entry.Set("items", Json::Int(session.params->num_items()));
    params.Append(std::move(entry));
  }
  Json out = Json::Object();
  out.Set("graphs", std::move(graphs));
  out.Set("params", std::move(params));
  return out;
}

Result<FieldValue> ReadField(const Json& body, const char* key,
                             FieldKind kind) {
  FieldValue value;
  if (kind == FieldKind::kText) {
    Result<std::string> text = GetStringField(body, key);
    if (!text.ok()) return text.status();
    value.text = text.MoveValue();
  } else if (kind == FieldKind::kInt) {
    Result<long long> integer = GetIntField(body, key, 0);
    if (!integer.ok()) return integer.status();
    value.integer = integer.value();
  } else {
    Result<double> number = GetNumberField(body, key, 0.0);
    if (!number.ok()) return number.status();
    value.number = number.value();
  }
  return value;
}

Status CheckOwnField(const std::string& key,
                     std::initializer_list<std::string_view> own) {
  if (key == "id" || key == "verb" || key == "deadline_ms" ||
      std::ranges::find(own, key) != own.end()) {
    return Status::OK();
  }
  return Status::InvalidArgument("unknown field '" + key + "'");
}

Result<Graph> BuildGraphFromSpec(const Json& body) {
  NetworkSpec spec;
  spec.network.clear();
  UIC_RETURN_NOT_OK(ApplyFields(body, NetworkFields(), {"name"}, &spec));
  if (spec.path.empty() && spec.network.empty()) {
    return Status::InvalidArgument(
        "load_graph needs either 'path' or a 'network' generator spec");
  }
  return BuildNetwork(spec);
}

Result<ItemParams> BuildParamsFromSpec(const Json& body) {
  ConfigSpec spec;
  spec.config.clear();
  UIC_RETURN_NOT_OK(ApplyFields(body, ConfigFields(), {"name"}, &spec));
  if (spec.path.empty() && spec.config.empty()) {
    return Status::InvalidArgument(
        "load_params needs either 'path' or 'config'");
  }
  return BuildConfig(spec);
}

}  // namespace serve
}  // namespace uic
