#include "serve/session.h"

#include <cstdint>
#include <utility>

#include "common/failpoint.h"
#include "exp/specs.h"
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

Result<Graph> BuildGraphFromSpec(const Json& body) {
  NetworkSpec spec;
  Result<std::string> path = GetStringField(body, "path");
  if (!path.ok()) return path.status();
  spec.path = path.MoveValue();
  Result<std::string> network = GetStringField(body, "network");
  if (!network.ok()) return network.status();
  spec.network = network.MoveValue();
  if (spec.path.empty() && spec.network.empty()) {
    return Status::InvalidArgument(
        "load_graph needs either 'path' or a 'network' generator spec");
  }
  // Only the JSON types are checked here; BuildNetwork owns the limits.
  Result<long long> nodes = GetIntField(body, "nodes", spec.nodes);
  if (!nodes.ok()) return nodes.status();
  spec.nodes = nodes.value();
  if (body.Find("edges") != nullptr) {
    Result<long long> edges = GetIntField(body, "edges", 0);
    if (!edges.ok()) return edges.status();
    spec.edges = edges.value();
  }
  Result<long long> net_seed = GetIntField(
      body, "net_seed", static_cast<long long>(spec.seed), 0, INT64_MAX);
  if (!net_seed.ok()) return net_seed.status();
  spec.seed = static_cast<uint64_t>(net_seed.value());
  Result<double> scale = GetNumberField(body, "scale", spec.scale);
  if (!scale.ok()) return scale.status();
  spec.scale = scale.value();
  Result<double> p = GetNumberField(body, "p", spec.p);
  if (!p.ok()) return p.status();
  spec.p = p.value();
  return BuildNetwork(spec);
}

Result<ItemParams> BuildParamsFromSpec(const Json& body) {
  ConfigSpec spec;
  Result<std::string> path = GetStringField(body, "path");
  if (!path.ok()) return path.status();
  spec.path = path.MoveValue();
  Result<std::string> config = GetStringField(body, "config");
  if (!config.ok()) return config.status();
  spec.config = config.MoveValue();
  if (spec.path.empty() && spec.config.empty()) {
    return Status::InvalidArgument(
        "load_params needs either 'path' or 'config'");
  }
  Result<long long> items = GetIntField(body, "items", spec.items);
  if (!items.ok()) return items.status();
  spec.items = items.value();
  Result<long long> param_seed = GetIntField(
      body, "param_seed", static_cast<long long>(spec.seed), 0, INT64_MAX);
  if (!param_seed.ok()) return param_seed.status();
  spec.seed = static_cast<uint64_t>(param_seed.value());
  return BuildConfig(spec);
}

}  // namespace serve
}  // namespace uic
