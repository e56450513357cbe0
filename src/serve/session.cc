#include "serve/session.h"

#include <cstdint>
#include <utility>

#include "common/failpoint.h"
#include "core/serialization.h"
#include "exp/configs.h"
#include "exp/networks.h"
#include "graph/generators.h"

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

namespace {

/// Integer field with range validation; `def` when absent.
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
    return Status::InvalidArgument(
        std::string("'") + key + "' must be an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

std::string GetStringField(const Json& body, const char* key,
                           const std::string& def = "") {
  const Json* field = body.Find(key);
  if (field == nullptr || !field->is_string()) return def;
  return field->AsString();
}

}  // namespace

Result<Graph> BuildGraphFromSpec(const Json& body) {
  const Json* p_field = body.Find("p");
  if (p_field != nullptr &&
      (!p_field->is_number() || p_field->AsDouble() < 0.0 ||
       p_field->AsDouble() > 1.0)) {
    return Status::InvalidArgument("'p' must be a probability in [0, 1]");
  }
  const double p = p_field != nullptr ? p_field->AsDouble() : 0.0;

  const std::string path = GetStringField(body, "path");
  if (!path.empty()) {
    Result<Graph> loaded = LoadGraph(path);
    if (loaded.ok() && p > 0.0) loaded.value().ApplyConstantProbability(p);
    return loaded;
  }

  const std::string network = GetStringField(body, "network");
  if (network.empty()) {
    return Status::InvalidArgument(
        "load_graph needs either 'path' or a 'network' generator spec");
  }
  Result<long long> nodes = GetIntField(body, "nodes", 2000, 1, UINT32_MAX);
  if (!nodes.ok()) return nodes.status();
  Result<long long> edges =
      GetIntField(body, "edges", 6 * nodes.value(), 0, INT64_MAX);
  if (!edges.ok()) return edges.status();
  Result<long long> net_seed =
      GetIntField(body, "net_seed", 20190630, 0, INT64_MAX);
  if (!net_seed.ok()) return net_seed.status();
  const uint64_t seed = static_cast<uint64_t>(net_seed.value());
  const Json* scale_field = body.Find("scale");
  const double scale =
      scale_field != nullptr && scale_field->is_number() &&
              scale_field->AsDouble() > 0.0
          ? scale_field->AsDouble()
          : 0.3;

  // The generators' own preconditions, checked here so a degenerate spec
  // is a bad_request rather than a failed CHECK that ends the daemon.
  if (network == "er" && nodes.value() < 2) {
    return Status::InvalidArgument("network 'er' needs at least 2 nodes");
  }
  if (network == "pa" && nodes.value() < 6) {
    return Status::InvalidArgument(
        "network 'pa' needs at least 6 nodes (5 out-edges per node)");
  }

  Graph graph;
  if (network == "er") {
    graph = GenerateErdosRenyi(static_cast<NodeId>(nodes.value()),
                               static_cast<size_t>(edges.value()), seed);
    graph.ApplyWeightedCascade();
  } else if (network == "pa") {
    graph = GeneratePreferentialAttachment(
        static_cast<NodeId>(nodes.value()), /*out_per_node=*/5,
        /*undirected=*/false, seed);
    graph.ApplyWeightedCascade();
  } else if (network == "flixster") {
    graph = MakeFlixsterLike(seed, scale);
  } else if (network == "douban-book") {
    graph = MakeDoubanBookLike(seed, scale);
  } else if (network == "douban-movie") {
    graph = MakeDoubanMovieLike(seed, scale);
  } else if (network == "twitter") {
    graph = MakeTwitterLike(seed, scale);
  } else if (network == "orkut") {
    graph = MakeOrkutLike(seed, scale);
  } else {
    return Status::InvalidArgument("unknown network '" + network + "'");
  }
  if (p > 0.0) graph.ApplyConstantProbability(p);
  return graph;
}

Result<ItemParams> BuildParamsFromSpec(const Json& body) {
  const std::string path = GetStringField(body, "path");
  if (!path.empty()) return LoadItemParams(path);

  const std::string config = GetStringField(body, "config");
  if (config.empty()) {
    return Status::InvalidArgument(
        "load_params needs either 'path' or 'config'");
  }
  Result<long long> items = GetIntField(body, "items", 2, 1, 32);
  if (!items.ok()) return items.status();
  const ItemId num_items = static_cast<ItemId>(items.value());
  Result<long long> param_seed =
      GetIntField(body, "param_seed", 8, 0, INT64_MAX);
  if (!param_seed.ok()) return param_seed.status();

  if (config == "config12") return MakeTwoItemConfig12();
  if (config == "config34") return MakeTwoItemConfig34();
  if (config == "additive") return MakeAdditiveConfig5(num_items);
  if (config == "cone-max") return MakeConeConfig67(num_items, 0);
  if (config == "cone-min") {
    return MakeConeConfig67(num_items, static_cast<ItemId>(num_items - 1));
  }
  if (config == "levelwise") {
    return MakeLevelwiseConfig8(num_items,
                                static_cast<uint64_t>(param_seed.value()));
  }
  if (config == "real") return MakeRealPlaystationParams();
  return Status::InvalidArgument("unknown config '" + config + "'");
}

}  // namespace serve
}  // namespace uic
