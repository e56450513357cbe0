// The session registry: named graphs and item-param sets pinned in memory
// across requests.
//
// Loading a graph is the one cost even warm serving cannot amortize away,
// so clients pay it once: `load_graph` parses/generates the network into
// the registry under a client-chosen name, and every later `solve` refers
// to it by name. Entries are shared_ptr-pinned — an unload (or a reload
// under the same name) removes the name immediately, but in-flight solves
// and warm-cache entries keep the object alive until they release it.
//
// Every successful load gets a process-unique *generation* id. The warm
// cache keys on the generation, not the name, so reloading "g" under the
// same name can never serve samples drawn on the old graph (that would
// break the (graph, options, seed) purity the determinism contract is
// stated over).
//
// Capacity is part of admission control: the registry refuses loads past
// its caps (kOverloaded at the protocol level) instead of growing until
// the kernel OOM-kills the daemon.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "exp/fields.h"
#include "graph/graph.h"
#include "items/params.h"
#include "serve/json.h"

namespace uic {
namespace serve {

/// \brief A pinned graph: name, generation, shared ownership.
struct GraphSession {
  std::string name;
  uint64_t generation = 0;
  std::shared_ptr<const Graph> graph;
};

/// \brief A pinned utility configuration.
struct ParamsSession {
  std::string name;
  uint64_t generation = 0;
  std::shared_ptr<const ItemParams> params;
};

/// \brief Thread-safe name → pinned-object registry.
class SessionRegistry {
 public:
  explicit SessionRegistry(size_t max_graphs = 8, size_t max_params = 32)
      : max_graphs_(max_graphs), max_params_(max_params) {}

  /// Pin `graph` under `name`. Replacing an existing name is allowed and
  /// bumps the generation; exceeding the cap with a *new* name fails with
  /// FailedPrecondition (mapped to kOverloaded by the server).
  [[nodiscard]] Result<GraphSession> AddGraph(const std::string& name,
                                              Graph graph);
  [[nodiscard]] Result<ParamsSession> AddParams(const std::string& name,
                                                ItemParams params);

  /// NotFound when `name` is not loaded.
  [[nodiscard]] Result<GraphSession> GetGraph(const std::string& name) const;
  [[nodiscard]] Result<ParamsSession> GetParams(
      const std::string& name) const;

  /// Drop `name` from the registry (in-flight users keep their pins).
  /// NotFound when absent. On success `*generation` (optional) receives
  /// the dropped entry's generation so the caller can evict warm state.
  [[nodiscard]] Status RemoveGraph(const std::string& name,
                                   uint64_t* generation = nullptr);
  [[nodiscard]] Status RemoveParams(const std::string& name);

  /// Sorted inventory for the `stats` verb:
  /// {"graphs":[{"name","generation","nodes","edges"}...],
  ///  "params":[{"name","generation","items"}...]}.
  Json Describe() const;

 private:
  const size_t max_graphs_;
  const size_t max_params_;

  mutable Mutex mu_;
  // std::map: deterministic iteration order for Describe (UIC-L006).
  std::map<std::string, GraphSession> graphs_ UIC_GUARDED_BY(mu_);
  std::map<std::string, ParamsSession> params_ UIC_GUARDED_BY(mu_);
  uint64_t next_generation_ UIC_GUARDED_BY(mu_) = 1;
};

/// `key`'s value in `body` read as `kind` (exp/fields.h) with the typed
/// getters of serve/protocol.h: InvalidArgument naming `key` for a value
/// of the wrong JSON type, or for kInt a number that is not an integer.
[[nodiscard]] Result<FieldValue> ReadField(const Json& body, const char* key,
                                           FieldKind kind);

/// OK for an envelope field (`id`, `verb`, `deadline_ms`) or one of `own`,
/// the verb's own fields; InvalidArgument naming `key` otherwise.
[[nodiscard]] Status CheckOwnField(const std::string& key,
                                   std::initializer_list<std::string_view> own);

/// The JSON reader of a field table: rejects a member of `body` that is
/// no row's key and fails CheckOwnField, then applies each row whose key
/// `body` has to `spec`, in table order. An error names the key.
template <typename Spec>
[[nodiscard]] Status ApplyFields(const Json& body,
                                 std::span<const Field<Spec>> fields,
                                 std::initializer_list<std::string_view> own,
                                 Spec* spec) {
  for (const auto& member : body.members()) {
    const auto named = [&](const Field<Spec>& field) {
      return member.first == field.key;
    };
    if (!std::ranges::any_of(fields, named)) {
      UIC_RETURN_NOT_OK(CheckOwnField(member.first, own));
    }
  }
  for (const Field<Spec>& field : fields) {
    if (body.Find(field.key) == nullptr) continue;
    Result<FieldValue> value = ReadField(body, field.key, field.kind);
    if (!value.ok()) return value.status();
    const Status st = field.set(*spec, value.value());
    if (!st.ok()) {
      return Status(st.code(),
                    std::string("'") + field.key + "' " + st.message());
    }
  }
  return Status::OK();
}

/// \brief Build a graph from a `load_graph` request body, read through
/// the network field table (exp/fields.h). Unlike `uic_run --network`,
/// `"network"` has no default: a body needs it or `"path"`.
[[nodiscard]] Result<Graph> BuildGraphFromSpec(const Json& body);

/// \brief Build item params from a `load_params` request body, read
/// through the configuration field table; the body needs `"config"` or
/// `"path"`.
[[nodiscard]] Result<ItemParams> BuildParamsFromSpec(const Json& body);

}  // namespace serve
}  // namespace uic
