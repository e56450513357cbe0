#include "exp/fields.h"

namespace uic {

namespace {

using enum FieldKind;

/// A member that takes the value as parsed; its spec owns the limit.
template <typename T, typename V>
Status Set(T& member, const V& value) {
  member = static_cast<T>(value);
  return Status::OK();
}

/// Seeds are in [0, 2^63 − 1], the integers both syntaxes carry exactly.
Status SetSeed(uint64_t& seed, long long value) {
  if (value < 0) return Status::OutOfRange("must be in [0, 2^63 - 1]");
  return Set(seed, value);
}

/// `a` or `b`, which set `member` to `to_a` or `to_b`.
template <typename Enum>
Status SetName(Enum& member, const std::string& text, const char* a,
               Enum to_a, const char* b, Enum to_b) {
  if (text != a && text != b) {
    return Status::OutOfRange(std::string("must be ") + a + " or " + b);
  }
  return Set(member, text == a ? to_a : to_b);
}

Status SetKernel(SamplingKernel& kernel, const std::string& text) {
  return ParseSamplingKernel(text, &kernel)
             ? Status::OK()
             : Status::OutOfRange("must be skip or scan");
}

}  // namespace

// docs/serving.md's verb table lists every row's key, and uic_run's usage
// text every row's flag (tools/docs/check_docs.sh). The setter is one
// expression over the spec `s` and the value `v`.
#define UIC_FIELD(flag, key, kind, ...) \
  {flag, key, kind,                     \
   [](auto& s, const FieldValue& v) -> Status { return __VA_ARGS__; }}

std::span<const Field<NetworkSpec>> NetworkFields() {
  static constexpr Field<NetworkSpec> kRows[] = {
      UIC_FIELD("graph", "path", kText, Set(s.path, v.text)),
      UIC_FIELD("network", "network", kText, Set(s.network, v.text)),
      UIC_FIELD("nodes", "nodes", kInt, Set(s.nodes, v.integer)),
      UIC_FIELD("edges", "edges", kInt, Set(s.edges, v.integer)),
      UIC_FIELD("net-seed", "net_seed", kInt, SetSeed(s.seed, v.integer)),
      UIC_FIELD("scale", "scale", kNumber, Set(s.scale, v.number)),
      UIC_FIELD("p", "p", kNumber, Set(s.p, v.number)),
  };
  return kRows;
}

std::span<const Field<ConfigSpec>> ConfigFields() {
  static constexpr Field<ConfigSpec> kRows[] = {
      UIC_FIELD("params", "path", kText, Set(s.path, v.text)),
      UIC_FIELD("config", "config", kText, Set(s.config, v.text)),
      UIC_FIELD("items", "items", kInt, Set(s.items, v.integer)),
      // Not the solver's seed: a seed sweep must not change the instance.
      UIC_FIELD("param-seed", "param_seed", kInt, SetSeed(s.seed, v.integer)),
  };
  return kRows;
}

std::span<const Field<SolveRequest>> SolveFields() {
  static constexpr Field<SolveRequest> kRows[] = {
      UIC_FIELD("algorithm", "algorithm", kText, Set(s.spec.algorithm, v.text)),
      UIC_FIELD("seed", "seed", kInt, SetSeed(s.spec.options.seed, v.integer)),
      UIC_FIELD("eps", "eps", kNumber, Set(s.spec.options.eps, v.number)),
      UIC_FIELD("ell", "ell", kNumber, Set(s.spec.options.ell, v.number)),
      UIC_FIELD("model", "model", kText,
                SetName(s.model, v.text, "ic",
                        DiffusionModel::kIndependentCascade, "lt",
                        DiffusionModel::kLinearThreshold)),
      UIC_FIELD("sampling-kernel", "sampling_kernel", kText,
                SetKernel(s.spec.options.rr_options.kernel, v.text)),
      UIC_FIELD("greedy-sims", "greedy_sims", kInt,
                Set(s.spec.options.mc_greedy.simulations_per_eval, v.integer)),
      UIC_FIELD("cim-sims", "cim_sims", kInt,
                Set(s.spec.options.comic.cim_forward_simulations, v.integer)),
      UIC_FIELD("bdhs-variant", "bdhs_variant", kText,
                SetName(s.spec.options.bdhs.variant, v.text, "step",
                        BdhsVariant::kStep, "concave", BdhsVariant::kConcave)),
      UIC_FIELD("kappa", "kappa", kNumber,
                Set(s.spec.options.bdhs.kappa, v.number)),
      UIC_FIELD("uniform-p", "uniform_p", kNumber,
                Set(s.spec.options.bdhs.uniform_p, v.number)),
      UIC_FIELD("mc", "eval_sims", kInt, Set(s.spec.eval_sims, v.integer)),
      UIC_FIELD("eval-seed", "eval_seed", kInt,
                SetSeed(s.spec.eval_seed, v.integer)),
  };
  return kRows;
}

#undef UIC_FIELD

}  // namespace uic
