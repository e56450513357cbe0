// One field table per spec, read by both front ends: uic_run's flags
// (Flags::Apply, exp/flags.h) and the daemon's JSON fields
// (serve::ApplyFields, serve/session.h) reach a NetworkSpec, a ConfigSpec
// and a SolveRequest through the same rows. A row's setter checks only
// what its spec does not: seeds are in [0, 2^63 − 1] and names come from a
// fixed list; BuildNetwork, BuildConfig and CheckSolve own the other
// limits. A reader answers InvalidArgument for a value its syntax cannot
// carry and passes a setter's OutOfRange on: uic_run exits 2 for the first
// and 1 for the second, and the daemon answers bad_request for both.
#pragma once

#include <span>
#include <string>

#include "common/status.h"
#include "exp/solve.h"
#include "exp/specs.h"

namespace uic {

/// \brief What a solve request sets: RunSolve's spec and the problem's
/// diffusion model.
struct SolveRequest {
  SolveSpec spec;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
};

/// The syntax of a value: a string, an integer or a number.
enum class FieldKind { kText, kInt, kNumber };

/// A value as its reader parsed it, in the member its kind names. `text`
/// also holds a flag's text whatever its kind.
struct FieldValue {
  std::string text;
  long long integer = 0;
  double number = 0.0;
};

/// \brief A row: uic_run's --flag, the daemon's JSON key, the syntax of
/// the value, and the setter (OutOfRange outside the row's limit, in a
/// message the reader prefixes with the field's name).
template <typename Spec>
struct Field {
  const char* flag;
  const char* key;
  FieldKind kind;
  Status (*set)(Spec& spec, const FieldValue& value);
};

std::span<const Field<NetworkSpec>> NetworkFields();
std::span<const Field<ConfigSpec>> ConfigFields();
std::span<const Field<SolveRequest>> SolveFields();

}  // namespace uic
