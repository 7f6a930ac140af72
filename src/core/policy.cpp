#include "core/policy.hpp"

namespace flare::core {

std::string_view policy_name(AggPolicy p) {
  switch (p) {
    case AggPolicy::kSingleBuffer: return "single-buffer";
    case AggPolicy::kMultiBuffer: return "multi-buffer";
    case AggPolicy::kTree: return "tree";
  }
  return "?";
}

PolicyChoice select_policy(u64 data_bytes, bool reproducible) {
  // Section 6.4 thresholds on the per-host reduction size.
  constexpr u64 kSingleBufferAbove = 512 * 1024;
  constexpr u64 kMulti4Above = 256 * 1024;
  constexpr u64 kMulti2Above = 128 * 1024;
  if (reproducible) return {AggPolicy::kTree, 1};
  if (data_bytes > kSingleBufferAbove) return {AggPolicy::kSingleBuffer, 1};
  if (data_bytes > kMulti4Above) return {AggPolicy::kMultiBuffer, 4};
  if (data_bytes > kMulti2Above) return {AggPolicy::kMultiBuffer, 2};
  return {AggPolicy::kTree, 1};
}

}  // namespace flare::core
