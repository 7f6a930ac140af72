// Aggregation-policy selection (Section 6.4).
//
// Flare picks the parallelism/memory organisation by reduction size:
//   > 512 KiB  -> single buffer          (staggered sending hides contention)
//   > 256 KiB  -> multiple buffers, B=4
//   > 128 KiB  -> multiple buffers, B=2
//   otherwise  -> tree aggregation       (contention-free)
// When the user requests reproducible floating-point reduction (F3), tree
// aggregation is always used: its fixed association never exploits
// associativity, so results are bitwise identical across runs.
#pragma once

#include <string_view>

#include "common/units.hpp"

namespace flare::core {

enum class AggPolicy : u8 {
  kSingleBuffer = 0,
  kMultiBuffer,
  kTree,
};

std::string_view policy_name(AggPolicy p);

struct PolicyChoice {
  AggPolicy policy;
  u32 num_buffers;  ///< B; meaningful for kMultiBuffer (1 otherwise)
};

/// Selects the policy Flare uses for a reduction of `data_bytes` per host.
PolicyChoice select_policy(u64 data_bytes, bool reproducible);

}  // namespace flare::core
