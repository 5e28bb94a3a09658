// FNV-1a over a part array: pins a whole partition in one constant, so a
// test can assert that a speed-only change left every decision alone.
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace mcgp {

inline std::uint64_t part_hash(const std::vector<idx_t>& part) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const idx_t p : part) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace mcgp
