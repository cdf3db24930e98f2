// FNV-1a-64: a fast, deterministic, non-cryptographic fingerprint (the
// fuzz campaign hash, the name of accuracy_vgg_cim's weights file).
#pragma once

#include <cstddef>
#include <cstdint>

namespace sfc::util {

/// FNV-1a-64 state before any byte is folded in.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Fold `len` bytes at `data` into the FNV-1a-64 state `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sfc::util
