#include "support/checksum.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "support/parallel.hpp"

namespace dfg::support {

namespace {

/// Blocks per parallel_for grain: transfers of up to this many blocks
/// (2 MiB) are digested on the calling thread, where starting a worker
/// would cost more than it saves.
constexpr std::size_t kDigestGrainBlocks = 2;

/// One FNV-1a step; bijective in `h` for fixed `v` and in `v` for fixed `h`.
inline std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Value of block `block` (`n` words at `source`), folding its lanes in
/// lane order. With Copy, every word is also stored to `destination` as it
/// is hashed, so the block is read from memory once.
template <bool Copy>
std::uint64_t hash_block(const float* source, float* destination,
                         std::size_t n, std::uint64_t base,
                         std::size_t block) {
  std::uint64_t lane[kDigestLanes];
  for (std::size_t l = 0; l < kDigestLanes; ++l) {
    lane[l] = fnv_step(base, block * kDigestLanes + l);
  }
  const std::size_t whole = n - n % kDigestLanes;
  std::size_t i = 0;
  for (; i < whole; i += kDigestLanes) {
    std::uint32_t words[kDigestLanes];
    std::memcpy(words, source + i, sizeof(words));
    if constexpr (Copy) std::memcpy(destination + i, words, sizeof(words));
    for (std::size_t l = 0; l < kDigestLanes; ++l) {
      lane[l] = fnv_step(lane[l], words[l]);
    }
  }
  for (; i < n; ++i) {
    std::uint32_t word;
    std::memcpy(&word, source + i, sizeof(word));
    if constexpr (Copy) std::memcpy(destination + i, &word, sizeof(word));
    lane[i - whole] = fnv_step(lane[i - whole], word);
  }
  std::uint64_t value = lane[0];
  for (std::size_t l = 1; l < kDigestLanes; ++l) {
    value = fnv_step(value, lane[l]);
  }
  return value;
}

template <bool Copy>
std::uint64_t digest(std::span<const float> source, float* destination,
                     std::uint64_t seed) {
  const std::uint64_t count = source.size();
  const std::uint64_t base = fnv1a(&count, sizeof(count), seed);
  const std::size_t blocks =
      (source.size() + kDigestBlockWords - 1) / kDigestBlockWords;
  const auto block_value = [&](std::size_t b) {
    const std::size_t begin = b * kDigestBlockWords;
    const std::size_t n = std::min(kDigestBlockWords, source.size() - begin);
    return hash_block<Copy>(source.data() + begin,
                            Copy ? destination + begin : nullptr, n, base, b);
  };
  std::vector<std::uint64_t> values(blocks);
  parallel_for(
      blocks,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) values[b] = block_value(b);
      },
      kDigestGrainBlocks);
  std::uint64_t hash = base;
  for (const std::uint64_t value : values) hash = fnv_step(hash, value);
  return hash;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t seed) {
  return fnv1a(text.data(), text.size(), seed);
}

std::uint64_t checksum_floats(std::span<const float> values,
                              std::uint64_t seed) {
  return digest<false>(values, nullptr, seed);
}

std::uint64_t copy_and_checksum_floats(std::span<const float> source,
                                       std::span<float> destination,
                                       std::uint64_t seed) {
  return digest<true>(source, destination.data(), seed);
}

}  // namespace dfg::support
