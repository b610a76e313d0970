// Seeded FNV-1a checksums: text/byte keys and the transfer digest.
//
// Real many-core deployments treat silent data corruption — a flipped bit
// on a DMA transfer, a marginal memory module — as a first-class fault. The
// command queue digests every transfer's source in the same pass as the
// copy and verifies the destination afterwards, so one corrupted word is
// detected before it can propagate into a derived field. FNV-1a is chosen
// for the same reason production transports use cheap non-cryptographic
// checksums: one xor and one multiply per word.
//
// Layout of the transfer digest (`checksum_floats`). The words are cut
// into fixed blocks of kDigestBlockWords (1 MiB of floats); the last block
// may be short. Within a block, word i feeds lane i mod kDigestLanes, so
// the kDigestLanes multiply chains are independent and run in parallel in
// the core instead of one serial chain. Each lane starts from a value
// derived from the seed, the word count and its (block, lane) position. A
// block's value folds its lanes in lane order; the digest folds the block
// values in block order. Blocks are hashed independently (through
// support::parallel_for once a transfer spans several of them), and the
// value never depends on the worker count.
//
// Why a single changed word is always detected: every lane step
// h' = (h ^ w) * prime is a bijection of h for a fixed word (xor is
// invertible and the prime is odd, so multiplication mod 2^64 is too) and
// a bijection of w for a fixed h. A changed word therefore changes its
// lane's state at that step, and the remaining steps of that lane, being
// bijective, can never map two different states onto one. The fold steps
// D' = (D ^ v) * prime are bijective in both D and v the same way, so the
// one changed lane value changes its block value, and the one changed block
// value changes the digest. Two buffers collide only if they differ in two
// or more compensating words (odds ~2^-64 for random corruption). The word
// count is mixed into every lane's start, so a truncated buffer collides
// with its prefix only by the same chance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace dfg::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Independent multiply chains per digest block.
inline constexpr std::size_t kDigestLanes = 8;
/// Words per digest block: 1 MiB of floats.
inline constexpr std::size_t kDigestBlockWords = (std::size_t{1} << 20) / 4;

/// FNV-1a over raw bytes, starting from `seed` (chain calls to checksum a
/// logical record spread over several buffers).
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = kFnvOffsetBasis);

/// FNV-1a over a string (run keys, labels).
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t seed = kFnvOffsetBasis);

/// A string literal must hash as text, not fall into the (pointer, byte
/// count) overload with the seed misread as a length.
inline std::uint64_t fnv1a(const char* text,
                           std::uint64_t seed = kFnvOffsetBasis) {
  return fnv1a(std::string_view(text), seed);
}

/// Transfer digest of a float array (layout above): covers every word.
std::uint64_t checksum_floats(std::span<const float> values,
                              std::uint64_t seed = kFnvOffsetBasis);

/// Copies `source` into the front of `destination` (which must be at least
/// as long) and returns checksum_floats(source, seed), computed in the
/// same pass: each block is copied and hashed by the same worker.
std::uint64_t copy_and_checksum_floats(std::span<const float> source,
                                       std::span<float> destination,
                                       std::uint64_t seed = kFnvOffsetBasis);

}  // namespace dfg::support
