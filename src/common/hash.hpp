// 64-bit streaming hash used for model-checker state dedup and run digests.
//
// The hash is a simple multiply-xor construction (FNV-1a over 8-byte lanes
// with a splitmix64 finalizer). It is NOT cryptographic; it only needs good
// avalanche behaviour so that distinct world states rarely collide in the
// visited set. Collisions are safe-for-soundness in the explorer's default
// mode (a collision can only cause missed states, which the tests bound) and
// the engine offers an exact mode that stores full state bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace fixd {

/// splitmix64 finalizer: excellent avalanche, cheap.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Combine two 64-bit hashes (order-sensitive).
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return mix64(seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2)));
}

/// Streaming hasher over arbitrary bytes.
class Hasher {
 public:
  explicit Hasher(std::uint64_t seed = 0x46697844ull /* "FixD" */)
      : state_(mix64(seed)) {}

  Hasher& update(std::span<const std::byte> bytes) {
    std::uint64_t lane = 0;
    std::size_t i = 0;
    for (const std::byte b : bytes) {
      lane |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b))
              << (8 * (i % 8));
      if (++i % 8 == 0) {
        state_ = hash_combine(state_, lane);
        lane = 0;
      }
    }
    if (i % 8 != 0) state_ = hash_combine(state_, lane ^ (i % 8));
    len_ += bytes.size();
    return *this;
  }

  Hasher& update_u64(std::uint64_t v) {
    state_ = hash_combine(state_, v);
    len_ += 8;
    return *this;
  }

  Hasher& update_string(std::string_view s) {
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    return update({p, s.size()});
  }

  /// Final digest; includes total length so prefixes don't collide trivially.
  std::uint64_t digest() const { return hash_combine(state_, len_); }

 private:
  std::uint64_t state_;
  std::uint64_t len_ = 0;
};

/// One-shot hash of a byte span.
inline std::uint64_t hash_bytes(std::span<const std::byte> bytes,
                                std::uint64_t seed = 0x46697844ull) {
  return Hasher(seed).update(bytes).digest();
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
///
/// Distinct in purpose from Hasher: CRC is the *integrity* check on stored
/// and transmitted frames (the job journal and the service wire codec),
/// where guaranteed detection of small burst errors matters; Hasher is the
/// *identity* hash for in-memory state dedup. Chainable: pass the previous
/// return value as `crc` to continue over a split buffer.
inline std::uint32_t crc32(std::span<const std::byte> bytes,
                           std::uint32_t crc = 0) {
  // Slicing-by-8: eight tables let the loop fold 8 input bytes per step
  // (journal checkpoint records run to ~100 KiB). t[0] is the classic
  // bytewise table; t[k][i] advances t[k-1][i] by one more zero byte.
  using Tables = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Tables t = [] {
    Tables tt{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      tt[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        tt[k][i] = (tt[k - 1][i] >> 8) ^ tt[0][tt[k - 1][i] & 0xffu];
      }
    }
    return tt;
  }();
  crc = ~crc;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  const auto byte_at = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]));
  };
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo =
        crc ^ (byte_at(0) | byte_at(1) << 8 | byte_at(2) << 16 |
               byte_at(3) << 24);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][byte_at(4)] ^
          t[2][byte_at(5)] ^ t[1][byte_at(6)] ^ t[0][byte_at(7)];
  }
  for (std::size_t i = 0; i < n; ++i) {
    crc = t[0][(crc ^ byte_at(i)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace fixd
