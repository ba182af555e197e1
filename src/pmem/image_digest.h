// Content identity for crash images. A crash image is hashed per cache
// line (the unit the persistency model already thinks in); the image's
// 128-bit digest is the XOR-accumulation of its line hashes. XOR makes the
// digest order-independent and incrementally maintainable: when a store
// changes line L from hash h to h', the digest update is two XORs — no
// rescan of the image. ReplayCursor exploits this to expose a digest at
// every failure point for O(lines-dirtied) extra work, which is what makes
// content-addressed verdict deduplication (src/core/verdict_cache.h)
// effectively free under replay-based injection.
//
// The hash is not cryptographic; digest equality is an engineering
// judgement backed by 128 bits of state plus the opt-in --verify-dedup
// byte-compare mode.

#ifndef MUMAK_SRC_PMEM_IMAGE_DIGEST_H_
#define MUMAK_SRC_PMEM_IMAGE_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace mumak {

struct ImageDigest {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const ImageDigest& a, const ImageDigest& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const ImageDigest& a, const ImageDigest& b) {
    return !(a == b);
  }

  // 32 lowercase hex characters (hi then lo), for reports and logs.
  std::string Hex() const;
};

struct ImageDigestHash {
  size_t operator()(const ImageDigest& d) const {
    // lo/hi are already well-mixed; fold for unordered_map bucketing.
    return static_cast<size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ull));
  }
};

// Final avalanche of splitmix64 — full 64-bit diffusion, 3 multiplies.
inline uint64_t DigestMix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Hash of one cache line's content. `len` is normally kCacheLineSize; the
// image's final line may be shorter when the pool size is not a multiple
// of the line size. The line index is folded in so identical content on
// different lines yields different hashes (otherwise a digest could not
// distinguish data written at offset A from the same data at offset B).
uint64_t HashImageLine(const uint8_t* data, size_t len, uint64_t line_index);

// Folds one line hash into / out of a digest (XOR is its own inverse, so
// the same call removes a stale hash and adds a fresh one).
inline void DigestToggleLine(ImageDigest* digest, uint64_t line_hash) {
  digest->lo ^= line_hash;
  // A second, independently mixed accumulator: two colliding line-hash
  // multisets would need to collide under both foldings.
  digest->hi ^= DigestMix64(line_hash ^ 0xa0761d6478bd642full);
}

// Digest of a full image, line by line. O(size); the incremental path in
// ReplayCursor must agree with this byte for byte (pinned by tests).
ImageDigest ComputeContentDigest(const uint8_t* data, size_t size);

// Digest of an image that is zero everywhere except possibly on `lines`
// (cache-line indices, each listed once): `zero_pool`, the digest of a
// zeroed image of the same size, with each listed line's zero hash toggled
// out and its content hash toggled in. O(lines); equals
// ComputeContentDigest over the same bytes.
ImageDigest DigestOverZeroPool(ImageDigest zero_pool, const uint8_t* data,
                               size_t size, std::span<const uint64_t> lines);

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_IMAGE_DIGEST_H_
