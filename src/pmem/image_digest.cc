#include "src/pmem/image_digest.h"

#include <cstdio>
#include <cstring>

#include "src/pmem/persistency_model.h"

namespace mumak {

std::string ImageDigest::Hex() const {
  char buffer[33];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buffer;
}

uint64_t HashImageLine(const uint8_t* data, size_t len, uint64_t line_index) {
  // Seed on the line index so content is position-sensitive; the length is
  // folded in so a short final line cannot alias a zero-padded full one.
  uint64_t h = 0x9e3779b97f4a7c15ull ^
               DigestMix64(line_index + 0x2545f4914f6cdd1dull) ^ len;
  size_t at = 0;
  while (at + sizeof(uint64_t) <= len) {
    uint64_t word = 0;
    std::memcpy(&word, data + at, sizeof(word));
    h = DigestMix64(h ^ word) + 0xe7037ed1a0b428dbull;
    at += sizeof(uint64_t);
  }
  if (at < len) {
    uint64_t word = 0;
    std::memcpy(&word, data + at, len - at);
    h = DigestMix64(h ^ word) + 0xe7037ed1a0b428dbull;
  }
  return DigestMix64(h);
}

ImageDigest ComputeContentDigest(const uint8_t* data, size_t size) {
  ImageDigest digest;
  uint64_t line = 0;
  for (size_t at = 0; at < size; at += kCacheLineSize, ++line) {
    const size_t len =
        size - at < kCacheLineSize ? size - at : kCacheLineSize;
    DigestToggleLine(&digest, HashImageLine(data + at, len, line));
  }
  return digest;
}

ImageDigest DigestOverZeroPool(ImageDigest zero_pool, const uint8_t* data,
                               size_t size, std::span<const uint64_t> lines) {
  static constexpr uint8_t kZeroLine[kCacheLineSize] = {};
  for (const uint64_t line : lines) {
    const size_t at = line * kCacheLineSize;
    const size_t len =
        size - at < kCacheLineSize ? size - at : kCacheLineSize;
    DigestToggleLine(&zero_pool, HashImageLine(kZeroLine, len, line));
    DigestToggleLine(&zero_pool, HashImageLine(data + at, len, line));
  }
  return zero_pool;
}

}  // namespace mumak
