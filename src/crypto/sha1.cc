#include "crypto/sha1.h"

#include <bit>
#include <cstring>

namespace tytan::crypto {

namespace {
inline std::uint32_t rotl(std::uint32_t x, int n) { return std::rotl(x, n); }

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
}  // namespace

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffer_len_ = 0;
  total_bits_ = 0;
  blocks_ = 0;
}

void Sha1::compress(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(block + 4 * i);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f;
    std::uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  }

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  ++blocks_;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  if (data.empty()) {
    return;  // an empty span may carry a null data(), which memcpy must not see
  }
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_len_ != 0) {
    const std::size_t need = kSha1BlockSize - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kSha1BlockSize) {
      compress(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + kSha1BlockSize <= data.size()) {
    compress(data.data() + offset);
    offset += kSha1BlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data() + buffer_len_, data.data() + offset, data.size() - offset);
    buffer_len_ += data.size() - offset;
  }
}

Sha1Digest Sha1::finish() {
  const std::uint64_t bits = total_bits_;
  const std::uint8_t pad = 0x80;
  update(std::span<const std::uint8_t>(&pad, 1));
  const std::uint8_t zero = 0x00;
  // Pad until 8 bytes remain in the current block.
  while (buffer_len_ != kSha1BlockSize - 8) {
    total_bits_ -= 8;  // padding does not count toward the message length
    update(std::span<const std::uint8_t>(&zero, 1));
  }
  std::uint8_t len_be[8];
  store_be32(len_be, static_cast<std::uint32_t>(bits >> 32));
  store_be32(len_be + 4, static_cast<std::uint32_t>(bits));
  std::memcpy(buffer_.data() + buffer_len_, len_be, 8);
  compress(buffer_.data());

  Sha1Digest digest{};
  for (int i = 0; i < 5; ++i) {
    store_be32(digest.data() + 4 * i, h_[i]);
  }
  reset();
  return digest;
}

Sha1Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

std::uint64_t sha1_block_count(std::uint64_t message_len) {
  // message + 0x80 byte + zero padding + 8-byte length, rounded to 64.
  return (message_len + 1 + 8 + kSha1BlockSize - 1) / kSha1BlockSize;
}

}  // namespace tytan::crypto
