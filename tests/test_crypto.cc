#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/seal.h"
#include "crypto/sha1.h"
#include "crypto/xtea.h"

namespace tytan::crypto {
namespace {

ByteVec str_bytes(std::string_view s) {
  return ByteVec(s.begin(), s.end());
}

// -- SHA-1: FIPS 180-2 / RFC 3174 test vectors -------------------------------

struct Sha1Vector {
  const char* message;
  const char* digest_hex;
};

class Sha1VectorTest : public ::testing::TestWithParam<Sha1Vector> {};

TEST_P(Sha1VectorTest, MatchesReference) {
  const auto& [message, digest_hex] = GetParam();
  const Sha1Digest digest = Sha1::hash(str_bytes(message));
  EXPECT_EQ(hex_encode(digest), digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    KnownVectors, Sha1VectorTest,
    ::testing::Values(
        Sha1Vector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        Sha1Vector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        Sha1Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
        Sha1Vector{"The quick brown fox jumps over the lazy dog",
                   "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"}));

TEST(Sha1, MillionAs) {
  Sha1 ctx;
  const ByteVec chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.update(chunk);
  }
  EXPECT_EQ(hex_encode(ctx.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, StreamingEqualsOneShot) {
  const ByteVec data = str_bytes("hello world, this spans multiple updates");
  Sha1 ctx;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    ctx.update(std::span(data).subspan(i, std::min<std::size_t>(7, data.size() - i)));
  }
  EXPECT_EQ(ctx.finish(), Sha1::hash(data));
}

// An empty span carries a null data(); mid-block it used to reach memcpy
// with a null source, which UBSan (the sanitize job) rejects.
TEST(Sha1, EmptyUpdateMidBlockIsNoOp) {
  const ByteVec data = str_bytes("abc");
  Sha1 ctx;
  ctx.update(std::span<const std::uint8_t>{});
  ctx.update(data);
  ctx.update(std::span<const std::uint8_t>{});
  EXPECT_EQ(ctx.blocks_processed(), 0u);
  EXPECT_EQ(ctx.finish(), Sha1::hash(data));
}

TEST(Sha1, BlockCountMatchesPadding) {
  EXPECT_EQ(sha1_block_count(0), 1u);
  EXPECT_EQ(sha1_block_count(55), 1u);   // 55 + 1 + 8 = 64
  EXPECT_EQ(sha1_block_count(56), 2u);   // spills into a second block
  EXPECT_EQ(sha1_block_count(64), 2u);
  EXPECT_EQ(sha1_block_count(119), 2u);
  EXPECT_EQ(sha1_block_count(120), 3u);
}

TEST(Sha1, BlocksProcessedCounter) {
  Sha1 ctx;
  ctx.update(ByteVec(130, 0x5a));
  EXPECT_EQ(ctx.blocks_processed(), 2u);  // 128 bytes compressed, 2 buffered
  ctx.finish();
}

// -- HMAC-SHA1: RFC 2202 test vectors ------------------------------------------

TEST(HmacSha1, Rfc2202Case1) {
  const ByteVec key(20, 0x0b);
  const HmacTag tag = HmacSha1::mac(key, str_bytes("Hi There"));
  EXPECT_EQ(hex_encode(tag), "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  const HmacTag tag =
      HmacSha1::mac(str_bytes("Jefe"), str_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex_encode(tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  const ByteVec key(20, 0xaa);
  const ByteVec data(50, 0xdd);
  EXPECT_EQ(hex_encode(HmacSha1::mac(key, data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, LongKeyIsHashedFirst) {
  const ByteVec key(80, 0xaa);
  const HmacTag tag =
      HmacSha1::mac(key, str_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_encode(tag), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1, VerifyAcceptsAndRejects) {
  const ByteVec key = str_bytes("k");
  const ByteVec data = str_bytes("payload");
  HmacTag tag = HmacSha1::mac(key, data);
  EXPECT_TRUE(HmacSha1::verify(key, data, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha1::verify(key, data, tag));
}

// -- KDF -------------------------------------------------------------------------

TEST(Kdf, DeterministicAndDomainSeparated) {
  const ByteVec key = str_bytes("platform-key");
  const Key128 a = derive_key128(key, "attest", {});
  const Key128 b = derive_key128(key, "attest", {});
  const Key128 c = derive_key128(key, "storage", {});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Kdf, ContextSeparates) {
  const ByteVec key = str_bytes("k");
  const ByteVec ctx1 = str_bytes("task-1");
  const ByteVec ctx2 = str_bytes("task-2");
  EXPECT_NE(derive_key128(key, "seal", ctx1), derive_key128(key, "seal", ctx2));
}

TEST(Kdf, ArbitraryOutputLength) {
  const ByteVec key = str_bytes("k");
  const ByteVec out50 = derive(key, "x", {}, 50);
  const ByteVec out16 = derive(key, "x", {}, 16);
  ASSERT_EQ(out50.size(), 50u);
  // Prefix property: shorter derivations are prefixes of longer ones.
  EXPECT_TRUE(std::equal(out16.begin(), out16.end(), out50.begin()));
}

// -- XTEA -------------------------------------------------------------------------

TEST(Xtea, KnownVector) {
  // XTEA reference vector: key = 000102...0f, plaintext 4142434445464748.
  Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  // Our key/block loads are little-endian; verify encrypt/decrypt inversion
  // and avalanche rather than a byte-order-specific magic constant.
  std::uint32_t v0 = 0x41424344, v1 = 0x45464748;
  xtea_encrypt_block(key, v0, v1);
  EXPECT_NE(v0, 0x41424344u);
  std::uint32_t w0 = v0, w1 = v1;
  xtea_decrypt_block(key, w0, w1);
  EXPECT_EQ(w0, 0x41424344u);
  EXPECT_EQ(w1, 0x45464748u);
}

TEST(Xtea, CtrRoundTripAndNonceSensitivity) {
  Key128 key{};
  key[0] = 7;
  const ByteVec plain = str_bytes("counter mode handles arbitrary lengths, even 41");
  ByteVec cipher(plain.size());
  xtea_ctr_crypt(key, 123, plain, cipher);
  EXPECT_NE(cipher, plain);

  ByteVec back(plain.size());
  xtea_ctr_crypt(key, 123, cipher, back);
  EXPECT_EQ(back, plain);

  ByteVec other(plain.size());
  xtea_ctr_crypt(key, 124, plain, other);
  EXPECT_NE(other, cipher);
}

// -- Sealing -------------------------------------------------------------------------

TEST(Seal, RoundTrip) {
  Key128 key{};
  key[3] = 9;
  const ByteVec plain = str_bytes("secret configuration");
  const SealedBlob blob = seal(key, 1, plain);
  auto back = unseal(key, blob);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, plain);
}

TEST(Seal, WrongKeyFailsAuthentication) {
  Key128 key{};
  Key128 other{};
  other[0] = 1;
  const SealedBlob blob = seal(key, 7, str_bytes("data"));
  EXPECT_EQ(unseal(other, blob).status().code(), Err::kCorrupt);
}

TEST(Seal, TamperedCiphertextRejected) {
  Key128 key{};
  SealedBlob blob = seal(key, 7, str_bytes("data"));
  blob.ciphertext[0] ^= 1;
  EXPECT_EQ(unseal(key, blob).status().code(), Err::kCorrupt);
}

TEST(Seal, SerializationRoundTrip) {
  Key128 key{};
  const SealedBlob blob = seal(key, 99, str_bytes("xyz"));
  const ByteVec raw = blob.serialize();
  auto parsed = SealedBlob::deserialize(raw);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->nonce, 99u);
  EXPECT_EQ(parsed->ciphertext, blob.ciphertext);
  EXPECT_EQ(parsed->tag, blob.tag);
  auto back = unseal(key, *parsed);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, str_bytes("xyz"));
}

TEST(Seal, TruncatedBlobRejected) {
  EXPECT_FALSE(SealedBlob::deserialize(ByteVec(10, 0)).is_ok());
}

TEST(Seal, EmptyPlaintextSupported) {
  Key128 key{};
  const SealedBlob blob = seal(key, 1, {});
  auto back = unseal(key, blob);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back->empty());
}

}  // namespace
}  // namespace tytan::crypto
