#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/json.h"
#include "common/status.h"

namespace tytan {
namespace {

TEST(Bytes, LittleEndianRoundTrip) {
  std::uint8_t buf[8] = {};
  store_le32(buf, 0xdeadbeef);
  EXPECT_EQ(load_le32(buf), 0xdeadbeefu);
  store_le16(buf, 0xbeef);
  EXPECT_EQ(load_le16(buf), 0xbeef);
  store_le64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(load_le64(buf), 0x0123456789abcdefull);
  EXPECT_EQ(buf[0], 0xef);  // little endian: LSB first
}

TEST(Bytes, AppendHelpers) {
  ByteVec out;
  append_le16(out, 0x1122);
  append_le32(out, 0x33445566);
  append_le64(out, 0x778899aabbccddeeull);
  ASSERT_EQ(out.size(), 14u);
  EXPECT_EQ(load_le16(out.data()), 0x1122);
  EXPECT_EQ(load_le32(out.data() + 2), 0x33445566u);
  EXPECT_EQ(load_le64(out.data() + 6), 0x778899aabbccddeeull);
}

TEST(Bytes, HexRoundTrip) {
  const ByteVec data = {0xde, 0xad, 0x00, 0xff};
  EXPECT_EQ(hex_encode(data), "dead00ff");
  EXPECT_EQ(hex_decode("dead00ff"), data);
  EXPECT_EQ(hex_decode("DEAD00FF"), data);
}

TEST(Bytes, HexDecodeRejectsMalformed) {
  EXPECT_TRUE(hex_decode("abc").empty());   // odd length
  EXPECT_TRUE(hex_decode("zz").empty());    // non-hex
}

TEST(Bytes, ConstantTimeEqual) {
  const ByteVec a = {1, 2, 3};
  const ByteVec b = {1, 2, 3};
  const ByteVec c = {1, 2, 4};
  const ByteVec d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Ranges, Overlap) {
  EXPECT_TRUE(ranges_overlap(0, 10, 5, 10));
  EXPECT_TRUE(ranges_overlap(5, 10, 0, 10));
  EXPECT_TRUE(ranges_overlap(0, 10, 2, 2));
  EXPECT_FALSE(ranges_overlap(0, 10, 10, 5));  // adjacent, not overlapping
  EXPECT_FALSE(ranges_overlap(10, 5, 0, 10));
  EXPECT_FALSE(ranges_overlap(0, 0, 0, 10));   // empty never overlaps
}

TEST(Ranges, Contains) {
  EXPECT_TRUE(range_contains(0, 10, 0, 10));
  EXPECT_TRUE(range_contains(0, 10, 2, 3));
  EXPECT_FALSE(range_contains(0, 10, 8, 3));
  EXPECT_TRUE(range_contains(0, 10, 10, 0));  // empty at end is inside
}

TEST(Status, FormatsErrorAndMessage) {
  const Status s = make_error(Err::kPermissionDenied, "no access");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "permission-denied: no access");
  EXPECT_EQ(Status::ok().to_string(), "ok");
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = make_error(Err::kNotFound, "nope");
  ASSERT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), Err::kNotFound);
  EXPECT_THROW(err.value(), std::logic_error);
}

TEST(Result, ConstructingFromOkStatusIsInternalError) {
  Result<int> bad = Status::ok();
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), Err::kInternal);
}

TEST(Json, EscapeAndFieldLookupRoundTrip) {
  const std::string text = "a\"b\\c\nd\te\x01\x1f end\\";
  EXPECT_EQ(json_escape(text), R"(a\"b\\c\nd\te\u0001\u001f end\\)");
  const std::string line = R"({"n":-42,"s":")" + json_escape(text) + R"(","t":"x"})";
  EXPECT_EQ(json_str_field(line, "s"), text);
  EXPECT_EQ(json_str_field(line, "t"), "x");
  EXPECT_EQ(json_str_field(line, "missing"), "");
  EXPECT_EQ(json_int_field(line, "n", 0), -42);
  EXPECT_EQ(json_int_field(line, "missing", 7), 7);
}

}  // namespace
}  // namespace tytan
