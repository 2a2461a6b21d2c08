#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "scan/match_table.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/date.h"
#include "util/like.h"
#include "util/macros.h"
#include "util/rng.h"

namespace datablocks {
namespace {

TEST(Bits, BytesNeeded) {
  EXPECT_EQ(BytesNeeded(0), 1u);
  EXPECT_EQ(BytesNeeded(1), 1u);
  EXPECT_EQ(BytesNeeded(255), 1u);
  EXPECT_EQ(BytesNeeded(256), 2u);
  EXPECT_EQ(BytesNeeded(65535), 2u);
  EXPECT_EQ(BytesNeeded(65536), 3u);
  EXPECT_EQ(BytesNeeded(UINT32_MAX), 4u);
  EXPECT_EQ(BytesNeeded(uint64_t(UINT32_MAX) + 1), 5u);
  EXPECT_EQ(BytesNeeded(UINT64_MAX), 8u);
}

TEST(Bits, BitsNeeded) {
  EXPECT_EQ(BitsNeeded(0), 1u);
  EXPECT_EQ(BitsNeeded(1), 1u);
  EXPECT_EQ(BitsNeeded(2), 2u);
  EXPECT_EQ(BitsNeeded(255), 8u);
  EXPECT_EQ(BitsNeeded(256), 9u);
}

TEST(Bits, MsbByteIndex) {
  EXPECT_EQ(MsbByteIndex(1), 0u);
  EXPECT_EQ(MsbByteIndex(0xFF), 0u);
  EXPECT_EQ(MsbByteIndex(0x100), 1u);
  EXPECT_EQ(MsbByteIndex(0xFFFF), 1u);
  EXPECT_EQ(MsbByteIndex(0x10000), 2u);
  EXPECT_EQ(MsbByteIndex(UINT64_MAX), 7u);
}

TEST(Bits, BitmapOps) {
  std::vector<uint64_t> bm(BitmapWords(200), 0);
  for (uint64_t i = 0; i < 200; i += 3) BitmapSet(bm.data(), i);
  for (uint64_t i = 0; i < 200; ++i)
    EXPECT_EQ(BitmapTest(bm.data(), i), i % 3 == 0) << i;
  BitmapClear(bm.data(), 63);
  EXPECT_FALSE(BitmapTest(bm.data(), 63));
}

TEST(Bits, AlignUp) {
  EXPECT_EQ(AlignUp(0, 32), 0u);
  EXPECT_EQ(AlignUp(1, 32), 32u);
  EXPECT_EQ(AlignUp(32, 32), 32u);
  EXPECT_EQ(AlignUp(33, 32), 64u);
}

TEST(AlignedBuffer, AlignmentAndPadding) {
  AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 100u);
  // Padding must be readable and zeroed.
  for (uint64_t i = 0; i < 100 + kScanPadding; ++i)
    EXPECT_EQ(buf.data()[i], 0u);
}

TEST(AlignedBuffer, MoveSemantics) {
  AlignedBuffer a(64);
  a.data()[0] = 42;
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data()[0], 42);
  EXPECT_TRUE(a.empty());
  a = std::move(b);
  EXPECT_EQ(a.data()[0], 42);
}

TEST(AlignedBuffer, LargeBufferIsResidentOnlyOnceWrittenAndFreedToTheOs) {
  constexpr uint64_t kBytes = 16 << 20;
  const uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  AlignedBuffer buf(kBytes);
  EXPECT_LT(ResidentBytes(), before + (1 << 20));
  // All zero, scan padding included, without a memset.
  const uint8_t* p = buf.data();
  uint64_t nonzero = 0;
  for (uint64_t i = 0; i < kBytes + kScanPadding; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    nonzero += word != 0;
  }
  EXPECT_EQ(nonzero, 0u);

  std::memset(buf.data(), 0x5A, kBytes);
  const uint64_t written = ResidentBytes();
  EXPECT_GE(written, before + kBytes * 9 / 10);
  buf = AlignedBuffer();
  EXPECT_GE(written - std::min(written, ResidentBytes()), kBytes * 9 / 10);
}

TEST(AlignedBuffer, ResizeForOverwriteKeepsPaddingZero) {
  AlignedBuffer buf(kPageBackedBytes);
  std::memset(buf.data(), 0xAB, kPageBackedBytes);
  buf.ResizeForOverwrite(100);  // keeps the mapping
  EXPECT_EQ(buf.size(), 100u);
  for (uint64_t k = 0; k < kScanPadding; ++k)
    EXPECT_EQ(buf.data()[100 + k], 0) << k;
}

TEST(AlignedBuffer, ReadPastScanPaddingIsReportedUnderAsan) {
#if !DB_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  // Page-backed: the mapping extends past size + kScanPadding to the end of
  // its last page, and only the poison makes that slack visible.
  AlignedBuffer buf(kPageBackedBytes);
  const volatile uint8_t* p = buf.data();
  EXPECT_EQ(p[kPageBackedBytes + kScanPadding - 1], 0);
  EXPECT_DEATH((void)p[kPageBackedBytes + kScanPadding], "use-after-poison");
#endif
}

TEST(Date, RoundTrip) {
  for (int y : {1970, 1987, 1992, 1998, 2008, 2026}) {
    for (int m = 1; m <= 12; ++m) {
      int32_t d = MakeDate(y, m, 15);
      CivilDate c = ToCivil(d);
      EXPECT_EQ(c.year, y);
      EXPECT_EQ(c.month, m);
      EXPECT_EQ(c.day, 15);
    }
  }
}

TEST(Date, KnownValues) {
  EXPECT_EQ(MakeDate(1970, 1, 1), 0);
  EXPECT_EQ(MakeDate(1970, 1, 2), 1);
  EXPECT_EQ(MakeDate(1969, 12, 31), -1);
  EXPECT_EQ(DateYear(MakeDate(1998, 9, 2)), 1998);
  EXPECT_EQ(DateMonth(MakeDate(1998, 9, 2)), 9);
  EXPECT_EQ(DateToString(MakeDate(1995, 3, 15)), "1995-03-15");
}

TEST(Date, Ordering) {
  EXPECT_LT(MakeDate(1994, 12, 31), MakeDate(1995, 1, 1));
  EXPECT_LT(MakeDate(1995, 1, 31), MakeDate(1995, 2, 1));
}

TEST(Like, ExactMatch) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "hell"));
  EXPECT_FALSE(LikeMatch("hell", "hello"));
}

TEST(Like, Prefix) {
  EXPECT_TRUE(LikeMatch("PROMO BRUSHED TIN", "PROMO%"));
  EXPECT_FALSE(LikeMatch("STANDARD BRUSHED TIN", "PROMO%"));
  EXPECT_TRUE(LikeMatch("forest green", "forest%"));
}

TEST(Like, Suffix) {
  EXPECT_TRUE(LikeMatch("LARGE BURNISHED BRASS", "%BRASS"));
  EXPECT_FALSE(LikeMatch("LARGE BURNISHED STEEL", "%BRASS"));
  EXPECT_FALSE(LikeMatch("RASS", "%BRASS"));
}

TEST(Like, Infix) {
  EXPECT_TRUE(LikeMatch("light green metallic", "%green%"));
  EXPECT_FALSE(LikeMatch("light grey metallic", "%green%"));
}

TEST(Like, MultiSegment) {
  EXPECT_TRUE(LikeMatch("the special express requests now", "%special%requests%"));
  EXPECT_FALSE(LikeMatch("the requests special now", "%special%requests%"));
  EXPECT_TRUE(LikeMatch("specialrequests", "%special%requests%"));
  EXPECT_TRUE(LikeMatch("Customer noisy Complaints", "%Customer%Complaints%"));
}

TEST(Like, AnchoredBothEnds) {
  EXPECT_TRUE(LikeMatch("MEDIUM POLISHED TIN", "MEDIUM POLISHED%"));
  EXPECT_FALSE(LikeMatch("SMALL POLISHED TIN", "MEDIUM POLISHED%"));
  EXPECT_TRUE(LikeMatch("abc", "a%c"));
  EXPECT_FALSE(LikeMatch("abd", "a%c"));
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.Uniform(5, 17);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[size_t(rng.Uniform(0, 9))];
  for (int c : seen) EXPECT_GT(c, 500);  // roughly uniform
}

TEST(Rng, ZipfSkew) {
  Rng rng(11);
  std::vector<int64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.Zipf(100, 0.9)];
  // Head must dominate the tail under skew.
  EXPECT_GT(counts[0], counts[50] * 5);
  for (int i = 0; i < 100000; ++i) EXPECT_LT(rng.Zipf(100, 0.9), 100u);
}

TEST(Rng, RandomStringLength) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string s = rng.RandomString(3, 9);
    EXPECT_GE(s.size(), 3u);
    EXPECT_LE(s.size(), 9u);
  }
}

TEST(MatchTable, CountsAndPositions) {
  for (int m = 0; m < 256; ++m) {
    const MatchTableEntry& e = kMatchTable[m];
    EXPECT_EQ(MatchCount(e), uint32_t(__builtin_popcount(m)));
    int k = 0;
    for (int j = 0; j < 8; ++j) {
      if ((m >> j) & 1) {
        EXPECT_EQ(e.cell[k] >> 8, j) << "mask " << m;
        EXPECT_EQ(e.cell[k] & 0xFF, __builtin_popcount(m));
        ++k;
      }
    }
  }
}

}  // namespace
}  // namespace datablocks
