// Unit tests for the util layer: Status/Result, RNG, hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "util/hash.h"
#include "util/random.h"
#include "util/status.h"

namespace objrep {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: no such key");
}

TEST(StatusTest, AllConstructorsMapToTheirCode) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NoSpace("x").IsNoSpace());
  EXPECT_EQ(Status::NotSupported("x").code(), Status::Code::kNotSupported);
  EXPECT_EQ(Status::Internal("x").code(), Status::Code::kInternal);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    OBJREP_RETURN_NOT_OK(Status::IOError("inner"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsIOError());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err(Status::NotFound("gone"));
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleIsInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(21);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(3);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleDistinctProducesDistinctInRange) {
  Rng rng(17);
  for (uint64_t k : {1u, 5u, 50u, 99u}) {
    auto sample = rng.SampleDistinct(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<uint64_t> dedup(sample.begin(), sample.end());
    EXPECT_EQ(dedup.size(), k);
    for (uint64_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleDistinctFullRange) {
  Rng rng(19);
  auto sample = rng.SampleDistinct(10, 10);
  std::set<uint64_t> dedup(sample.begin(), sample.end());
  EXPECT_EQ(dedup.size(), 10u);
}

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a("") is the offset basis; FNV-1a("a") is a published constant.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
}

// Pins the WAL record checksum: a change to Checksum64 changes what a log
// written before it recovers to, so it must be deliberate.
TEST(HashTest, Checksum64MatchesKnownVector) {
  EXPECT_EQ(Checksum64("", 0), 0x2021a5fbf9ce1512ULL);
  EXPECT_EQ(Checksum64("a", 1), 0x34bde51d96753e90ULL);
  const char* rec = "objrep write-ahead log record";  // 3 words + 5 bytes
  EXPECT_EQ(Checksum64(rec, std::strlen(rec)), 0x22ab600d7f853e06ULL);
}

// A 2061-byte record (257 whole words and a 5-byte tail): every single-bit
// flip at the sampled offsets, including every tail byte, and every
// truncation by 1 to 8 bytes must change the checksum — also when the
// dropped bytes are zeros, which only the folded-in length can tell apart.
TEST(HashTest, Checksum64DetectsBitFlipsAndTruncation) {
  std::vector<uint8_t> rec(2061);
  Rng rng(11);
  for (uint8_t& b : rec) b = static_cast<uint8_t>(rng.Uniform(256));
  const uint64_t base = Checksum64(rec.data(), rec.size());
  std::vector<size_t> offsets;
  for (size_t off = 0; off < rec.size(); off += 13) offsets.push_back(off);
  for (size_t off = rec.size() - 9; off < rec.size(); ++off) {
    offsets.push_back(off);
  }
  for (size_t off : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      rec[off] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(Checksum64(rec.data(), rec.size()), base)
          << "offset " << off << " bit " << bit;
      rec[off] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  for (size_t cut = 1; cut <= 8; ++cut) {
    EXPECT_NE(Checksum64(rec.data(), rec.size() - cut), base) << cut;
  }
  std::fill(rec.end() - 8, rec.end(), 0);
  const uint64_t zero_tail = Checksum64(rec.data(), rec.size());
  for (size_t cut = 1; cut <= 8; ++cut) {
    EXPECT_NE(Checksum64(rec.data(), rec.size() - cut), zero_tail) << cut;
  }
}

TEST(HashTest, Mix64SeparatesSequentialKeys) {
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1000; ++i) buckets.insert(Mix64(i) % 64);
  EXPECT_EQ(buckets.size(), 64u);
}

TEST(HashTest, HashCombineOrderMatters) {
  uint64_t ab = HashCombine(HashCombine(0, 1), 2);
  uint64_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace objrep
