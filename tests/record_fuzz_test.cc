// Property-based fuzzing of the record codec: random schemas and values
// must round-trip exactly, projections must agree with full decodes, and
// random byte corruption must never crash (only return Corruption or
// decode to *something* without UB — the slice lengths guard the reads).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "record/record.h"
#include "util/random.h"

namespace objrep {
namespace {

Schema RandomSchema(Rng* rng) {
  size_t n = 1 + rng->Uniform(8);
  std::vector<FieldDef> fields;
  for (size_t i = 0; i < n; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    switch (rng->Uniform(4)) {
      case 0:
        fields.push_back({name, FieldType::kInt32, 0});
        break;
      case 1:
        fields.push_back({name, FieldType::kInt64, 0});
        break;
      case 2:
        fields.push_back({name, FieldType::kChar,
                          1 + static_cast<uint32_t>(rng->Uniform(64))});
        break;
      default:
        fields.push_back({name, FieldType::kBytes, 0});
        break;
    }
  }
  return Schema(std::move(fields));
}

std::vector<Value> RandomValues(const Schema& schema, Rng* rng) {
  std::vector<Value> values;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const FieldDef& def = schema.field(i);
    switch (def.type) {
      case FieldType::kInt32:
        values.emplace_back(static_cast<int32_t>(rng->Next() & 0xffffffffu));
        break;
      case FieldType::kInt64:
        values.emplace_back(static_cast<int64_t>(rng->Next()));
        break;
      case FieldType::kChar: {
        // Random prefix of printable chars, padded with blanks.
        size_t len = rng->Uniform(def.width + 1);
        std::string s;
        for (size_t j = 0; j < len; ++j) {
          s.push_back(static_cast<char>('!' + rng->Uniform(90)));
        }
        s.resize(def.width, ' ');
        values.push_back(Value(std::move(s)));
        break;
      }
      case FieldType::kBytes: {
        size_t len = rng->Uniform(120);
        std::string s;
        for (size_t j = 0; j < len; ++j) {
          s.push_back(static_cast<char>(rng->Next() & 0xff));
        }
        values.push_back(Value(std::move(s)));
        break;
      }
    }
  }
  return values;
}

class RecordFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RecordFuzzTest, RandomSchemasRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (int iter = 0; iter < 200; ++iter) {
    Schema schema = RandomSchema(&rng);
    std::vector<Value> in = RandomValues(schema, &rng);
    std::string encoded;
    ASSERT_TRUE(EncodeRecord(schema, in, &encoded).ok());
    std::vector<Value> out;
    ASSERT_TRUE(DecodeRecord(schema, encoded, &out).ok());
    ASSERT_EQ(in.size(), out.size());
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(in[i], out[i]) << "field " << i;
      // Projection agrees with the full decode.
      Value v;
      ASSERT_TRUE(DecodeField(schema, encoded, i, &v).ok());
      EXPECT_EQ(v, out[i]) << "projected field " << i;
    }
  }
}

TEST_P(RecordFuzzTest, TruncationNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  for (int iter = 0; iter < 100; ++iter) {
    Schema schema = RandomSchema(&rng);
    std::vector<Value> in = RandomValues(schema, &rng);
    std::string encoded;
    ASSERT_TRUE(EncodeRecord(schema, in, &encoded).ok());
    // Every strict prefix must decode to an error, not a crash.
    size_t cut = rng.Uniform(encoded.size() + 1);
    std::vector<Value> out;
    Status s =
        DecodeRecord(schema, std::string_view(encoded).substr(0, cut), &out);
    if (cut < encoded.size()) {
      EXPECT_FALSE(s.ok());
    }
  }
}

TEST_P(RecordFuzzTest, BitFlipsAreHandled) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299709);
  for (int iter = 0; iter < 100; ++iter) {
    Schema schema = RandomSchema(&rng);
    std::vector<Value> in = RandomValues(schema, &rng);
    std::string encoded;
    ASSERT_TRUE(EncodeRecord(schema, in, &encoded).ok());
    if (encoded.empty()) continue;
    // Flip one random byte; decode must return cleanly either way (a
    // flipped length prefix usually trips Corruption, a flipped payload
    // byte decodes to different values).
    std::string mutated = encoded;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    std::vector<Value> out;
    Status s = DecodeRecord(schema, mutated, &out);
    if (s.ok()) {
      EXPECT_EQ(out.size(), schema.num_fields());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordFuzzTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace objrep
