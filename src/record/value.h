// Typed field values.
#ifndef OBJREP_RECORD_VALUE_H_
#define OBJREP_RECORD_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "record/schema.h"
#include "util/macros.h"

namespace objrep {

/// A single field value. kChar and kBytes both carry std::string payloads.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int32_t v) : v_(v) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}

  bool is_int32() const { return std::holds_alternative<int32_t>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int32_t as_int32() const { return std::get<int32_t>(v_); }
  int64_t as_int64() const { return std::get<int64_t>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  /// The string payload, for a caller that rewrites it in place.
  std::string& mutable_string() { return std::get<std::string>(v_); }

  bool operator==(const Value& other) const { return v_ == other.v_; }

 private:
  std::variant<int32_t, int64_t, std::string> v_;
};

}  // namespace objrep

#endif  // OBJREP_RECORD_VALUE_H_
