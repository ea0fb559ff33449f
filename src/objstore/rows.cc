#include "objstore/rows.h"

namespace objrep {

namespace {

// Encoded sizes per field kind (record.cc layout).
constexpr uint32_t kInt32Bytes = 4;
constexpr uint32_t kInt64Bytes = 8;
constexpr uint32_t kVarHeader = 2;  // u16 length prefix

std::string DummyPayload(uint32_t width) {
  // Non-blank filler so blank compression stores exactly `width` bytes.
  return std::string(width, 'x');
}

}  // namespace

Schema MakeParentSchema(uint32_t dummy_width) {
  return Schema({
      {"OID", FieldType::kInt64, 0},
      {"ret1", FieldType::kInt32, 0},
      {"ret2", FieldType::kInt32, 0},
      {"ret3", FieldType::kInt32, 0},
      {"dummy", FieldType::kChar, dummy_width},
      {"children", FieldType::kBytes, 0},
  });
}

Schema MakeChildSchema(uint32_t dummy_width) {
  return Schema({
      {"OID", FieldType::kInt64, 0},
      {"ret1", FieldType::kInt32, 0},
      {"ret2", FieldType::kInt32, 0},
      {"ret3", FieldType::kInt32, 0},
      {"dummy", FieldType::kChar, dummy_width},
  });
}

Schema MakeClusterSchema(uint32_t dummy_width) {
  return Schema({
      {"cluster", FieldType::kInt64, 0},
      {"OID", FieldType::kInt64, 0},
      {"ret1", FieldType::kInt32, 0},
      {"ret2", FieldType::kInt32, 0},
      {"ret3", FieldType::kInt32, 0},
      {"dummy", FieldType::kChar, dummy_width},
      {"children", FieldType::kBytes, 0},
  });
}

uint32_t ParentDummyWidth(uint32_t target_bytes, uint32_t size_unit) {
  // OID + 3 rets + dummy header + children header + children payload.
  uint32_t fixed = kInt64Bytes + 3 * kInt32Bytes + kVarHeader + kVarHeader +
                   8 * size_unit;
  return target_bytes > fixed + 1 ? target_bytes - fixed : 1;
}

uint32_t ChildDummyWidth(uint32_t target_bytes) {
  uint32_t fixed = kInt64Bytes + 3 * kInt32Bytes + kVarHeader;
  return target_bytes > fixed + 1 ? target_bytes - fixed : 1;
}

std::vector<Value> ParentRowValues(const ParentRow& row,
                                   uint32_t dummy_width) {
  std::vector<Value> values(6);
  values[kParentDummy] = Value(DummyPayload(dummy_width));
  values[kParentChildren] = Value(std::string());
  SetParentRowValues(row.oid, {row.ret1, row.ret2, row.ret3}, row.children,
                     &values);
  return values;
}

std::vector<Value> ChildRowValues(const ChildRow& row, uint32_t dummy_width) {
  std::vector<Value> values(5);
  values[kChildDummy] = Value(DummyPayload(dummy_width));
  SetChildRowValues(row, &values);
  return values;
}

std::vector<Value> ClusterParentValues(const ParentRow& row,
                                       uint32_t parent_dummy_width) {
  std::vector<Value> values(7);
  values[kClusterDummy] = Value(DummyPayload(parent_dummy_width));
  values[kClusterChildren] = Value(std::string());
  SetClusterParentValues(row.oid, {row.ret1, row.ret2, row.ret3},
                         row.children, &values);
  return values;
}

std::vector<Value> ClusterChildValues(const ChildRow& row,
                                      uint32_t child_dummy_width) {
  std::vector<Value> values(7);
  values[kClusterDummy] = Value(DummyPayload(child_dummy_width));
  values[kClusterChildren] = Value(std::string());
  SetClusterChildValues(row, 0, &values);  // cluster# set by the builder
  return values;
}

void SetParentRowValues(const Oid& oid, const std::array<int32_t, 3>& rets,
                        const std::vector<Oid>& children,
                        std::vector<Value>* values) {
  std::vector<Value>& v = *values;
  v[kParentOid] = Value(static_cast<int64_t>(oid.Packed()));
  v[kParentRet1] = Value(rets[0]);
  v[kParentRet2] = Value(rets[1]);
  v[kParentRet3] = Value(rets[2]);
  EncodeOidListTo(children, &v[kParentChildren].mutable_string());
}

void SetChildRowValues(const ChildRow& row, std::vector<Value>* values) {
  std::vector<Value>& v = *values;
  v[kChildOid] = Value(static_cast<int64_t>(row.oid.Packed()));
  v[kChildRet1] = Value(row.ret1);
  v[kChildRet2] = Value(row.ret2);
  v[kChildRet3] = Value(row.ret3);
}

void SetClusterParentValues(const Oid& oid,
                            const std::array<int32_t, 3>& rets,
                            const std::vector<Oid>& children,
                            std::vector<Value>* values) {
  std::vector<Value>& v = *values;
  v[kClusterNo] = Value(static_cast<int64_t>(oid.key));  // == parent key
  v[kClusterOid] = Value(static_cast<int64_t>(oid.Packed()));
  v[kClusterRet1] = Value(rets[0]);
  v[kClusterRet2] = Value(rets[1]);
  v[kClusterRet3] = Value(rets[2]);
  EncodeOidListTo(children, &v[kClusterChildren].mutable_string());
}

void SetClusterChildValues(const ChildRow& row, uint64_t cluster_no,
                           std::vector<Value>* values) {
  std::vector<Value>& v = *values;
  v[kClusterNo] = Value(static_cast<int64_t>(cluster_no));
  v[kClusterOid] = Value(static_cast<int64_t>(row.oid.Packed()));
  v[kClusterRet1] = Value(row.ret1);
  v[kClusterRet2] = Value(row.ret2);
  v[kClusterRet3] = Value(row.ret3);
}

Status DecodeChildRet(const Schema& schema, std::string_view raw,
                      int attr_index, int32_t* out) {
  if (attr_index < 0 || attr_index > 2) {
    return Status::InvalidArgument("attr index must be 0..2");
  }
  Value v;
  OBJREP_RETURN_NOT_OK(
      DecodeField(schema, raw, kChildRet1 + static_cast<size_t>(attr_index),
                  &v));
  *out = v.as_int32();
  return Status::OK();
}

}  // namespace objrep
