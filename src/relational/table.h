// A relation: schema + B-tree primary structure keyed on a u64 primary key.
//
// ParentRel, ChildRel and ClusterRel are all Tables ("structured as B-trees
// on OID" / "on cluster#", paper §4).
#ifndef OBJREP_RELATIONAL_TABLE_H_
#define OBJREP_RELATIONAL_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "access/btree.h"
#include "record/record.h"
#include "record/schema.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace objrep {

using RelationId = uint32_t;

class Table {
 public:
  /// Bulk-load input: each call sets `*key` and returns the next row's
  /// values, or returns nullptr once the input is exhausted. The values must
  /// stay valid until the next call, so a source can keep one row and
  /// rewrite only the fields that change.
  using RowSource = std::function<const std::vector<Value>*(uint64_t* key)>;

  Table() = default;
  Table(std::string name, RelationId rel_id, Schema schema)
      : name_(std::move(name)), rel_id_(rel_id), schema_(std::move(schema)) {}

  /// Bulk loads the rows `next` yields, in strictly increasing key order,
  /// encoding each into one reused buffer (BPlusTree::BulkLoad).
  Status BulkLoad(BufferPool* pool, const RowSource& next);
  /// BulkLoad over a vector of rows.
  Status BulkLoad(BufferPool* pool,
                  const std::vector<std::pair<uint64_t, std::vector<Value>>>&
                      rows);

  Status Insert(uint64_t key, const std::vector<Value>& values);

  /// Fetches and decodes the whole row.
  Status Get(uint64_t key, std::vector<Value>* values) const;

  /// Fetches and decodes one field (projection fast path).
  Status GetField(uint64_t key, size_t field_index, Value* out) const;

  /// Same-size in-place update (the paper's updates modify ret fields).
  Status UpdateInPlace(uint64_t key, const std::vector<Value>& values);

  const std::string& name() const { return name_; }
  RelationId rel_id() const { return rel_id_; }
  const Schema& schema() const { return schema_; }
  const BPlusTree& tree() const { return tree_; }
  BPlusTree& tree() { return tree_; }

 private:
  std::string name_;
  RelationId rel_id_ = 0;
  Schema schema_;
  BPlusTree tree_;
};

/// Name -> table registry for one database instance.
class Catalog {
 public:
  /// Registers a table definition; returns the mutable slot to load into.
  Table* Register(std::string name, Schema schema);

  Table* Find(const std::string& name);
  Table* FindById(RelationId id);

  size_t num_tables() const { return tables_.size(); }

 private:
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace objrep

#endif  // OBJREP_RELATIONAL_TABLE_H_
