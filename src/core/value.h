// MetaValue: the typed values stored in a Patch's metadata key-value
// dictionary (paper §2.2). Values serialize to bytes for materialization
// and to order-preserving keys for indexing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace deeplens {

/// Runtime type of a metadata value.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kFloat = 2,
  kString = 3,
  kBool = 4,
};

const char* ValueTypeName(ValueType t);

/// \brief Tagged value: null / int64 / double / string / bool.
class MetaValue {
 public:
  MetaValue() : v_(std::monostate{}) {}
  MetaValue(int64_t v) : v_(v) {}            // NOLINT(runtime/explicit)
  MetaValue(int v) : v_(int64_t{v}) {}       // NOLINT(runtime/explicit)
  MetaValue(double v) : v_(v) {}             // NOLINT(runtime/explicit)
  MetaValue(std::string v) : v_(std::move(v)) {}  // NOLINT
  MetaValue(const char* v) : v_(std::string(v)) {}  // NOLINT
  MetaValue(bool v) : v_(v) {}               // NOLINT(runtime/explicit)

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; TypeError on mismatch.
  Result<int64_t> AsInt() const;
  Result<double> AsFloat() const;
  Result<const std::string*> AsString() const;
  Result<bool> AsBool() const;

  /// Numeric coercion: ints widen to double; TypeError otherwise.
  Result<double> AsNumeric() const;

  /// Total-order comparison within the same type; cross-type compares by
  /// type tag (so heterogeneous sorts are stable and deterministic).
  int Compare(const MetaValue& other) const;
  bool operator==(const MetaValue& other) const { return Compare(other) == 0; }
  bool operator<(const MetaValue& other) const { return Compare(other) < 0; }

  /// Order-preserving index-key encoding (type tag + payload).
  std::string ToIndexKey() const;

  /// Binary (de)serialization for materialization.
  void SerializeInto(ByteBuffer* out) const;
  static Result<MetaValue> Deserialize(ByteReader* reader);

  std::string ToDisplayString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> v_;
};

/// True for a float NaN. MetaValue::Compare finds a NaN equal to every
/// number, so it has no place in an order: zone maps keep no min/max for
/// a column holding one, and neither a zone map nor an index probe is
/// ever narrowed by a NaN bound.
bool IsUnorderedValue(const MetaValue& v);

/// \brief Ordered metadata dictionary: one key-sorted vector of
/// (key, value) pairs. A detection row holds ~10 short keys, so a copy
/// is one allocation (short strings live inline) instead of a tree node
/// per key, and a lookup is a binary search over contiguous entries. Iteration is
/// in ascending key order (byte-wise, as std::string compares), which is
/// what SerializeInto writes and what the columnar writer's column order
/// relies on; keys are unique.
class MetaDict {
 public:
  using Entry = std::pair<std::string, MetaValue>;

  /// Overwrites the value of an existing key, or inserts the key at its
  /// sorted position. Setting keys in ascending order appends.
  void Set(std::string_view key, MetaValue value);

  /// Null value if absent.
  const MetaValue& Get(std::string_view key) const;
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() const { return entries_.cbegin(); }
  auto end() const { return entries_.cend(); }

  /// Varint count, then (length-prefixed key, value) per entry in key
  /// order. Deserialize accepts any key order; a repeated key keeps its
  /// last value.
  void SerializeInto(ByteBuffer* out) const;
  static Result<MetaDict> Deserialize(ByteReader* reader);

 private:
  const MetaValue* Find(std::string_view key) const;

  std::vector<Entry> entries_;  // ascending by key, unique
};

}  // namespace deeplens
