#include "core/value.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace deeplens {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kFloat:
      return "float";
    case ValueType::kString:
      return "string";
    case ValueType::kBool:
      return "bool";
  }
  return "?";
}

ValueType MetaValue::type() const {
  switch (v_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt;
    case 2:
      return ValueType::kFloat;
    case 3:
      return ValueType::kString;
    case 4:
      return ValueType::kBool;
  }
  return ValueType::kNull;
}

Result<int64_t> MetaValue::AsInt() const {
  if (auto* p = std::get_if<int64_t>(&v_)) return *p;
  return Status::TypeError(std::string("expected int, have ") +
                           ValueTypeName(type()));
}

Result<double> MetaValue::AsFloat() const {
  if (auto* p = std::get_if<double>(&v_)) return *p;
  return Status::TypeError(std::string("expected float, have ") +
                           ValueTypeName(type()));
}

Result<const std::string*> MetaValue::AsString() const {
  if (auto* p = std::get_if<std::string>(&v_)) return p;
  return Status::TypeError(std::string("expected string, have ") +
                           ValueTypeName(type()));
}

Result<bool> MetaValue::AsBool() const {
  if (auto* p = std::get_if<bool>(&v_)) return *p;
  return Status::TypeError(std::string("expected bool, have ") +
                           ValueTypeName(type()));
}

Result<double> MetaValue::AsNumeric() const {
  if (auto* p = std::get_if<double>(&v_)) return *p;
  if (auto* p = std::get_if<int64_t>(&v_)) return static_cast<double>(*p);
  return Status::TypeError(std::string("expected numeric, have ") +
                           ValueTypeName(type()));
}

int MetaValue::Compare(const MetaValue& other) const {
  // Numeric types compare by value across int/float; everything else
  // compares by type tag first.
  const bool self_num =
      type() == ValueType::kInt || type() == ValueType::kFloat;
  const bool other_num =
      other.type() == ValueType::kInt || other.type() == ValueType::kFloat;
  if (self_num && other_num) {
    const double a = AsNumeric().value();
    const double b = other.AsNumeric().value();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1
                                                                     : 1;
  }
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString: {
      const std::string& a = std::get<std::string>(v_);
      const std::string& b = std::get<std::string>(other.v_);
      return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
    }
    case ValueType::kBool: {
      const bool a = std::get<bool>(v_);
      const bool b = std::get<bool>(other.v_);
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    default:
      return 0;  // numeric handled above
  }
}

std::string MetaValue::ToIndexKey() const {
  // Tags sort like Compare's type order: null < 'N' < 'S' < 'b'.
  // Numerics share tag 'N' so int/float index keys interleave correctly.
  switch (type()) {
    case ValueType::kNull:
      return "\x00";
    case ValueType::kInt:
      return "N" + EncodeKeyF64(static_cast<double>(
                       std::get<int64_t>(v_)));
    case ValueType::kFloat: {
      // -0.0 and 0.0 are equal under Compare, so they share the +0.0 key.
      const double d = std::get<double>(v_);
      return "N" + EncodeKeyF64(d == 0.0 ? 0.0 : d);
    }
    case ValueType::kString:
      return "S" + std::get<std::string>(v_);
    case ValueType::kBool:
      return std::string("b") + (std::get<bool>(v_) ? '\x01' : '\x00');
  }
  return "";
}

void MetaValue::SerializeInto(ByteBuffer* out) const {
  out->PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      out->PutSignedVarint(std::get<int64_t>(v_));
      break;
    case ValueType::kFloat:
      out->PutF64(std::get<double>(v_));
      break;
    case ValueType::kString:
      out->PutLengthPrefixed(Slice(std::get<std::string>(v_)));
      break;
    case ValueType::kBool:
      out->PutU8(std::get<bool>(v_) ? 1 : 0);
      break;
  }
}

Result<MetaValue> MetaValue::Deserialize(ByteReader* reader) {
  DL_ASSIGN_OR_RETURN(uint8_t tag, reader->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return MetaValue();
    case ValueType::kInt: {
      DL_ASSIGN_OR_RETURN(int64_t v, reader->GetSignedVarint());
      return MetaValue(v);
    }
    case ValueType::kFloat: {
      DL_ASSIGN_OR_RETURN(double v, reader->GetF64());
      return MetaValue(v);
    }
    case ValueType::kString: {
      DL_ASSIGN_OR_RETURN(Slice v, reader->GetLengthPrefixed());
      return MetaValue(v.ToString());
    }
    case ValueType::kBool: {
      DL_ASSIGN_OR_RETURN(uint8_t v, reader->GetU8());
      return MetaValue(v != 0);
    }
  }
  return Status::Corruption("unknown MetaValue tag");
}

std::string MetaValue::ToDisplayString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(std::get<int64_t>(v_));
    case ValueType::kFloat:
      return StringFormat("%g", std::get<double>(v_));
    case ValueType::kString:
      return "'" + std::get<std::string>(v_) + "'";
    case ValueType::kBool:
      return std::get<bool>(v_) ? "true" : "false";
  }
  return "?";
}

bool IsUnorderedValue(const MetaValue& v) {
  return v.type() == ValueType::kFloat && std::isnan(v.AsFloat().value());
}

namespace {

// First entry whose key is not less than `key`.
template <typename Entries>
auto LowerBound(Entries& entries, std::string_view key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const MetaDict::Entry& e, std::string_view k) { return e.first < k; });
}

}  // namespace

void MetaDict::Set(std::string_view key, MetaValue value) {
  if (entries_.empty() || entries_.back().first < key) {
    entries_.emplace_back(std::string(key), std::move(value));
    return;
  }
  auto it = LowerBound(entries_, key);
  if (it->first == key) {
    it->second = std::move(value);
  } else {
    entries_.emplace(it, std::string(key), std::move(value));
  }
}

const MetaValue* MetaDict::Find(std::string_view key) const {
  auto it = LowerBound(entries_, key);
  return it != entries_.end() && it->first == key ? &it->second : nullptr;
}

const MetaValue& MetaDict::Get(std::string_view key) const {
  static const MetaValue kNull;
  const MetaValue* v = Find(key);
  return v == nullptr ? kNull : *v;
}

void MetaDict::SerializeInto(ByteBuffer* out) const {
  out->PutVarint(entries_.size());
  for (const auto& [key, value] : entries_) {
    out->PutLengthPrefixed(Slice(key));
    value.SerializeInto(out);
  }
}

Result<MetaDict> MetaDict::Deserialize(ByteReader* reader) {
  DL_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
  MetaDict dict;
  // Every entry takes at least two bytes, which bounds the reservation
  // a corrupt count can ask for.
  dict.entries_.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, reader->remaining() / 2)));
  for (uint64_t i = 0; i < count; ++i) {
    DL_ASSIGN_OR_RETURN(Slice key, reader->GetLengthPrefixed());
    DL_ASSIGN_OR_RETURN(MetaValue value, MetaValue::Deserialize(reader));
    dict.Set(key.ToView(), std::move(value));
  }
  return dict;
}

}  // namespace deeplens
