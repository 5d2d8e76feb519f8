// Minimal JSON value type with a parser and serializer, plus JsonReader, the
// one strict reader for every JSON file the project writes and reads back:
// search checkpoints, fault signatures, the service's queue manifest and work
// files, metrics dumps and trace JSONL. Supports objects, arrays, strings
// (with the standard escapes), 64-bit integers, doubles, booleans, and null —
// deliberately no more. Object keys keep insertion order so serialization is
// byte-stable.

#ifndef ANDURIL_SRC_UTIL_JSON_H_
#define ANDURIL_SRC_UTIL_JSON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace anduril {

class JsonValue {
 public:
  enum class Type : uint8_t { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Int(int64_t value);
  static JsonValue Double(double value);
  static JsonValue Str(std::string value);
  // A uint64 as a decimal string: JSON numbers lose precision past 2^53, and
  // this parser's integers stop at int64. JsonReader::U64 reads it back.
  static JsonValue U64(uint64_t value);
  static JsonValue Array();
  static JsonValue Object();

  // Parses `text`; returns a kNull value and sets *error on failure. Numbers
  // must follow the JSON grammar and fit int64 (no fraction or exponent) or
  // a finite double; arrays and objects may nest at most 64 deep.
  static JsonValue Parse(const std::string& text, std::string* error);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool(bool fallback = false) const;
  // A double is truncated toward zero; one outside int64 range yields
  // `fallback`.
  int64_t as_int(int64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const;

  // --- Arrays ----------------------------------------------------------------
  void Append(JsonValue value);
  const std::vector<JsonValue>& items() const { return items_; }

  // --- Objects ---------------------------------------------------------------
  void Set(const std::string& key, JsonValue value);
  // Returns nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }

  // Serializes with 2-space indentation and a trailing newline at top level.
  // Non-finite doubles, which JSON cannot spell, are written as null.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Appends `value` as a JSON string literal, escaped exactly as Dump escapes
// strings (for writers that render compact JSON by hand).
void AppendJsonString(std::string* out, const std::string& value);

// Strict typed reads over a parsed object or array. Every getter requires
// its member (or element) and its type; Has() guards the members a writer
// emits only sometimes, and unknown members are ignored. An integer must fit
// its destination, and U64 takes only a full decimal match. A failed read
// records "<path>: <what>" in the shared error, where the path runs from the
// reader's name through each member and index (say
// "checkpoint.strategy.tried[3].occurrence: ..."), and returns a zero value.
// The first error wins, so a parser reads every field and checks ok() once.
class JsonReader {
 public:
  // A member name, or the index of an array item or of an object member.
  struct Key {
    Key(const char* name) : name(name) {}
    Key(size_t index) : index(index) {}
    const char* name = nullptr;
    size_t index = 0;
  };

  // Reads the object `value`, called `path` in errors. Clears *error.
  JsonReader(const JsonValue& value, std::string path, std::string* error);

  bool ok() const { return error_->empty(); }
  // Records "<path>: <message>" unless an error is already recorded.
  void Fail(const std::string& message);

  bool Has(const char* name) const;
  // Items or members. An index Key, Name and At take an index below size().
  size_t size() const;
  const std::string& Name(size_t index) const;  // an object member's name
  const JsonValue& At(size_t index) const;      // untyped

  std::string Str(Key key);
  bool Bool(Key key);
  int Int(Key key);
  int64_t Int64(Key key);
  uint64_t U64(Key key);
  // Any number; null, which Dump writes for a non-finite double, reads as NaN.
  double Double(Key key);
  JsonReader Object(Key key);
  JsonReader Array(Key key);

 private:
  JsonReader(const JsonValue* value, std::string path, std::string* error)
      : value_(value), path_(std::move(path)), error_(error) {}

  // The value at `key` if it has `type`; null after a failed read.
  const JsonValue* Read(Key key, JsonValue::Type type);
  JsonReader Child(Key key, JsonValue::Type type);
  std::string PathOf(Key key) const;
  void FailAt(Key key, const std::string& message);

  const JsonValue* value_;
  std::string path_;
  std::string* error_;
};

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_JSON_H_
