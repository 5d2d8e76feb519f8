#include "src/util/json.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace anduril {
namespace {

// True when `token` is exactly one JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; *is_double is set when it
// has a fraction or exponent. (strtod alone also takes "+1", ".5", "1.",
// "0x10", "inf" and "nan".)
bool IsJsonNumber(const std::string& token, bool* is_double) {
  size_t i = 0;
  auto digits = [&] {
    size_t start = i;
    while (i < token.size() && std::isdigit(static_cast<unsigned char>(token[i]))) {
      ++i;
    }
    return i > start;
  };
  if (i < token.size() && token[i] == '-') {
    ++i;
  }
  if (i < token.size() && token[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  *is_double = false;
  if (i < token.size() && token[i] == '.') {
    ++i;
    if (!digits()) {
      return false;
    }
    *is_double = true;
  }
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    ++i;
    if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
      ++i;
    }
    if (!digits()) {
      return false;
    }
    *is_double = true;
  }
  return i == token.size();
}

// Deepest array/object nesting the parser accepts. Every file this project
// writes nests at most 5 deep; the cap keeps the recursive descent's stack
// bounded on hostile input.
constexpr int kMaxDepth = 64;

struct Parser {
  const std::string& text;
  size_t pos = 0;
  std::string error;

  bool Fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipSpace() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool Literal(const char* literal) {
    size_t len = std::char_traits<char>::length(literal);
    if (text.compare(pos, len, literal) == 0) {
      pos += len;
      return true;
    }
    return Fail(std::string("expected ") + literal);
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos >= text.size()) {
          break;
        }
        char esc = text[pos++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size()) {
              return Fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // Checkpoints only ever contain ASCII; encode BMP code points
            // as UTF-8 without surrogate-pair handling.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      out->push_back(c);
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    // The token runs to the next delimiter, so "1.2.3" and "1-2" are
    // reported whole instead of as a number plus trailing content.
    size_t end = pos;
    while (end < text.size() && (std::isalnum(static_cast<unsigned char>(text[end])) ||
                                 text[end] == '.' || text[end] == '-' || text[end] == '+')) {
      ++end;
    }
    std::string token = text.substr(pos, end - pos);
    bool is_double = false;
    if (!IsJsonNumber(token, &is_double)) {
      return Fail("malformed number '" + token + "'");
    }
    errno = 0;
    char* parsed_end = nullptr;
    if (is_double) {
      double value = std::strtod(token.c_str(), &parsed_end);
      // Underflow rounds to a subnormal or zero, which is faithful enough;
      // overflow to infinity has no JSON spelling and would not round-trip.
      if (errno == ERANGE && std::isinf(value)) {
        return Fail("number '" + token + "' out of double range");
      }
      *out = JsonValue::Double(value);
    } else {
      long long value = std::strtoll(token.c_str(), &parsed_end, 10);
      if (errno == ERANGE) {
        return Fail("integer '" + token + "' out of int64 range");
      }
      *out = JsonValue::Int(value);
    }
    if (parsed_end != token.c_str() + token.size()) {
      return Fail("malformed number '" + token + "'");
    }
    pos = end;
    return true;
  }

  // `depth` counts the arrays/objects enclosing this value.
  bool ParseValue(JsonValue* out, int depth) {
    SkipSpace();
    if (pos >= text.size()) {
      return Fail("unexpected end of input");
    }
    char c = text[pos];
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      return Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    if (c == '{') {
      ++pos;
      *out = JsonValue::Object();
      SkipSpace();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        std::string key;
        SkipSpace();
        if (!ParseString(&key)) {
          return false;
        }
        if (!Consume(':')) {
          return false;
        }
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->Set(key, std::move(value));
        SkipSpace();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      *out = JsonValue::Array();
      SkipSpace();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->Append(std::move(value));
        SkipSpace();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return Consume(']');
      }
    }
    if (c == '"') {
      std::string value;
      if (!ParseString(&value)) {
        return false;
      }
      *out = JsonValue::Str(std::move(value));
      return true;
    }
    if (c == 't') {
      if (!Literal("true")) return false;
      *out = JsonValue::Bool(true);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false")) return false;
      *out = JsonValue::Bool(false);
      return true;
    }
    if (c == 'n') {
      if (!Literal("null")) return false;
      *out = JsonValue::Null();
      return true;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      // Integer when there is no fraction or exponent.
      return ParseNumber(out);
    }
    return Fail(std::string("unexpected character '") + c + "'");
  }
};

const char* TypeName(JsonValue::Type type) {
  static constexpr const char* kNames[] = {"null",   "boolean", "integer", "number",
                                           "string", "array",   "object"};
  return kNames[static_cast<int>(type)];
}

const JsonValue& NullValue() {
  static const JsonValue kNull;
  return kNull;
}

}  // namespace

void AppendJsonString(std::string* out, const std::string& value) {
  out->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Int(int64_t value) {
  JsonValue v;
  v.type_ = Type::kInt;
  v.int_ = value;
  return v;
}

JsonValue JsonValue::Double(double value) {
  JsonValue v;
  v.type_ = Type::kDouble;
  v.double_ = value;
  return v;
}

JsonValue JsonValue::Str(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::U64(uint64_t value) { return Str(std::to_string(value)); }

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

JsonValue JsonValue::Parse(const std::string& text, std::string* error) {
  Parser parser{text};
  JsonValue value;
  if (!parser.ParseValue(&value, 0)) {
    if (error != nullptr) {
      *error = parser.error;
    }
    return JsonValue();
  }
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing content at offset " + std::to_string(parser.pos);
    }
    return JsonValue();
  }
  if (error != nullptr) {
    error->clear();
  }
  return value;
}

bool JsonValue::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

int64_t JsonValue::as_int(int64_t fallback) const {
  if (type_ == Type::kInt) {
    return int_;
  }
  if (type_ == Type::kDouble) {
    // Casting a double outside [-2^63, 2^63) (or NaN) is undefined.
    constexpr double kTwoTo63 = 9223372036854775808.0;
    return double_ >= -kTwoTo63 && double_ < kTwoTo63 ? static_cast<int64_t>(double_)
                                                      : fallback;
  }
  return fallback;
}

double JsonValue::as_double(double fallback) const {
  if (type_ == Type::kDouble) {
    return double_;
  }
  if (type_ == Type::kInt) {
    return static_cast<double>(int_);
  }
  return fallback;
}

const std::string& JsonValue::as_string() const {
  static const std::string kEmpty;
  return type_ == Type::kString ? string_ : kEmpty;
}

void JsonValue::Append(JsonValue value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  type_ = Type::kObject;
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out.push_back('\n');
  return out;
}

void JsonValue::DumpTo(std::string* out, int depth) const {
  auto indent = [out](int n) { out->append(static_cast<size_t>(n) * 2, ' '); };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      *out += std::to_string(int_);
      return;
    case Type::kDouble: {
      if (!std::isfinite(double_)) {
        *out += "null";  // JSON has no NaN or infinity
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      *out += buf;
      return;
    }
    case Type::kString:
      AppendJsonString(out, string_);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        *out += "[]";
        return;
      }
      *out += "[\n";
      for (size_t i = 0; i < items_.size(); ++i) {
        indent(depth + 1);
        items_[i].DumpTo(out, depth + 1);
        *out += i + 1 < items_.size() ? ",\n" : "\n";
      }
      indent(depth);
      *out += "]";
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      *out += "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        indent(depth + 1);
        AppendJsonString(out, members_[i].first);
        *out += ": ";
        members_[i].second.DumpTo(out, depth + 1);
        *out += i + 1 < members_.size() ? ",\n" : "\n";
      }
      indent(depth);
      *out += "}";
      return;
    }
  }
}

// --- JsonReader ----------------------------------------------------------------

JsonReader::JsonReader(const JsonValue& value, std::string path, std::string* error)
    : value_(&value), path_(std::move(path)), error_(error) {
  error_->clear();
  if (value.type() != JsonValue::Type::kObject) {
    Fail(std::string("expected object, found ") + TypeName(value.type()));
  }
}

void JsonReader::Fail(const std::string& message) {
  if (error_->empty()) {
    *error_ = path_ + ": " + message;
  }
}

void JsonReader::FailAt(Key key, const std::string& message) {
  if (error_->empty()) {
    *error_ = PathOf(key) + ": " + message;
  }
}

std::string JsonReader::PathOf(Key key) const {
  if (key.name != nullptr) {
    return path_ + "." + key.name;
  }
  if (value_->type() == JsonValue::Type::kObject) {
    return path_ + "." + Name(key.index);
  }
  return path_ + "[" + std::to_string(key.index) + "]";
}

const JsonValue* JsonReader::Read(Key key, JsonValue::Type type) {
  if (!ok()) {
    return nullptr;
  }
  const JsonValue* value = key.name != nullptr ? value_->Find(key.name) : &At(key.index);
  if (value == nullptr) {
    Fail(std::string("no ") + key.name + " " + TypeName(type));
    return nullptr;
  }
  const bool number = type == JsonValue::Type::kDouble &&
                      (value->type() == JsonValue::Type::kInt || value->is_null());
  if (value->type() != type && !number) {
    FailAt(key, std::string("expected ") + TypeName(type) + ", found " + TypeName(value->type()));
    return nullptr;
  }
  return value;
}

JsonReader JsonReader::Child(Key key, JsonValue::Type type) {
  const JsonValue* value = Read(key, type);
  if (value == nullptr) {
    return JsonReader(&NullValue(), path_, error_);
  }
  return JsonReader(value, PathOf(key), error_);
}

bool JsonReader::Has(const char* name) const { return value_->Find(name) != nullptr; }

size_t JsonReader::size() const {
  return value_->type() == JsonValue::Type::kObject ? value_->members().size()
                                                    : value_->items().size();
}

const std::string& JsonReader::Name(size_t index) const {
  return value_->members()[index].first;
}

const JsonValue& JsonReader::At(size_t index) const {
  return value_->type() == JsonValue::Type::kObject ? value_->members()[index].second
                                                    : value_->items()[index];
}

std::string JsonReader::Str(Key key) {
  const JsonValue* value = Read(key, JsonValue::Type::kString);
  return value != nullptr ? value->as_string() : std::string();
}

bool JsonReader::Bool(Key key) {
  const JsonValue* value = Read(key, JsonValue::Type::kBool);
  return value != nullptr && value->as_bool();
}

int JsonReader::Int(Key key) {
  const int64_t value = Int64(key);
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    FailAt(key, std::to_string(value) + " does not fit int");
    return 0;
  }
  return static_cast<int>(value);
}

int64_t JsonReader::Int64(Key key) {
  const JsonValue* value = Read(key, JsonValue::Type::kInt);
  return value != nullptr ? value->as_int() : 0;
}

uint64_t JsonReader::U64(Key key) {
  const std::string text = Str(key);
  uint64_t out = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ok() && (ec != std::errc() || end != text.data() + text.size())) {
    FailAt(key, "\"" + text + "\" is not a decimal uint64");
    return 0;
  }
  return out;
}

double JsonReader::Double(Key key) {
  const JsonValue* value = Read(key, JsonValue::Type::kDouble);
  if (value == nullptr) {
    return 0;
  }
  return value->is_null() ? std::numeric_limits<double>::quiet_NaN() : value->as_double();
}

JsonReader JsonReader::Object(Key key) { return Child(key, JsonValue::Type::kObject); }

JsonReader JsonReader::Array(Key key) { return Child(key, JsonValue::Type::kArray); }

}  // namespace anduril
