// Shared JSON emitter for bench artifacts (BENCH_*.json).
//
// Every bench used to hand-roll its JSON with snprintf, which drifted: no
// two artifacts agreed on host metadata, flag echoing, or number formatting.
// This header gives them one insertion-ordered JSON tree with a common
// envelope:
//
//   JsonValue doc = BenchDoc("serve_chaos");          // bench/schema/host info
//   doc.Obj("flags").Set("requests", 512).Set("batch", 32);
//   doc.Obj("seeds").Set("fault", int64_t{0xc4a05});
//   JsonValue& rows = doc.Arr("results");
//   rows.Push(JsonValue::Object()
//                 .Set("batch", 32)
//                 .Set("wall_ms", JsonValue::Fixed(wall_ms, 3)));
//   WriteBenchFile(path, doc);
//
// Keys keep insertion order (artifacts stay diffable run-to-run), doubles
// default to %.6g with Fixed(v, decimals) for column-stable formatting, and
// non-finite doubles serialize as null so artifacts stay parseable JSON.
// Header-only; bench binaries only.
#ifndef DEEPMAP_BENCH_BENCH_JSON_H_
#define DEEPMAP_BENCH_BENCH_JSON_H_

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace deepmap::bench {

/// One node of an insertion-ordered JSON document.
class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}              // NOLINT
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}                 // NOLINT
  JsonValue(int64_t v) : kind_(Kind::kInt), int_(v) {}             // NOLINT
  JsonValue(size_t v)                                              // NOLINT
      : kind_(Kind::kInt), int_(static_cast<int64_t>(v)) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}        // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}   // NOLINT
  JsonValue(std::string s)                                         // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}

  /// Double rendered with a fixed number of decimals ("%.3f" style) instead
  /// of the default %.6g — keeps artifact columns stable across runs.
  static JsonValue Fixed(double v, int decimals) {
    JsonValue j(v);
    j.decimals_ = decimals;
    return j;
  }
  static JsonValue Object() {
    JsonValue j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static JsonValue Array() {
    JsonValue j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Sets `key` in this object (appending; duplicate keys are a caller
  /// bug). Returns *this so scalar rows chain fluently.
  JsonValue& Set(const std::string& key, JsonValue value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  /// Child object under `key`, created on first use. Returned reference is
  /// stable until the next Set/Obj/Arr on this node.
  JsonValue& Obj(const std::string& key) { return Child(key, Kind::kObject); }
  /// Child array under `key`, created on first use.
  JsonValue& Arr(const std::string& key) { return Child(key, Kind::kArray); }
  /// Appends to this array; returns the stored element.
  JsonValue& Push(JsonValue value) {
    elements_.push_back(std::move(value));
    return elements_.back();
  }

  bool empty() const { return members_.empty() && elements_.empty(); }

  void Write(std::ostream& os, int indent = 0) const {
    switch (kind_) {
      case Kind::kNull:
        os << "null";
        return;
      case Kind::kBool:
        os << (bool_ ? "true" : "false");
        return;
      case Kind::kInt:
        os << int_;
        return;
      case Kind::kDouble: {
        if (!std::isfinite(double_)) {
          os << "null";  // NaN/Inf are not JSON
          return;
        }
        char buf[64];
        if (decimals_ >= 0) {
          std::snprintf(buf, sizeof(buf), "%.*f", decimals_, double_);
        } else {
          std::snprintf(buf, sizeof(buf), "%.6g", double_);
        }
        os << buf;
        return;
      }
      case Kind::kString:
        WriteEscaped(os, string_);
        return;
      case Kind::kObject: {
        if (members_.empty()) {
          os << "{}";
          return;
        }
        os << "{\n";
        for (size_t i = 0; i < members_.size(); ++i) {
          Indent(os, indent + 1);
          WriteEscaped(os, members_[i].first);
          os << ": ";
          members_[i].second.Write(os, indent + 1);
          os << (i + 1 < members_.size() ? ",\n" : "\n");
        }
        Indent(os, indent);
        os << "}";
        return;
      }
      case Kind::kArray: {
        if (elements_.empty()) {
          os << "[]";
          return;
        }
        os << "[\n";
        for (size_t i = 0; i < elements_.size(); ++i) {
          Indent(os, indent + 1);
          elements_[i].Write(os, indent + 1);
          os << (i + 1 < elements_.size() ? ",\n" : "\n");
        }
        Indent(os, indent);
        os << "]";
        return;
      }
    }
  }

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kObject, kArray };

  JsonValue& Child(const std::string& key, Kind kind) {
    for (auto& [k, v] : members_) {
      if (k == key) return v;
    }
    JsonValue child;
    child.kind_ = kind;
    members_.emplace_back(key, std::move(child));
    return members_.back().second;
  }

  static void Indent(std::ostream& os, int depth) {
    for (int i = 0; i < depth; ++i) os << "  ";
  }

  static void WriteEscaped(std::ostream& os, const std::string& s) {
    os << '"';
    for (char c : s) {
      switch (c) {
        case '"':
          os << "\\\"";
          break;
        case '\\':
          os << "\\\\";
          break;
        case '\n':
          os << "\\n";
          break;
        case '\t':
          os << "\\t";
          break;
        case '\r':
          os << "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            os << buf;
          } else {
            os << c;
          }
      }
    }
    os << '"';
  }

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  int decimals_ = -1;
  std::string string_;
  std::vector<std::pair<std::string, JsonValue>> members_;  // object
  std::vector<JsonValue> elements_;                         // array
};

inline std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Root document with the common envelope every bench artifact carries:
/// bench name, schema version, and host info (hostname, core count,
/// compiler). Benches add "flags"/"seeds" objects and their result sections.
inline JsonValue BenchDoc(const std::string& bench_name) {
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", bench_name);
  doc.Set("schema_version", 1);
  JsonValue& host = doc.Obj("host");
  char hostname[256] = {0};
  if (gethostname(hostname, sizeof(hostname) - 1) != 0) hostname[0] = '\0';
  host.Set("hostname", hostname);
  host.Set("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  host.Set("compiler", CompilerString());
  return doc;
}

/// Writes `doc` to `path` (trailing newline included). Returns false and
/// logs to stderr when the file cannot be written.
inline bool WriteBenchFile(const std::string& path, const JsonValue& doc) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  doc.Write(out, 0);
  out << "\n";
  out.close();
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace deepmap::bench

#endif  // DEEPMAP_BENCH_BENCH_JSON_H_
