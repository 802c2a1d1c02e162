#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

/// The one codec for run exports (metrics, events, slo, flight and energy
/// .jsonl; docs/METRICS.md "Export format"): every line is one flat JSON
/// object whose first field is a string "type" and whose other values are
/// strings or numbers. In keys and strings, `"` and `\` are
/// backslash-escaped and control characters become \u00XX; every other
/// byte (UTF-8 included) is copied unchanged.
namespace rc::obs::jsonl {

/// Builds one line at a time in a reused buffer and writes each finished
/// line to the stream, so a writer allocates nothing per field and a line
/// has no length cap:
///
///   jsonl::LineWriter w(os);
///   w.begin("span").u64("id", 7).str("name", n).fixed("t0", t, 9).end();
class LineWriter {
 public:
  explicit LineWriter(std::ostream& os) : os_(os) {}

  /// Starts a line: `{"type":"<type>"`.
  LineWriter& begin(std::string_view type);
  LineWriter& str(std::string_view key, std::string_view v);
  /// ostream-default formatting (printf "%g").
  LineWriter& num(std::string_view key, double v) {
    return put(key, std::to_chars(buf_, buf_ + sizeof buf_, v,
                                  std::chars_format::general, 6).ptr);
  }
  /// printf "%.<digits>f", digits <= 9.
  LineWriter& fixed(std::string_view key, double v, int digits) {
    return put(key, std::to_chars(buf_, buf_ + sizeof buf_, v,
                                  std::chars_format::fixed, digits).ptr);
  }
  LineWriter& u64(std::string_view key, std::uint64_t v) {
    return put(key, std::to_chars(buf_, buf_ + sizeof buf_, v).ptr);
  }
  LineWriter& i64(std::string_view key, std::int64_t v) {
    return put(key, std::to_chars(buf_, buf_ + sizeof buf_, v).ptr);
  }
  /// Closes the object and writes the line (with its '\n') to the stream.
  void end();

 private:
  /// Appends `"key":` (after a comma unless it is the first key), then
  /// the number text the caller left in buf_[0, end).
  LineWriter& put(std::string_view k, char* end);

  std::ostream& os_;
  std::string line_;
  char buf_[352];  ///< number text; fits printf "%.9f" of any double
};

/// One parsed line. Keys match only at key positions and string values
/// are unescaped. A missing key (or one holding the other kind of value)
/// reads as the caller's default; keys nobody asks for are ignored.
class Record {
 public:
  /// False, and no fields, unless `line` is one complete flat object with
  /// a string "type" field.
  bool parse(std::string_view line);

  const std::string& type() const { return type_; }
  std::string str(std::string_view key, std::string_view dflt = {}) const {
    const Field* f = find(key, true);
    return std::string(f != nullptr ? f->text : dflt);
  }
  /// The number static_cast to T (bool: non-zero). A number outside an
  /// integer T's range also reads as `dflt`: casting it is undefined.
  template <class T = double>
  T num(std::string_view key, T dflt = T{}) const {
    const Field* f = find(key, false);
    if (f == nullptr) return dflt;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      using Limits = std::numeric_limits<T>;
      const double end = 2.0 * static_cast<double>(Limits::max() / 2 + 1);
      if (!(f->number >= Limits::min() && f->number < end)) return dflt;
    }
    return static_cast<T>(f->number);
  }

 private:
  struct Field {
    std::string key;
    std::string text;  ///< unescaped string value
    bool isString = false;
    double number = 0;
  };
  const Field* find(std::string_view key, bool isString) const;

  std::vector<Field> fields_;  ///< reused across lines; [0, used_) live
  std::size_t used_ = 0;
  std::string type_;
};

/// Parses `path` line by line and calls `fn` on each well-formed record.
/// Blank lines are skipped; malformed ones are counted, never passed on.
/// Returns that count, or nullopt if the file cannot be opened.
std::optional<std::size_t> readFile(
    const std::string& path, const std::function<void(const Record&)>& fn);

}  // namespace rc::obs::jsonl
