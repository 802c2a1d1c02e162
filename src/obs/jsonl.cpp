#include "obs/jsonl.hpp"

#include <fstream>

namespace rc::obs::jsonl {

namespace {

constexpr std::string_view kBlank = " \t\r\n";
constexpr std::string_view kEscapes = "\"\\/bfnrt";  // after a backslash,
constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";  // stands for this

void appendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') out += '\\';
    if (u >= 0x20) {
      out += c;
    } else {
      out += "\\u00";
      out += "0123456789abcdef"[u >> 4];
      out += "0123456789abcdef"[u & 0xF];
    }
  }
}

/// Reads the JSON string whose opening quote is at s[i] into `out`,
/// unescaped, and leaves `i` just past the closing quote.
bool readString(std::string_view s, std::size_t& i, std::string* out) {
  if (i >= s.size() || s[i] != '"') return false;
  out->clear();
  while (++i < s.size() && s[i] != '"') {
    if (s[i] != '\\') {
      *out += s[i];
      continue;
    }
    if (++i == s.size()) return false;
    const auto at = kEscapes.find(s[i]);
    unsigned cp = 0;
    const char* hex = s.data() + i + 1;
    if (at != kEscapes.npos) {
      *out += kDecoded[at];
    } else if (s[i] != 'u' || i + 5 > s.size() ||
               std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
      return false;
    } else {  // UTF-8 encoding of the \uXXXX code unit
      if (cp >= 0x800) *out += static_cast<char>(0xE0 | cp >> 12);
      if (cp >= 0x800) *out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
      if (cp >= 0x80 && cp < 0x800) *out += static_cast<char>(0xC0 | cp >> 6);
      *out += static_cast<char>(cp < 0x80 ? cp : 0x80 | (cp & 0x3F));
      i += 4;
    }
  }
  return i++ < s.size();
}

}  // namespace

// ------------------------------------------------------------- LineWriter

LineWriter& LineWriter::begin(std::string_view type) {
  line_.assign("{");
  return str("type", type);
}

LineWriter& LineWriter::put(std::string_view k, char* end) {
  if (line_.size() > 1) line_ += ',';
  line_ += '"';
  appendEscaped(line_, k);
  line_ += "\":";
  line_.append(buf_, end);
  return *this;
}

LineWriter& LineWriter::str(std::string_view k, std::string_view v) {
  put(k, buf_);  // the key alone
  line_ += '"';
  appendEscaped(line_, v);
  line_ += '"';
  return *this;
}

void LineWriter::end() {
  line_ += "}\n";
  os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

// ----------------------------------------------------------------- Record

bool Record::parse(std::string_view line) {
  used_ = 0;
  type_.clear();
  std::size_t i = 0;
  auto peek = [&] {  // skips blanks; '\0' at the end of the line
    while (i < line.size() && kBlank.find(line[i]) != kBlank.npos) ++i;
    return i < line.size() ? line[i] : '\0';
  };
  auto eat = [&](char c) { return peek() == c && ++i; };
  bool ok = eat('{');
  bool closed = ok && eat('}');
  while (ok && !closed) {
    if (used_ == fields_.size()) fields_.emplace_back();
    Field& f = fields_[used_++];
    ok = peek() == '"' && readString(line, i, &f.key) && eat(':');
    f.isString = peek() == '"';
    if (ok && f.isString) {
      ok = readString(line, i, &f.text);
    } else if (ok) {
      const auto r = std::from_chars(line.data() + i,
                                     line.data() + line.size(), f.number);
      ok = r.ec == std::errc();
      i = static_cast<std::size_t>(r.ptr - line.data());
    }
    closed = ok && eat('}');
    ok = ok && (closed || eat(','));
  }
  peek();  // trailing blanks
  const Field* type = find("type", true);
  if (ok && i == line.size() && type != nullptr) {
    type_ = type->text;
    return true;
  }
  used_ = 0;
  return false;
}

const Record::Field* Record::find(std::string_view key, bool isString) const {
  for (std::size_t i = 0; i < used_; ++i) {
    if (fields_[i].key == key) {
      return fields_[i].isString == isString ? &fields_[i] : nullptr;
    }
  }
  return nullptr;
}

std::optional<std::size_t> readFile(
    const std::string& path, const std::function<void(const Record&)>& fn) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::size_t malformed = 0;
  Record rec;
  for (std::string line; std::getline(is, line);) {
    if (line.find_first_not_of(kBlank) == std::string::npos) continue;
    if (rec.parse(line)) {
      fn(rec);
    } else {
      ++malformed;
    }
  }
  return malformed;
}

}  // namespace rc::obs::jsonl
