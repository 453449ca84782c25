// Answer digests and comparison (the correctness oracle's half that does not
// run queries), plus the parser for the server's JSON row lines.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "bench.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t CellHash(const Cell& c) {
  switch (c.kind) {
    case Cell::kNull: return Mix(0x6e756c6c);
    case Cell::kInt: return Mix(static_cast<uint64_t>(c.i) ^ 0x1);
    case Cell::kReal: {
      uint64_t bits;
      std::memcpy(&bits, &c.d, sizeof(bits));
      return Mix(bits ^ 0x2);
    }
    case Cell::kText: return HashBytes(c.s, 0x3);
  }
  return 0;
}

bool Numeric(const Cell& c) { return c.kind == Cell::kInt || c.kind == Cell::kReal; }
double AsDouble(const Cell& c) {
  return c.kind == Cell::kInt ? static_cast<double>(c.i) : c.d;
}

/// Total order used to canonicalize unordered answers.
int CompareCells(const Cell& a, const Cell& b) {
  const int ka = Numeric(a) ? 1 : a.kind;
  const int kb = Numeric(b) ? 1 : b.kind;
  if (ka != kb) return ka < kb ? -1 : 1;
  if (Numeric(a)) {
    const double x = AsDouble(a), y = AsDouble(b);
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  if (a.kind == Cell::kText) return a.s.compare(b.s);
  return 0;
}

bool RowLess(const CellRow& a, const CellRow& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const int c = CompareCells(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool CellsMatch(const Cell& a, const Cell& b) {
  if (Numeric(a) && Numeric(b)) {
    if (a.kind == Cell::kInt && b.kind == Cell::kInt) return a.i == b.i;
    const double x = AsDouble(a), y = AsDouble(b);
    return std::fabs(x - y) <= 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  if (a.kind != b.kind) return false;
  return a.kind != Cell::kText || a.s == b.s;
}

std::string Render(const CellRow& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    switch (row[i].kind) {
      case Cell::kNull: out += "NULL"; break;
      case Cell::kInt: out += std::to_string(row[i].i); break;
      case Cell::kReal: out += std::to_string(row[i].d); break;
      case Cell::kText: out += "'" + row[i].s + "'"; break;
    }
  }
  return out + ")";
}

// Minimal JSON reader for `{"rows":[[v, ...], ...]}` lines.
class RowsReader {
 public:
  RowsReader(const char* p, const char* end) : p_(p), end_(end) {}

  bool Rows(AnswerCollector* collector) {
    if (!Literal("{\"rows\":[")) return false;
    if (Peek() == ']') {
      ++p_;
      return Literal("}");
    }
    while (true) {
      CellRow row;
      if (!Row(&row)) return false;
      collector->Add(std::move(row));
      if (Peek() == ',') {
        ++p_;
        continue;
      }
      return Literal("]}");
    }
  }

 private:
  char Peek() const { return p_ < end_ ? *p_ : '\0'; }

  bool Literal(const char* text) {
    const size_t n = std::strlen(text);
    if (static_cast<size_t>(end_ - p_) < n || std::memcmp(p_, text, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }

  bool Row(CellRow* row) {
    if (!Literal("[")) return false;
    if (Peek() == ']') {
      ++p_;
      return true;
    }
    while (true) {
      Cell cell;
      if (!Scalar(&cell)) return false;
      row->push_back(std::move(cell));
      if (Peek() == ',') {
        ++p_;
        continue;
      }
      return Literal("]");
    }
  }

  bool Scalar(Cell* cell) {
    const char c = Peek();
    if (c == 'n') return Literal("null");
    if (c == 't' || c == 'f') {
      const bool value = c == 't';
      if (!Literal(value ? "true" : "false")) return false;
      cell->kind = Cell::kInt;
      cell->i = value ? 1 : 0;
      return true;
    }
    if (c == '"') return String(cell);
    const char* start = p_;
    bool integral = true;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         std::strchr("+-.eE", *p_) != nullptr)) {
      if (std::strchr(".eE", *p_) != nullptr) integral = false;
      ++p_;
    }
    if (p_ == start) return false;
    const std::string text(start, p_);
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(text.c_str(), nullptr, 10);
      if (errno == 0) {
        cell->kind = Cell::kInt;
        cell->i = v;
        return true;
      }
    }
    *cell = Cell::FromDouble(std::strtod(text.c_str(), nullptr));
    return true;
  }

  bool String(Cell* cell) {
    ++p_;  // opening quote
    cell->kind = Cell::kText;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ != '\\') {
        cell->s.push_back(*p_++);
        continue;
      }
      if (++p_ >= end_) return false;
      const char e = *p_++;
      switch (e) {
        case 'b': cell->s.push_back('\b'); break;
        case 'f': cell->s.push_back('\f'); break;
        case 'n': cell->s.push_back('\n'); break;
        case 'r': cell->s.push_back('\r'); break;
        case 't': cell->s.push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return false;
          const unsigned code = std::strtoul(std::string(p_, 4).c_str(), nullptr, 16);
          p_ += 4;
          if (code < 0x80) {
            cell->s.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            cell->s.push_back(static_cast<char>(0xC0 | (code >> 6)));
            cell->s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            cell->s.push_back(static_cast<char>(0xE0 | (code >> 12)));
            cell->s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            cell->s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: cell->s.push_back(e); break;  // \" \\ \/
      }
    }
    return Literal("\"");
  }

  const char* p_;
  const char* end_;
};

}  // namespace

uint64_t HashBytes(const std::string& data, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Cell Cell::FromDouble(double d) {
  Cell c;
  if (!std::isfinite(d)) return c;  // the server renders non-finite as null
  if (d == std::trunc(d) && std::fabs(d) < 9007199254740992.0) {
    c.kind = kInt;
    c.i = static_cast<int64_t>(d);
  } else {
    c.kind = kReal;
    c.d = d;
  }
  return c;
}

Cell Cell::FromValue(const nodb::Value& v) {
  Cell c;
  if (v.is_null()) return c;
  switch (v.type()) {
    case nodb::TypeId::kInt64:
    case nodb::TypeId::kBool:
      c.kind = kInt;
      c.i = v.int64();
      return c;
    case nodb::TypeId::kDouble:
      return FromDouble(v.f64());
    default:
      c.kind = kText;
      c.s = v.type() == nodb::TypeId::kString ? v.str() : v.ToString();
      return c;
  }
}

void AnswerCollector::Add(CellRow row) {
  uint64_t h = Mix(row.size());
  for (const Cell& c : row) h = Mix(h * 31 + CellHash(c));
  answer_.digest = answer_.ordered ? Mix(answer_.digest * 1099511628211ULL + h)
                                   : answer_.digest + h;
  ++answer_.rows;
  if (answer_.rows <= Answer::kKeepRows) {
    answer_.kept.push_back(std::move(row));
  } else if (!answer_.kept.empty()) {
    answer_.kept.clear();
    answer_.kept.shrink_to_fit();
  }
}

void AnswerCollector::AddBatch(const nodb::RowBatch& batch, size_t n) {
  for (size_t r = 0; r < n; ++r) {
    const nodb::Row& row = batch[r];
    CellRow cells;
    cells.reserve(row.size());
    for (const nodb::Value& v : row) cells.push_back(Cell::FromValue(v));
    Add(std::move(cells));
  }
}

Answer AnswerCollector::Finish() {
  if (!answer_.ordered) {
    std::sort(answer_.kept.begin(), answer_.kept.end(), RowLess);
  }
  return std::move(answer_);
}

bool Matches(const Answer& got, const Answer& want, std::string* why) {
  if (got.rows != want.rows) {
    *why = "row count " + std::to_string(got.rows) + ", expected " +
           std::to_string(want.rows);
    return false;
  }
  if (got.rows > Answer::kKeepRows) {
    if (got.digest == want.digest) return true;
    *why = "digest differs over " + std::to_string(got.rows) + " rows";
    return false;
  }
  for (size_t r = 0; r < got.kept.size(); ++r) {
    const CellRow& a = got.kept[r];
    const CellRow& b = want.kept[r];
    bool same = a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); ++i) same = CellsMatch(a[i], b[i]);
    if (!same) {
      *why = "row " + std::to_string(r) + " is " + Render(a) + ", expected " +
             Render(b);
      return false;
    }
  }
  return true;
}

bool HasOrderBy(const std::string& sql) {
  std::string upper(sql);
  std::transform(upper.begin(), upper.end(), upper.begin(), ::toupper);
  return upper.find("ORDER BY") != std::string::npos;
}

bool ParseResponseRows(const std::string& body, AnswerCollector* collector) {
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) nl = body.size();
    if (body.compare(pos, 8, "{\"rows\":") == 0) {
      RowsReader reader(body.data() + pos, body.data() + nl);
      if (!reader.Rows(collector)) return false;
    } else if (body.compare(pos, 10, "{\"schema\":") != 0) {
      return false;
    }
    pos = nl + 1;
  }
  return true;
}

}  // namespace perfbench
