#ifndef DATABLOCKS_STORAGE_VALUE_H_
#define DATABLOCKS_STORAGE_VALUE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/cell.h"
#include "storage/types.h"

namespace datablocks {

/// A dynamically typed value that owns its string, for where ownership is
/// needed: point access results (GetValue) and predicate constants. Scans
/// never materialize Values, and writes take Cells, which borrow: a caller
/// holding Values writes them through cell() or CellsOf().
class Value {
 public:
  using Kind = Cell::Kind;

  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }

  static Value Int(int64_t v) {
    Value x;
    x.kind_ = Kind::kInt;
    x.i_ = v;
    return x;
  }

  static Value Double(double v) {
    Value x;
    x.kind_ = Kind::kDouble;
    x.d_ = v;
    return x;
  }

  static Value Str(std::string v) {
    Value x;
    x.kind_ = Kind::kString;
    x.s_ = std::move(v);
    return x;
  }

  /// char(1) helper: stores the character as its integer code point.
  static Value Char(char c) { return Int(static_cast<unsigned char>(c)); }

  /// Copies `c`, and its string if it has one.
  static Value Of(Cell c) {
    switch (c.kind()) {
      case Kind::kNull: return Null();
      case Kind::kInt: return Int(c.i64());
      case Kind::kDouble: return Double(c.f64());
      case Kind::kString: return Str(std::string(c.str()));
    }
    return Null();
  }

  /// This value as a cell to write; a string cell borrows this Value's
  /// string, so the Value must outlive the write.
  Cell cell() const {
    switch (kind_) {
      case Kind::kNull: return Cell::Null();
      case Kind::kInt: return Cell::Int(i_);
      case Kind::kDouble: return Cell::Double(d_);
      case Kind::kString: return Cell::Str(s_);
    }
    return Cell::Null();
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  int64_t i64() const {
    DB_DCHECK(kind_ == Kind::kInt);
    return i_;
  }

  double f64() const {
    DB_DCHECK(kind_ == Kind::kDouble);
    return d_;
  }

  const std::string& str() const {
    DB_DCHECK(kind_ == Kind::kString);
    return s_;
  }

  /// Three-way comparison within the same kind; NULLs sort first.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }

  /// Human-readable rendering for examples / debugging.
  std::string ToString() const;

 private:
  Kind kind_;
  int64_t i_ = 0;
  double d_ = 0;
  std::string s_;
};

/// A row of Values as cells (Value::cell() of each), borrowing their
/// strings.
inline std::vector<Cell> CellsOf(std::span<const Value> row) {
  std::vector<Cell> cells;
  cells.reserve(row.size());
  for (const Value& v : row) cells.push_back(v.cell());
  return cells;
}

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_VALUE_H_
