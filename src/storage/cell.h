#ifndef DATABLOCKS_STORAGE_CELL_H_
#define DATABLOCKS_STORAGE_CELL_H_

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "storage/types.h"

namespace datablocks {

/// One attribute of a row being written: NULL, an integer (for every
/// integer-like column type: int32, int64, date and char(1)), a double, or
/// a string the cell *borrows* — the bytes stay the caller's and must
/// outlive the write. Trivially copyable and 16 bytes, so a row of cells is
/// a plain array, built and passed without allocating. This is the write
/// path's type: Chunk::Append, Table::Insert and the in-place updates take
/// cells, and each write checks every cell's kind against its column type
/// (DB_CHECK, in every build). Value, which owns its string, is for results
/// and predicate constants; Value::cell() converts one.
class Cell {
 public:
  enum class Kind : uint8_t { kNull, kInt, kDouble, kString };

  Cell() = default;

  static Cell Null() { return Cell(); }

  static Cell Int(int64_t v) {
    Cell c;
    c.kind_ = Kind::kInt;
    c.i_ = v;
    return c;
  }

  static Cell Double(double v) {
    Cell c;
    c.kind_ = Kind::kDouble;
    c.d_ = v;
    return c;
  }

  /// Borrows `s`: the write copies the bytes, but they must be alive then.
  static Cell Str(std::string_view s) {
    DB_CHECK(s.size() <= UINT32_MAX);
    Cell c;
    c.kind_ = Kind::kString;
    c.len_ = uint32_t(s.size());
    c.s_ = s.data();
    return c;
  }

  /// char(1) helper: the character's integer code point.
  static Cell Char(char ch) { return Int(static_cast<unsigned char>(ch)); }

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

  std::string_view str() const {
    DB_DCHECK(kind_ == Kind::kString);
    return std::string_view(s_, len_);
  }

  /// Whether a non-NULL cell of this kind may be stored in a column of
  /// `type` (NULLs depend on the column's nullability instead).
  bool Fits(TypeId type) const {
    switch (type) {
      case TypeId::kInt32:
      case TypeId::kInt64:
      case TypeId::kDate:
      case TypeId::kChar1:
        return kind_ == Kind::kInt;
      case TypeId::kDouble:
        return kind_ == Kind::kDouble;
      case TypeId::kString:
        return kind_ == Kind::kString;
    }
    return false;
  }

 private:
  Kind kind_ = Kind::kNull;
  uint32_t len_ = 0;  // kString
  union {
    int64_t i_ = 0;
    double d_;
    const char* s_;
  };
};
static_assert(sizeof(Cell) == 16 && std::is_trivially_copyable_v<Cell>);

/// One attribute of an in-place update or UpdateRow: column and new cell.
struct CellUpdate {
  uint32_t col;
  Cell cell;
};

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_CELL_H_
