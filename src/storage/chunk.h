#ifndef DATABLOCKS_STORAGE_CHUNK_H_
#define DATABLOCKS_STORAGE_CHUNK_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "storage/cell.h"
#include "storage/string_arena.h"
#include "storage/types.h"
#include "storage/value.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"

namespace datablocks {

/// A fixed-capacity, hot (uncompressed, mutable) horizontal partition of a
/// relation, stored column-wise (PAX-style: all attributes of the same rows
/// live in one chunk).
///
/// Chunks are the unit of freezing: a full chunk identified as cold is
/// compressed into an immutable DataBlock (paper Section 1/3). A chunk holds
/// no deletion state: the Table flags deleted rows in its chunk slot's
/// delete bitmap, which the frozen block later shares.
///
/// Each fixed-width column is sized for `capacity` rows up front, and each
/// string column's arena adds segments as its strings arrive, never moving
/// the bytes it holds. Large buffers are page-backed (AlignedBuffer): a
/// chunk holding a few rows keeps only the pages those rows touch resident,
/// and freeing a frozen chunk returns its pages to the OS, so the process's
/// resident set follows MemoryBytes().
class Chunk {
 public:
  Chunk(const Schema* schema, uint32_t capacity);

  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;
  Chunk(Chunk&&) = default;
  Chunk& operator=(Chunk&&) = default;

  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }
  bool full() const { return size_ == capacity_; }
  const Schema& schema() const { return *schema_; }

  /// Appends one row; `row` must have one Cell per schema column, each
  /// fitting its column (Cell::Fits, or NULL in a nullable column —
  /// DB_CHECK). Returns the row index within this chunk.
  uint32_t Append(std::span<const Cell> row);
  uint32_t Append(std::initializer_list<Cell> row) {
    return Append(std::span<const Cell>(row.begin(), row.size()));
  }

  /// Raw fixed-width column data (int32/int64/double/StringRef), padded by
  /// kScanPadding bytes beyond the last row.
  const uint8_t* column_data(uint32_t col) const {
    return cols_[col].fixed.data();
  }
  uint8_t* mutable_column_data(uint32_t col) { return cols_[col].fixed.data(); }

  std::string_view GetString(uint32_t col, uint32_t row) const {
    const StringRef* refs =
        reinterpret_cast<const StringRef*>(cols_[col].fixed.data());
    return cols_[col].arena.Get(refs[row]);
  }

  /// Typed point accessors. GetCell borrows a string from the arena: the
  /// view lives as long as the read section it was taken in. Set checks `v`
  /// as Append does; an in-place string update appends the new bytes to the
  /// arena, and the superseded bytes are reclaimed when the chunk is frozen
  /// (rewritten into the block's dictionary).
  Cell GetCell(uint32_t col, uint32_t row) const;
  Value GetValue(uint32_t col, uint32_t row) const {
    return Value::Of(GetCell(col, row));
  }
  void Set(uint32_t col, uint32_t row, Cell v) {
    DB_DCHECK(row < capacity_);
    if (v.is_null()) return SetNull(col, row);
    const TypeId type = schema_->type(col);
    // Checked in every build: a mismatched kind would store garbage.
    DB_CHECK(v.Fits(type));
    ColumnStore& store = cols_[col];
    if (!store.nulls.empty()) BitmapClear(store.nulls.data(), row);
    uint8_t* data = store.fixed.data();
    switch (type) {
      case TypeId::kInt32:
      case TypeId::kDate:
        reinterpret_cast<int32_t*>(data)[row] = static_cast<int32_t>(v.i64());
        break;
      case TypeId::kChar1:
        reinterpret_cast<uint32_t*>(data)[row] =
            static_cast<uint32_t>(v.i64());
        break;
      case TypeId::kInt64:
        reinterpret_cast<int64_t*>(data)[row] = v.i64();
        break;
      case TypeId::kDouble:
        reinterpret_cast<double*>(data)[row] = v.f64();
        break;
      case TypeId::kString:
        reinterpret_cast<StringRef*>(data)[row] = store.arena.Add(v.str());
        break;
    }
  }

  bool IsNull(uint32_t col, uint32_t row) const {
    const auto& nulls = cols_[col].nulls;
    return !nulls.empty() && BitmapTest(nulls.data(), row);
  }

  /// NULL bitmap for `col`, or nullptr if the column has no NULLs.
  const uint64_t* null_bitmap(uint32_t col) const {
    return cols_[col].nulls.empty() ? nullptr : cols_[col].nulls.data();
  }

  bool has_nulls(uint32_t col) const { return !cols_[col].nulls.empty(); }

  /// Bytes of memory used by this chunk's data (for compression-ratio
  /// reporting, Table 1 / Figure 10).
  uint64_t MemoryBytes() const;

 private:
  struct ColumnStore {
    AlignedBuffer fixed;           // capacity * TypeWidth(type) bytes
    std::vector<uint64_t> nulls;   // lazily allocated bitmap
    StringArena arena;             // only used for kString columns
  };

  void EnsureNullBitmap(uint32_t col);
  /// Set of a NULL: only in a nullable column (DB_CHECK).
  void SetNull(uint32_t col, uint32_t row);

  const Schema* schema_;
  uint32_t capacity_;
  uint32_t size_ = 0;
  std::vector<ColumnStore> cols_;
};

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_CHUNK_H_
