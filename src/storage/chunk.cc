#include "storage/chunk.h"

#include <cstring>

namespace datablocks {

Chunk::Chunk(const Schema* schema, uint32_t capacity)
    : schema_(schema), capacity_(capacity) {
  cols_.resize(schema->num_columns());
  for (uint32_t c = 0; c < schema->num_columns(); ++c) {
    cols_[c].fixed.Allocate(uint64_t(capacity) * TypeWidth(schema->type(c)));
  }
}

void Chunk::EnsureNullBitmap(uint32_t col) {
  if (cols_[col].nulls.empty()) {
    cols_[col].nulls.assign(BitmapWords(capacity_), 0);
  }
}

uint32_t Chunk::Append(std::span<const Cell> row) {
  DB_CHECK(!full());
  DB_CHECK(row.size() == schema_->num_columns());
  const uint32_t r = size_;
  for (uint32_t c = 0; c < row.size(); ++c) Set(c, r, row[c]);
  ++size_;
  return r;
}

Cell Chunk::GetCell(uint32_t col, uint32_t row) const {
  DB_DCHECK(row < size_);
  if (IsNull(col, row)) return Cell::Null();
  const uint8_t* data = cols_[col].fixed.data();
  switch (schema_->type(col)) {
    case TypeId::kInt32:
    case TypeId::kDate:
      return Cell::Int(reinterpret_cast<const int32_t*>(data)[row]);
    case TypeId::kChar1:
      return Cell::Int(reinterpret_cast<const uint32_t*>(data)[row]);
    case TypeId::kInt64:
      return Cell::Int(reinterpret_cast<const int64_t*>(data)[row]);
    case TypeId::kDouble:
      return Cell::Double(reinterpret_cast<const double*>(data)[row]);
    case TypeId::kString:
      return Cell::Str(GetString(col, row));
  }
  return Cell::Null();
}

void Chunk::SetNull(uint32_t col, uint32_t row) {
  DB_CHECK(schema_->column(col).nullable);
  EnsureNullBitmap(col);
  BitmapSet(cols_[col].nulls.data(), row);
  // Store a deterministic zero payload under the NULL.
  const uint32_t width = TypeWidth(schema_->type(col));
  std::memset(cols_[col].fixed.data() + uint64_t(row) * width, 0, width);
}

uint64_t Chunk::MemoryBytes() const {
  uint64_t total = 0;
  for (uint32_t c = 0; c < schema_->num_columns(); ++c) {
    total += uint64_t(size_) * TypeWidth(schema_->type(c));
    total += cols_[c].arena.size_bytes();
    total += cols_[c].nulls.size() * 8;
  }
  return total;
}

}  // namespace datablocks
