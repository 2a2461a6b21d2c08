#ifndef DATABLOCKS_EXEC_BATCH_H_
#define DATABLOCKS_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <vector>

#include "datablock/data_block.h"
#include "storage/types.h"

namespace datablocks {

/// std::allocator whose value-less construct default-initializes, so
/// resize() leaves new trivially constructible slots unwritten instead of
/// zeroing them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  // Value-carrying construction falls through to std::construct_at.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A vector whose resize() leaves the new slots unspecified.
template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

/// A typed output vector of a scan. Matching tuples are unpacked /
/// copied into ColumnVectors ("temporary storage", Section 4.1) before being
/// consumed tuple-at-a-time by the query pipeline.
///
/// Physical mapping: kInt32/kDate/kChar1 -> i32, kInt64 -> i64,
/// kDouble -> f64, kString -> str (views into block dictionaries, chunk
/// arenas or scan images; a view lives as long as the read section it was
/// taken in, see below).
///
/// String columns produced from frozen Data Blocks can alternatively be
/// *code-carrying*: `codes` holds the dictionary codes of the matching rows
/// and `dict_block`/`dict_col` identify the block dictionary that decodes
/// them. The strings are materialized lazily through Str(), only for rows the
/// consumer actually touches. The scanner keeps the producing chunk's read
/// section open for as long as the batch is live (until the next
/// Next()/Reset/destruction), so both the code vector's dictionary handle
/// and any materialized views stay valid for the batch's lifetime.
///
/// Resizing i32, i64, f64 or codes leaves the new slots unspecified (no
/// zero-fill): every writer fills all the slots it adds.
struct ColumnVector {
  TypeId type = TypeId::kInt64;
  UninitVector<int32_t> i32;
  UninitVector<int64_t> i64;
  UninitVector<double> f64;
  std::vector<std::string_view> str;
  /// Code-carrying form of a string column: dictionary codes plus the block
  /// whose order-preserving dictionary decodes them. Null when the column is
  /// materialized (`str`).
  UninitVector<uint32_t> codes;
  const DataBlock* dict_block = nullptr;
  uint32_t dict_col = 0;
  /// Parallel validity flags (1 = NULL). Empty when the source column is not
  /// nullable.
  std::vector<uint8_t> null_mask;

  void Init(TypeId t) {
    type = t;
    Clear();
  }

  void Clear() {
    i32.clear();
    i64.clear();
    f64.clear();
    str.clear();
    codes.clear();
    dict_block = nullptr;
    dict_col = 0;
    null_mask.clear();
  }

  uint32_t size() const;

  bool IsNull(uint32_t i) const {
    return !null_mask.empty() && null_mask[i] != 0;
  }

  /// Whether this string column carries dictionary codes instead of
  /// materialized views.
  bool coded() const { return dict_block != nullptr; }

  /// The unified string accessor: decodes on demand for code-carrying
  /// columns (mirroring what eager unpacking would have produced — NULL rows
  /// decode to dictionary entry 0, exactly like the materialized path; check
  /// IsNull before trusting the payload), returns the materialized view
  /// otherwise.
  std::string_view Str(uint32_t i) const {
    return dict_block != nullptr ? dict_block->dict_string(dict_col, codes[i])
                                 : str[i];
  }

  /// Number of distinct values Str() can take in this batch, or 0 when the
  /// column is not code-carrying. Per-code memoization (see DictMemo) is
  /// valid for this batch only: a scanner refills one image with each
  /// evicted chunk it reads, so the same dict_block can carry another
  /// dictionary in the next batch.
  uint32_t dict_size() const {
    return dict_block != nullptr ? dict_block->attr(dict_col).dict_count : 0;
  }

  /// Drops all rows except those listed in keep[0..n) (ascending).
  void Compact(const uint32_t* keep, uint32_t n);
};

/// A batch of up to vector-size matching tuples produced by one scan step.
/// cols is parallel to the scan's required-column list.
struct Batch {
  uint32_t count = 0;
  std::vector<ColumnVector> cols;

  void Reset(const Schema& schema, const std::vector<uint32_t>& columns) {
    cols.resize(columns.size());
    for (size_t i = 0; i < columns.size(); ++i)
      cols[i].Init(schema.type(columns[i]));
    count = 0;
  }

  void Clear() {
    for (auto& c : cols) c.Clear();
    count = 0;
  }

  /// Whether any column is code-carrying (compressed through the pipeline)
  /// — the "code batch" classification of the execution profiles.
  bool AnyCoded() const {
    for (const auto& c : cols) {
      if (c.coded()) return true;
    }
    return false;
  }
};

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_BATCH_H_
