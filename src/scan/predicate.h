#ifndef DATABLOCKS_SCAN_PREDICATE_H_
#define DATABLOCKS_SCAN_PREDICATE_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/value.h"

namespace datablocks {

/// SARGable comparison operators (paper Section 3: "=, is, <, <=, >, >=,
/// between"). `is [not] null` is the paper's "is". kIn and kPrefix extend the
/// paper's set with two restrictions that stay SARGable on compressed blocks:
/// an IN list translates to a set of dictionary codes (or a code range when
/// the matching codes are contiguous), which the equal-any SIMD kernels
/// evaluate, and a prefix restriction (LIKE 'x%') translates to a code range
/// because the string dictionaries are order-preserving.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBetween,  // inclusive on both ends, SQL semantics
  kIn,       // membership in `list`
  kPrefix,   // string starts with `lo` (strings only)
  kIsNull,
  kIsNotNull,
};

/// A SARGable restriction on a single column. Conjunctions of Predicates are
/// pushed into scans; everything else is evaluated in the consuming pipeline.
struct Predicate {
  uint32_t col = 0;
  CompareOp op = CompareOp::kEq;
  Value lo;  // comparison constant (lower bound for kBetween)
  Value hi;  // upper bound for kBetween only
  std::vector<Value> list;  // membership constants for kIn only

  static Predicate Eq(uint32_t col, Value v) {
    return {col, CompareOp::kEq, std::move(v), Value(), {}};
  }
  static Predicate Ne(uint32_t col, Value v) {
    return {col, CompareOp::kNe, std::move(v), Value(), {}};
  }
  static Predicate Lt(uint32_t col, Value v) {
    return {col, CompareOp::kLt, std::move(v), Value(), {}};
  }
  static Predicate Le(uint32_t col, Value v) {
    return {col, CompareOp::kLe, std::move(v), Value(), {}};
  }
  static Predicate Gt(uint32_t col, Value v) {
    return {col, CompareOp::kGt, std::move(v), Value(), {}};
  }
  static Predicate Ge(uint32_t col, Value v) {
    return {col, CompareOp::kGe, std::move(v), Value(), {}};
  }
  static Predicate Between(uint32_t col, Value lo, Value hi) {
    return {col, CompareOp::kBetween, std::move(lo), std::move(hi), {}};
  }
  static Predicate In(uint32_t col, std::vector<Value> values) {
    Predicate p;
    p.col = col;
    p.op = CompareOp::kIn;
    p.list = std::move(values);
    return p;
  }
  static Predicate Prefix(uint32_t col, Value v) {
    return {col, CompareOp::kPrefix, std::move(v), Value(), {}};
  }
  static Predicate IsNull(uint32_t col) {
    return {col, CompareOp::kIsNull, Value(), Value(), {}};
  }
  static Predicate IsNotNull(uint32_t col) {
    return {col, CompareOp::kIsNotNull, Value(), Value(), {}};
  }
};

// -- Comparison semantics --------------------------------------------------
//
// The one definition of what a Predicate means. Tuple-at-a-time rows, hot
// chunks, compressed frozen blocks and resident block summaries all derive
// their decisions from the functions below.

/// A comparison constant coerced into an integer column's domain (a double
/// constant truncates toward zero) or a double column's domain.
int64_t ConstInt(const Value& v);
double ConstDouble(const Value& v);

/// Inclusive interval of a column's value domain; empty when lo > hi.
template <typename T>
struct Interval {
  T lo, hi;
  bool empty() const { return lo > hi; }
};
using IntRange = Interval<int64_t>;

/// The integers an Eq/Lt/Le/Gt/Ge/Between restriction with constants a (and
/// b, Between only) admits. Lt(INT64_MIN) and Gt(INT64_MAX) are empty.
IntRange OpToRange(CompareOp op, int64_t a, int64_t b);
/// OpToRange over p's coerced constants.
IntRange IntRangeOf(const Predicate& p);
/// The doubles the same restrictions admit: a strict bound steps to the
/// neighbouring double (nextafter); Lt(-inf) and Gt(+inf) are empty.
Interval<double> DoubleRangeOf(const Predicate& p);

/// Scalar evaluation of a value predicate (not IS [NOT] NULL) on one
/// non-NULL value.
bool EvalInt(const Predicate& p, int64_t v);
bool EvalDouble(const Predicate& p, double v);
bool EvalString(const Predicate& p, std::string_view v);

/// What a column's SMA (Section 3.2) proves about the rows that satisfy a
/// predicate — or, from a lowering, what a compressed domain proves.
enum class Verdict : uint8_t {
  kNone,  // no row does: the block can be skipped
  kAll,   // every non-NULL row does (IS [NOT] NULL: every row)
  kSome,  // undecided: the rows must be looked at
};

/// A column's small materialized aggregate as pruning reads it. Frozen
/// blocks, their resident summaries and hot chunks each produce one.
struct ColumnSma {
  TypeId type = TypeId::kInt64;
  bool has_nulls = false;
  bool all_null = false;
  bool single_value = false;  // every row holds `min` (never with NULLs)
  int64_t min = 0, max = 0;   // integers; bit patterns for kDouble
  std::string_view min_str, max_str;  // strings

  double dmin() const;
  double dmax() const;

  /// The SMA of an uncompressed numeric column: its type's whole value
  /// domain. Strings have no such bound; their predicates stay scalar.
  static ColumnSma FullDomain(TypeId type, bool nullable);
};

/// The single interval-and-SMA check: empty interval, SMA miss, single
/// value hit or miss, range-covering. Block translation and summary-only
/// pruning both start from it, so a summary skip is a block skip by
/// construction.
Verdict JudgeSma(const Predicate& p, const ColumnSma& sma);

}  // namespace datablocks

#endif  // DATABLOCKS_SCAN_PREDICATE_H_
