#include "scan/predicate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "util/macros.h"

namespace datablocks {

namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string_view ConstStr(const Value& v) { return v.str(); }

/// The body of EvalInt/EvalDouble/EvalString: `c` coerces a constant into
/// the value's domain.
template <typename T, typename Coerce>
bool Eval(const Predicate& p, T v, Coerce c) {
  switch (p.op) {
    case CompareOp::kEq: return v == c(p.lo);
    case CompareOp::kNe: return v != c(p.lo);
    case CompareOp::kLt: return v < c(p.lo);
    case CompareOp::kLe: return v <= c(p.lo);
    case CompareOp::kGt: return v > c(p.lo);
    case CompareOp::kGe: return v >= c(p.lo);
    case CompareOp::kBetween: return v >= c(p.lo) && v <= c(p.hi);
    case CompareOp::kIn:
      return std::any_of(p.list.begin(), p.list.end(),
                         [&](const Value& x) { return v == c(x); });
    case CompareOp::kPrefix:
      if constexpr (std::is_same_v<T, std::string_view>) {
        return v.starts_with(p.lo.str());
      }
      break;
    default: break;
  }
  DB_CHECK(false);  // IS [NOT] NULL, or a prefix on a numeric column
  return false;
}

/// JudgeSma for a column that is neither single-valued nor all NULL.
/// `inside` tells whether a constant lies in [min, max]; `range` is the
/// predicate's interval for the Eq/Lt/Le/Gt/Ge/Between ops.
template <typename T, typename Inside>
Verdict JudgeInterval(const Predicate& p, T min, T max, Inside inside,
                      Interval<T> (*range)(const Predicate&)) {
  switch (p.op) {
    case CompareOp::kNe: return inside(p.lo) ? Verdict::kSome : Verdict::kAll;
    case CompareOp::kIn:
      return std::any_of(p.list.begin(), p.list.end(), inside)
                 ? Verdict::kSome
                 : Verdict::kNone;
    default: {
      const Interval<T> r = range(p);
      if (r.empty() || r.hi < min || r.lo > max) return Verdict::kNone;
      return r.lo <= min && r.hi >= max ? Verdict::kAll : Verdict::kSome;
    }
  }
}

/// JudgeSma for a string column against its first and last dictionary
/// entries.
Verdict JudgeStrings(const Predicate& p, std::string_view min,
                     std::string_view max) {
  const std::string_view c =
      p.op == CompareOp::kIn ? std::string_view() : ConstStr(p.lo);
  auto verdict = [](bool none, bool all) {
    return none ? Verdict::kNone : all ? Verdict::kAll : Verdict::kSome;
  };
  switch (p.op) {
    case CompareOp::kEq: return verdict(c < min || c > max, min == max);
    case CompareOp::kNe:
      return verdict(false, c < min || c > max);
    case CompareOp::kLt: return verdict(min >= c, max < c);
    case CompareOp::kLe: return verdict(min > c, max <= c);
    case CompareOp::kGt: return verdict(max <= c, min > c);
    case CompareOp::kGe: return verdict(max < c, min >= c);
    case CompareOp::kBetween: {
      const std::string_view h = ConstStr(p.hi);
      return verdict(c > h || h < min || c > max, c <= min && h >= max);
    }
    case CompareOp::kIn:
      return verdict(std::none_of(p.list.begin(), p.list.end(),
                                  [&](const Value& x) {
                                    return x.str() >= min && x.str() <= max;
                                  }),
                     false);
    case CompareOp::kPrefix:
      // The strings starting with c form one interval of the sort order.
      return verdict(max < c || min.substr(0, c.size()) > c,
                     min.starts_with(c) && max.starts_with(c));
    default: DB_CHECK(false); return Verdict::kSome;
  }
}

}  // namespace

int64_t ConstInt(const Value& v) {
  DB_CHECK(!v.is_null());
  return v.kind() == Value::Kind::kDouble ? int64_t(v.f64()) : v.i64();
}

double ConstDouble(const Value& v) {
  DB_CHECK(!v.is_null());
  return v.kind() == Value::Kind::kInt ? double(v.i64()) : v.f64();
}

IntRange OpToRange(CompareOp op, int64_t a, int64_t b) {
  switch (op) {
    case CompareOp::kEq: return {a, a};
    case CompareOp::kLt:
      return a == kI64Min ? IntRange{1, 0} : IntRange{kI64Min, a - 1};
    case CompareOp::kLe: return {kI64Min, a};
    case CompareOp::kGt:
      return a == kI64Max ? IntRange{1, 0} : IntRange{a + 1, kI64Max};
    case CompareOp::kGe: return {a, kI64Max};
    case CompareOp::kBetween: return {a, b};
    default: DB_CHECK(false); return {1, 0};
  }
}

IntRange IntRangeOf(const Predicate& p) {
  return OpToRange(p.op, ConstInt(p.lo),
                   p.op == CompareOp::kBetween ? ConstInt(p.hi) : 0);
}

Interval<double> DoubleRangeOf(const Predicate& p) {
  const double a = ConstDouble(p.lo);
  switch (p.op) {
    case CompareOp::kEq: return {a, a};
    case CompareOp::kLt:
      return a == -kInf ? Interval<double>{kInf, -kInf}
                        : Interval<double>{-kInf, std::nextafter(a, -kInf)};
    case CompareOp::kLe: return {-kInf, a};
    case CompareOp::kGt:
      return a == kInf ? Interval<double>{kInf, -kInf}
                       : Interval<double>{std::nextafter(a, kInf), kInf};
    case CompareOp::kGe: return {a, kInf};
    case CompareOp::kBetween: return {a, ConstDouble(p.hi)};
    default: DB_CHECK(false); return {kInf, -kInf};
  }
}

bool EvalInt(const Predicate& p, int64_t v) { return Eval(p, v, ConstInt); }

bool EvalDouble(const Predicate& p, double v) {
  return Eval(p, v, ConstDouble);
}

bool EvalString(const Predicate& p, std::string_view v) {
  return Eval(p, v, ConstStr);
}

double ColumnSma::dmin() const { return std::bit_cast<double>(min); }
double ColumnSma::dmax() const { return std::bit_cast<double>(max); }

ColumnSma ColumnSma::FullDomain(TypeId type, bool nullable) {
  ColumnSma sma;
  sma.type = type;
  sma.has_nulls = nullable;
  switch (type) {
    case TypeId::kInt32:
    case TypeId::kDate:
      sma.min = std::numeric_limits<int32_t>::min();
      sma.max = std::numeric_limits<int32_t>::max();
      break;
    case TypeId::kChar1:
      sma.max = std::numeric_limits<uint32_t>::max();
      break;
    case TypeId::kDouble:
      sma.min = std::bit_cast<int64_t>(-kInf);
      sma.max = std::bit_cast<int64_t>(kInf);
      break;
    default:
      sma.min = kI64Min;
      sma.max = kI64Max;
      break;
  }
  return sma;
}

Verdict JudgeSma(const Predicate& p, const ColumnSma& sma) {
  switch (p.op) {
    case CompareOp::kIsNull:
      if (sma.all_null) return Verdict::kAll;
      return sma.has_nulls ? Verdict::kSome : Verdict::kNone;
    case CompareOp::kIsNotNull:
      if (sma.all_null) return Verdict::kNone;
      return sma.has_nulls ? Verdict::kSome : Verdict::kAll;
    default: break;
  }
  if (sma.all_null) return Verdict::kNone;  // value predicates never match NULL
  switch (sma.type) {
    case TypeId::kString:
      if (sma.single_value)
        return EvalString(p, sma.min_str) ? Verdict::kAll : Verdict::kNone;
      return JudgeStrings(p, sma.min_str, sma.max_str);
    case TypeId::kDouble: {
      const double min = sma.dmin(), max = sma.dmax();
      if (sma.single_value)
        return EvalDouble(p, min) ? Verdict::kAll : Verdict::kNone;
      return JudgeInterval(
          p, min, max,
          [&](const Value& c) {
            const double v = ConstDouble(c);
            return v >= min && v <= max;
          },
          DoubleRangeOf);
    }
    default:
      if (sma.single_value)
        return EvalInt(p, sma.min) ? Verdict::kAll : Verdict::kNone;
      return JudgeInterval(
          p, sma.min, sma.max,
          [&](const Value& c) {
            const int64_t v = ConstInt(c);
            return v >= sma.min && v <= sma.max;
          },
          IntRangeOf);
  }
}

}  // namespace datablocks
