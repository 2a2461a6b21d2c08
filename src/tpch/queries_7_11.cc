// TPC-H queries 7-11. Fact-table pipelines run through the parallel
// helpers of queries.h (per-worker states, slot-order merges); see the
// note in queries_1_6.cc. Dense per-order sinks (one writer per element)
// are filled through ParScan with a shared vector.

#include <algorithm>
#include <map>
#include <unordered_map>

#include "tpch/queries.h"
#include "util/date.h"
#include "util/like.h"

namespace datablocks::tpch {

using namespace detail;
namespace li = col::lineitem;
namespace ord = col::orders;
namespace cust = col::customer;
namespace prt = col::part;
namespace ps = col::partsupp;
namespace sup = col::supplier;
namespace nat = col::nation;
namespace reg = col::region;

namespace {

/// nationkey -> name for all nations.
std::vector<std::string> AllNations(const TpchDatabase& db,
                                    const ScanOptions& opt) {
  std::vector<std::string> names(kNumNations);
  ScanLoop(opt.Scan(db.nation, {nat::nationkey, nat::name}),
           [&](const Batch& b) {
             for (uint32_t i = 0; i < b.count; ++i)
               names[size_t(b.cols[0].i32[i])] = b.cols[1].Str(i);
           });
  return names;
}

int32_t NationKeyOf(const TpchDatabase& db, const ScanOptions& opt,
                    const std::string& name) {
  int32_t key = -1;
  ScanLoop(opt.Scan(db.nation, {nat::nationkey},
                    {Predicate::Eq(nat::name, Value::Str(name))}),
           [&](const Batch& b) { key = b.cols[0].i32[0]; });
  return key;
}

/// Dense orderkey -> custkey vector (order keys are 4*ordinal). Each order
/// appears exactly once, so parallel workers write disjoint elements of
/// one shared store-dense vector.
std::vector<int32_t> OrderCustVector(const TpchDatabase& db,
                                     const ScanOptions& opt) {
  return ParDenseStore<int32_t>(
      db.orders, opt, {ord::orderkey, ord::custkey}, {},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), b.cols[1].i32[i]);
      });
}

}  // namespace

// --- Q7: volume shipping -----------------------------------------------------

QueryResult Q7(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t france = NationKeyOf(db, opt, "FRANCE");
  const int32_t germany = NationKeyOf(db, opt, "GERMANY");
  const int32_t lo = MakeDate(1995, 1, 1), hi = MakeDate(1996, 12, 31);

  // suppkey / custkey -> nationkey if FRANCE or GERMANY, -1 else.
  auto french_or_german = [france, germany](int32_t nk) {
    return nk == france || nk == germany;
  };
  std::vector<int8_t> supp_nation =
      KeyNations(db.supplier, opt, sup::suppkey, sup::nationkey,
                 size_t(db.NumSuppliers()) + 1, french_or_german);
  std::vector<int8_t> cust_nation =
      KeyNations(db.customer, opt, cust::custkey, cust::nationkey,
                 size_t(db.NumCustomers()) + 1, french_or_german);
  std::vector<int32_t> order_cust = OrderCustVector(db, opt);

  // (supp_nation, cust_nation, year) -> volume.
  using VolMap = std::map<std::tuple<int32_t, int32_t, int32_t>, int64_t>;
  VolMap volume = ParAgg<VolMap>(
      db.lineitem, opt,
      {li::orderkey, li::suppkey, li::extendedprice, li::discount,
       li::shipdate},
      {Predicate::Between(li::shipdate, Value::Int(lo), Value::Int(hi))},
      [] { return VolMap{}; },
      [&](VolMap& m, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int8_t sn = supp_nation[size_t(b.cols[1].i32[i])];
          if (sn < 0) continue;
          int8_t cn = cust_nation[size_t(
              order_cust[size_t(OrderIdx(b.cols[0].i64[i]))])];
          if (cn < 0 || sn == cn) continue;
          m[{sn, cn, DateYear(b.cols[4].i32[i])}] +=
              b.cols[2].i64[i] * (100 - b.cols[3].i32[i]);
        }
      },
      MergeAdd<VolMap>);

  auto nation_of = [&](int32_t nk) {
    return nk == france ? std::string("FRANCE") : std::string("GERMANY");
  };
  QueryResult result;
  for (auto& [key, vol] : volume) {
    auto [sn, cn, year] = key;
    result.rows.push_back(nation_of(sn) + "|" + nation_of(cn) + "|" +
                          std::to_string(year) + "|" + F2(double(vol) / 1e4));
  }
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

// --- Q8: national market share ----------------------------------------------

QueryResult Q8(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1995, 1, 1), hi = MakeDate(1996, 12, 31);
  const int32_t brazil = NationKeyOf(db, opt, "BRAZIL");

  int32_t america = -1;
  ScanLoop(opt.Scan(db.region, {reg::regionkey},
                    {Predicate::Eq(reg::name, Value::Str("AMERICA"))}),
           [&](const Batch& b) { america = b.cols[0].i32[0]; });
  std::vector<uint8_t> american_nations(kNumNations);
  ScanLoop(opt.Scan(db.nation, {nat::nationkey},
                    {Predicate::Eq(nat::regionkey, Value::Int(america))}),
           [&](const Batch& b) {
             for (uint32_t i = 0; i < b.count; ++i)
               american_nations[size_t(b.cols[0].i32[i])] = 1;
           });

  std::vector<uint8_t> parts = KeyFlags(
      db.part, opt, prt::partkey,
      {Predicate::Eq(prt::type, Value::Str("ECONOMY ANODIZED STEEL"))},
      size_t(db.NumParts()) + 1);

  std::vector<uint8_t> american_custs = ParDenseStore<uint8_t>(
      db.customer, opt, {cust::custkey, cust::nationkey}, {},
      size_t(db.NumCustomers()) + 1,
      [&american_nations](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (american_nations[size_t(b.cols[1].i32[i])])
            sink.Store(size_t(b.cols[0].i32[i]), 1);
      });

  // orderkey -> order year of american customers' orders; 0 = none.
  std::vector<int16_t> order_year = ParDenseStore<int16_t>(
      db.orders, opt, {ord::orderkey, ord::custkey, ord::orderdate},
      {Predicate::Between(ord::orderdate, Value::Int(lo), Value::Int(hi))},
      size_t(db.NumOrders()), [&american_custs](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (american_custs[size_t(b.cols[1].i32[i])])
            sink.Store(size_t(OrderIdx(b.cols[0].i64[i])),
                       int16_t(DateYear(b.cols[2].i32[i])));
      });

  std::vector<uint8_t> supp_is_brazil = KeyFlags(
      db.supplier, opt, sup::suppkey,
      {Predicate::Eq(sup::nationkey, Value::Int(brazil))},
      size_t(db.NumSuppliers()) + 1);

  // year -> (brazil volume, total volume), accumulated exactly in cents *
  // percent so the parallel merge is bit-identical to the sequential sum.
  struct Share {
    int64_t brazil = 0;
    int64_t total = 0;
  };
  using ShareMap = std::map<int32_t, Share>;
  ShareMap share = ParAgg<ShareMap>(
      db.lineitem, opt,
      {li::orderkey, li::partkey, li::suppkey, li::extendedprice,
       li::discount},
      {},
      [] { return ShareMap{}; },
      [&](ShareMap& m, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!parts[size_t(b.cols[1].i32[i])]) continue;
          int16_t year = order_year[size_t(OrderIdx(b.cols[0].i64[i]))];
          if (year == 0) continue;
          int64_t vol = b.cols[3].i64[i] * (100 - b.cols[4].i32[i]);
          Share& s = m[year];
          s.total += vol;
          if (supp_is_brazil[size_t(b.cols[2].i32[i])]) s.brazil += vol;
        }
      },
      [](ShareMap& dst, const ShareMap& src) {
        for (const auto& [year, s] : src) {
          dst[year].brazil += s.brazil;
          dst[year].total += s.total;
        }
      });

  QueryResult result;
  for (auto& [year, s] : share) {
    double mkt = s.total == 0 ? 0 : double(s.brazil) / double(s.total);
    char row[64];
    std::snprintf(row, sizeof(row), "%d|%.4f", year, mkt);
    result.rows.push_back(row);
  }
  return result;
}

// --- Q9: product type profit measure -----------------------------------------

QueryResult Q9(const TpchDatabase& db, const ScanOptions& opt) {
  auto nations = AllNations(db, opt);

  std::vector<uint8_t> green_parts = ParDenseStore<uint8_t>(
      db.part, opt, {prt::partkey, prt::name}, {}, size_t(db.NumParts()) + 1,
      [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (b.cols[1].Str(i).find("green") != std::string_view::npos)
            sink.Store(size_t(b.cols[0].i32[i]), 1);
      });

  std::vector<int8_t> supp_nation =
      KeyNations(db.supplier, opt, sup::suppkey, sup::nationkey,
                 size_t(db.NumSuppliers()) + 1, [](int32_t) { return true; });

  // (partkey, suppkey) -> supplycost, keys encoded densely. Keys are
  // unique per partsupp row, so the partition-wise fold is an overwrite.
  const int64_t supp_span = db.NumSuppliers() + 1;
  auto ps_cost = ParHashAgg<int64_t>(
      db.partsupp, opt, {ps::partkey, ps::suppkey, ps::supplycost}, {},
      [&green_parts, supp_span](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!green_parts[size_t(b.cols[0].i32[i])]) continue;
          t.Ref(uint64_t(int64_t(b.cols[0].i32[i]) * supp_span +
                         b.cols[1].i32[i])) = b.cols[2].i64[i];
        }
      },
      [](int64_t& dst, const int64_t& src) { dst = src; });

  // orderkey -> year (dense, one writer per element).
  std::vector<int32_t> order_year = ParDenseStore<int32_t>(
      db.orders, opt, {ord::orderkey, ord::orderdate}, {},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])),
                     DateYear(b.cols[1].i32[i]));
      });

  // (nationkey, year) -> profit in units of 1e-4 dollars: ext*(100-disc)
  // and cost*qty*100 are both exact in that scale, so the sum is an int64.
  using ProfitMap = std::map<std::pair<int32_t, int32_t>, int64_t>;
  ProfitMap profit = ParAgg<ProfitMap>(
      db.lineitem, opt,
      {li::orderkey, li::partkey, li::suppkey, li::quantity,
       li::extendedprice, li::discount},
      {},
      [] { return ProfitMap{}; },
      [&](ProfitMap& m, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t pk = b.cols[1].i32[i];
          if (!green_parts[size_t(pk)]) continue;
          int32_t sk = b.cols[2].i32[i];
          const int64_t* c =
              ps_cost.Find(uint64_t(int64_t(pk) * supp_span + sk));
          int64_t cost = c == nullptr ? 0 : *c;
          int64_t amount = b.cols[4].i64[i] * (100 - b.cols[5].i32[i]) -
                           cost * b.cols[3].i32[i] * 100;
          int32_t year = order_year[size_t(OrderIdx(b.cols[0].i64[i]))];
          m[{supp_nation[size_t(sk)], year}] += amount;
        }
      },
      MergeAdd<ProfitMap>);

  QueryResult result;
  for (auto it = profit.begin(); it != profit.end(); ++it) {
    // order by nation asc, year desc: collect per nation then reverse years.
    result.rows.push_back(nations[it->first.first] + "|" +
                          std::to_string(it->first.second) + "|" +
                          F2(double(it->second) / 1e4));
  }
  // (nation name asc, year desc); (name, year) is unique per row.
  std::stable_sort(result.rows.begin(), result.rows.end(),
                   [](const std::string& a, const std::string& b) {
                     auto na = a.substr(0, a.find('|'));
                     auto nb = b.substr(0, b.find('|'));
                     if (na != nb) return na < nb;
                     return a.substr(a.find('|')) > b.substr(b.find('|'));
                   });
  return result;
}

// --- Q10: returned item reporting --------------------------------------------

QueryResult Q10(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1993, 10, 1), hi = MakeDate(1994, 1, 1);
  auto nations = AllNations(db, opt);

  // orderkey -> custkey of the quarter's orders; 0 = not in the quarter.
  std::vector<int32_t> order_cust = ParDenseStore<int32_t>(
      db.orders, opt, {ord::orderkey, ord::custkey},
      {Predicate::Between(ord::orderdate, Value::Int(lo),
                          Value::Int(hi - 1))},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), b.cols[1].i32[i]);
      });

  auto revenue = ParHashAgg<int64_t>(
      db.lineitem, opt, {li::orderkey, li::extendedprice, li::discount},
      {Predicate::Eq(li::returnflag, Value::Int('R'))},
      [&order_cust](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t ck = order_cust[size_t(OrderIdx(b.cols[0].i64[i]))];
          if (ck == 0) continue;
          t.Ref(uint64_t(ck)) +=
              b.cols[1].i64[i] * (100 - b.cols[2].i32[i]);
        }
      },
      ApplyAdd{});

  struct OutRow {
    int32_t custkey;
    int64_t rev;
    std::string name, address, phone, comment, nation;
    int64_t acctbal;
  };
  using OutVec = std::vector<OutRow>;
  OutVec out = ParAgg<OutVec>(
      db.customer, opt,
      {cust::custkey, cust::name, cust::acctbal, cust::phone, cust::nationkey,
       cust::address, cust::comment},
      {},
      [] { return OutVec{}; },
      [&](OutVec& rows, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          const int64_t* rev = revenue.Find(uint64_t(b.cols[0].i32[i]));
          if (rev == nullptr) continue;
          rows.push_back({b.cols[0].i32[i], *rev,
                          std::string(b.cols[1].Str(i)),
                          std::string(b.cols[5].Str(i)),
                          std::string(b.cols[3].Str(i)),
                          std::string(b.cols[6].Str(i)),
                          nations[b.cols[4].i32[i]], b.cols[2].i64[i]});
        }
      },
      MergeConcat<OutRow>);
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    return a.rev != b.rev ? a.rev > b.rev : a.custkey < b.custkey;
  });
  if (out.size() > 20) out.resize(20);

  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(std::to_string(r.custkey) + "|" + r.name + "|" +
                          F2(double(r.rev) / 1e4) + "|" + Money(r.acctbal) +
                          "|" + r.nation + "|" + r.address + "|" + r.phone +
                          "|" + r.comment);
  }
  return result;
}

// --- Q11: important stock identification --------------------------------------

QueryResult Q11(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t germany = NationKeyOf(db, opt, "GERMANY");

  std::vector<uint8_t> german_supp = KeyFlags(
      db.supplier, opt, sup::suppkey,
      {Predicate::Eq(sup::nationkey, Value::Int(germany))},
      size_t(db.NumSuppliers()) + 1);

  struct ValueAgg {
    std::unordered_map<int32_t, int64_t> value;  // partkey -> cost*qty
    int64_t total = 0;
  };
  ValueAgg agg = ParAgg<ValueAgg>(
      db.partsupp, opt,
      {ps::partkey, ps::suppkey, ps::availqty, ps::supplycost}, {},
      [] { return ValueAgg{}; },
      [&german_supp](ValueAgg& a, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!german_supp[size_t(b.cols[1].i32[i])]) continue;
          int64_t v = b.cols[3].i64[i] * b.cols[2].i32[i];
          a.value[b.cols[0].i32[i]] += v;
          a.total += v;
        }
      },
      [](ValueAgg& dst, const ValueAgg& src) {
        MergeAdd(dst.value, src.value);
        dst.total += src.total;
      });

  const double threshold =
      double(agg.total) * 0.0001 / db.config.scale_factor;
  struct OutRow {
    int32_t partkey;
    int64_t value;
  };
  std::vector<OutRow> out;
  for (auto& [pk, v] : agg.value)
    if (double(v) > threshold) out.push_back({pk, v});
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    return a.value != b.value ? a.value > b.value : a.partkey < b.partkey;
  });

  QueryResult result;
  for (const OutRow& r : out)
    result.rows.push_back(std::to_string(r.partkey) + "|" + Money(r.value));
  return result;
}

}  // namespace datablocks::tpch
