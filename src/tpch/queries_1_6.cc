// TPC-H queries 1-6, hand-fused against the vectorized scan interface (the
// role of the JIT-compiled pipelines in HyPer; see DESIGN.md substitution 1).
//
// Every fact-table scan+aggregate pipeline runs through the helpers of
// queries.h: detail::ParAgg / detail::ParScan (per-worker states with a
// slot-order merge), detail::ParDenseAgg (ONE partitioned dense vector for
// dense key spaces — no per-slot replica, no merge) and detail::ParHashAgg
// (per-worker hash-partitioned group-by tables, merged partition-wise).
// All of them run ctx.threads slots through the one morsel driver. Join
// build sides keyed by a dense key (custkey, partkey, suppkey, or an order
// through OrderIdx) with a payload of at most 8 bytes are one shared
// detail::ParDenseStore vector — flags, nationkeys, packed order fields —
// so a probe is an array index; absent keys read as the store's `init`.
// Tiny region/nation lookups stay plain scanner loops. All accumulations
// are exact (integer), so results are identical at every thread count.

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>

#include "exec/batch_agg.h"
#include "exec/dict_memo.h"
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

// --- Q1: pricing summary report ------------------------------------------

QueryResult Q1(const TpchDatabase& db, const ScanOptions& opt) {
  // (returnflag, linestatus) are upper-case letters (dbgen: A/N/R, F/O),
  // so a 26 x 26 grid of group keys holds every group: 32 KB per slot,
  // merged in slot order. Per group: five sums and a row count.
  struct Groups {
    std::array<int64_t, kFlagGrid * kPricingSums> sums{};  // key major
    std::array<int64_t, kFlagGrid> counts{};
  };
  const int32_t cutoff = MakeDate(1998, 9, 2);

  Groups groups = ParAgg<Groups>(
      db.lineitem, opt,
      {li::quantity, li::extendedprice, li::discount, li::tax, li::returnflag,
       li::linestatus},
      {Predicate::Le(li::shipdate, Value::Int(cutoff))},
      [] { return Groups{}; },
      [isa = opt.isa](Groups& g, const Batch& b) {
        const PricingColumns rows{b.cols[0].i32.data(), b.cols[1].i64.data(),
                                  b.cols[2].i32.data(), b.cols[3].i32.data(),
                                  b.cols[4].i32.data(), b.cols[5].i32.data()};
        PricingSums(rows, b.count, g.sums.data(), g.counts.data(), isa);
      },
      [](Groups& dst, const Groups& src) {
        MergeSeqAdd(dst.sums, src.sums);
        MergeSeqAdd(dst.counts, src.counts);
      });

  QueryResult result;
  for (uint32_t k = 0; k < kFlagGrid; ++k) {
    const int64_t count = groups.counts[k];
    if (count == 0) continue;
    const int64_t* s = &groups.sums[k * kPricingSums];
    char row[256];
    std::snprintf(
        row, sizeof(row), "%c|%c|%lld|%.2f|%.2f|%.2f|%.2f|%.2f|%.4f|%lld",
        char('A' + k / 26), char('A' + k % 26), (long long)s[kSumQty],
        double(s[kSumBasePrice]) / 100, double(s[kSumDiscPrice]) / 1e4,
        double(s[kSumCharge]) / 1e4, double(s[kSumQty]) / double(count),
        double(s[kSumBasePrice]) / 100 / double(count),
        double(s[kSumDisc]) / 100 / double(count), (long long)count);
    result.rows.push_back(row);
  }
  return result;  // grid order == (returnflag, linestatus) order
}

// --- Q2: minimum cost supplier --------------------------------------------

QueryResult Q2(const TpchDatabase& db, const ScanOptions& opt) {
  // Region EUROPE -> nations.
  int32_t europe = -1;
  ScanLoop(opt.Scan(db.region, {reg::regionkey},
                    {Predicate::Eq(reg::name, Value::Str("EUROPE"))}),
           [&](const Batch& b) { europe = b.cols[0].i32[0]; });
  std::unordered_map<int32_t, std::string> nation_name;
  ScanLoop(opt.Scan(db.nation, {nat::nationkey, nat::name},
                    {Predicate::Eq(nat::regionkey, Value::Int(europe))}),
           [&](const Batch& b) {
             for (uint32_t i = 0; i < b.count; ++i)
               nation_name[b.cols[0].i32[i]] = std::string(b.cols[1].Str(i));
           });

  struct SuppInfo {
    std::string name, address, phone, comment, nation;
    int64_t acctbal;
  };
  std::unordered_map<int32_t, SuppInfo> supp;
  ScanLoop(opt.Scan(db.supplier,
                    {sup::suppkey, sup::name, sup::address, sup::nationkey,
                     sup::phone, sup::acctbal, sup::comment}),
           [&](const Batch& b) {
             for (uint32_t i = 0; i < b.count; ++i) {
               auto it = nation_name.find(b.cols[3].i32[i]);
               if (it == nation_name.end()) continue;
               supp[b.cols[0].i32[i]] =
                   SuppInfo{std::string(b.cols[1].Str(i)),
                            std::string(b.cols[2].Str(i)),
                            std::string(b.cols[4].Str(i)),
                            std::string(b.cols[6].Str(i)), it->second,
                            b.cols[5].i64[i]};
             }
           });

  // partsupp rows of European suppliers + per-part minimum cost.
  struct PsRow {
    int32_t partkey, suppkey;
    int64_t cost;
  };
  struct PsState {
    std::vector<PsRow> rows;
    std::unordered_map<int32_t, int64_t> min_cost;
  };
  PsState pstate = ParAgg<PsState>(
      db.partsupp, opt, {ps::partkey, ps::suppkey, ps::supplycost}, {},
      [] { return PsState{}; },
      [&supp](PsState& s, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t sk = b.cols[1].i32[i];
          if (!supp.count(sk)) continue;
          int32_t pk = b.cols[0].i32[i];
          int64_t cost = b.cols[2].i64[i];
          s.rows.push_back({pk, sk, cost});
          auto [it, fresh] = s.min_cost.emplace(pk, cost);
          if (!fresh) it->second = std::min(it->second, cost);
        }
      },
      [](PsState& dst, PsState& src) {
        MergeConcat(dst.rows, src.rows);
        for (const auto& [pk, cost] : src.min_cost) {
          auto [it, fresh] = dst.min_cost.emplace(pk, cost);
          if (!fresh) it->second = std::min(it->second, cost);
        }
      });

  // Qualifying parts: size = 15, type like '%BRASS'.
  auto part_mfgr = ParAgg<std::unordered_map<int32_t, std::string>>(
      db.part, opt, {prt::partkey, prt::mfgr, prt::type},
      {Predicate::Eq(prt::size, Value::Int(15))},
      [] { return std::unordered_map<int32_t, std::string>{}; },
      [](std::unordered_map<int32_t, std::string>& m, const Batch& b) {
        // LIKE '%BRASS' is a suffix match — not SARGable — but on coded
        // batches it runs once per p_type dictionary code, not per row.
        DictFilter brass(b.cols[2], [](std::string_view t) {
          return LikeMatch(t, "%BRASS");
        });
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!brass(i)) continue;
          m[b.cols[0].i32[i]] = std::string(b.cols[1].Str(i));
        }
      },
      MergeInsert<std::unordered_map<int32_t, std::string>>);

  struct OutRow {
    int64_t acctbal;
    std::string s_name, n_name;
    int32_t partkey;
    std::string mfgr, address, phone, comment;
  };
  std::vector<OutRow> out;
  for (const PsRow& r : pstate.rows) {
    auto pit = part_mfgr.find(r.partkey);
    if (pit == part_mfgr.end()) continue;
    if (r.cost != pstate.min_cost[r.partkey]) continue;
    const SuppInfo& s = supp[r.suppkey];
    out.push_back({s.acctbal, s.name, s.nation, r.partkey, pit->second,
                   s.address, s.phone, s.comment});
  }
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    if (a.acctbal != b.acctbal) return a.acctbal > b.acctbal;
    if (a.n_name != b.n_name) return a.n_name < b.n_name;
    if (a.s_name != b.s_name) return a.s_name < b.s_name;
    return a.partkey < b.partkey;
  });
  if (out.size() > 100) out.resize(100);

  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(Money(r.acctbal) + "|" + r.s_name + "|" + r.n_name +
                          "|" + std::to_string(r.partkey) + "|" + r.mfgr +
                          "|" + r.address + "|" + r.phone + "|" + r.comment);
  }
  return result;
}

// --- Q3: shipping priority -------------------------------------------------

QueryResult Q3(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t date = MakeDate(1995, 3, 15);

  std::vector<uint8_t> building = KeyFlags(
      db.customer, opt, cust::custkey,
      {Predicate::Eq(cust::mktsegment, Value::Str("BUILDING"))},
      size_t(db.NumCustomers()) + 1);

  // Qualifying orders -> kPresent | orderdate << 32 | shippriority (both
  // non-negative 31-bit values); 0 = not a qualifying order.
  constexpr uint64_t kPresent = uint64_t{1} << 63;
  std::vector<uint64_t> ord_info = ParDenseStore<uint64_t>(
      db.orders, opt,
      {ord::orderkey, ord::custkey, ord::orderdate, ord::shippriority},
      {Predicate::Lt(ord::orderdate, Value::Int(date))},
      size_t(db.NumOrders()), [&building](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!building[size_t(b.cols[1].i32[i])]) continue;
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])),
                     kPresent | uint64_t(uint32_t(b.cols[2].i32[i])) << 32 |
                         uint32_t(b.cols[3].i32[i]));
        }
      });

  auto revenue = ParHashAgg<int64_t>(
      db.lineitem, opt, {li::orderkey, li::extendedprice, li::discount},
      {Predicate::Gt(li::shipdate, Value::Int(date))},
      [&ord_info](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int64_t ok = b.cols[0].i64[i];
          if (ord_info[size_t(OrderIdx(ok))] == 0) continue;
          t.Ref(uint64_t(ok)) += b.cols[1].i64[i] * (100 - b.cols[2].i32[i]);
        }
      },
      ApplyAdd{});

  struct OutRow {
    int64_t orderkey, rev;
    int32_t orderdate, shippriority;
  };
  std::vector<OutRow> out;
  out.reserve(revenue.size());
  revenue.ForEach([&](uint64_t key, const int64_t& rev) {
    const int64_t ok = int64_t(key);
    const uint64_t info = ord_info[size_t(OrderIdx(ok))];
    out.push_back({ok, rev, int32_t((info & ~kPresent) >> 32),
                   int32_t(uint32_t(info))});
  });
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    if (a.rev != b.rev) return a.rev > b.rev;
    if (a.orderdate != b.orderdate) return a.orderdate < b.orderdate;
    return a.orderkey < b.orderkey;
  });
  if (out.size() > 10) out.resize(10);

  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(std::to_string(r.orderkey) + "|" +
                          F2(double(r.rev) / 1e4) + "|" +
                          DateToString(r.orderdate) + "|" +
                          std::to_string(r.shippriority));
  }
  return result;
}

// --- Q4: order priority checking -------------------------------------------

QueryResult Q4(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1993, 7, 1);
  const int32_t hi = MakeDate(1993, 10, 1);

  // Orders in the quarter -> priority, keyed through a per-worker string
  // interner: on coded batches each distinct o_orderpriority dictionary
  // code resolves to a dense id once per batch, and the per-order map
  // stores a uint32 instead of a heap string. Worker-local id spaces are
  // reconciled by NAME in the merge — dictionary codes are block-local and
  // interner ids are worker-local, so the string value is the only key
  // that is stable across both.
  struct Quarter {
    StringKeyInterner prios;
    std::unordered_map<int64_t, uint32_t> orders;
  };
  Quarter in_quarter = ParAgg<Quarter>(
      db.orders, opt, {ord::orderkey, ord::orderpriority},
      {Predicate::Between(ord::orderdate, Value::Int(lo),
                          Value::Int(hi - 1))},
      [] { return Quarter{}; },
      [](Quarter& q, const Batch& b) {
        StringKeyInterner::BatchKeys prio(q.prios, b.cols[1]);
        for (uint32_t i = 0; i < b.count; ++i)
          q.orders.emplace(b.cols[0].i64[i], prio(i));
      },
      [](Quarter& dst, Quarter& src) {
        std::vector<uint32_t> remap(src.prios.size());
        for (uint32_t id = 0; id < src.prios.size(); ++id)
          remap[id] = dst.prios.Intern(src.prios.name(id));
        for (const auto& [ok, id] : src.orders)
          dst.orders.emplace(ok, remap[id]);
      });

  // Orders with at least one late lineitem: an idempotent flag per order.
  std::vector<uint8_t> late = ParDenseStore<uint8_t>(
      db.lineitem, opt, {li::orderkey, li::commitdate, li::receiptdate}, {},
      size_t(db.NumOrders()), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (b.cols[1].i32[i] < b.cols[2].i32[i])
            sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), 1);
      });

  // Priorities present in the quarter appear in the output even with a
  // zero count, exactly like the plan this replaces.
  std::map<std::string, int64_t> counts;
  for (const auto& [ok, id] : in_quarter.orders)
    counts[in_quarter.prios.name(id)] += late[size_t(OrderIdx(ok))];

  QueryResult result;
  for (auto& [p, c] : counts)
    result.rows.push_back(p + "|" + std::to_string(c));
  return result;
}

// --- Q5: local supplier volume ---------------------------------------------

QueryResult Q5(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1994, 1, 1);
  const int32_t hi = MakeDate(1995, 1, 1);

  int32_t asia = -1;
  ScanLoop(opt.Scan(db.region, {reg::regionkey},
                    {Predicate::Eq(reg::name, Value::Str("ASIA"))}),
           [&](const Batch& b) { asia = b.cols[0].i32[0]; });
  std::unordered_map<int32_t, std::string> nation_name;
  ScanLoop(opt.Scan(db.nation, {nat::nationkey, nat::name},
                    {Predicate::Eq(nat::regionkey, Value::Int(asia))}),
           [&](const Batch& b) {
             for (uint32_t i = 0; i < b.count; ++i)
               nation_name[b.cols[0].i32[i]] = std::string(b.cols[1].Str(i));
           });

  // custkey / orderkey / suppkey -> nationkey of the asian ones, -1 else.
  auto asian = [&nation_name](int32_t nk) { return nation_name.count(nk) > 0; };
  std::vector<int8_t> cust_nation =
      KeyNations(db.customer, opt, cust::custkey, cust::nationkey,
                 size_t(db.NumCustomers()) + 1, asian);
  std::vector<int8_t> order_nation = ParDenseStore<int8_t>(
      db.orders, opt, {ord::orderkey, ord::custkey},
      {Predicate::Between(ord::orderdate, Value::Int(lo),
                          Value::Int(hi - 1))},
      size_t(db.NumOrders()), [&cust_nation](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int8_t nk = cust_nation[size_t(b.cols[1].i32[i])];
          if (nk >= 0) sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), nk);
        }
      },
      int8_t{-1});

  std::vector<int8_t> supp_nation =
      KeyNations(db.supplier, opt, sup::suppkey, sup::nationkey,
                 size_t(db.NumSuppliers()) + 1, asian);

  // nationkey -> revenue; every matching row adds a positive amount.
  using RevVec = std::vector<int64_t>;
  RevVec revenue = ParAgg<RevVec>(
      db.lineitem, opt,
      {li::orderkey, li::suppkey, li::extendedprice, li::discount}, {},
      [] { return RevVec(kNumNations); },
      [&order_nation, &supp_nation](RevVec& rev, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int8_t nk = order_nation[size_t(OrderIdx(b.cols[0].i64[i]))];
          if (nk < 0 || supp_nation[size_t(b.cols[1].i32[i])] != nk) continue;
          rev[size_t(nk)] += b.cols[2].i64[i] * (100 - b.cols[3].i32[i]);
        }
      },
      MergeSeqAdd<RevVec>);

  std::vector<std::pair<int64_t, std::string>> out;
  for (int32_t nk = 0; nk < kNumNations; ++nk)
    if (revenue[size_t(nk)] != 0)
      out.emplace_back(revenue[size_t(nk)], nation_name[nk]);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  QueryResult result;
  for (auto& [rev, name] : out)
    result.rows.push_back(name + "|" + F2(double(rev) / 1e4));
  return result;
}

// --- Q6: forecasting revenue change ----------------------------------------

QueryResult Q6(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1994, 1, 1);
  const int32_t hi = MakeDate(1995, 1, 1);

  int64_t revenue = ParAgg<int64_t>(  // cents * percent
      db.lineitem, opt, {li::extendedprice, li::discount},
      {Predicate::Between(li::shipdate, Value::Int(lo), Value::Int(hi - 1)),
       Predicate::Between(li::discount, Value::Int(5), Value::Int(7)),
       Predicate::Lt(li::quantity, Value::Int(24))},
      [] { return int64_t{0}; },
      [](int64_t& rev, const Batch& b) {
        const int64_t* ext = b.cols[0].i64.data();
        const int32_t* disc = b.cols[1].i32.data();
        for (uint32_t i = 0; i < b.count; ++i) rev += ext[i] * disc[i];
      },
      [](int64_t& dst, const int64_t& src) { dst += src; });

  QueryResult result;
  result.rows.push_back(F2(double(revenue) / 1e4));
  return result;
}

}  // namespace datablocks::tpch
