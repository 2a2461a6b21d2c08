// TPC-H queries 17-22. Fact-table pipelines run through the parallel
// helpers of queries.h (per-worker states, slot-order merges); see the
// note in queries_1_6.cc. Q21's per-order supplier structure uses an
// order-independent encoding so the parallel merge is exact.

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "exec/batch_agg.h"
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

// --- Q17: small-quantity-order revenue ---------------------------------------

QueryResult Q17(const TpchDatabase& db, const ScanOptions& opt) {
  std::vector<uint8_t> parts = KeyFlags(
      db.part, opt, prt::partkey,
      {Predicate::Eq(prt::brand, Value::Str("Brand#23")),
       Predicate::Eq(prt::container, Value::Str("MED BOX"))},
      size_t(db.NumParts()) + 1);

  struct QtyAgg {
    int64_t sum = 0;
    int64_t count = 0;
  };
  auto qty_agg = ParHashAgg<QtyAgg>(
      db.lineitem, opt, {li::partkey, li::quantity}, {},
      [&parts](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t pk = b.cols[0].i32[i];
          if (!parts[size_t(pk)]) continue;
          QtyAgg& a = t.Ref(uint64_t(pk));
          a.sum += b.cols[1].i32[i];
          ++a.count;
        }
      },
      [](QtyAgg& dst, const QtyAgg& src) {
        dst.sum += src.sum;
        dst.count += src.count;
      });

  int64_t total = ParAgg<int64_t>(  // cents
      db.lineitem, opt, {li::partkey, li::quantity, li::extendedprice}, {},
      [] { return int64_t{0}; },
      [&qty_agg](int64_t& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          const QtyAgg* a = qty_agg.Find(uint64_t(b.cols[0].i32[i]));
          if (a == nullptr) continue;
          double avg = double(a->sum) / double(a->count);
          if (double(b.cols[1].i32[i]) < 0.2 * avg) t += b.cols[2].i64[i];
        }
      },
      [](int64_t& dst, const int64_t& src) { dst += src; });

  QueryResult result;
  result.rows.push_back(F2(double(total) / 100.0 / 7.0));
  return result;
}

// --- Q18: large volume customers -----------------------------------------------

QueryResult Q18(const TpchDatabase& db, const ScanOptions& opt) {
  // Dense per-order quantities: ONE O(orders) vector total through the
  // partitioned engine, however many worker slots run the scan.
  using QtyVec = std::vector<uint16_t>;
  QtyVec order_qty = ParDenseAgg<uint16_t, uint16_t>(
      db.lineitem, opt, {li::orderkey, li::quantity}, {},
      size_t(db.NumOrders()),
      [isa = opt.isa](auto& sink, const Batch& b) {
        // lineitem arrives in orderkey runs of 1-7 rows: one sink update
        // per run (a run split across steps or batches adds twice).
        constexpr uint32_t kStep = 1024;
        int64_t keys[kStep], sums[kStep];
        for (uint32_t off = 0; off < b.count; off += kStep) {
          const uint32_t runs = RunSums(
              b.cols[0].i64.data() + off, b.cols[1].i32.data() + off,
              std::min(kStep, b.count - off), keys, sums, isa);
          for (uint32_t j = 0; j < runs; ++j)
            sink.Add(size_t(OrderIdx(keys[j])), uint16_t(sums[j]));
        }
      },
      ApplyAdd{});

  struct OutRow {
    std::string c_name;
    int32_t custkey;
    int64_t orderkey;
    int32_t orderdate;
    int64_t totalprice;
    int32_t qty;
  };
  using OutVec = std::vector<OutRow>;
  OutVec out = ParAgg<OutVec>(
      db.orders, opt,
      {ord::orderkey, ord::custkey, ord::orderdate, ord::totalprice}, {},
      [] { return OutVec{}; },
      [&order_qty](OutVec& rows, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int64_t ok = b.cols[0].i64[i];
          uint16_t q = order_qty[size_t(OrderIdx(ok))];
          if (q <= 300) continue;
          rows.push_back({"", b.cols[1].i32[i], ok, b.cols[2].i32[i],
                          b.cols[3].i64[i], q});
        }
      },
      MergeConcat<OutRow>);

  std::unordered_set<int32_t> wanted;
  for (const OutRow& r : out) wanted.insert(r.custkey);
  using NameMap = std::unordered_map<int32_t, std::string>;
  NameMap cust_name = ParAgg<NameMap>(
      db.customer, opt, {cust::custkey, cust::name}, {},
      [] { return NameMap{}; },
      [&wanted](NameMap& m, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (wanted.count(b.cols[0].i32[i]))
            m[b.cols[0].i32[i]] = std::string(b.cols[1].Str(i));
      },
      MergeInsert<NameMap>);
  for (OutRow& r : out) r.c_name = cust_name[r.custkey];

  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    if (a.totalprice != b.totalprice) return a.totalprice > b.totalprice;
    if (a.orderdate != b.orderdate) return a.orderdate < b.orderdate;
    return a.orderkey < b.orderkey;
  });
  if (out.size() > 100) out.resize(100);

  QueryResult result;
  for (const OutRow& r : out) {
    result.rows.push_back(r.c_name + "|" + std::to_string(r.custkey) + "|" +
                          std::to_string(r.orderkey) + "|" +
                          DateToString(r.orderdate) + "|" +
                          Money(r.totalprice) + "|" + std::to_string(r.qty));
  }
  return result;
}

// --- Q19: discounted revenue -----------------------------------------------------

QueryResult Q19(const TpchDatabase& db, const ScanOptions& opt) {
  struct Clause {
    const char* brand;
    const char* containers[4];
    int32_t max_size, min_qty, max_qty;
  };
  static const Clause kClauses[3] = {
      {"Brand#12", {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 5, 1, 11},
      {"Brand#23", {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 10, 20},
      {"Brand#34", {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 15, 20, 30}};

  // partkey -> clause mask: bit c is set when the part meets clause c's
  // brand, container and size conditions, evaluated once per part row.
  std::vector<uint8_t> mask = ParDenseStore<uint8_t>(
      db.part, opt, {prt::partkey, prt::brand, prt::container, prt::size},
      {Predicate::Between(prt::size, Value::Int(1), Value::Int(15)),
       Predicate::In(prt::brand, {Value::Str("Brand#12"),
                                  Value::Str("Brand#23"),
                                  Value::Str("Brand#34")})},
      size_t(db.NumParts()) + 1, [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          std::string_view brand = b.cols[1].Str(i);
          std::string_view container = b.cols[2].Str(i);
          uint8_t m = 0;
          for (int c = 0; c < 3; ++c) {
            const Clause& k = kClauses[c];
            if (brand != k.brand || b.cols[3].i32[i] > k.max_size) continue;
            for (const char* ct : k.containers)
              if (container == ct) m |= uint8_t(1 << c);
          }
          if (m != 0) sink.Store(size_t(b.cols[0].i32[i]), m);
        }
      });

  // Both lineitem string restrictions push into the scan: on frozen blocks
  // they run as dictionary-code comparisons and the strings themselves are
  // never read, so l_shipmode / l_shipinstruct drop out of the consumed
  // column set entirely. The consume checks only the part's clause mask and
  // the quantity range of each set bit.
  int64_t revenue = ParAgg<int64_t>(
      db.lineitem, opt,
      {li::partkey, li::quantity, li::extendedprice, li::discount},
      {Predicate::Le(li::quantity, Value::Int(40)),
       Predicate::Eq(li::shipinstruct, Value::Str("DELIVER IN PERSON")),
       Predicate::In(li::shipmode, {Value::Str("AIR"), Value::Str("REG AIR")})},
      [] { return int64_t{0}; },
      [&mask](int64_t& rev, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          const uint8_t m = mask[size_t(b.cols[0].i32[i])];
          if (m == 0) continue;
          const int32_t qty = b.cols[1].i32[i];
          bool hit = false;
          for (int c = 0; c < 3; ++c)
            hit |= (m >> c & 1) != 0 && qty >= kClauses[c].min_qty &&
                   qty <= kClauses[c].max_qty;
          if (hit) rev += b.cols[2].i64[i] * (100 - b.cols[3].i32[i]);
        }
      },
      [](int64_t& dst, const int64_t& src) { dst += src; });

  QueryResult result;
  result.rows.push_back(F2(double(revenue) / 1e4));
  return result;
}

// --- Q20: potential part promotion -------------------------------------------------

QueryResult Q20(const TpchDatabase& db, const ScanOptions& opt) {
  const int32_t lo = MakeDate(1994, 1, 1), hi = MakeDate(1995, 1, 1);

  // LIKE 'forest%' pushes as a SARGable prefix predicate — a code-range
  // comparison on frozen blocks — so p_name is never materialized.
  std::vector<uint8_t> forest_parts = KeyFlags(
      db.part, opt, prt::partkey,
      {Predicate::Prefix(prt::name, Value::Str("forest"))},
      size_t(db.NumParts()) + 1);

  const int64_t supp_span = db.NumSuppliers() + 1;
  auto shipped_qty = ParHashAgg<int64_t>(  // (pk,sk) -> qty
      db.lineitem, opt, {li::partkey, li::suppkey, li::quantity},
      {Predicate::Between(li::shipdate, Value::Int(lo), Value::Int(hi - 1))},
      [&forest_parts, supp_span](auto& t, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t pk = b.cols[0].i32[i];
          if (!forest_parts[size_t(pk)]) continue;
          t.Ref(uint64_t(int64_t(pk) * supp_span + b.cols[1].i32[i])) +=
              b.cols[2].i32[i];
        }
      },
      ApplyAdd{});

  std::vector<uint8_t> candidate_supp = ParDenseStore<uint8_t>(
      db.partsupp, opt, {ps::partkey, ps::suppkey, ps::availqty}, {},
      size_t(db.NumSuppliers()) + 1, [&](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          int32_t pk = b.cols[0].i32[i];
          if (!forest_parts[size_t(pk)]) continue;
          const int64_t* it = shipped_qty.Find(
              uint64_t(int64_t(pk) * supp_span + b.cols[1].i32[i]));
          int64_t q = it == nullptr ? 0 : *it;
          if (double(b.cols[2].i32[i]) > 0.5 * double(q) && q > 0)
            sink.Store(size_t(b.cols[1].i32[i]), 1);
        }
      });

  int32_t canada = -1;
  ScanLoop(opt.Scan(db.nation, {nat::nationkey},
                    {Predicate::Eq(nat::name, Value::Str("CANADA"))}),
           [&](const Batch& b) { canada = b.cols[0].i32[0]; });

  QueryResult result;
  ScanLoop(opt.Scan(db.supplier, {sup::suppkey, sup::name, sup::address},
                    {Predicate::Eq(sup::nationkey, Value::Int(canada))}),
           [&](const Batch& b) {
             for (uint32_t i = 0; i < b.count; ++i)
               if (candidate_supp[size_t(b.cols[0].i32[i])])
                 result.rows.push_back(std::string(b.cols[1].Str(i)) + "|" +
                                       std::string(b.cols[2].Str(i)));
           });
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

// --- Q21: suppliers who kept orders waiting ------------------------------------------

QueryResult Q21(const TpchDatabase& db, const ScanOptions& opt) {
  const int64_t num_orders = db.NumOrders();

  // Per-order supplier structure in an order-independent encoding (-1 =
  // none seen, -2 = more than one distinct supplier, otherwise the single
  // supplier): the combine rule is associative and commutative, so the
  // partitioned dense state gives exactly the sequential answer regardless
  // of which worker saw which lineitem first — in ONE O(orders) vector,
  // not one replica per slot.
  auto combine = [](int32_t& slot, int32_t sk) {
    if (slot == -1)
      slot = sk;
    else if (slot != sk)
      slot = -2;
  };
  struct SuppState {
    int32_t supp;  // any supplier of the order
    int32_t late;  // supplier with receipt > commit
  };
  struct SuppUpd {
    int32_t sk;
    uint8_t is_late;
  };
  std::vector<SuppState> per_order = ParDenseAgg<SuppState, SuppUpd>(
      db.lineitem, opt,
      {li::orderkey, li::suppkey, li::commitdate, li::receiptdate}, {},
      size_t(num_orders),
      [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          sink.Add(size_t(OrderIdx(b.cols[0].i64[i])),
                   SuppUpd{b.cols[1].i32[i],
                           uint8_t(b.cols[3].i32[i] > b.cols[2].i32[i])});
        }
      },
      [&combine](SuppState& s, const SuppUpd& u) {
        combine(s.supp, u.sk);
        if (u.is_late != 0) combine(s.late, u.sk);
      },
      SuppState{-1, -1});

  // Dense per-order status flag, one writer per element.
  std::vector<uint8_t> status_f = ParDenseStore<uint8_t>(
      db.orders, opt, {ord::orderkey},
      {Predicate::Eq(ord::orderstatus, Value::Int('F'))},
      size_t(num_orders), [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(OrderIdx(b.cols[0].i64[i])), 1);
      });

  int32_t saudi = -1;
  ScanLoop(opt.Scan(db.nation, {nat::nationkey},
                    {Predicate::Eq(nat::name, Value::Str("SAUDI ARABIA"))}),
           [&](const Batch& b) { saudi = b.cols[0].i32[0]; });
  std::unordered_map<int32_t, std::string> saudi_supp;
  ScanLoop(opt.Scan(db.supplier, {sup::suppkey, sup::name},
                    {Predicate::Eq(sup::nationkey, Value::Int(saudi))}),
           [&](const Batch& b) {
             for (uint32_t i = 0; i < b.count; ++i)
               saudi_supp[b.cols[0].i32[i]] = std::string(b.cols[1].Str(i));
           });

  // numwait per saudi supplier: orders with status F where this supplier
  // was the only late one and other suppliers participated.
  std::unordered_map<int32_t, int64_t> numwait;
  for (size_t o = 0; o < size_t(num_orders); ++o) {
    if (!status_f[o] || per_order[o].late < 0 || per_order[o].supp != -2)
      continue;
    auto it = saudi_supp.find(per_order[o].late);
    if (it == saudi_supp.end()) continue;
    ++numwait[per_order[o].late];
  }

  struct OutRow {
    std::string name;
    int64_t count;
  };
  std::vector<OutRow> out;
  for (auto& [sk, c] : numwait) out.push_back({saudi_supp[sk], c});
  std::sort(out.begin(), out.end(), [](const OutRow& a, const OutRow& b) {
    return a.count != b.count ? a.count > b.count : a.name < b.name;
  });
  if (out.size() > 100) out.resize(100);
  QueryResult result;
  for (const OutRow& r : out)
    result.rows.push_back(r.name + "|" + std::to_string(r.count));
  return result;
}

// --- Q22: global sales opportunity ----------------------------------------------------

QueryResult Q22(const TpchDatabase& db, const ScanOptions& opt) {
  static const char* kCodes[7] = {"13", "31", "23", "29", "30", "18", "17"};
  auto code_of = [](std::string_view phone) {
    return std::string(phone.substr(0, 2));
  };
  auto code_ok = [](std::string_view phone) {
    for (const char* c : kCodes)
      if (phone.substr(0, 2) == c) return true;
    return false;
  };

  // Average positive balance of customers in the country codes.
  struct BalAgg {
    int64_t sum = 0;
    int64_t count = 0;
  };
  BalAgg bal = ParAgg<BalAgg>(
      db.customer, opt, {cust::phone, cust::acctbal},
      {Predicate::Gt(cust::acctbal, Value::Int(0))},
      [] { return BalAgg{}; },
      [&code_ok](BalAgg& a, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!code_ok(b.cols[0].Str(i))) continue;
          a.sum += b.cols[1].i64[i];
          ++a.count;
        }
      },
      [](BalAgg& dst, const BalAgg& src) {
        dst.sum += src.sum;
        dst.count += src.count;
      });
  const double avg =
      bal.count == 0 ? 0.0 : double(bal.sum) / double(bal.count);

  // Several orders may share a customer, but they all store the same
  // flag value — an idempotent scatter store into ONE shared O(customers)
  // vector (SharedStoreDense), no replicas and no merge.
  using FlagVec = std::vector<uint8_t>;
  FlagVec has_order = ParDenseStore<uint8_t>(
      db.orders, opt, {ord::custkey}, {}, size_t(db.NumCustomers()) + 1,
      [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(b.cols[0].i32[i]), 1);
      });

  struct Agg {
    int64_t count = 0;
    int64_t sum = 0;
  };
  using GroupMap = std::map<std::string, Agg>;
  GroupMap groups = ParAgg<GroupMap>(
      db.customer, opt, {cust::custkey, cust::phone, cust::acctbal}, {},
      [] { return GroupMap{}; },
      [&](GroupMap& g, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          if (!code_ok(b.cols[1].Str(i))) continue;
          if (double(b.cols[2].i64[i]) <= avg) continue;
          if (has_order[size_t(b.cols[0].i32[i])]) continue;
          Agg& a = g[code_of(b.cols[1].Str(i))];
          ++a.count;
          a.sum += b.cols[2].i64[i];
        }
      },
      [](GroupMap& dst, const GroupMap& src) {
        for (const auto& [code, a] : src) {
          dst[code].count += a.count;
          dst[code].sum += a.sum;
        }
      });

  QueryResult result;
  for (auto& [code, a] : groups)
    result.rows.push_back(code + "|" + std::to_string(a.count) + "|" +
                          Money(a.sum));
  return result;
}

}  // namespace datablocks::tpch
