#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "tpch/tpch_db.h"
#include "util/date.h"
#include "util/rng.h"

namespace datablocks::tpch {

namespace {

Schema RegionSchema() {
  return Schema({{"r_regionkey", TypeId::kInt32},
                 {"r_name", TypeId::kString},
                 {"r_comment", TypeId::kString}});
}

Schema NationSchema() {
  return Schema({{"n_nationkey", TypeId::kInt32},
                 {"n_name", TypeId::kString},
                 {"n_regionkey", TypeId::kInt32},
                 {"n_comment", TypeId::kString}});
}

Schema SupplierSchema() {
  return Schema({{"s_suppkey", TypeId::kInt32},
                 {"s_name", TypeId::kString},
                 {"s_address", TypeId::kString},
                 {"s_nationkey", TypeId::kInt32},
                 {"s_phone", TypeId::kString},
                 {"s_acctbal", TypeId::kInt64},
                 {"s_comment", TypeId::kString}});
}

Schema CustomerSchema() {
  return Schema({{"c_custkey", TypeId::kInt32},
                 {"c_name", TypeId::kString},
                 {"c_address", TypeId::kString},
                 {"c_nationkey", TypeId::kInt32},
                 {"c_phone", TypeId::kString},
                 {"c_acctbal", TypeId::kInt64},
                 {"c_mktsegment", TypeId::kString},
                 {"c_comment", TypeId::kString}});
}

Schema PartSchema() {
  return Schema({{"p_partkey", TypeId::kInt32},
                 {"p_name", TypeId::kString},
                 {"p_mfgr", TypeId::kString},
                 {"p_brand", TypeId::kString},
                 {"p_type", TypeId::kString},
                 {"p_size", TypeId::kInt32},
                 {"p_container", TypeId::kString},
                 {"p_retailprice", TypeId::kInt64},
                 {"p_comment", TypeId::kString}});
}

Schema PartsuppSchema() {
  return Schema({{"ps_partkey", TypeId::kInt32},
                 {"ps_suppkey", TypeId::kInt32},
                 {"ps_availqty", TypeId::kInt32},
                 {"ps_supplycost", TypeId::kInt64},
                 {"ps_comment", TypeId::kString}});
}

Schema OrdersSchema() {
  return Schema({{"o_orderkey", TypeId::kInt64},
                 {"o_custkey", TypeId::kInt32},
                 {"o_orderstatus", TypeId::kChar1},
                 {"o_totalprice", TypeId::kInt64},
                 {"o_orderdate", TypeId::kDate},
                 {"o_orderpriority", TypeId::kString},
                 {"o_clerk", TypeId::kString},
                 {"o_shippriority", TypeId::kInt32},
                 {"o_comment", TypeId::kString}});
}

Schema LineitemSchema() {
  return Schema({{"l_orderkey", TypeId::kInt64},
                 {"l_partkey", TypeId::kInt32},
                 {"l_suppkey", TypeId::kInt32},
                 {"l_linenumber", TypeId::kInt32},
                 {"l_quantity", TypeId::kInt32},
                 {"l_extendedprice", TypeId::kInt64},
                 {"l_discount", TypeId::kInt32},
                 {"l_tax", TypeId::kInt32},
                 {"l_returnflag", TypeId::kChar1},
                 {"l_linestatus", TypeId::kChar1},
                 {"l_shipdate", TypeId::kDate},
                 {"l_commitdate", TypeId::kDate},
                 {"l_receiptdate", TypeId::kDate},
                 {"l_shipinstruct", TypeId::kString},
                 {"l_shipmode", TypeId::kString},
                 {"l_comment", TypeId::kString}});
}

const std::vector<std::string>& Colors() {
  static const std::vector<std::string> v = {
      "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
      "blanched", "blue", "blush", "brown", "burlywood", "burnished",
      "chartreuse", "chiffon", "chocolate", "coral", "cornflower",
      "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab",
      "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost",
      "goldenrod", "green", "grey", "honeydew", "hot", "indian", "ivory",
      "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
      "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty",
      "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale",
      "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
      "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
      "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan",
      "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow"};
  return v;
}

const std::vector<std::string>& CommentWords() {
  static const std::vector<std::string> v = {
      "carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
      "accounts", "packages", "instructions", "foxes", "ideas", "theodolites",
      "pinto", "beans", "requests", "platelets", "asymptotes", "courts",
      "dolphins", "multipliers", "sauternes", "warthogs", "frets", "dinos",
      "attainments", "excuses", "realms", "sentiments", "sheaves", "pains"};
  return v;
}

const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "MACHINERY", "HOUSEHOLD"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[7] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK",
                             "MAIL", "FOB"};
const char* kInstructs[4] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                             "TAKE BACK RETURN"};
const char* kTypeSyl1[6] = {"STANDARD", "SMALL", "MEDIUM", "LARGE",
                            "ECONOMY", "PROMO"};
const char* kTypeSyl2[5] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                            "BRUSHED"};
const char* kTypeSyl3[5] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContSyl1[5] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContSyl2[8] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                            "CAN", "DRUM"};
const char* kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
// Region of each nation (indexes into kRegions).
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                           "MIDDLE EAST"};

const int32_t kStartDate = MakeDate(1992, 1, 1);
const int32_t kEndDate = MakeDate(1998, 8, 2);   // last o_orderdate
const int32_t kCurrentDate = MakeDate(1995, 6, 17);

std::string Phone(int64_t nationkey, Rng& rng) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d",
                int(nationkey + 10), int(rng.Uniform(100, 999)),
                int(rng.Uniform(100, 999)), int(rng.Uniform(1000, 9999)));
  return buf;
}

/// dbgen's part price formula (scaled to cents).
int64_t PartPrice(int64_t p) {
  return 90000 + ((p / 10) % 20001) + 100 * (p % 1000);
}

/// The spec's supplier-per-part formula: the i-th (0..3) supplier of part p
/// among S suppliers.
int64_t PartSupplier(int64_t p, int64_t i, int64_t s) {
  return ((p + i * (s / 4 + (p - 1) / s)) % s) + 1;
}

std::string Comment(Rng& rng, int min_words, int max_words) {
  return rng.RandomWords(CommentWords(),
                         int(rng.Uniform(min_words, max_words)));
}

}  // namespace

TpchDatabase::TpchDatabase(const TpchConfig& cfg)
    : config(cfg),
      region("region", RegionSchema(), cfg.chunk_capacity),
      nation("nation", NationSchema(), cfg.chunk_capacity),
      supplier("supplier", SupplierSchema(), cfg.chunk_capacity),
      customer("customer", CustomerSchema(), cfg.chunk_capacity),
      part("part", PartSchema(), cfg.chunk_capacity),
      partsupp("partsupp", PartsuppSchema(), cfg.chunk_capacity),
      orders("orders", OrdersSchema(), cfg.chunk_capacity),
      lineitem("lineitem", LineitemSchema(), cfg.chunk_capacity) {}

int64_t TpchDatabase::NumSuppliers() const {
  return std::max<int64_t>(40, int64_t(config.scale_factor * 10000));
}
int64_t TpchDatabase::NumCustomers() const {
  return std::max<int64_t>(150, int64_t(config.scale_factor * 150000));
}
int64_t TpchDatabase::NumParts() const {
  return std::max<int64_t>(200, int64_t(config.scale_factor * 200000));
}
int64_t TpchDatabase::NumOrders() const {
  return std::max<int64_t>(1500, int64_t(config.scale_factor * 1500000));
}

void TpchDatabase::FreezeAll(bool sort_lineitem_by_shipdate) {
  region.FreezeAll();
  nation.FreezeAll();
  supplier.FreezeAll();
  customer.FreezeAll();
  part.FreezeAll();
  partsupp.FreezeAll();
  orders.FreezeAll();
  lineitem.FreezeAll(sort_lineitem_by_shipdate ? int(col::lineitem::shipdate)
                                               : -1);
}

uint64_t TpchDatabase::TotalBytes() const {
  return region.MemoryBytes() + nation.MemoryBytes() +
         supplier.MemoryBytes() + customer.MemoryBytes() +
         part.MemoryBytes() + partsupp.MemoryBytes() + orders.MemoryBytes() +
         lineitem.MemoryBytes();
}

void GenerateTpch(TpchDatabase* db) {
  Rng rng(db->config.seed);
  char buf[64];
  // Each row is one Insert of cells; a generated string is a temporary
  // that lives until the Insert returns, and the braces evaluate in order,
  // so the Rng draws do too.

  // region / nation.
  for (int r = 0; r < 5; ++r) {
    db->region.Insert({Cell::Int(r), Cell::Str(kRegions[r]),
                       Cell::Str(Comment(rng, 4, 10))});
  }
  for (int n = 0; n < 25; ++n) {
    db->nation.Insert({Cell::Int(n), Cell::Str(kNations[n]),
                       Cell::Int(kNationRegion[n]),
                       Cell::Str(Comment(rng, 4, 10))});
  }

  const int64_t num_supp = db->NumSuppliers();
  const int64_t num_cust = db->NumCustomers();
  const int64_t num_part = db->NumParts();
  const int64_t num_ord = db->NumOrders();

  // supplier.
  for (int64_t s = 1; s <= num_supp; ++s) {
    std::snprintf(buf, sizeof(buf), "Supplier#%09lld", (long long)s);
    int64_t nationkey = rng.Uniform(0, 24);
    // ~0.05% of suppliers carry the Q16 complaint marker.
    std::string comment = Comment(rng, 6, 15);
    if (rng.Uniform(0, 1999) == 0)
      comment = "sly Customer Complaints " + comment;
    db->supplier.Insert({Cell::Int(s),
                         Cell::Str(buf),
                         Cell::Str(rng.RandomString(10, 30)),
                         Cell::Int(nationkey),
                         Cell::Str(Phone(nationkey, rng)),
                         Cell::Int(rng.Uniform(-99999, 999999)),
                         Cell::Str(comment)});
  }

  // customer.
  for (int64_t c = 1; c <= num_cust; ++c) {
    std::snprintf(buf, sizeof(buf), "Customer#%09lld", (long long)c);
    int64_t nationkey = rng.Uniform(0, 24);
    db->customer.Insert({Cell::Int(c),
                         Cell::Str(buf),
                         Cell::Str(rng.RandomString(10, 30)),
                         Cell::Int(nationkey),
                         Cell::Str(Phone(nationkey, rng)),
                         Cell::Int(rng.Uniform(-99999, 999999)),
                         Cell::Str(kSegments[rng.Uniform(0, 4)]),
                         Cell::Str(Comment(rng, 10, 20))});
  }

  // part.
  for (int64_t p = 1; p <= num_part; ++p) {
    int m = int(rng.Uniform(1, 5)), nb = int(rng.Uniform(1, 5));
    std::snprintf(buf, sizeof(buf), "Manufacturer#%d", m);
    std::string mfgr = buf;
    std::snprintf(buf, sizeof(buf), "Brand#%d%d", m, nb);
    std::string brand = buf;
    std::string type = std::string(kTypeSyl1[rng.Uniform(0, 5)]) + " " +
                       kTypeSyl2[rng.Uniform(0, 4)] + " " +
                       kTypeSyl3[rng.Uniform(0, 4)];
    std::string container = std::string(kContSyl1[rng.Uniform(0, 4)]) + " " +
                            kContSyl2[rng.Uniform(0, 7)];
    db->part.Insert({Cell::Int(p),
                     Cell::Str(rng.RandomWords(Colors(), 5)),
                     Cell::Str(mfgr),
                     Cell::Str(brand),
                     Cell::Str(type),
                     Cell::Int(rng.Uniform(1, 50)),
                     Cell::Str(container),
                     Cell::Int(PartPrice(p)),
                     Cell::Str(Comment(rng, 2, 6))});
  }

  // partsupp (4 suppliers per part, spec formula for join consistency).
  for (int64_t p = 1; p <= num_part; ++p) {
    for (int64_t i = 0; i < 4; ++i) {
      db->partsupp.Insert({Cell::Int(p),
                           Cell::Int(PartSupplier(p, i, num_supp)),
                           Cell::Int(rng.Uniform(1, 9999)),
                           Cell::Int(rng.Uniform(100, 100000)),
                           Cell::Str(Comment(rng, 10, 30))});
    }
  }

  // orders + lineitem, generated together so o_totalprice and o_orderstatus
  // are consistent with the order's lineitems.
  for (int64_t o = 1; o <= num_ord; ++o) {
    // Order keys are sparse in dbgen (8 per 32); keep them dense * 4 for the
    // same flavor without complicating the key space.
    int64_t orderkey = o * 4;
    // Only 2/3 of customers have orders (c_custkey % 3 != 0, per spec).
    int64_t custkey = rng.Uniform(1, num_cust);
    while (custkey % 3 == 0) custkey = rng.Uniform(1, num_cust);
    int32_t orderdate =
        int32_t(rng.Uniform(kStartDate, kEndDate - 151));
    int num_lines = int(rng.Uniform(1, 7));
    int64_t totalprice = 0;
    int f_count = 0, o_count = 0;

    struct LineTmp {
      int64_t partkey, suppkey;
      int32_t qty, disc, tax;
      int64_t extprice;
      int32_t shipdate, commitdate, receiptdate;
      char returnflag, linestatus;
      int instr, mode;
    };
    std::array<LineTmp, 7> lines;
    for (int l = 0; l < num_lines; ++l) {
      LineTmp& t = lines[size_t(l)];
      t.partkey = rng.Uniform(1, num_part);
      t.suppkey = PartSupplier(t.partkey, rng.Uniform(0, 3), num_supp);
      t.qty = int32_t(rng.Uniform(1, 50));
      t.extprice = t.qty * PartPrice(t.partkey);
      t.disc = int32_t(rng.Uniform(0, 10));
      t.tax = int32_t(rng.Uniform(0, 8));
      t.shipdate = orderdate + int32_t(rng.Uniform(1, 121));
      t.commitdate = orderdate + int32_t(rng.Uniform(30, 90));
      t.receiptdate = t.shipdate + int32_t(rng.Uniform(1, 30));
      if (t.receiptdate <= kCurrentDate) {
        t.returnflag = rng.Uniform(0, 1) ? 'R' : 'A';
      } else {
        t.returnflag = 'N';
      }
      t.linestatus = t.shipdate > kCurrentDate ? 'O' : 'F';
      (t.linestatus == 'F' ? f_count : o_count)++;
      t.instr = int(rng.Uniform(0, 3));
      t.mode = int(rng.Uniform(0, 6));
      totalprice += t.extprice * (100 - t.disc) * (100 + t.tax) / 10000;
    }
    char status = f_count == num_lines ? 'F'
                  : (o_count == num_lines ? 'O' : 'P');
    std::snprintf(buf, sizeof(buf), "Clerk#%09d",
                  int(rng.Uniform(1, std::max<int64_t>(
                                         1, int64_t(db->config.scale_factor *
                                                    1000)))));
    std::string o_comment = Comment(rng, 4, 12);
    // ~1% of order comments match Q13's '%special%requests%' filter.
    if (rng.Uniform(0, 99) == 0)
      o_comment = "special packages wake requests " + o_comment;
    db->orders.Insert({Cell::Int(orderkey),
                       Cell::Int(custkey),
                       Cell::Char(status),
                       Cell::Int(totalprice),
                       Cell::Int(orderdate),
                       Cell::Str(kPriorities[rng.Uniform(0, 4)]),
                       Cell::Str(buf),
                       Cell::Int(0),
                       Cell::Str(o_comment)});

    for (int l = 0; l < num_lines; ++l) {
      const LineTmp& t = lines[size_t(l)];
      db->lineitem.Insert({Cell::Int(orderkey),
                           Cell::Int(t.partkey),
                           Cell::Int(t.suppkey),
                           Cell::Int(l + 1),
                           Cell::Int(t.qty),
                           Cell::Int(t.extprice),
                           Cell::Int(t.disc),
                           Cell::Int(t.tax),
                           Cell::Char(t.returnflag),
                           Cell::Char(t.linestatus),
                           Cell::Int(t.shipdate),
                           Cell::Int(t.commitdate),
                           Cell::Int(t.receiptdate),
                           Cell::Str(kInstructs[t.instr]),
                           Cell::Str(kShipModes[t.mode]),
                           Cell::Str(Comment(rng, 2, 6))});
    }
  }
}

std::unique_ptr<TpchDatabase> MakeTpch(const TpchConfig& config) {
  auto db = std::make_unique<TpchDatabase>(config);
  GenerateTpch(db.get());
  return db;
}

}  // namespace datablocks::tpch
