#include "workloads/flights.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/date.h"
#include "util/rng.h"

namespace datablocks::workloads {

namespace {

const char* kCarriers[20] = {"AA", "UA", "DL", "WN", "US", "NW", "CO", "TW",
                             "HP", "AS", "B6", "FL", "OO", "XE", "YV", "MQ",
                             "EV", "OH", "9E", "F9"};

Schema FlightsSchema() {
  return Schema({{"year", TypeId::kInt32},
                 {"month", TypeId::kInt32},
                 {"dayofmonth", TypeId::kInt32},
                 {"dayofweek", TypeId::kInt32},
                 {"flightdate", TypeId::kDate},
                 {"deptime", TypeId::kInt32},
                 {"arrtime", TypeId::kInt32},
                 {"uniquecarrier", TypeId::kString},
                 {"flightnum", TypeId::kInt32},
                 {"arrdelay", TypeId::kInt32},
                 {"depdelay", TypeId::kInt32},
                 {"origin", TypeId::kString},
                 {"dest", TypeId::kString},
                 {"distance", TypeId::kInt32},
                 {"cancelled", TypeId::kInt32}});
}

std::vector<std::string> MakeAirports(Rng& rng) {
  std::vector<std::string> airports = {"SFO", "LAX", "JFK", "ORD", "ATL",
                                       "DFW", "DEN", "SEA", "BOS", "MIA"};
  while (airports.size() < 300) {
    std::string code;
    for (int i = 0; i < 3; ++i)
      code += char('A' + rng.Uniform(0, 25));
    airports.push_back(code);
  }
  return airports;
}

}  // namespace

std::unique_ptr<Table> MakeFlights(const FlightsConfig& config) {
  auto table =
      std::make_unique<Table>("flights", FlightsSchema(),
                              config.chunk_capacity);
  Rng rng(config.seed);
  std::vector<std::string> airports = MakeAirports(rng);

  const int32_t start = MakeDate(config.year_from, 10, 1);
  const int32_t end = MakeDate(config.year_to, 4, 30);
  const double days = double(end - start + 1);

  for (uint64_t i = 0; i < config.num_rows; ++i) {
    // Rows arrive in date order (the data set's natural ordering).
    int32_t date = start + int32_t(double(i) / double(config.num_rows) * days);
    CivilDate cd = ToCivil(date);
    int dow = int((date % 7 + 7) % 7) + 1;
    // ~6% of flights to a hub like SFO; delays roughly log-normal-ish.
    const std::string& dest =
        airports[size_t(rng.Uniform(0, 15) == 0
                            ? 0
                            : rng.Uniform(1, int64_t(airports.size()) - 1))];
    const std::string& origin =
        airports[size_t(rng.Uniform(0, int64_t(airports.size()) - 1))];
    int32_t dep_delay = int32_t(rng.Uniform(-10, 60) *
                                (rng.Uniform(0, 9) == 0 ? 4 : 1));
    int32_t arr_delay = dep_delay + int32_t(rng.Uniform(-15, 15));
    int32_t deptime = int32_t(rng.Uniform(0, 2359));
    table->Insert({Cell::Int(cd.year),
                   Cell::Int(cd.month),
                   Cell::Int(cd.day),
                   Cell::Int(dow),
                   Cell::Int(date),
                   Cell::Int(deptime),
                   Cell::Int((deptime + 200) % 2400),
                   Cell::Str(kCarriers[rng.Uniform(0, 19)]),
                   Cell::Int(rng.Uniform(1, 7999)),
                   Cell::Int(arr_delay),
                   Cell::Int(dep_delay),
                   Cell::Str(origin),
                   Cell::Str(dest),
                   Cell::Int(rng.Uniform(100, 2500)),
                   Cell::Int(rng.Uniform(0, 99) == 0 ? 1 : 0)});
  }
  return table;
}

std::vector<CarrierDelay> RunFlightsQuery(const Table& flights, ScanMode mode,
                                          uint32_t vector_size, Isa isa) {
  namespace fc = flights_col;
  struct Agg {
    int64_t sum = 0;
    int64_t count = 0;
  };
  // Group by carrier. A batch's string views only live until the next
  // Next() call (an evicted chunk's image is refilled), so keys are owned
  // strings — probed by view, allocated once per carrier, not per tuple.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, Agg, ViewHash, std::equal_to<>> groups;

  TableScanner scan(flights, {fc::uniquecarrier, fc::arrdelay},
                    {Predicate::Between(fc::year, Value::Int(1998),
                                        Value::Int(2008)),
                     Predicate::Eq(fc::dest, Value::Str("SFO"))},
                    mode, vector_size, isa);
  Batch batch;
  while (scan.Next(&batch)) {
    for (uint32_t i = 0; i < batch.count; ++i) {
      const std::string_view carrier = batch.cols[0].Str(i);
      auto it = groups.find(carrier);
      if (it == groups.end()) it = groups.emplace(carrier, Agg{}).first;
      Agg& a = it->second;
      a.sum += batch.cols[1].i32[i];
      ++a.count;
    }
  }

  std::vector<CarrierDelay> out;
  for (auto& [carrier, a] : groups)
    out.push_back({carrier,
                   a.count ? double(a.sum) / double(a.count) : 0, a.count});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.avg_delay != b.avg_delay ? a.avg_delay > b.avg_delay
                                      : a.carrier < b.carrier;
  });
  return out;
}

}  // namespace datablocks::workloads
