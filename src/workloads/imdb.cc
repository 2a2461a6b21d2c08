#include "workloads/imdb.h"

#include "util/rng.h"

namespace datablocks::workloads {

namespace {

Schema CastInfoSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"person_id", TypeId::kInt32},
                 {"movie_id", TypeId::kInt32},
                 {"person_role_id", TypeId::kInt32, /*nullable=*/true},
                 {"note", TypeId::kString, /*nullable=*/true},
                 {"nr_order", TypeId::kInt32, /*nullable=*/true},
                 {"role_id", TypeId::kInt32}});
}

const char* kNotes[12] = {"(uncredited)",       "(voice)",
                          "(archive footage)",  "(as himself)",
                          "(credit only)",      "(scenes deleted)",
                          "(singing voice)",    "(unconfirmed)",
                          "(voice: English version)", "(also archive)",
                          "(stunts)",           "(narrator)"};

}  // namespace

std::unique_ptr<Table> MakeCastInfo(const ImdbConfig& config) {
  auto table = std::make_unique<Table>("cast_info", CastInfoSchema(),
                                       config.chunk_capacity);
  Rng rng(config.seed);
  for (uint64_t i = 0; i < config.num_rows; ++i) {
    // person/movie ids are Zipf-skewed: a few prolific actors / big casts.
    int64_t person = int64_t(rng.Zipf(config.num_persons, 0.8)) + 1;
    // movie ids cluster: cast rows of one movie are adjacent in the dump.
    int64_t movie =
        int64_t(double(i) / double(config.num_rows) * double(config.num_movies)) +
        int64_t(rng.Uniform(0, 30));
    bool has_role = rng.Uniform(0, 9) < 4;    // ~40% non-NULL
    bool has_note = rng.Uniform(0, 9) < 2;    // ~20% non-NULL
    bool has_order = rng.Uniform(0, 9) < 6;   // ~60% non-NULL
    table->Insert({Cell::Int(int64_t(i) + 1),
                   Cell::Int(person),
                   Cell::Int(movie),
                   has_role ? Cell::Int(rng.Uniform(1, 2000000)) : Cell::Null(),
                   has_note ? Cell::Str(kNotes[rng.Uniform(0, 11)])
                            : Cell::Null(),
                   has_order ? Cell::Int(rng.Uniform(1, 80)) : Cell::Null(),
                   Cell::Int(rng.Uniform(1, 11))});
  }
  return table;
}

}  // namespace datablocks::workloads
