#include "datablock/compression.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <limits>

#include "util/bits.h"

namespace datablocks {

const char* CompressionName(Compression c) {
  switch (c) {
    case Compression::kSingleValue: return "single";
    case Compression::kDictionary: return "dict";
    case Compression::kTruncation: return "trunc";
    case Compression::kRaw: return "raw";
  }
  return "?";
}

uint32_t CodeWidthFor(uint64_t max_code) {
  uint32_t w = BytesNeeded(max_code);
  if (w <= 1) return 1;
  if (w <= 2) return 2;
  if (w <= 4) return 4;
  return 8;
}

namespace {

// A span of at most this many bits per value is tracked in a bitmap over
// [min, max] (at most 2 bytes per value); wider spans are hashed.
constexpr uint64_t kBitmapBitsPerValue = 16;

bool BitmapFits(uint64_t span, uint64_t count) {
  return span < kBitmapBitsPerValue * count;
}

/// Min, max and NULLs in one pass, then the exact distinct values up to the
/// dictionary cap. The stats are order-independent, so the source rows are
/// read in place (`perm` only reorders them).
template <typename T>
void CollectIntStats(const Chunk& chunk, uint32_t col, ColumnStats* s) {
  const T* data = reinterpret_cast<const T*>(chunk.column_data(col));
  const uint64_t* nulls = chunk.null_bitmap(col);
  const uint32_t n = s->n;
  auto is_null = [nulls](uint32_t row) {
    return nulls != nullptr && BitmapTest(nulls, row);
  };

  T lo = std::numeric_limits<T>::max();
  T hi = std::numeric_limits<T>::min();
  uint32_t non_null = n;
  if (nulls == nullptr) {
    for (uint32_t row = 0; row < n; ++row) {
      lo = std::min(lo, data[row]);
      hi = std::max(hi, data[row]);
    }
  } else {
    for (uint32_t row = 0; row < n; ++row) {
      if (is_null(row)) {
        --non_null;
        continue;
      }
      lo = std::min(lo, data[row]);
      hi = std::max(hi, data[row]);
    }
  }
  s->has_nulls = non_null < n;
  s->all_null = non_null == 0;
  s->dict_tracked = true;
  if (s->all_null) {
    s->all_equal = true;
    return;
  }
  s->min_i = lo;
  s->max_i = hi;
  s->all_equal = lo == hi;

  // Dictionary tracking cap: beyond this many distinct values a dictionary
  // cannot beat truncation/raw for this block.
  const size_t cap = n / 2 + 2;
  const uint64_t span = uint64_t(s->max_i) - uint64_t(s->min_i);
  if (BitmapFits(span, n)) {
    // Walking the bitmap yields the distinct values already sorted.
    const uint64_t base = uint64_t(s->min_i);
    std::vector<uint64_t> bits(span / 64 + 1, 0);
    for (uint32_t row = 0; row < n; ++row) {
      if (is_null(row)) continue;
      BitmapSet(bits.data(), uint64_t(int64_t(data[row])) - base);
    }
    size_t distinct = 0;
    for (uint64_t w : bits) distinct += std::popcount(w);
    s->dict_tracked = distinct <= cap;
    if (!s->dict_tracked) return;
    s->dict_i.reserve(distinct);
    for (size_t w = 0; w < bits.size(); ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        s->dict_i.push_back(
            int64_t(base + w * 64 + uint64_t(std::countr_zero(word))));
      }
    }
    return;
  }
  // dict_i holds the keys of the set, by id.
  FlatIdTable set(uint32_t(cap + 1));
  for (uint32_t row = 0; row < n; ++row) {
    if (is_null(row)) continue;
    const int64_t v = data[row];
    const uint32_t id = set.FindOrInsert(
        HashInt(v), [&](uint32_t k) { return s->dict_i[k] == v; });
    if (id < s->dict_i.size()) continue;
    s->dict_i.push_back(v);
    if (s->dict_i.size() > cap) {
      s->dict_tracked = false;
      s->dict_i.clear();
      return;
    }
  }
  std::sort(s->dict_i.begin(), s->dict_i.end());
}

/// A distinct string's sort key at one depth of the prefix sort.
struct PrefixKey {
  uint64_t key;   // the 8 bytes from `depth`, big-endian, zero-padded
  uint32_t rest;  // bytes from `depth` on, clamped to 9
  uint32_t id;
};

uint64_t PrefixAt(std::string_view v, size_t depth) {
  uint64_t word = 0;
  if (v.size() > depth) {
    std::memcpy(&word, v.data() + depth, std::min<size_t>(8, v.size() - depth));
  }
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  return word;
}

bool KeyLess(const PrefixKey& a, const PrefixKey& b) {
  return a.key != b.key ? a.key < b.key : a.rest < b.rest;
}

/// Sorts `n` keys by (key, rest): MSD radix over the key's bytes from
/// `shift` down, one 256-way scatter through `tmp` (n keys) per byte;
/// small buckets take a comparison sort.
void RadixSortKeys(PrefixKey* a, PrefixKey* tmp, size_t n, int shift = 56) {
  constexpr size_t kSmallBucket = 32;
  if (n <= kSmallBucket || shift < 0) {
    std::sort(a, a + n, KeyLess);
    return;
  }
  auto digit = [shift](const PrefixKey& k) {
    return uint32_t(k.key >> shift) & 0xff;
  };
  uint32_t count[256] = {};
  for (size_t i = 0; i < n; ++i) ++count[digit(a[i])];
  if (count[digit(a[0])] == n) {
    RadixSortKeys(a, tmp, n, shift - 8);
    return;
  }
  uint32_t start[256];
  uint32_t next[256];
  for (uint32_t d = 0, offset = 0; d < 256; offset += count[d++]) {
    start[d] = next[d] = offset;
  }
  for (size_t i = 0; i < n; ++i) tmp[next[digit(a[i])]++] = a[i];
  std::memcpy(a, tmp, n * sizeof(PrefixKey));
  for (uint32_t d = 0; d < 256; ++d) {
    if (count[d] > 1) {
      RadixSortKeys(a + start[d], tmp + start[d], count[d], shift - 8);
    }
  }
}

/// Sorts the ids in [first, last) by their values in std::string_view
/// order (unsigned bytes, then length). MSD: a range whose values share
/// their first `depth` bytes is radix-sorted by the 8-byte prefix keys at
/// `depth`, and each run of equal keys becomes a range at depth + 8; short
/// ranges are finished with full compares. Ranges wait on a heap stack, so
/// long shared prefixes cost no call depth. `tmp` holds last - first keys.
void SortByPrefix(const std::vector<std::string_view>& values,
                  PrefixKey* first, PrefixKey* last, PrefixKey* tmp) {
  constexpr ptrdiff_t kShortRun = 16;
  struct Range {
    PrefixKey* first;
    PrefixKey* last;
    size_t depth;
  };
  std::vector<Range> todo = {{first, last, 0}};
  while (!todo.empty()) {
    const auto [begin, end, depth] = todo.back();
    todo.pop_back();
    if (end - begin <= kShortRun) {
      std::sort(begin, end, [&](const PrefixKey& a, const PrefixKey& b) {
        return values[a.id].substr(depth) < values[b.id].substr(depth);
      });
      continue;
    }
    for (PrefixKey* p = begin; p != end; ++p) {
      const std::string_view v = values[p->id];
      p->key = PrefixAt(v, depth);
      p->rest = uint32_t(std::min<size_t>(v.size() - depth, 9));
    }
    // Zero padding makes a value that ends inside the window tie with
    // longer ones that continue with NUL bytes; it is their prefix, so it
    // sorts first, which `rest` does. Equal keys with equal rest < 9 would
    // be equal values, so every run left to sort continues past the window.
    RadixSortKeys(begin, tmp, size_t(end - begin));
    for (PrefixKey* run = begin; run != end;) {
      PrefixKey* run_end = run + 1;
      while (run_end != end && run_end->key == run->key &&
             run_end->rest == run->rest) {
        ++run_end;
      }
      if (run_end - run > 1) todo.push_back({run, run_end, depth + 8});
      run = run_end;
    }
  }
}

/// One hashing pass gives each output position the id of its value (ids
/// number the distinct values by first occurrence); the distinct values are
/// sorted once and each position's code is its id's rank.
void CollectStringStats(const Chunk& chunk, uint32_t col,
                        const uint32_t* perm, ColumnStats* s) {
  const uint32_t n = s->n;
  std::vector<std::string_view> values;  // by id
  FlatIdTable ids(n);
  s->codes.resize(n);
  uint32_t non_null = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t row = perm ? perm[i] : i;
    if (chunk.IsNull(col, row)) {
      s->codes[i] = FlatIdTable::kNone;
      continue;
    }
    ++non_null;
    const std::string_view v = chunk.GetString(col, row);
    const uint64_t h = std::hash<std::string_view>{}(v);
    const uint32_t id = ids.FindOrInsert(
        uint32_t(h ^ (h >> 32)), [&](uint32_t k) { return values[k] == v; });
    if (id == values.size()) values.push_back(v);
    s->codes[i] = id;
  }
  s->has_nulls = non_null < n;
  s->all_null = non_null == 0;
  s->all_equal = values.size() <= 1;
  s->dict_tracked = true;

  std::vector<PrefixKey> order(values.size());
  std::vector<PrefixKey> tmp(values.size());
  for (uint32_t k = 0; k < order.size(); ++k) order[k].id = k;
  SortByPrefix(values, order.data(), order.data() + order.size(), tmp.data());
  std::vector<uint32_t> rank(values.size());
  s->dict_s.resize(values.size());
  for (uint32_t k = 0; k < order.size(); ++k) {
    rank[order[k].id] = k;
    s->dict_s[k] = values[order[k].id];
    s->distinct_string_bytes += values[order[k].id].size();
  }
  for (uint32_t& code : s->codes) {
    code = code == FlatIdTable::kNone ? 0 : rank[code];
  }
}

void CollectDoubleStats(const Chunk& chunk, uint32_t col,
                        const uint32_t* perm, ColumnStats* s) {
  const double* data = reinterpret_cast<const double*>(chunk.column_data(col));
  bool all_equal = true;
  double first_val = 0;
  uint32_t non_null = 0;
  for (uint32_t i = 0; i < s->n; ++i) {
    uint32_t row = perm ? perm[i] : i;
    if (chunk.IsNull(col, row)) {
      s->has_nulls = true;
      continue;
    }
    double v = data[row];
    if (non_null == 0) {
      s->min_d = s->max_d = v;
      first_val = v;
    } else {
      s->min_d = std::min(s->min_d, v);
      s->max_d = std::max(s->max_d, v);
      if (v != first_val) all_equal = false;
    }
    ++non_null;
  }
  s->all_null = non_null == 0;
  s->all_equal = all_equal;
}

}  // namespace

FlatIdTable::FlatIdTable(uint32_t expected) {
  size_t slots = 16;
  while (slots < 2 * size_t(expected)) slots *= 2;
  slots_.assign(slots, {0, kNone});
  mask_ = uint32_t(slots - 1);
}

void FlatIdTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2, Slot{0, kNone});
  old.swap(slots_);
  mask_ = uint32_t(slots_.size() - 1);
  for (const Slot& s : old) {
    if (s.id == kNone) continue;
    uint32_t p = s.hash & mask_;
    while (slots_[p].id != kNone) p = (p + 1) & mask_;
    slots_[p] = s;
  }
}

IntDictCoder::IntDictCoder(const std::vector<int64_t>& dict) : dict_(dict) {
  DB_CHECK(!dict.empty());
  const uint64_t span = uint64_t(dict.back()) - uint64_t(dict.front());
  if (BitmapFits(span, dict.size())) {
    base_ = dict.front();
    words_.assign(span / 64 + 1, 0);
    for (int64_t v : dict) {
      BitmapSet(words_.data(), uint64_t(v) - uint64_t(base_));
    }
    ranks_.resize(words_.size());
    uint32_t below = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      ranks_[w] = below;
      below += uint32_t(std::popcount(words_[w]));
    }
    return;
  }
  table_ = FlatIdTable(uint32_t(dict.size()));
  for (int64_t v : dict) {
    table_.FindOrInsert(HashInt(v), [](uint32_t) { return false; });
  }
}

ColumnStats CollectStats(const Chunk& chunk, uint32_t col,
                         const uint32_t* perm) {
  const TypeId type = chunk.schema().type(col);
  ColumnStats s;
  s.n = chunk.size();
  if (type == TypeId::kString) {
    CollectStringStats(chunk, col, perm, &s);
  } else if (type == TypeId::kDouble) {
    CollectDoubleStats(chunk, col, perm, &s);
  } else {
    WithIntType(type, [&](auto tag) {
      CollectIntStats<decltype(tag)>(chunk, col, &s);
    });
  }
  return s;
}

CompressionChoice ChooseCompression(TypeId type, const ColumnStats& stats) {
  CompressionChoice c;
  const uint64_t n = stats.n;

  if (stats.all_null || (stats.all_equal && !stats.has_nulls)) {
    c.scheme = Compression::kSingleValue;
    c.code_width = 0;
    if (type == TypeId::kString && !stats.all_null) {
      // The single string value lives in the dictionary area.
      c.dict_bytes = 2 * sizeof(uint32_t);  // its string's two offsets
      c.string_bytes = stats.dict_s.empty() ? 0 : stats.dict_s[0].size();
    }
    return c;
  }

  if (type == TypeId::kString) {
    // Strings are always dictionary-compressed (Section 3.3).
    c.scheme = Compression::kDictionary;
    c.code_width = CodeWidthFor(stats.dict_s.size() - 1);
    c.data_bytes = n * c.code_width;
    // One offset per entry into the string area, plus its end.
    c.dict_bytes = (stats.dict_s.size() + 1) * sizeof(uint32_t);
    c.string_bytes = stats.distinct_string_bytes;
    return c;
  }

  if (type == TypeId::kDouble) {
    // Truncation is not used for doubles (Section 3.3); a dictionary rarely
    // pays off and is omitted, matching the paper's scheme set for floats.
    c.scheme = Compression::kRaw;
    c.code_width = 8;
    c.data_bytes = n * 8;
    return c;
  }

  // Integer-like: compare truncation vs. dictionary vs. raw by space.
  const uint32_t native = TypeWidth(type);
  const uint64_t span = uint64_t(stats.max_i) - uint64_t(stats.min_i);
  const uint32_t trunc_w = CodeWidthFor(span);
  const uint64_t trunc_cost = n * trunc_w;
  uint64_t dict_cost = UINT64_MAX;
  uint32_t dict_w = 0;
  if (stats.dict_tracked && !stats.dict_i.empty()) {
    dict_w = CodeWidthFor(stats.dict_i.size() - 1);
    dict_cost = n * dict_w + stats.dict_i.size() * 8;
  }
  const uint64_t raw_cost = n * native;

  if (trunc_cost <= dict_cost && trunc_w < native) {
    c.scheme = Compression::kTruncation;
    c.code_width = trunc_w;
    c.data_bytes = trunc_cost;
  } else if (dict_cost < raw_cost && dict_cost < trunc_cost) {
    c.scheme = Compression::kDictionary;
    c.code_width = dict_w;
    c.data_bytes = n * dict_w;
    c.dict_bytes = stats.dict_i.size() * 8;
  } else if (trunc_w < native) {
    c.scheme = Compression::kTruncation;
    c.code_width = trunc_w;
    c.data_bytes = trunc_cost;
  } else {
    c.scheme = Compression::kRaw;
    c.code_width = native;
    c.data_bytes = raw_cost;
  }
  return c;
}

}  // namespace datablocks
