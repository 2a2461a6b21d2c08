#include "datablock/data_block.h"

#include <algorithm>
#include <cstring>

#include "util/bits.h"

namespace datablocks {

namespace {

/// Writes the `width`-byte code of every output position of an
/// integer-like column stored as T: encode(v) of its source value, 0 under
/// NULL.
template <typename T, typename Encode>
void EncodeInts(const Chunk& chunk, uint32_t col, const uint32_t* perm,
                uint32_t width, uint8_t* out, Encode encode) {
  const T* src = reinterpret_cast<const T*>(chunk.column_data(col));
  const uint64_t* nulls = chunk.null_bitmap(col);
  const uint32_t n = chunk.size();
  WithCodeType(width, [&](auto tag) {
    using C = decltype(tag);
    C* codes = reinterpret_cast<C*>(out);
    if (perm == nullptr && nulls == nullptr) {
      for (uint32_t i = 0; i < n; ++i) codes[i] = C(encode(src[i]));
      return;
    }
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t row = perm ? perm[i] : i;
      codes[i] = nulls != nullptr && BitmapTest(nulls, row)
                     ? C(0)
                     : C(encode(src[row]));
    }
  });
}

/// Builds an attribute's PSMA over its written codes (one O(n) pass,
/// Appendix B), skipping NULL positions. Truncation and dictionary codes
/// *are* the deltas; a raw value derives its delta from the stored bits
/// read back as T (sign-extending 32-bit integers, zero-extending char1).
template <typename T>
void BuildCodePsma(const AttrMeta& m, uint8_t* buf, uint32_t n) {
  PsmaEntry* table = reinterpret_cast<PsmaEntry*>(buf + m.psma_offset);
  const uint64_t* nulls =
      (m.flags & AttrMeta::kHasNulls)
          ? reinterpret_cast<const uint64_t*>(buf + m.null_offset)
          : nullptr;
  const uint64_t min_u = uint64_t(m.min_val);
  const bool raw = Compression(m.compression) == Compression::kRaw;
  WithCodeType(m.code_width, [&](auto tag) {
    using C = decltype(tag);
    const C* codes = reinterpret_cast<const C*>(buf + m.data_offset);
    if (raw) {
      BuildPsma(table, n, [&](uint32_t i) {
        return uint64_t(int64_t(T(codes[i]))) - min_u;
      }, nulls);
    } else {
      BuildPsma(table, n, [&](uint32_t i) { return uint64_t(codes[i]); },
                nulls);
    }
  });
}

}  // namespace

DataBlock DataBlock::Build(const Chunk& chunk, const uint32_t* perm) {
  const Schema& schema = chunk.schema();
  const uint32_t n = chunk.size();
  const uint32_t ncols = schema.num_columns();
  DB_CHECK(n > 0);

  // Pass 1: collect stats and choose schemes.
  std::vector<ColumnStats> stats(ncols);
  std::vector<CompressionChoice> choice(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    stats[c] = CollectStats(chunk, c, perm);
    choice[c] = ChooseCompression(schema.type(c), stats[c]);
  }

  // Pass 2: lay out areas.
  uint64_t offset = sizeof(BlockHeader) + uint64_t(ncols) * sizeof(AttrMeta);
  std::vector<AttrMeta> metas(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    AttrMeta& m = metas[c];
    const ColumnStats& s = stats[c];
    const CompressionChoice& ch = choice[c];
    std::memset(&m, 0, sizeof(m));
    m.compression = uint8_t(ch.scheme);
    m.type = uint8_t(schema.type(c));
    m.code_width = uint8_t(ch.code_width);
    m.flags = (s.has_nulls ? AttrMeta::kHasNulls : 0) |
              (s.all_null ? AttrMeta::kAllNull : 0);

    // SMA values.
    if (schema.type(c) == TypeId::kDouble) {
      m.min_val = std::bit_cast<int64_t>(s.min_d);
      m.max_val = std::bit_cast<int64_t>(s.max_d);
    } else if (schema.type(c) != TypeId::kString) {
      m.min_val = s.min_i;
      m.max_val = s.max_i;
    }

    // PSMA sizing: built for integer-coded attributes. Deltas are the codes
    // for truncation/dictionary and (v - min) for raw integers.
    uint64_t max_delta = 0;
    bool want_psma = !s.all_null && ch.scheme != Compression::kSingleValue;
    switch (ch.scheme) {
      case Compression::kTruncation:
        max_delta = uint64_t(s.max_i) - uint64_t(s.min_i);
        break;
      case Compression::kDictionary:
        max_delta = (schema.type(c) == TypeId::kString ? s.dict_s.size()
                                                       : s.dict_i.size()) -
                    1;
        break;
      case Compression::kRaw:
        if (schema.type(c) == TypeId::kDouble) {
          want_psma = false;
        } else {
          max_delta = uint64_t(s.max_i) - uint64_t(s.min_i);
        }
        break;
      default:
        want_psma = false;
    }
    if (want_psma) {
      m.psma_entries = PsmaTableEntries(max_delta);
      offset = AlignUp(offset, 32);
      m.psma_offset = offset;
      offset += uint64_t(m.psma_entries) * sizeof(PsmaEntry);
    }
    if (ch.dict_bytes > 0) {
      offset = AlignUp(offset, 32);
      m.dict_offset = offset;
      m.dict_count = uint32_t(schema.type(c) == TypeId::kString
                                  ? s.dict_s.size()
                                  : s.dict_i.size());
      offset += ch.dict_bytes;
    }
    if (ch.data_bytes > 0) {
      offset = AlignUp(offset, 32);
      m.data_offset = offset;
      offset += ch.data_bytes;
    }
    if (ch.string_bytes > 0) {
      offset = AlignUp(offset, 32);
      m.string_offset = offset;
      offset += ch.string_bytes;
    }
    if (s.has_nulls) {
      offset = AlignUp(offset, 32);
      m.null_offset = offset;
      offset += BitmapWords(n) * 8;
    }
  }
  const uint64_t total = AlignUp(offset, 32);

  DataBlock block;
  block.buf_.Allocate(total);
  uint8_t* buf = block.buf_.data();
  BlockHeader* hdr = reinterpret_cast<BlockHeader*>(buf);
  hdr->magic = kMagic;
  hdr->tuple_count = n;
  hdr->attr_count = ncols;
  hdr->reserved = 0;
  hdr->total_bytes = total;
  std::memcpy(buf + sizeof(BlockHeader), metas.data(),
              metas.size() * sizeof(AttrMeta));

  // Pass 3: write dictionaries, codes, strings, NULL bitmaps, PSMAs.
  for (uint32_t c = 0; c < ncols; ++c) {
    const AttrMeta& m = metas[c];
    const ColumnStats& s = stats[c];
    const Compression scheme = Compression(m.compression);
    const TypeId type = schema.type(c);

    if (s.has_nulls) {
      uint64_t* nulls = reinterpret_cast<uint64_t*>(buf + m.null_offset);
      if (perm == nullptr) {
        std::memcpy(nulls, chunk.null_bitmap(c), BitmapWords(n) * 8);
        if (n % 64 != 0) nulls[n / 64] &= (uint64_t(1) << (n % 64)) - 1;
      } else {
        for (uint32_t i = 0; i < n; ++i) {
          if (chunk.IsNull(c, perm[i])) BitmapSet(nulls, i);
        }
      }
    }
    if (type == TypeId::kString && m.dict_count > 0) {
      // The ordered dictionary (a single value's is one entry): each
      // string's bytes, and the offset where the next one begins.
      uint32_t* off = reinterpret_cast<uint32_t*>(buf + m.dict_offset);
      off[0] = 0;
      for (uint32_t k = 0; k < m.dict_count; ++k) {
        std::string_view v = s.dict_s[k];
        std::memcpy(buf + m.string_offset + off[k], v.data(), v.size());
        off[k + 1] = off[k] + uint32_t(v.size());
      }
    }
    if (scheme == Compression::kSingleValue) continue;

    uint8_t* codes = buf + m.data_offset;
    if (type == TypeId::kString) {
      // The codes CollectStats assigned.
      WithCodeType(m.code_width, [&](auto tag) {
        using C = decltype(tag);
        C* out = reinterpret_cast<C*>(codes);
        for (uint32_t i = 0; i < n; ++i) out[i] = C(s.codes[i]);
      });
      // Dictionary codes are the deltas; the value type plays no part.
      if (m.psma_entries > 0) BuildCodePsma<uint32_t>(m, buf, n);
    } else if (type == TypeId::kDouble) {
      const double* src =
          reinterpret_cast<const double*>(chunk.column_data(c));
      double* dst = reinterpret_cast<double*>(codes);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t row = perm ? perm[i] : i;
        dst[i] = chunk.IsNull(c, row) ? 0.0 : src[row];
      }
    } else {
      WithIntType(type, [&](auto tag) {
        using T = decltype(tag);
        const uint64_t min_u = uint64_t(s.min_i);
        if (scheme == Compression::kDictionary) {
          std::memcpy(buf + m.dict_offset, s.dict_i.data(),
                      s.dict_i.size() * 8);
          const IntDictCoder code_of(s.dict_i);
          EncodeInts<T>(chunk, c, perm, m.code_width, codes,
                        [&](T v) { return code_of(v); });
        } else if (scheme == Compression::kTruncation) {
          EncodeInts<T>(chunk, c, perm, m.code_width, codes,
                        [min_u](T v) { return uint64_t(int64_t(v)) - min_u; });
        } else {  // kRaw
          EncodeInts<T>(chunk, c, perm, m.code_width, codes,
                        [](T v) { return uint64_t(int64_t(v)); });
        }
        if (m.psma_entries > 0) BuildCodePsma<T>(m, buf, n);
      });
    }
  }
  return block;
}

int64_t DataBlock::GetInt(uint32_t col, uint32_t row) const {
  const AttrMeta& m = attr(col);
  switch (Compression(m.compression)) {
    case Compression::kSingleValue:
      return m.min_val;
    case Compression::kTruncation:
      return int64_t(uint64_t(m.min_val) + ReadCode(col, row));
    case Compression::kDictionary:
      return int_dict(col)[ReadCode(col, row)];
    case Compression::kRaw: {
      uint64_t raw = ReadCode(col, row);
      TypeId t = type(col);
      if (t == TypeId::kInt32 || t == TypeId::kDate)
        return int32_t(uint32_t(raw));
      if (t == TypeId::kChar1) return int64_t(uint32_t(raw));
      return int64_t(raw);
    }
  }
  return 0;
}

double DataBlock::GetDouble(uint32_t col, uint32_t row) const {
  const AttrMeta& m = attr(col);
  if (Compression(m.compression) == Compression::kSingleValue)
    return std::bit_cast<double>(m.min_val);
  return reinterpret_cast<const double*>(buf_.data() + m.data_offset)[row];
}

std::string_view DataBlock::GetStringView(uint32_t col, uint32_t row) const {
  const AttrMeta& m = attr(col);
  if (Compression(m.compression) == Compression::kSingleValue)
    return dict_string(col, 0);
  return dict_string(col, uint32_t(ReadCode(col, row)));
}

Cell DataBlock::GetCell(uint32_t col, uint32_t row) const {
  if (IsNull(col, row)) return Cell::Null();
  switch (type(col)) {
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kChar1:
      return Cell::Int(GetInt(col, row));
    case TypeId::kDouble:
      return Cell::Double(GetDouble(col, row));
    case TypeId::kString:
      return Cell::Str(GetStringView(col, row));
  }
  return Cell::Null();
}

ColumnSet::ColumnSet(std::vector<uint32_t> cols)
    : all_(false), cols_(std::move(cols)) {
  std::sort(cols_.begin(), cols_.end());
  cols_.erase(std::unique(cols_.begin(), cols_.end()), cols_.end());
}

namespace {

/// Offset of the first region of an attribute (its lowest region offset),
/// or `none` when it has no region at all (a single-value integer).
uint64_t FirstRegion(const AttrMeta& m, uint32_t rows, uint64_t none) {
  uint64_t first = none;
  auto region = [&](bool present, uint64_t offset) {
    if (present) first = std::min(first, offset);
  };
  region(m.psma_entries > 0, m.psma_offset);
  region(m.dict_count > 0, m.dict_offset);
  region(Compression(m.compression) != Compression::kSingleValue &&
             m.code_width > 0 && rows > 0,
         m.data_offset);
  region(TypeId(m.type) == TypeId::kString && m.string_offset != 0,
         m.string_offset);
  region((m.flags & AttrMeta::kHasNulls) != 0, m.null_offset);
  return first;
}

/// Bytes of an attribute's string area, which runs from its string offset
/// to the end `hi` of the extent [lo, hi): none if the offset lies outside.
uint64_t StringAreaBytes(const AttrMeta& m, uint64_t lo, uint64_t hi) {
  return m.string_offset >= lo && m.string_offset <= hi
             ? hi - m.string_offset
             : 0;
}

/// Largest code of a `width`-byte data vector of `n` codes.
uint64_t MaxCode(const uint8_t* codes, uint32_t width, uint32_t n) {
  uint64_t max = 0;
  WithCodeType(width, [&](auto tag) {
    using C = decltype(tag);
    const C* v = reinterpret_cast<const C*>(codes);
    C m = 0;
    for (uint32_t i = 0; i < n; ++i) m = std::max(m, v[i]);
    max = m;
  });
  return max;
}

}  // namespace

Status DataBlock::Extents(std::vector<uint64_t>* begins) const {
  if (buf_.size() < sizeof(BlockHeader) || header()->magic != kMagic ||
      header()->total_bytes != buf_.size()) {
    return Status::Corruption("not a block header of this size (" +
                              std::to_string(buf_.size()) + " bytes)");
  }
  const uint64_t total = buf_.size();
  const uint32_t ncols = num_columns();
  if (uint64_t(ncols) > (total - sizeof(BlockHeader)) / sizeof(AttrMeta)) {
    return Status::Corruption(std::to_string(ncols) +
                              " attributes overrun a block of " +
                              std::to_string(total) + " bytes");
  }
  // Back to front: an attribute without regions gets an empty extent at
  // the next one's start, and min() keeps the boundaries ordered even for
  // a malformed spine (whose regions then fail Validate instead).
  begins->resize(ncols + 1);
  (*begins)[ncols] = total;
  for (uint32_t c = ncols; c-- > 1;) {
    const uint64_t next = (*begins)[c + 1];
    (*begins)[c] = std::min(FirstRegion(attr(c), num_rows(), next), next);
  }
  if (ncols > 0) (*begins)[0] = SpineBytes(ncols);
  if (ncols > 1 && (*begins)[1] < (*begins)[0]) {
    return Status::Corruption("attribute regions overlap the spine");
  }
  return Status::Ok();
}

void DataBlock::FirstPages(const std::vector<uint64_t>& begins,
                           std::vector<uint64_t>* first) {
  first->resize(begins.size());
  if (begins.empty()) return;
  (*first)[0] = 0;
  for (size_t c = 0; c + 1 < begins.size(); ++c) {
    const uint64_t bytes = begins[c + 1] - begins[c];
    (*first)[c + 1] = (*first)[c] + (bytes + kPageBytes - 1) / kPageBytes;
  }
}

Status DataBlock::ValidateAttr(uint32_t c, uint64_t lo, uint64_t hi) const {
  const AttrMeta& m = attr(c);
  const uint32_t n = num_rows();
  auto fail = [c](const char* what) {
    return Status::Corruption("attribute " + std::to_string(c) + ": " + what);
  };
  // Overflow-proof: [offset, offset + len) within [lo, hi).
  auto inside = [lo, hi](uint64_t offset, uint64_t len) {
    return offset >= lo && offset <= hi && len <= hi - offset;
  };
  // Arrays are read through typed pointers, so they must also be aligned
  // (Build aligns every region to 32 bytes).
  auto array_inside = [&inside](uint64_t offset, uint64_t len) {
    return offset % 8 == 0 && inside(offset, len);
  };
  if (m.compression > uint8_t(Compression::kRaw) ||
      m.type > uint8_t(TypeId::kChar1)) {
    return fail("unknown compression scheme or type");
  }
  const Compression scheme = Compression(m.compression);
  const TypeId type = TypeId(m.type);
  if (scheme != Compression::kSingleValue) {
    const uint32_t w = m.code_width;
    if (w != 1 && w != 2 && w != 4 && w != 8) return fail("bad code width");
    if (type == TypeId::kString && scheme != Compression::kDictionary)
      return fail("strings must be dictionary-coded");
    if (type == TypeId::kDouble && scheme != Compression::kRaw)
      return fail("doubles must be stored raw");
    if (scheme == Compression::kRaw && w != TypeWidth(type))
      return fail("raw values must be as wide as their type");
    if (!array_inside(m.data_offset, uint64_t(n) * w))
      return fail("codes outside the extent or misaligned");
  }
  if (m.dict_count > 0 && !array_inside(m.dict_offset, m.dict_bytes()))
    return fail("dictionary outside the extent");
  if (m.psma_entries > 0 &&
      !array_inside(m.psma_offset,
                    uint64_t(m.psma_entries) * sizeof(PsmaEntry)))
    return fail("PSMA table outside the extent");
  if ((m.flags & AttrMeta::kHasNulls) != 0 &&
      !array_inside(m.null_offset, BitmapWords(n) * 8))
    return fail("NULL bitmap outside the extent");
  if (scheme == Compression::kDictionary && m.dict_count == 0)
    return fail("dictionary code out of range");
  if (type == TypeId::kString && scheme == Compression::kSingleValue &&
      (m.flags & AttrMeta::kAllNull) == 0 && m.dict_count == 0) {
    return fail("single string value without a dictionary entry");
  }
  return Status::Ok();
}

Status DataBlock::Validate(const ColumnSet& columns) const {
  std::vector<uint64_t> begins;
  if (Status s = Extents(&begins); !s.ok()) return s;
  const uint32_t ncols = num_columns();
  for (uint32_t i = 0; i < columns.size(ncols); ++i) {
    const uint32_t c = columns.at(i);
    if (c >= ncols) {
      return Status::Corruption("attribute " + std::to_string(c) +
                                " requested from a block of " +
                                std::to_string(ncols));
    }
    if (Status s = ValidateAttr(c, begins[c], begins[c + 1]); !s.ok())
      return s;
    const AttrMeta& m = attr(c);
    auto fail = [c](const char* what) {
      return Status::Corruption("attribute " + std::to_string(c) + ": " +
                                what);
    };
    // Dictionary lookups index by code.
    if (Compression(m.compression) == Compression::kDictionary &&
        MaxCode(codes(c), m.code_width, num_rows()) >= m.dict_count) {
      return fail("dictionary code out of range");
    }
    if (TypeId(m.type) != TypeId::kString || m.dict_count == 0) continue;
    // One pass over the string offsets: from 0, never decreasing, ending
    // inside the string area.
    const uint32_t* off =
        reinterpret_cast<const uint32_t*>(buf_.data() + m.dict_offset);
    bool ordered = off[0] == 0;
    for (uint32_t k = 0; k < m.dict_count; ++k)
      ordered &= off[k] <= off[k + 1];
    if (!ordered) return fail("dictionary offsets out of order");
    if (off[m.dict_count] > StringAreaBytes(m, begins[c], begins[c + 1]))
      return fail("dictionary string outside the extent");
  }
  return Status::Ok();
}

Status DataBlock::ValidateRow(
    uint32_t col, uint32_t row, uint64_t lo, uint64_t hi,
    const std::function<Status(uint64_t offset, uint64_t len)>& need) const {
  if (row >= num_rows()) {
    return Status::FailedPrecondition("row " + std::to_string(row) +
                                      " read from a block of " +
                                      std::to_string(num_rows()));
  }
  if (Status s = ValidateAttr(col, lo, hi); !s.ok()) return s;
  const AttrMeta& m = attr(col);
  const Compression scheme = Compression(m.compression);
  if ((m.flags & AttrMeta::kHasNulls) != 0) {
    if (Status s = need(m.null_offset + uint64_t(row / 64) * 8, 8); !s.ok())
      return s;
  }
  uint64_t code = 0;
  if (scheme != Compression::kSingleValue) {
    if (Status s = need(m.data_offset + uint64_t(row) * m.code_width,
                        m.code_width);
        !s.ok()) {
      return s;
    }
    code = ReadCode(col, row);
  }
  const bool str = TypeId(m.type) == TypeId::kString;
  // A dictionary entry: the code's, or a single string value's only one.
  if (scheme == Compression::kDictionary) {
    if (code >= m.dict_count) {
      return Status::Corruption("attribute " + std::to_string(col) +
                                ": dictionary code out of range at row " +
                                std::to_string(row));
    }
  } else if (!str || scheme != Compression::kSingleValue ||
             m.dict_count == 0) {
    return Status::Ok();
  }
  // An integer entry, or the two string offsets that bound the entry.
  const uint64_t entry = str ? sizeof(uint32_t) : sizeof(int64_t);
  if (Status s = need(m.dict_offset + code * entry, 8); !s.ok()) return s;
  if (!str) return Status::Ok();
  const uint32_t* off =
      reinterpret_cast<const uint32_t*>(buf_.data() + m.dict_offset) + code;
  if (off[1] < off[0] || off[1] > StringAreaBytes(m, lo, hi)) {
    return Status::Corruption("attribute " + std::to_string(col) +
                              ": dictionary string outside the extent at "
                              "row " + std::to_string(row));
  }
  if (off[1] == off[0]) return Status::Ok();
  return need(m.string_offset + off[0], off[1] - off[0]);
}

Status BlockImage::AdoptSpine() {
  first_page_.clear();
  if (Status s = block_.Extents(&begins_); !s.ok()) return s;
  DataBlock::FirstPages(begins_, &first_page_);
  present_.assign(BitmapWords(first_page_.back()), 0);
  return Status::Ok();
}

bool BlockImage::Serves(uint32_t col, uint32_t row) const {
  if (!has_spine()) return false;
  return block_
      .ValidateRow(col, row, begins_[col], begins_[col + 1],
                   [&](uint64_t offset, uint64_t len) {
                     for (uint64_t p = PageOf(col, offset),
                                   last = PageOf(col, offset + len - 1);
                          p <= last; ++p) {
                       if (!HasPage(p)) return Status::NotFound("");
                     }
                     return Status::Ok();
                   })
      .ok();
}

uint64_t DataBlock::PsmaBytes() const {
  uint64_t total = 0;
  for (uint32_t c = 0; c < num_columns(); ++c)
    total += uint64_t(attr(c).psma_entries) * sizeof(PsmaEntry);
  return total;
}

}  // namespace datablocks
