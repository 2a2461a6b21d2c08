#include "datablock/data_block.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "util/bits.h"

namespace datablocks {

namespace {

int64_t ReadIntLike(const Chunk& chunk, TypeId type, uint32_t col,
                    uint32_t row) {
  const uint8_t* data = chunk.column_data(col);
  switch (type) {
    case TypeId::kInt32:
    case TypeId::kDate:
      return reinterpret_cast<const int32_t*>(data)[row];
    case TypeId::kChar1:
      return reinterpret_cast<const uint32_t*>(data)[row];
    case TypeId::kInt64:
      return reinterpret_cast<const int64_t*>(data)[row];
    default:
      DB_CHECK(false);
      return 0;
  }
}

void WriteCode(uint8_t* base, uint32_t width, uint32_t row, uint64_t code) {
  switch (width) {
    case 1: base[row] = uint8_t(code); break;
    case 2: reinterpret_cast<uint16_t*>(base)[row] = uint16_t(code); break;
    case 4: reinterpret_cast<uint32_t*>(base)[row] = uint32_t(code); break;
    case 8: reinterpret_cast<uint64_t*>(base)[row] = code; break;
    default: DB_CHECK(false);
  }
}

uint64_t ReadCodeRaw(const uint8_t* base, uint32_t width, uint32_t row) {
  switch (width) {
    case 1: return base[row];
    case 2: return reinterpret_cast<const uint16_t*>(base)[row];
    case 4: return reinterpret_cast<const uint32_t*>(base)[row];
    case 8: return reinterpret_cast<const uint64_t*>(base)[row];
    default: return 0;
  }
}

}  // namespace

DataBlock DataBlock::Build(const Chunk& chunk, const uint32_t* perm,
                           bool build_psma) {
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
    bool want_psma = build_psma && !s.all_null &&
                     ch.scheme != Compression::kSingleValue;
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
    if (ch.dict_bytes > 0 ||
        (ch.scheme == Compression::kDictionary && !s.all_null)) {
      offset = AlignUp(offset, 32);
      m.dict_offset = offset;
      if (ch.scheme == Compression::kSingleValue) {
        m.dict_count = 1;
        offset += sizeof(StringDictRef);
      } else if (schema.type(c) == TypeId::kString) {
        m.dict_count = uint32_t(s.dict_s.size());
        offset += uint64_t(m.dict_count) * sizeof(StringDictRef);
      } else {
        m.dict_count = uint32_t(s.dict_i.size());
        offset += uint64_t(m.dict_count) * 8;
      }
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

    uint64_t* nulls = s.has_nulls
                          ? reinterpret_cast<uint64_t*>(buf + m.null_offset)
                          : nullptr;
    if (nulls != nullptr) {
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t row = perm ? perm[i] : i;
        if (chunk.IsNull(c, row)) BitmapSet(nulls, i);
      }
    }
    if (scheme == Compression::kSingleValue) {
      if (type == TypeId::kString && !s.all_null) {
        StringDictRef* refs =
            reinterpret_cast<StringDictRef*>(buf + m.dict_offset);
        std::string_view v = s.dict_s[0];
        refs[0] = {0, uint32_t(v.size())};
        std::memcpy(buf + m.string_offset, v.data(), v.size());
      }
      continue;
    }

    uint8_t* codes = buf + m.data_offset;
    if (type == TypeId::kString) {
      // Write the ordered dictionary.
      StringDictRef* refs =
          reinterpret_cast<StringDictRef*>(buf + m.dict_offset);
      uint8_t* str_area = buf + m.string_offset;
      uint32_t str_off = 0;
      std::unordered_map<std::string_view, uint32_t> code_of;
      code_of.reserve(s.dict_s.size() * 2);
      for (uint32_t k = 0; k < s.dict_s.size(); ++k) {
        std::string_view v = s.dict_s[k];
        refs[k] = {str_off, uint32_t(v.size())};
        std::memcpy(str_area + str_off, v.data(), v.size());
        str_off += uint32_t(v.size());
        code_of.emplace(v, k);
      }
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t row = perm ? perm[i] : i;
        uint64_t code = 0;
        if (!chunk.IsNull(c, row)) code = code_of[chunk.GetString(c, row)];
        WriteCode(codes, m.code_width, i, code);
      }
    } else if (type == TypeId::kDouble) {
      const double* src =
          reinterpret_cast<const double*>(chunk.column_data(c));
      double* dst = reinterpret_cast<double*>(codes);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t row = perm ? perm[i] : i;
        dst[i] = chunk.IsNull(c, row) ? 0.0 : src[row];
      }
    } else {
      // Integer-like.
      if (scheme == Compression::kDictionary) {
        int64_t* dict = reinterpret_cast<int64_t*>(buf + m.dict_offset);
        std::memcpy(dict, s.dict_i.data(), s.dict_i.size() * 8);
        for (uint32_t i = 0; i < n; ++i) {
          uint32_t row = perm ? perm[i] : i;
          uint64_t code = 0;
          if (!chunk.IsNull(c, row)) {
            int64_t v = ReadIntLike(chunk, type, c, row);
            code = uint64_t(std::lower_bound(s.dict_i.begin(), s.dict_i.end(),
                                             v) -
                            s.dict_i.begin());
          }
          WriteCode(codes, m.code_width, i, code);
        }
      } else if (scheme == Compression::kTruncation) {
        for (uint32_t i = 0; i < n; ++i) {
          uint32_t row = perm ? perm[i] : i;
          uint64_t code = 0;
          if (!chunk.IsNull(c, row)) {
            code = uint64_t(ReadIntLike(chunk, type, c, row)) -
                   uint64_t(s.min_i);
          }
          WriteCode(codes, m.code_width, i, code);
        }
      } else {  // kRaw
        for (uint32_t i = 0; i < n; ++i) {
          uint32_t row = perm ? perm[i] : i;
          uint64_t v = 0;
          if (!chunk.IsNull(c, row)) {
            v = uint64_t(ReadIntLike(chunk, type, c, row));
          }
          WriteCode(codes, m.code_width, i, v);
        }
      }
    }

    // Build the PSMA over the written codes (one O(n) pass, Appendix B).
    // Truncation and dictionary codes *are* the deltas; raw integers derive
    // the delta from the stored value (sign-extending 32-bit raw patterns).
    if (m.psma_entries > 0) {
      PsmaEntry* table = reinterpret_cast<PsmaEntry*>(buf + m.psma_offset);
      const uint64_t min_u = uint64_t(s.min_i);
      auto delta_at = [&](uint32_t i) -> uint64_t {
        uint64_t raw = ReadCodeRaw(codes, m.code_width, i);
        if (scheme != Compression::kRaw) return raw;
        if (type == TypeId::kInt32 || type == TypeId::kDate)
          return uint64_t(int64_t(int32_t(uint32_t(raw)))) - min_u;
        return raw - min_u;
      };
      for (uint32_t i = 0; i < n; ++i) {
        if (nulls != nullptr && BitmapTest(nulls, i)) continue;
        PsmaEntry& e = table[PsmaSlot(delta_at(i))];
        if (e.empty()) {
          e = {i, i + 1};
        } else {
          e.end = i + 1;
        }
      }
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

Value DataBlock::GetValue(uint32_t col, uint32_t row) const {
  if (IsNull(col, row)) return Value::Null();
  switch (type(col)) {
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kChar1:
      return Value::Int(GetInt(col, row));
    case TypeId::kDouble:
      return Value::Double(GetDouble(col, row));
    case TypeId::kString:
      return Value::Str(std::string(GetStringView(col, row)));
  }
  return Value::Null();
}

DataBlock DataBlock::FromBytes(const uint8_t* bytes, uint64_t size) {
  DataBlock block = ForFill(size);
  std::memcpy(block.buf_.data(), bytes, size);
  block.ValidateFilled();
  return block;
}

DataBlock DataBlock::ForFill(uint64_t size) {
  DB_CHECK(size >= sizeof(BlockHeader));
  DataBlock block;
  // The caller overwrites every byte; only the scan padding needs zeros.
  block.buf_.AllocateForOverwrite(size);
  return block;
}

void DataBlock::ValidateFilled() const {
  DB_CHECK(header()->magic == kMagic && header()->total_bytes == buf_.size());
}

void DataBlock::Serialize(std::ostream& os) const {
  os.write(reinterpret_cast<const char*>(buf_.data()),
           std::streamsize(SizeBytes()));
}

DataBlock DataBlock::Deserialize(std::istream& is) {
  BlockHeader hdr;
  is.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  DB_CHECK(is.good() && hdr.magic == kMagic);
  DataBlock block;
  block.buf_.Allocate(hdr.total_bytes);
  std::memcpy(block.buf_.data(), &hdr, sizeof(hdr));
  is.read(reinterpret_cast<char*>(block.buf_.data() + sizeof(hdr)),
          std::streamsize(hdr.total_bytes - sizeof(hdr)));
  DB_CHECK(is.good());
  return block;
}

uint64_t DataBlock::PsmaBytes() const {
  uint64_t total = 0;
  for (uint32_t c = 0; c < num_columns(); ++c)
    total += uint64_t(attr(c).psma_entries) * sizeof(PsmaEntry);
  return total;
}

}  // namespace datablocks
