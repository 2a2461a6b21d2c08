#include "storage/block_archive.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/macros.h"

namespace datablocks {

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/// One FNV-style step, 8 bytes per multiply (the extra fold makes the
/// upper bits diffuse). Bijective in `h` for a fixed word and injective in
/// the word for a fixed `h`, so a changed word always changes the result.
inline uint64_t Mix(uint64_t h, uint64_t w) {
  h ^= w;
  h *= kFnvPrime;
  return h ^ (h >> 32);
}

/// 8-lane FNV-style mix. Blocks are megabytes and this runs on the reload
/// hot path: one serial multiply chain would cost more CPU than the read,
/// so every 64-byte stripe feeds word k into lane k — eight independent
/// chains the core overlaps — and the lanes fold into one value at the
/// end. The tail under 64 bytes goes through the serial chain.
uint64_t Fnv1a64(const uint8_t* data, uint64_t n, uint64_t seed) {
  constexpr unsigned kLanes = 8;
  constexpr uint64_t kLaneSeedStep = 0x9e3779b97f4a7c15ull;  // golden ratio
  uint64_t h = seed;
  uint64_t i = 0;
  if (n >= kLanes * 8) {
    uint64_t lane[kLanes];
    for (unsigned k = 0; k < kLanes; ++k) lane[k] = seed + k * kLaneSeedStep;
    for (; i + kLanes * 8 <= n; i += kLanes * 8) {
      for (unsigned k = 0; k < kLanes; ++k) {
        uint64_t w;
        std::memcpy(&w, data + i + k * 8, 8);
        lane[k] = Mix(lane[k], w);
      }
    }
    for (unsigned k = 0; k < kLanes; ++k) h = Mix(h, lane[k]);
  }
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = Mix(h, w);
  }
  for (; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

constexpr size_t kSpineSum = 0;   // checksum-table word: spine checksum
constexpr size_t kBitmapSum = 1;  // checksum-table word: bitmap checksum

/// Words of a block's checksum table before its page checksums: the spine
/// and bitmap checksums, then the start of each attribute extent.
uint64_t HeadWords(uint32_t attr_count) { return 2 + uint64_t(attr_count); }

uint64_t TableMix(const std::vector<uint64_t>& t) {
  return Fnv1a64(reinterpret_cast<const uint8_t*>(t.data()), t.size() * 8,
                 kFnvBasis);
}

uint64_t PageSum(const uint8_t* block, uint64_t begin, uint64_t end) {
  return Fnv1a64(block + begin, end - begin, kFnvBasis);
}

}  // namespace

/// The table's head parsed: extents in order from the spine's end to the
/// block's end. False for a head no block of `block_bytes` has.
bool BlockArchive::ChecksumTable::Parse(uint32_t attr_count,
                                        uint64_t block_bytes) {
  if (words.size() < HeadWords(attr_count)) return false;
  uint64_t prev = DataBlock::SpineBytes(attr_count);
  if (prev > block_bytes) return false;
  begins.resize(attr_count + 1);
  for (uint32_t c = 0; c < attr_count; ++c) {
    const uint64_t begin = words[2 + c];
    if ((c == 0 && begin != prev) || begin < prev || begin > block_bytes)
      return false;
    begins[c] = prev = begin;
  }
  begins[attr_count] = block_bytes;
  DataBlock::FirstPages(begins, &first_page);
  return true;
}

uint64_t BlockArchive::ChecksumTable::Words() const {
  return begins.size() + 1 + first_page.back();  // head, then pages
}

uint64_t BlockArchive::ChecksumTable::page_sum(uint64_t page) const {
  return words[begins.size() + 1 + page];  // after the head's 2 + ncols
}

namespace {

/// The checksum table of `block` and its delete bitmap (AppendBlock).
Status BuildChecksumTable(const DataBlock& block, const uint8_t* bitmap,
                          uint64_t bitmap_words,
                          BlockArchive::ChecksumTable* t) {
  std::vector<uint64_t> begins;
  if (Status s = block.Extents(&begins); !s.ok()) return s;
  const uint32_t ncols = block.num_columns();
  const uint8_t* raw = block.raw_bytes();
  t->words.assign(HeadWords(ncols), 0);
  t->words[kSpineSum] =
      Fnv1a64(raw, DataBlock::SpineBytes(ncols), kFnvBasis);
  t->words[kBitmapSum] = Fnv1a64(bitmap, bitmap_words * 8, kFnvBasis);
  for (uint32_t c = 0; c < ncols; ++c) t->words[2 + c] = begins[c];
  for (uint32_t c = 0; c < ncols; ++c) {
    for (uint64_t b = begins[c]; b < begins[c + 1];
         b += DataBlock::kPageBytes) {
      t->words.push_back(PageSum(
          raw, b, std::min(b + DataBlock::kPageBytes, begins[c + 1])));
    }
  }
  DB_CHECK(t->Parse(ncols, block.SizeBytes()));
  return Status::Ok();
}

Status Mismatch(size_t id, const std::string& region, uint64_t stored,
                uint64_t read) {
  char msg[200];
  std::snprintf(msg, sizeof(msg),
                "checksum mismatch on block %zu %s (stored %016llx, read "
                "%016llx)",
                id, region.c_str(), (unsigned long long)stored,
                (unsigned long long)read);
  return Status::Corruption(msg);
}

/// Checks page `page` of attribute `c`'s extent in `block` against `t`.
Status VerifyPage(const uint8_t* block, const BlockArchive::ChecksumTable& t,
                  uint32_t c, uint64_t page, size_t id) {
  const uint64_t begin =
      t.begins[c] + (page - t.first_page[c]) * DataBlock::kPageBytes;
  const uint64_t h = PageSum(
      block, begin, std::min(begin + DataBlock::kPageBytes, t.begins[c + 1]));
  if (h == t.page_sum(page)) return Status::Ok();
  return Mismatch(id,
                  "attribute " + std::to_string(c) + " page " +
                      std::to_string(page - t.first_page[c]),
                  t.page_sum(page), h);
}

Status VerifySpine(const uint8_t* block, const BlockArchive::ChecksumTable& t,
                   uint32_t ncols, size_t id) {
  const uint64_t h = Fnv1a64(block, DataBlock::SpineBytes(ncols), kFnvBasis);
  if (h == t.words[kSpineSum]) return Status::Ok();
  return Mismatch(id, "spine", t.words[kSpineSum], h);
}

/// Checks the regions of a block image that `columns` covers — the spine,
/// every page of their extents and, for ColumnSet::All(), the delete
/// bitmap — against checksum table `t`. kCorruption names the first region
/// that differs.
Status VerifyChecksums(const uint8_t* block, const uint8_t* bitmap,
                       uint64_t bitmap_words,
                       const BlockArchive::ChecksumTable& t,
                       const ColumnSet& columns, size_t id) {
  const uint32_t ncols = uint32_t(t.begins.size() - 1);
  if (Status s = VerifySpine(block, t, ncols, id); !s.ok()) return s;
  for (uint32_t i = 0; i < columns.size(ncols); ++i) {
    const uint32_t c = columns.at(i);
    for (uint64_t p = t.first_page[c]; p < t.first_page[c + 1]; ++p) {
      if (Status s = VerifyPage(block, t, c, p, id); !s.ok()) return s;
    }
  }
  if (columns.all()) {
    const uint64_t h = Fnv1a64(bitmap, bitmap_words * 8, kFnvBasis);
    if (h != t.words[kBitmapSum])
      return Mismatch(id, "delete bitmap", t.words[kBitmapSum], h);
  }
  return Status::Ok();
}

/// Process-wide failure counters ("archive.*"): every Status returned from
/// a read or write path is also counted here, so dashboards see storage
/// trouble even when a caller swallows the Status.
struct ArchiveMetrics {
  obs::Counter* read_errors;
  obs::Counter* write_errors;
};

const ArchiveMetrics& Metrics() {
  static const ArchiveMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return ArchiveMetrics{r.GetCounter("archive.read_errors"),
                          r.GetCounter("archive.write_errors")};
  }();
  return m;
}

Status CountRead(Status s) {
  Metrics().read_errors->Add();
  return s;
}

Status CountWrite(Status s) {
  Metrics().write_errors->Add();
  return s;
}

/// Full-length pread: loops on partial reads, kIoError on a syscall
/// failure, kCorruption on EOF before `n` bytes (the caller asked for bytes
/// the file does not have — a truncation symptom, not an OS fault).
Status PreadFull(int fd, void* buf, uint64_t n, uint64_t off,
                 const char* what) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::pread(fd, p, size_t(n), off_t(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread of ") + what + " failed: " +
                             std::strerror(errno));
    }
    if (r == 0) {
      return Status::Corruption(std::string("truncated ") + what +
                                " (unexpected end of file)");
    }
    p += r;
    n -= uint64_t(r);
    off += uint64_t(r);
  }
  return Status::Ok();
}

/// Full-length pwrite: loops on partial writes, kNoSpace on ENOSPC/EDQUOT
/// or a zero-progress write (disk full presents as both), kIoError
/// otherwise.
Status PwriteFull(int fd, const void* buf, uint64_t n, uint64_t off,
                  const char* what) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::pwrite(fd, p, size_t(n), off_t(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC || errno == EDQUOT) {
        return Status::NoSpace(std::string("no space writing ") + what);
      }
      return Status::IoError(std::string("pwrite of ") + what + " failed: " +
                             std::strerror(errno));
    }
    if (r == 0) {
      return Status::NoSpace(std::string("short write of ") + what);
    }
    p += r;
    n -= uint64_t(r);
    off += uint64_t(r);
  }
  return Status::Ok();
}

/// fsync with the failure as a kIoError naming `what`.
Status Fsync(int fd, const char* what) {
  if (::fsync(fd) == 0) return Status::Ok();
  return Status::IoError(std::string("fsync of ") + what +
                         " failed: " + std::strerror(errno));
}

}  // namespace

BlockArchive::~BlockArchive() {
  if (fd_ >= 0) ::close(fd_);
}

BlockArchive::BlockArchive(BlockArchive&& o) noexcept { *this = std::move(o); }

BlockArchive& BlockArchive::operator=(BlockArchive&& o) noexcept {
  if (this == &o) return *this;
  if (fd_ >= 0) ::close(fd_);
  path_ = std::move(o.path_);
  fd_ = o.fd_;
  mu_ = std::move(o.mu_);
  entries_ = std::move(o.entries_);
  summaries_ = std::move(o.summaries_);
  tables_ = std::move(o.tables_);
  end_offset_ = o.end_offset_;
  payload_reads_ = o.payload_reads_;
  payload_bytes_read_ = o.payload_bytes_read_;
  payload_pages_read_ = o.payload_pages_read_;
  writable_ = o.writable_;
  o.fd_ = -1;
  o.writable_ = false;
  return *this;
}

StatusOr<BlockArchive> BlockArchive::Create(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return CountWrite(Status::IoError("cannot create archive '" + path +
                                      "': " + std::strerror(errno)));
  }
  BlockArchive a;
  a.path_ = path;
  a.fd_ = fd;
  a.mu_ = std::make_unique<std::mutex>();
  a.writable_ = true;
  FileHeader hdr{kMagic, kVersion, 0, 0, 0, 0};
  if (Status s = PwriteFull(fd, &hdr, sizeof(hdr), 0, "archive header");
      !s.ok()) {
    return CountWrite(std::move(s));
  }
  a.end_offset_ = sizeof(FileHeader);
  return a;
}

StatusOr<BlockArchive> BlockArchive::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    Status s = errno == ENOENT
                   ? Status::NotFound("no archive at '" + path + "'")
                   : Status::IoError("cannot open archive '" + path +
                                     "': " + std::strerror(errno));
    return CountRead(std::move(s));
  }
  BlockArchive a;
  a.path_ = path;
  a.fd_ = fd;
  a.mu_ = std::make_unique<std::mutex>();
  a.writable_ = false;

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return CountRead(Status::IoError("fstat of '" + path +
                                     "' failed: " + std::strerror(errno)));
  }
  const uint64_t file_size = uint64_t(st.st_size);
  if (DB_FAILPOINT("archive.open.header")) {
    return CountRead(Status::Corruption("injected header fault (failpoint)"));
  }
  if (file_size < sizeof(FileHeader)) {
    return CountRead(Status::Corruption(
        "'" + path + "' is not an archive: " + std::to_string(file_size) +
        " bytes, header needs " + std::to_string(sizeof(FileHeader))));
  }
  FileHeader hdr;
  if (Status s = PreadFull(fd, &hdr, sizeof(hdr), 0, "archive header");
      !s.ok()) {
    return CountRead(std::move(s));
  }
  if (hdr.magic != kMagic) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "bad archive magic 0x%08x (expected 0x%08x)", hdr.magic,
                  kMagic);
    return CountRead(Status::Corruption(msg));
  }
  if (hdr.version < kMinVersion || hdr.version > kVersion) {
    return CountRead(Status::Corruption(
        "unsupported archive version " + std::to_string(hdr.version) +
        " (readable: " + std::to_string(kVersion) + ")"));
  }

  Status index_status =
      hdr.index_offset == 0
          ? Status::Corruption("unfinished archive (index never published)")
          : OpenIndex(a, hdr, file_size);
  if (index_status.ok() && DB_FAILPOINT("archive.open.index")) {
    index_status = Status::Corruption("injected index fault (failpoint)");
  }
  if (!index_status.ok()) {
    return CountRead(Status::Corruption("'" + path + "': " +
                                        index_status.message()));
  }
  return a;
}

Status BlockArchive::OpenIndex(BlockArchive& a, const FileHeader& hdr,
                               uint64_t file_size) {
  if (hdr.index_offset < sizeof(FileHeader) || hdr.index_offset > file_size) {
    return Status::Corruption(
        "index offset " + std::to_string(hdr.index_offset) +
        " out of range (file is " + std::to_string(file_size) + " bytes)");
  }
  const uint64_t region_size = file_size - hdr.index_offset;
  // An index is entries + summaries — small. A multi-GB "index" can only
  // be a corrupt offset; refuse before allocating.
  if (region_size > (1ull << 31)) {
    return Status::Corruption("implausible index size " +
                              std::to_string(region_size) + " bytes");
  }
  std::vector<uint8_t> region(region_size);
  if (region_size != 0) {
    if (Status s = PreadFull(a.fd_, region.data(), region_size,
                             hdr.index_offset, "archive index");
        !s.ok()) {
      return s;
    }
  }
  const uint64_t entries_bytes =
      uint64_t(hdr.block_count) * sizeof(ArchiveEntry);
  if (entries_bytes > region_size) {
    return Status::Corruption(
        "truncated index: " + std::to_string(hdr.block_count) +
        " records need " + std::to_string(entries_bytes) + " bytes, " +
        std::to_string(region_size) + " present");
  }
  a.entries_.resize(hdr.block_count);
  a.summaries_.resize(hdr.block_count);
  a.tables_.resize(hdr.block_count);
  std::memcpy(a.entries_.data(), region.data(), size_t(entries_bytes));
  uint64_t cursor = entries_bytes;

  uint64_t blob_bytes = 0;
  if (cursor + sizeof(blob_bytes) > region_size) {
    return Status::Corruption("truncated index (no summary-blob length)");
  }
  std::memcpy(&blob_bytes, region.data() + cursor, sizeof(blob_bytes));
  cursor += sizeof(blob_bytes);
  if (blob_bytes > region_size - cursor) {
    return Status::Corruption(
        "truncated index: summary blob claims " + std::to_string(blob_bytes) +
        " bytes, " + std::to_string(region_size - cursor) + " present");
  }
  const uint8_t* blob = region.data() + cursor;
  cursor += blob_bytes;

  // End-of-file checksum over the whole index region: entry records, blob
  // length and blob. Catches index corruption that per-payload checksums
  // cannot see.
  uint64_t stored = 0;
  if (cursor + sizeof(stored) > region_size) {
    return Status::Corruption("truncated index (no index checksum)");
  }
  std::memcpy(&stored, region.data() + cursor, sizeof(stored));
  const uint64_t actual = Fnv1a64(region.data(), cursor, kFnvBasis);
  if (stored != actual) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "index checksum mismatch (stored %016llx, actual %016llx)",
                  (unsigned long long)stored, (unsigned long long)actual);
    return Status::Corruption(msg);
  }

  // Entry sanity: every payload, with its checksum table's head after it,
  // must fit between the header and the index, and its deletion count must
  // agree with its bitmap's shape. A corrupt record must not drive
  // ReadBlock into a wild pread or an absurd allocation, nor Restore into a
  // wrong count.
  for (uint32_t i = 0; i < hdr.block_count; ++i) {
    const ArchiveEntry& e = a.entries_[i];
    auto bad = [&](const std::string& what) {
      return Status::Corruption("entry " + std::to_string(i) + " " + what);
    };
    // Caps first, so the sums below cannot overflow.
    if (e.block_bytes < sizeof(BlockHeader) || e.block_bytes > file_size ||
        e.bitmap_words > file_size / 8 || e.attr_count > file_size / 16) {
      return bad("has implausible sizes");
    }
    const uint64_t head_bytes = HeadWords(e.attr_count) * 8;
    const uint64_t payload = e.block_bytes + e.bitmap_words * 8;
    if (e.offset < sizeof(FileHeader) || e.offset > hdr.index_offset ||
        payload + head_bytes > hdr.index_offset - e.offset) {
      return bad("out of bounds (offset " + std::to_string(e.offset) + ", " +
                 std::to_string(e.block_bytes) + " bytes)");
    }
    if (e.deleted_count > e.row_count ||
        (e.bitmap_words != 0 && e.bitmap_words != BitmapWords(e.row_count)) ||
        (e.bitmap_words == 0 && e.deleted_count != 0)) {
      return bad("has a deletion count its bitmap cannot hold");
    }
    if (e.summary_bytes != 0) {
      // Overflow-proof bounds check: a corrupt entry must not wrap the sum
      // past the blob size and slip through.
      if (e.summary_bytes > blob_bytes ||
          e.summary_offset > blob_bytes - e.summary_bytes) {
        return bad("summary out of blob bounds");
      }
      StatusOr<BlockSummary> summary =
          BlockSummary::FromBytes(blob + e.summary_offset, e.summary_bytes);
      if (!summary.ok()) return bad(summary.status().message());
      if (summary->row_count() != e.row_count ||
          summary->num_columns() != e.attr_count) {
        return bad("summary does not describe its block");
      }
      a.summaries_[i] =
          std::make_shared<const BlockSummary>(std::move(*summary));
    }
    // The checksum table sits right after the payload: its head, whose
    // extents give the number of page checksums that follow. One that is
    // malformed or fails its entry's checksum fails that block's reads
    // alone, as a damaged payload does.
    const uint64_t table_off = e.offset + payload;
    auto table = std::make_unique<ChecksumTable>();
    table->words.resize(HeadWords(e.attr_count));
    bool ok = PreadFull(a.fd_, table->words.data(), head_bytes, table_off,
                        "checksum table")
                  .ok() &&
              table->Parse(e.attr_count, e.block_bytes) &&
              table->Words() * 8 <= hdr.index_offset - table_off;
    if (ok) {
      table->words.resize(table->Words());
      ok = PreadFull(a.fd_, table->words.data() + HeadWords(e.attr_count),
                     table->words.size() * 8 - head_bytes,
                     table_off + head_bytes, "checksum table")
               .ok() &&
           TableMix(table->words) == e.checksum;
    }
    if (ok) {
      a.tables_[i] = std::move(table);
    } else {
      Metrics().read_errors->Add();
    }
  }
  a.end_offset_ = hdr.index_offset;
  return Status::Ok();
}

StatusOr<size_t> BlockArchive::AppendBlock(const DataBlock& block,
                                           uint32_t chunk_index,
                                           const uint64_t* delete_bitmap,
                                           const BlockSummary* summary) {
  DB_CHECK(mu_ != nullptr);
  std::lock_guard<std::mutex> lock(*mu_);
  if (!writable_) {
    return CountWrite(
        Status::FailedPrecondition("append to a finished/read-only archive"));
  }
  if (DB_FAILPOINT("archive.append.nospace")) {
    return CountWrite(Status::NoSpace("injected disk full (failpoint)"));
  }
  const uint64_t block_bytes = block.SizeBytes();
  const uint64_t bitmap_words =
      delete_bitmap != nullptr ? BitmapWords(block.num_rows()) : 0;

  // Snapshot the bitmap: the caller's pointer is typically the table's live
  // side bitmap, which concurrent deletes mutate through atomic_ref —
  // checksum, written bytes and deleted_count must all come from one
  // atomic-read snapshot.
  std::vector<uint64_t> bitmap(bitmap_words);
  uint32_t deleted_count = 0;
  for (uint64_t w = 0; w < bitmap_words; ++w) {
    bitmap[w] = std::atomic_ref<uint64_t>(
                    const_cast<uint64_t&>(delete_bitmap[w]))
                    .load(std::memory_order_relaxed);
    deleted_count += uint32_t(std::popcount(bitmap[w]));
  }

  auto table = std::make_unique<ChecksumTable>();
  if (Status s = BuildChecksumTable(
          block, reinterpret_cast<const uint8_t*>(bitmap.data()), bitmap_words,
          table.get());
      !s.ok()) {
    return CountWrite(std::move(s));
  }
  const uint64_t table_bytes = table->words.size() * 8;

  // Payload, bitmap, table — any failure truncates back to the last good
  // end-of-payload so every previously appended block stays readable and a
  // later Finish publishes a consistent index.
  const uint64_t payload_off = end_offset_;
  const uint64_t table_off = payload_off + block_bytes + bitmap_words * 8;
  Status s = Status::Ok();
  if (DB_FAILPOINT("archive.append.short_write")) {
    // Simulated torn append: half the payload reaches the disk, then the
    // device gives up. Exactly what a crash/disk-full leaves behind — and
    // what the truncate below must clean up.
    PwriteFull(fd_, block.raw_bytes(), block_bytes / 2, payload_off,
               "payload (torn)");
    s = Status::NoSpace("injected short write (failpoint)");
  }
  if (s.ok()) {
    s = PwriteFull(fd_, block.raw_bytes(), block_bytes, payload_off,
                   "block payload");
  }
  if (s.ok() && bitmap_words != 0) {
    s = PwriteFull(fd_, bitmap.data(), bitmap_words * 8,
                   payload_off + block_bytes, "delete bitmap");
  }
  if (s.ok()) {
    s = PwriteFull(fd_, table->words.data(), table_bytes, table_off,
                   "checksum table");
  }
  if (!s.ok()) {
    // Roll the file back; ignore a failed truncate (the stray bytes sit
    // past end_offset_, invisible to the index).
    (void)::ftruncate(fd_, off_t(end_offset_));
    return CountWrite(std::move(s));
  }

  ArchiveEntry e{};
  e.offset = payload_off;
  e.block_bytes = block_bytes;
  e.bitmap_words = bitmap_words;
  e.checksum = TableMix(table->words);
  e.chunk_index = chunk_index;
  e.deleted_count = deleted_count;
  e.row_count = block.num_rows();
  e.attr_count = block.num_columns();
  entries_.push_back(e);
  summaries_.push_back(
      summary != nullptr ? std::make_shared<const BlockSummary>(*summary)
                         : nullptr);
  tables_.push_back(std::move(table));
  end_offset_ = table_off + table_bytes;
  return entries_.size() - 1;
}

Status BlockArchive::BeginRead(size_t id, ArchiveEntry* e,
                               const ChecksumTable** table) const {
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (id >= entries_.size()) {
      return Status::NotFound("no archived block " + std::to_string(id) +
                              " (archive has " +
                              std::to_string(entries_.size()) + ")");
    }
    *e = entries_[id];
    *table = tables_[id].get();
    ++payload_reads_;
  }
  if (DB_FAILPOINT("archive.read.ioerror")) {
    return Status::IoError("injected read failure (failpoint)");
  }
  if (*table == nullptr) {
    return Status::Corruption("block " + std::to_string(id) +
                              ": its checksum table failed verification");
  }
  return Status::Ok();
}

void BlockArchive::CountBytesRead(uint64_t bytes, uint64_t pages) const {
  std::lock_guard<std::mutex> lock(*mu_);
  payload_bytes_read_ += bytes;
  payload_pages_read_ += pages;
}

StatusOr<uint64_t> BlockArchive::ReadBlock(
    size_t id, const ColumnSet& columns, DataBlock* out,
    std::vector<uint64_t>* delete_bitmap) const {
  DB_CHECK(mu_ != nullptr);
  ArchiveEntry e;
  const ChecksumTable* table;
  if (Status s = BeginRead(id, &e, &table); !s.ok())
    return CountRead(std::move(s));
  const std::string block_name = "block " + std::to_string(id);
  const uint32_t ncols = e.attr_count;
  for (uint32_t i = 0; i < columns.size(ncols); ++i) {
    if (columns.at(i) >= ncols) {
      return CountRead(Status::Corruption(
          block_name + " has no attribute " + std::to_string(columns.at(i))));
    }
  }

  // Read straight into the block's own buffer — reads are a hot path under
  // eviction, an intermediate copy would double the cost. Only the spine
  // and the requested extents are fetched, adjacent ones in one pread (the
  // full read is a single one). The preads run outside the catalog mutex:
  // concurrent reads of different blocks must overlap their disk time.
  out->ResizeForFill(e.block_bytes);
  uint8_t* buf = out->fill_bytes();
  uint64_t bytes = 0, pages = 0;
  uint64_t run_begin = 0, run_end = DataBlock::SpineBytes(ncols);
  auto flush = [&]() -> Status {
    if (run_end == run_begin) return Status::Ok();
    bytes += run_end - run_begin;
    return PreadFull(fd_, buf + run_begin, run_end - run_begin,
                     e.offset + run_begin, "block payload");
  };
  Status s = Status::Ok();
  for (uint32_t i = 0; i < columns.size(ncols) && s.ok(); ++i) {
    const uint32_t c = columns.at(i);
    const uint64_t begin = table->begins[c], end = table->begins[c + 1];
    pages += table->first_page[c + 1] - table->first_page[c];
    if (begin == end) continue;
    if (begin != run_end) {
      s = flush();
      run_begin = begin;
    }
    run_end = end;
  }
  if (s.ok()) s = flush();
  std::vector<uint64_t> bitmap(columns.all() ? e.bitmap_words : 0);
  if (s.ok() && !bitmap.empty()) {
    bytes += e.bitmap_words * 8;
    s = PreadFull(fd_, bitmap.data(), e.bitmap_words * 8,
                  e.offset + e.block_bytes, "delete bitmap");
  }
  if (!s.ok()) return CountRead(std::move(s));

  s = VerifyChecksums(buf, reinterpret_cast<const uint8_t*>(bitmap.data()),
                      bitmap.size(), *table, columns, id);
  if (s.ok() && DB_FAILPOINT("archive.read.corruption")) {
    s = Status::Corruption("checksum mismatch on " + block_name +
                           " (failpoint)");
  }
  if (s.ok() && columns.all()) {
    // Restore trusts the entry's count as the chunk's deletion count: it
    // must be the one the verified bitmap holds.
    uint64_t set = 0;
    for (uint64_t w : bitmap) set += uint64_t(std::popcount(w));
    if (set != e.deleted_count) {
      s = Status::Corruption(block_name + " delete bitmap holds " +
                             std::to_string(set) + " deletions, its entry " +
                             std::to_string(e.deleted_count));
    }
  }
  if (!s.ok()) return CountRead(std::move(s));

  // The checksums prove the bytes are the ones written; the structure must
  // still be checked before anything indexes into them. The extents the
  // spine implies must be the ones the table verified.
  std::vector<uint64_t> begins;
  s = out->Extents(&begins);
  const bool agree =
      s.ok() && begins == table->begins && out->num_rows() == e.row_count;
  if (agree) s = out->Validate(columns);
  if (!agree || !s.ok()) {
    const std::string why =
        agree ? s.message() : "layout disagrees with its index";
    return CountRead(Status::Corruption(
        block_name + " bytes are not a well-formed block: " + why));
  }
  if (delete_bitmap != nullptr) *delete_bitmap = std::move(bitmap);
  CountBytesRead(bytes, pages);
  return bytes;
}

StatusOr<uint64_t> BlockArchive::ReadRow(size_t id, uint32_t col,
                                         uint32_t row,
                                         PartialBlock* image) const {
  DB_CHECK(mu_ != nullptr);
  ArchiveEntry e;
  const ChecksumTable* table;
  if (Status s = BeginRead(id, &e, &table); !s.ok())
    return CountRead(std::move(s));
  const std::string block_name = "block " + std::to_string(id);
  if (col >= e.attr_count) {
    return CountRead(Status::Corruption(block_name + " has no attribute " +
                                        std::to_string(col)));
  }
  auto malformed = [&block_name](const Status& why) {
    return Status::Corruption(block_name +
                              " bytes are not a well-formed block: " +
                              why.message());
  };
  uint64_t bytes = 0, pages = 0;
  Status s = Status::Ok();
  DataBlock* block = image->mutable_block();
  if (!image->has_spine()) {
    // The spine, checked as a projected read checks it; its extents must
    // be the ones the table's page checksums cover.
    block->ResizeForFill(e.block_bytes);
    const uint64_t spine = DataBlock::SpineBytes(e.attr_count);
    bytes += spine;
    s = PreadFull(fd_, block->fill_bytes(), spine, e.offset, "block spine");
    if (s.ok()) s = VerifySpine(block->raw_bytes(), *table, e.attr_count, id);
    if (s.ok()) {
      s = image->AdoptSpine();
      if (!s.ok()) {
        s = malformed(s);
      } else if (image->begins() != table->begins ||
                 block->num_rows() != e.row_count) {
        image->Clear();
        s = malformed(Status::Corruption("layout disagrees with its index"));
      }
    }
  }
  // The row's pages: each range ValidateRow is about to read is fetched
  // where the image lacks it, in one pread, and each page is verified
  // before it is added.
  Status fetch = Status::Ok();
  auto need = [&](uint64_t offset, uint64_t len) -> Status {
    uint64_t first = image->PageOf(col, offset);
    uint64_t last = image->PageOf(col, offset + len - 1);
    while (first <= last && image->HasPage(first)) ++first;
    while (last > first && image->HasPage(last)) --last;
    if (first > last) return Status::Ok();
    uint64_t begin, end, unused;
    image->PageRange(col, first, &begin, &unused);
    image->PageRange(col, last, &unused, &end);
    bytes += end - begin;
    pages += last - first + 1;
    fetch = PreadFull(fd_, block->fill_bytes() + begin, end - begin,
                      e.offset + begin, "block page");
    for (uint64_t p = first; fetch.ok() && p <= last; ++p) {
      fetch = VerifyPage(block->raw_bytes(), *table, col, p, id);
      if (fetch.ok()) image->AddPage(p);
    }
    return fetch;
  };
  if (s.ok()) {
    s = block->ValidateRow(col, row, table->begins[col],
                           table->begins[col + 1], need);
    // A failure of the row check itself, not of a fetch: the bytes passed
    // their checksums but are not a well-formed block.
    if (fetch.ok() && s.code() == StatusCode::kCorruption) s = malformed(s);
  }
  if (s.ok() && DB_FAILPOINT("archive.read.corruption")) {
    s = Status::Corruption("checksum mismatch on " + block_name +
                           " (failpoint)");
  }
  if (!s.ok()) return CountRead(std::move(s));
  CountBytesRead(bytes, pages);
  return bytes;
}

StatusOr<DataBlock> BlockArchive::ReadBlock(
    size_t id, std::vector<uint64_t>* delete_bitmap) const {
  DataBlock block;
  StatusOr<uint64_t> read =
      ReadBlock(id, ColumnSet::All(), &block, delete_bitmap);
  if (!read.ok()) return read.status();
  return block;
}

uint64_t BlockArchive::Checksum(const void* data, uint64_t n) {
  return Fnv1a64(static_cast<const uint8_t*>(data), n, kFnvBasis);
}

uint64_t BlockArchive::PayloadBytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  uint64_t total = 0;
  for (const ArchiveEntry& e : entries_)
    total += e.block_bytes + e.bitmap_words * 8;
  return total;
}

uint64_t BlockArchive::payload_reads() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return payload_reads_;
}

uint64_t BlockArchive::payload_bytes_read() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return payload_bytes_read_;
}

uint64_t BlockArchive::payload_pages_read() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return payload_pages_read_;
}

size_t BlockArchive::num_blocks() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return entries_.size();
}

std::vector<ArchiveEntry> BlockArchive::EntriesSnapshot() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return entries_;
}

Status BlockArchive::Finish() {
  DB_CHECK(mu_ != nullptr);
  std::lock_guard<std::mutex> lock(*mu_);
  if (!writable_) return Status::Ok();
  writable_ = false;
  // Serialize the summaries into one blob and point the entries at it.
  std::vector<uint8_t> blob;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (summaries_[i] == nullptr) {
      entries_[i].summary_offset = 0;
      entries_[i].summary_bytes = 0;
      continue;
    }
    entries_[i].summary_offset = blob.size();
    summaries_[i]->AppendTo(&blob);
    entries_[i].summary_bytes = blob.size() - entries_[i].summary_offset;
  }
  // Index image: records, blob length, blob, then a checksum over all of
  // it — the reader rejects a torn or bit-flipped index.
  std::vector<uint8_t> index;
  const uint8_t* entry_bytes =
      reinterpret_cast<const uint8_t*>(entries_.data());
  index.insert(index.end(), entry_bytes,
               entry_bytes + entries_.size() * sizeof(ArchiveEntry));
  const uint64_t blob_bytes = blob.size();
  const uint8_t* len_bytes = reinterpret_cast<const uint8_t*>(&blob_bytes);
  index.insert(index.end(), len_bytes, len_bytes + sizeof(blob_bytes));
  index.insert(index.end(), blob.begin(), blob.end());
  const uint64_t index_checksum = Fnv1a64(index.data(), index.size(),
                                          kFnvBasis);
  const uint8_t* sum_bytes =
      reinterpret_cast<const uint8_t*>(&index_checksum);
  index.insert(index.end(), sum_bytes, sum_bytes + sizeof(index_checksum));

  Status s = Status::Ok();
  if (DB_FAILPOINT("archive.finish.ioerror")) {
    s = Status::IoError("injected finish failure (failpoint)");
  }
  // Durability order: payload first, then the index bytes, and only then
  // the header that makes the index reachable. Save publishes the file by
  // rename only after this succeeded, so a crash anywhere in between
  // leaves a `.tmp` file nobody opens, never a torn archive at its path.
  if (s.ok()) s = Fsync(fd_, "payload");
  if (s.ok()) {
    s = PwriteFull(fd_, index.data(), index.size(), end_offset_,
                   "archive index");
  }
  if (s.ok()) s = Fsync(fd_, "index");
  if (s.ok()) {
    FileHeader hdr{kMagic, kVersion, uint32_t(entries_.size()), 0,
                   end_offset_, 0};
    s = PwriteFull(fd_, &hdr, sizeof(hdr), 0, "archive header");
  }
  if (s.ok()) s = Fsync(fd_, "header");
  if (!s.ok()) return CountWrite(std::move(s));
  return s;
}

StatusOr<BlockArchive> BlockArchive::Compact(const BlockArchive& src,
                                             const std::vector<bool>& live,
                                             const std::string& path,
                                             std::vector<size_t>* id_map) {
  DB_CHECK(live.size() == src.num_blocks());
  StatusOr<BlockArchive> out_or = Create(path);
  if (!out_or.ok()) return out_or.status();
  BlockArchive out = std::move(*out_or);
  if (id_map != nullptr) id_map->assign(live.size(), SIZE_MAX);
  for (size_t i = 0; i < live.size(); ++i) {
    if (!live[i]) continue;
    // ReadBlock re-verifies the checksum, so corruption cannot silently
    // propagate into the compacted file.
    std::vector<uint64_t> bitmap;
    StatusOr<DataBlock> block = src.ReadBlock(i, &bitmap);
    if (!block.ok()) return block.status();
    StatusOr<size_t> id =
        out.AppendBlock(*block, src.entry(i).chunk_index,
                        bitmap.empty() ? nullptr : bitmap.data(),
                        src.summary(i));
    if (!id.ok()) return id.status();
    if (id_map != nullptr) (*id_map)[i] = *id;
  }
  return out;
}

StatusOr<size_t> BlockArchive::Save(const Table& table,
                                    const std::string& path) {
  // Build beside the target and rename once finished: the publish is
  // atomic, a pre-existing archive at `path` survives any failure here.
  const std::string tmp_path = path + ".tmp";
  auto fail = [&tmp_path](Status s) {
    std::remove(tmp_path.c_str());
    return s;
  };
  StatusOr<BlockArchive> archive_or = Create(tmp_path);
  if (!archive_or.ok()) return fail(archive_or.status());
  BlockArchive archive = std::move(*archive_or);
  DataBlock image;  // an evicted chunk's block, read whole
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    if (!table.is_frozen(c) || table.chunk_rows(c) == 0) continue;
    try {
      // The section keeps a resident block allocated for the write; an
      // evicted one is read whole into `image` and stays evicted. A failed
      // read surfaces as StorageException.
      Table::ReadSection section;
      const DataBlock* block =
          table.OpenForScan(c, ColumnSet::All(), &image).block;
      // A chunk still freezing at its turn is read as hot, and hot chunks
      // are not archived. Tombstones have no block either.
      if (block == nullptr) continue;
      BlockSummary summary = BlockSummary::Extract(*block);
      StatusOr<size_t> id = archive.AppendBlock(
          *block, uint32_t(c), table.delete_bitmap(c), &summary);
      if (!id.ok()) return fail(id.status());
    } catch (const StorageException& e) {
      return fail(e.status());
    }
  }
  if (Status s = archive.Finish(); !s.ok()) return fail(std::move(s));
  const size_t n = archive.num_blocks();
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return fail(Status::IoError("cannot publish archive at '" + path +
                                "': " + std::strerror(errno)));
  }
  archive.NotifyRenamed(path);
  return n;
}

StatusOr<std::vector<DataBlock>> BlockArchive::Load(const std::string& path) {
  StatusOr<BlockArchive> archive = Open(path);
  if (!archive.ok()) return archive.status();
  std::vector<DataBlock> blocks;
  blocks.reserve(archive->num_blocks());
  for (size_t i = 0; i < archive->num_blocks(); ++i) {
    StatusOr<DataBlock> block = archive->ReadBlock(i);
    if (!block.ok()) return block.status();
    blocks.push_back(std::move(*block));
  }
  return blocks;
}

StatusOr<Table> BlockArchive::Restore(const std::string& name, Schema schema,
                                      const std::string& path,
                                      uint32_t chunk_capacity) {
  StatusOr<BlockArchive> archive = Open(path);
  if (!archive.ok()) return archive.status();
  Table table(name, std::move(schema), chunk_capacity);
  for (size_t i = 0; i < archive->num_blocks(); ++i) {
    std::vector<uint64_t> bitmap;
    StatusOr<DataBlock> block = archive->ReadBlock(i, &bitmap);
    if (!block.ok()) return block.status();
    bool matches = block->num_columns() == table.schema().num_columns();
    for (uint32_t c = 0; matches && c < block->num_columns(); ++c)
      matches = block->type(c) == table.schema().type(c);
    if (!matches) {
      return Status::Corruption("block " + std::to_string(i) + " of '" +
                                path + "' does not match the table schema");
    }
    table.AppendFrozen(std::move(*block), std::move(bitmap),
                       archive->entry(i).deleted_count);
    // Carry the archived summary over so the restored table prunes evicted
    // blocks summary-only once a lifecycle manager adopts it.
    if (const BlockSummary* s = archive->summary(i)) {
      table.SetBlockSummary(table.num_chunks() - 1,
                            std::make_unique<BlockSummary>(*s));
    }
  }
  return table;
}

}  // namespace datablocks
