#include "storage/block_archive.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
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

uint64_t RegionSum(const uint8_t* block, uint64_t begin, uint64_t end) {
  return Fnv1a64(block + begin, end - begin, kFnvBasis);
}

/// Attribute whose extent holds page `page` of the block `t` describes.
uint32_t PageColumn(const BlockArchive::ChecksumTable& t, uint64_t page) {
  return uint32_t(std::upper_bound(t.first_page.begin(), t.first_page.end(),
                                   page) -
                  t.first_page.begin() - 1);
}

/// Byte range [*begin, *end) of region `r` of the block `t` describes:
/// region 0 is the spine, region 1 + p is page p, which extent `c` holds.
void RegionRange(const BlockArchive::ChecksumTable& t, uint64_t r, uint32_t c,
                 uint64_t* begin, uint64_t* end) {
  if (r == 0) {
    *begin = 0;
    *end = t.begins[0];
    return;
  }
  *begin = t.begins[c] + (r - 1 - t.first_page[c]) * DataBlock::kPageBytes;
  *end = std::min(*begin + DataBlock::kPageBytes, t.begins[c + 1]);
}

/// The checksum table of `block` (AppendBlock).
Status BuildChecksumTable(const DataBlock& block,
                          BlockArchive::ChecksumTable* t) {
  if (Status s = block.Extents(&t->begins); !s.ok()) return s;
  DataBlock::FirstPages(t->begins, &t->first_page);
  const uint8_t* raw = block.raw_bytes();
  t->spine_sum = RegionSum(raw, 0, t->begins[0]);
  t->page_sums.resize(t->first_page.back());
  for (uint32_t c = 0; c + 1 < t->begins.size(); ++c) {
    for (uint64_t p = t->first_page[c]; p < t->first_page[c + 1]; ++p) {
      uint64_t begin, end;
      RegionRange(*t, 1 + p, c, &begin, &end);
      t->page_sums[p] = RegionSum(raw, begin, end);
    }
  }
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

}  // namespace

BlockArchive::~BlockArchive() {
  if (fd_ >= 0) ::close(fd_);
}

BlockArchive::BlockArchive(BlockArchive&& o) noexcept { *this = std::move(o); }

BlockArchive& BlockArchive::operator=(BlockArchive&& o) noexcept {
  if (this == &o) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = o.fd_;
  punch_align_ = o.punch_align_;
  mu_ = std::move(o.mu_);
  entries_ = std::move(o.entries_);
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
  a.fd_ = fd;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_blksize > 4096)
    a.punch_align_ = uint64_t(st.st_blksize);
  a.mu_ = std::make_unique<std::mutex>();
  a.writable_ = true;
  return a;
}

StatusOr<size_t> BlockArchive::AppendBlock(const DataBlock& block,
                                           uint32_t chunk_index) {
  DB_CHECK(mu_ != nullptr);
  std::lock_guard<std::mutex> lock(*mu_);
  if (!writable_) {
    return CountWrite(
        Status::FailedPrecondition("append to a finished archive"));
  }
  if (DB_FAILPOINT("archive.append.nospace")) {
    return CountWrite(Status::NoSpace("injected disk full (failpoint)"));
  }
  auto table = std::make_unique<ChecksumTable>();
  if (Status s = BuildChecksumTable(block, table.get()); !s.ok()) {
    return CountWrite(std::move(s));
  }
  const uint64_t block_bytes = block.SizeBytes();
  const uint64_t offset = end_offset_;
  Status s = Status::Ok();
  if (DB_FAILPOINT("archive.append.short_write")) {
    // Simulated torn append: half the payload reaches the disk, then the
    // device gives up. Exactly what a crash/disk-full leaves behind — and
    // what the truncate below must clean up.
    PwriteFull(fd_, block.raw_bytes(), block_bytes / 2, offset,
               "payload (torn)");
    s = Status::NoSpace("injected short write (failpoint)");
  }
  if (s.ok()) {
    s = PwriteFull(fd_, block.raw_bytes(), block_bytes, offset,
                   "block payload");
  }
  if (!s.ok()) {
    // Roll the file back so every previously appended block stays
    // readable; ignore a failed truncate (the stray bytes sit past
    // end_offset_, where no entry points).
    (void)::ftruncate(fd_, off_t(end_offset_));
    return CountWrite(std::move(s));
  }
  entries_.push_back(ArchiveEntry{offset, block_bytes, chunk_index,
                                  block.num_rows(), block.num_columns()});
  tables_.push_back(std::move(table));
  end_offset_ = offset + block_bytes;
  return entries_.size() - 1;
}

Status BlockArchive::ReadRegions(size_t id, const ArchiveEntry& e,
                                 const ChecksumTable& table, uint64_t first,
                                 uint64_t end, uint8_t* buf,
                                 uint64_t* bytes) const {
  DB_CHECK(first < end && end <= 1 + table.page_sums.size());
  // The run is contiguous in the block, so it is one pread straight into
  // the block's own buffer — an intermediate copy would double the cost on
  // the eviction hot path. The pread runs outside the catalog mutex:
  // concurrent reads of different blocks must overlap their disk time.
  uint32_t c = first == 0 ? 0 : PageColumn(table, first - 1);
  uint64_t run_begin, run_end, unused;
  RegionRange(table, first, c, &run_begin, &unused);
  RegionRange(table, end - 1, end == 1 ? 0 : PageColumn(table, end - 2),
              &unused, &run_end);
  *bytes += run_end - run_begin;
  if (Status s = PreadFull(fd_, buf + run_begin, run_end - run_begin,
                           e.offset + run_begin, "block payload");
      !s.ok()) {
    return s;
  }
  for (uint64_t r = first; r < end; ++r) {
    while (r > 0 && r - 1 >= table.first_page[c + 1]) ++c;
    uint64_t begin, stop;
    RegionRange(table, r, c, &begin, &stop);
    const uint64_t stored = r == 0 ? table.spine_sum : table.page_sums[r - 1];
    const uint64_t read = RegionSum(buf, begin, stop);
    if (read == stored) continue;
    return Mismatch(id,
                    r == 0 ? std::string("spine")
                           : "attribute " + std::to_string(c) + " page " +
                                 std::to_string(r - 1 - table.first_page[c]),
                    stored, read);
  }
  return Status::Ok();
}

StatusOr<uint64_t> BlockArchive::Read(size_t id, const BlockRead& read) const {
  DB_CHECK(mu_ != nullptr);
  ArchiveEntry e;
  const ChecksumTable* table;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (id >= entries_.size()) {
      return CountRead(Status::NotFound(
          "no archived block " + std::to_string(id) + " (archive has " +
          std::to_string(entries_.size()) + ")"));
    }
    if (entries_[id].released) {
      return CountRead(Status::NotFound(
          "archived block " + std::to_string(id) + " was released"));
    }
    e = entries_[id];
    table = tables_[id].get();
    ++payload_reads_;
  }
  if (DB_FAILPOINT("archive.read.ioerror"))
    return CountRead(Status::IoError("injected read failure (failpoint)"));
  const std::string block_name = "block " + std::to_string(id);
  const ColumnSet& columns = read.columns;
  const uint32_t ncols = e.attr_count;
  for (uint32_t i = 0; i < columns.size(ncols); ++i) {
    if (columns.at(i) >= ncols) {
      return CountRead(Status::Corruption(
          block_name + " has no attribute " + std::to_string(columns.at(i))));
    }
  }
  auto malformed = [&block_name](const Status& why) {
    return Status::Corruption(block_name +
                              " bytes are not a well-formed block: " +
                              why.message());
  };

  BlockImage& image = *read.image;
  uint64_t bytes = 0, pages = 0;
  // Regions [run_first, run_end) wait to be read as one run.
  uint64_t run_first = 0, run_end = 0;
  auto flush = [&]() -> Status {
    if (run_first == run_end) return Status::Ok();
    return ReadRegions(id, e, *table, run_first, run_end, image.buffer(),
                       &bytes);
  };
  // The spine, checked once read: its extents must be the ones the
  // table's page checksums cover.
  auto adopt = [&]() -> Status {
    if (Status s = image.AdoptSpine(); !s.ok()) return malformed(s);
    if (image.begins() != table->begins ||
        image.block().num_rows() != e.row_count) {
      image.Clear();
      return malformed(
          Status::Corruption("layout disagrees with its catalog entry"));
    }
    return Status::Ok();
  };
  const bool adopting = !image.has_spine();
  if (adopting) {
    image.Reset(e.block_bytes);
    run_end = 1;
  }

  Status s = Status::Ok();
  if (!read.row.has_value()) {
    // A scan: the whole extents the image lacks, adjacent ones in one run
    // with each other and the spine (a full read is a single one).
    for (uint32_t i = 0; i < columns.size(ncols) && s.ok(); ++i) {
      const uint32_t c = columns.at(i);
      for (uint64_t p = table->first_page[c];
           p < table->first_page[c + 1] && s.ok(); ++p) {
        if (!adopting && image.HasPage(p)) continue;
        ++pages;
        if (1 + p != run_end) {
          s = flush();
          run_first = 1 + p;
        }
        run_end = 2 + p;
      }
    }
    if (s.ok()) s = flush();
    if (s.ok() && adopting) s = adopt();
    if (s.ok()) {
      for (uint32_t i = 0; i < columns.size(ncols); ++i) {
        const uint32_t c = columns.at(i);
        image.AddPages(table->first_page[c], table->first_page[c + 1]);
      }
      // The checksums prove the bytes are the ones written; the structure
      // must still be checked before anything indexes into them.
      if (Status v = image.block().Validate(columns); !v.ok())
        s = malformed(v);
    }
  } else {
    // A point read: the spine first, which locates the row's bytes. Each
    // range ValidateRow is about to read is fetched where the image lacks
    // it, as one run of pages, and added once verified.
    if (adopting) {
      s = flush();
      if (s.ok()) s = adopt();
    }
    for (uint32_t i = 0; i < columns.size(ncols) && s.ok(); ++i) {
      const uint32_t col = columns.at(i);
      Status fetch = Status::Ok();
      auto need = [&](uint64_t offset, uint64_t len) -> Status {
        uint64_t first = image.PageOf(col, offset);
        uint64_t last = image.PageOf(col, offset + len - 1);
        while (first <= last && image.HasPage(first)) ++first;
        while (last > first && image.HasPage(last)) --last;
        if (first > last) return Status::Ok();
        pages += last - first + 1;
        fetch = ReadRegions(id, e, *table, 1 + first, 2 + last,
                            image.buffer(), &bytes);
        if (fetch.ok()) image.AddPages(first, last + 1);
        return fetch;
      };
      s = image.block().ValidateRow(col, *read.row, table->begins[col],
                                    table->begins[col + 1], need);
      // A failure of the row check itself, not of a fetch: the bytes
      // passed their checksums but are not a well-formed block.
      if (fetch.ok() && s.code() == StatusCode::kCorruption) s = malformed(s);
    }
  }
  if (s.ok() && DB_FAILPOINT("archive.read.corruption")) {
    s = Status::Corruption("checksum mismatch on " + block_name +
                           " (failpoint)");
  }
  if (!s.ok()) return CountRead(std::move(s));
  std::lock_guard<std::mutex> lock(*mu_);
  payload_bytes_read_ += bytes;
  payload_pages_read_ += pages;
  return bytes;
}

StatusOr<DataBlock> BlockArchive::ReadBlock(size_t id) const {
  BlockImage image;
  StatusOr<uint64_t> read =
      Read(id, BlockRead::Scan(ColumnSet::All(), &image));
  if (!read.ok()) return read.status();
  return image.TakeBlock();
}

uint64_t BlockArchive::Checksum(const void* data, uint64_t n) {
  return Fnv1a64(static_cast<const uint8_t*>(data), n, kFnvBasis);
}

uint64_t BlockArchive::PayloadBytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return end_offset_;
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
  writable_ = false;
  return Status::Ok();
}

Status BlockArchive::Release(size_t id) {
  DB_CHECK(mu_ != nullptr);
  ArchiveEntry e;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (id >= entries_.size() || entries_[id].released) {
      return CountWrite(Status::NotFound("no live archived block " +
                                         std::to_string(id) + " to release"));
    }
    entries_[id].released = true;
    e = entries_[id];
  }
  if (DB_FAILPOINT("archive.release.ioerror")) {
    return CountWrite(Status::IoError("injected punch failure (failpoint)"));
  }
  // Only the filesystem blocks wholly inside the block: punching a partial
  // one zeroes its bytes, and those belong to the neighbours too. The punch
  // runs outside the catalog mutex, as reads of other blocks do.
  const uint64_t begin =
      (e.offset + punch_align_ - 1) / punch_align_ * punch_align_;
  const uint64_t end = (e.offset + e.block_bytes) / punch_align_ * punch_align_;
  if (begin < end &&
      ::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  off_t(begin), off_t(end - begin)) != 0) {
    return CountWrite(Status::IoError("punching out block " +
                                      std::to_string(id) + " failed: " +
                                      std::strerror(errno)));
  }
  return Status::Ok();
}

}  // namespace datablocks
