#include "storage/block_archive.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstddef>
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

/// The checksum an entry and its frame store: the block bytes, then the
/// delete bitmap (if any) chained onto them.
uint64_t PayloadChecksum(const uint8_t* block, uint64_t block_bytes,
                         const void* bitmap, uint64_t bitmap_words) {
  const uint64_t h = Fnv1a64(block, block_bytes, kFnvBasis);
  if (bitmap_words == 0) return h;
  return Fnv1a64(static_cast<const uint8_t*>(bitmap), bitmap_words * 8, h);
}

uint32_t FrameChecksum(const BlockFrame& f) {
  uint64_t h = Fnv1a64(reinterpret_cast<const uint8_t*>(&f),
                       offsetof(BlockFrame, frame_checksum), kFnvBasis);
  return uint32_t(h ^ (h >> 32));
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
  if (fd_ >= 0) {
    if (writable_) Finish();  // best effort; failures already counted
    ::close(fd_);
    fd_ = -1;
  }
}

BlockArchive::BlockArchive(BlockArchive&& o) noexcept { *this = std::move(o); }

BlockArchive& BlockArchive::operator=(BlockArchive&& o) noexcept {
  if (this == &o) return *this;
  if (fd_ >= 0) {
    if (writable_) Finish();
    ::close(fd_);
  }
  path_ = std::move(o.path_);
  fd_ = o.fd_;
  mu_ = std::move(o.mu_);
  entries_ = std::move(o.entries_);
  summaries_ = std::move(o.summaries_);
  end_offset_ = o.end_offset_;
  payload_reads_ = o.payload_reads_;
  writable_ = o.writable_;
  salvaged_ = o.salvaged_;
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
    // The payload region is self-describing — recover the longest valid
    // prefix of blocks instead of refusing the whole file.
    Metrics().read_errors->Add();
    std::fprintf(stderr,
                 "block_archive: salvaging '%s' (%s); recovering by frame "
                 "walk\n",
                 path.c_str(), index_status.ToString().c_str());
    Salvage(a, file_size);
  }
  return a;
}

Status BlockArchive::OpenIndex(BlockArchive& a, const FileHeader& hdr,
                               uint64_t file_size) {
  a.entries_.clear();
  a.summaries_.clear();
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

  // Entry sanity: every payload must fit between the header plus its frame
  // and the index. A corrupt record must not drive ReadBlock into a wild
  // pread or an absurd allocation.
  const uint64_t payload_floor = sizeof(FileHeader) + sizeof(BlockFrame);
  for (uint32_t i = 0; i < hdr.block_count; ++i) {
    const ArchiveEntry& e = a.entries_[i];
    const uint64_t payload = e.block_bytes + e.bitmap_words * 8;
    if (e.block_bytes < sizeof(BlockHeader) || e.offset < payload_floor ||
        e.offset > hdr.index_offset || payload < e.block_bytes ||
        payload > hdr.index_offset - e.offset) {
      return Status::Corruption("entry " + std::to_string(i) +
                                " out of bounds (offset " +
                                std::to_string(e.offset) + ", " +
                                std::to_string(e.block_bytes) + " bytes)");
    }
    if (e.summary_bytes != 0) {
      // Overflow-proof bounds check: a corrupt entry must not wrap the sum
      // past the blob size and slip through.
      if (e.summary_bytes > blob_bytes ||
          e.summary_offset > blob_bytes - e.summary_bytes) {
        return Status::Corruption("entry " + std::to_string(i) +
                                  " summary out of blob bounds");
      }
      a.summaries_[i] = std::make_shared<const BlockSummary>(
          BlockSummary::FromBytes(blob + e.summary_offset, e.summary_bytes));
    }
  }
  a.end_offset_ = hdr.index_offset;
  return Status::Ok();
}

void BlockArchive::Salvage(BlockArchive& a, uint64_t file_size) {
  a.entries_.clear();
  a.summaries_.clear();
  a.salvaged_ = true;
  a.writable_ = false;
  uint64_t pos = sizeof(FileHeader);
  std::vector<uint8_t> buf;
  while (pos + sizeof(BlockFrame) <= file_size) {
    BlockFrame f;
    if (!PreadFull(a.fd_, &f, sizeof(f), pos, "block frame").ok()) break;
    if (f.magic != kFrameMagic || f.frame_checksum != FrameChecksum(f)) break;
    const uint64_t payload = f.block_bytes + f.bitmap_words * 8;
    if (f.block_bytes < sizeof(BlockHeader) || payload < f.block_bytes ||
        payload > file_size - pos - sizeof(BlockFrame)) {
      break;  // frame valid but payload truncated mid-block
    }
    buf.resize(payload);
    if (!PreadFull(a.fd_, buf.data(), payload, pos + sizeof(BlockFrame),
                   "block payload")
             .ok()) {
      break;
    }
    if (PayloadChecksum(buf.data(), f.block_bytes, buf.data() + f.block_bytes,
                        f.bitmap_words) != f.checksum) {
      break;  // torn write: end of valid prefix
    }
    ArchiveEntry e{};
    e.offset = pos + sizeof(BlockFrame);
    e.block_bytes = f.block_bytes;
    e.bitmap_words = f.bitmap_words;
    e.checksum = f.checksum;
    e.chunk_index = f.chunk_index;
    e.row_count = f.row_count;
    uint32_t deleted = 0;
    for (uint64_t w = 0; w < f.bitmap_words; ++w) {
      uint64_t word;
      std::memcpy(&word, buf.data() + f.block_bytes + w * 8, 8);
      deleted += uint32_t(std::popcount(word));
    }
    e.deleted_count = deleted;
    a.entries_.push_back(e);
    a.summaries_.push_back(nullptr);
    pos += sizeof(BlockFrame) + payload;
  }
  a.end_offset_ = pos;
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

  const uint64_t checksum = PayloadChecksum(block.raw_bytes(), block_bytes,
                                            bitmap.data(), bitmap_words);

  BlockFrame frame{};
  frame.magic = kFrameMagic;
  frame.chunk_index = chunk_index;
  frame.block_bytes = block_bytes;
  frame.bitmap_words = bitmap_words;
  frame.checksum = checksum;
  frame.row_count = block.num_rows();
  frame.frame_checksum = FrameChecksum(frame);

  // Frame, payload, bitmap — any failure truncates back to the last good
  // end-of-payload so every previously appended block stays readable and a
  // later Finish publishes a consistent index.
  Status s = PwriteFull(fd_, &frame, sizeof(frame), end_offset_, "frame");
  const uint64_t payload_off = end_offset_ + sizeof(frame);
  if (s.ok() && DB_FAILPOINT("archive.append.short_write")) {
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
  if (!s.ok()) {
    // Roll the file back; ignore a failed truncate (the stray bytes sit
    // past end_offset_, invisible to the index and rejected by the frame
    // walk's checksum on a later salvage).
    (void)::ftruncate(fd_, off_t(end_offset_));
    return CountWrite(std::move(s));
  }

  ArchiveEntry e{};
  e.offset = payload_off;
  e.block_bytes = block_bytes;
  e.bitmap_words = bitmap_words;
  e.checksum = checksum;
  e.chunk_index = chunk_index;
  e.deleted_count = deleted_count;
  e.row_count = block.num_rows();
  entries_.push_back(e);
  summaries_.push_back(
      summary != nullptr ? std::make_shared<const BlockSummary>(*summary)
                         : nullptr);
  end_offset_ = payload_off + block_bytes + bitmap_words * 8;
  return entries_.size() - 1;
}

StatusOr<DataBlock> BlockArchive::ReadBlock(
    size_t id, std::vector<uint64_t>* delete_bitmap) const {
  DB_CHECK(mu_ != nullptr);
  ArchiveEntry e;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (id >= entries_.size()) {
      return CountRead(Status::NotFound(
          "no archived block " + std::to_string(id) + " (archive has " +
          std::to_string(entries_.size()) + ")"));
    }
    e = entries_[id];
    ++payload_reads_;
  }
  if (DB_FAILPOINT("archive.read.ioerror")) {
    return CountRead(Status::IoError("injected read failure (failpoint)"));
  }
  if (e.block_bytes < sizeof(BlockHeader)) {
    return CountRead(Status::Corruption("block " + std::to_string(id) +
                                        " entry is implausibly small"));
  }
  // Read straight into the block's own buffer — reloads are a hot path
  // under eviction churn, an intermediate copy would double the cost. The
  // pread runs outside the catalog mutex: concurrent reloads of different
  // blocks must overlap their disk time.
  DataBlock block = DataBlock::ForFill(e.block_bytes);
  std::vector<uint64_t> bitmap(e.bitmap_words);
  if (Status s = PreadFull(fd_, block.fill_bytes(), e.block_bytes, e.offset,
                           "block payload");
      !s.ok()) {
    return CountRead(std::move(s));
  }
  if (e.bitmap_words != 0) {
    if (Status s = PreadFull(fd_, bitmap.data(), e.bitmap_words * 8,
                             e.offset + e.block_bytes, "delete bitmap");
        !s.ok()) {
      return CountRead(std::move(s));
    }
  }
  const uint64_t checksum = PayloadChecksum(block.raw_bytes(), e.block_bytes,
                                            bitmap.data(), e.bitmap_words);
  if (checksum != e.checksum || DB_FAILPOINT("archive.read.corruption")) {
    char msg[112];
    std::snprintf(msg, sizeof(msg),
                  "checksum mismatch on block %zu (stored %016llx, read "
                  "%016llx)",
                  id, (unsigned long long)e.checksum,
                  (unsigned long long)checksum);
    return CountRead(Status::Corruption(msg));
  }
  if (!block.CheckFilled()) {
    return CountRead(Status::Corruption(
        "block " + std::to_string(id) + " bytes are not a well-formed block"));
  }
  if (delete_bitmap != nullptr) *delete_bitmap = std::move(bitmap);
  return block;
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
  // it — the reader rejects a torn or bit-flipped index and falls back to
  // the frame walk.
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
  // the header that makes the index reachable. A crash between any two
  // steps leaves a file that Open salvages by frame walk.
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
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    if (!table.is_frozen(c) || table.chunk_rows(c) == 0) continue;
    try {
      // Pin: reloads the block if evicted and keeps it resident for the
      // write. A failed reload surfaces as StorageException.
      Table::PinGuard pin(table, c);
      const DataBlock* block = table.frozen_block(c);
      // Our own pin can abort a freeze that was in flight when we sampled
      // is_frozen — the chunk is simply hot again, and hot chunks are not
      // archived.
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
