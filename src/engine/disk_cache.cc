#include "engine/disk_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serialize/record.hh"
#include "support/logging.hh"

namespace fs = std::filesystem;

namespace gpsched
{

double
DiskCacheStats::hitRate() const
{
    const std::uint64_t lookups = hits + misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(lookups);
}

struct DiskCache::SegmentFile
{
    explicit SegmentFile(int descriptor) : fd(descriptor) {}
    SegmentFile(const SegmentFile &) = delete;
    SegmentFile &operator=(const SegmentFile &) = delete;
    ~SegmentFile() { ::close(fd); }

    const int fd;
};

namespace
{

constexpr const char *segmentExtension = ".seg";

/** Distinguishes this process's segments. */
std::atomic<std::uint64_t> nextSegmentSeq{0};

/** Roll size of a segment: a sixteenth of the budget, so that
 *  compaction frees it in small steps; 64 MiB when unlimited. */
std::uint64_t
segmentBytesFor(std::uint64_t maxBytes)
{
    constexpr std::uint64_t cap = 64ull << 20;
    return maxBytes == 0 ? cap
                         : std::clamp<std::uint64_t>(maxBytes / 16, 1,
                                                     cap);
}

/** Table position of @p digest (an FNV-1a hash, mixed once more so
 *  that its low bits spread). */
std::size_t
slotOf(std::uint64_t digest, std::size_t mask)
{
    const std::uint64_t mixed = digest * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(mixed ^ (mixed >> 32)) & mask;
}

/** Reads exactly @p size bytes at @p offset; false on EOF or error. */
bool
preadAll(int fd, char *data, std::size_t size, std::uint64_t offset)
{
    while (size > 0) {
        const ssize_t got =
            ::pread(fd, data, size, static_cast<off_t>(offset));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        data += got;
        size -= static_cast<std::size_t>(got);
        offset += static_cast<std::uint64_t>(got);
    }
    return true;
}

/** One segment found by a directory walk. */
struct SegmentEntry
{
    std::string path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
};

/**
 * Every segment under @p root. Filesystem races with concurrent
 * engines are expected; every stat uses the error_code overloads and
 * skips on failure.
 */
std::vector<SegmentEntry>
listSegments(const std::string &root)
{
    std::vector<SegmentEntry> segments;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(root, ec)) {
        if (entry.path().extension() != segmentExtension)
            continue;
        std::error_code statEc;
        SegmentEntry segment;
        segment.path = entry.path().string();
        segment.size = entry.file_size(statEc);
        if (statEc)
            continue;
        segment.mtime = entry.last_write_time(statEc);
        if (statEc)
            continue;
        segments.push_back(std::move(segment));
    }
    return segments;
}

} // namespace

DiskCache::DiskCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), maxBytes_(max_bytes),
      segmentBytes_(segmentBytesFor(max_bytes))
{
    GPSCHED_ASSERT(!dir_.empty(), "disk cache without a directory");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        GPSCHED_FATAL("cannot create cache directory '", dir_,
                      "': ", ec.message());
    }
    // Probe writability now: a cache that cannot store is a user
    // error worth a diagnostic at startup, not a silent no-op.
    const fs::path probe =
        fs::path(dir_) / (".probe-" + std::to_string(::getpid()));
    {
        std::ofstream out(probe, std::ios::binary);
        if (!out) {
            GPSCHED_FATAL("cache directory '", dir_,
                          "' is not writable");
        }
    }
    fs::remove(probe, ec);

    std::lock_guard<std::mutex> lock(mutex_);
    for (const SegmentEntry &segment : listSegments(dir_)) {
        approxBytes_ += segment.size;
        scanSegmentLocked(segment.path);
    }
}

void
DiskCache::scanSegmentLocked(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return;
    const SegmentFile file(fd);
    struct stat st;
    if (::fstat(fd, &st) != 0)
        return;
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

    const auto id = static_cast<std::uint32_t>(segments_.size());
    segments_.push_back(Segment{path, nullptr, 0, false, false});

    // Walk the framing through a window that always holds the whole
    // current record; only its header and key digest are read.
    constexpr std::uint64_t chunk = 256 << 10;
    std::vector<char> window;
    std::uint64_t base = 0; // file offset of window[0]
    std::uint64_t at = 0;   // file offset of the next record
    auto resident = [&](std::uint64_t n) {
        if (n > size - at)
            return false;
        if (at + n <= base + window.size())
            return true;
        const std::uint64_t keep = base + window.size() - at;
        if (keep > 0)
            std::memmove(window.data(), window.data() + (at - base),
                         keep);
        window.resize(std::min(std::max(n, chunk), size - at));
        base = at;
        return preadAll(fd, window.data() + keep, window.size() - keep,
                        base + keep);
    };
    while (at < size) {
        std::uint64_t length = 0;
        std::uint64_t digest = 0;
        if (!resident(recordHeaderSize) ||
            (length = recordLength(window.data() + (at - base))) == 0 ||
            at + length > UINT32_MAX || !resident(length) ||
            !recordKeyDigest(window.data() + (at - base), length,
                             digest)) {
            // A torn tail or garbage: nothing after it can be framed.
            corruptEvicted_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        indexLocked(digest, id, at, length);
        at += length;
    }
}

DiskCache::IndexEntry *
DiskCache::findLocked(std::uint64_t digest)
{
    if (table_.empty())
        return nullptr;
    const std::size_t mask = table_.size() - 1;
    const auto low = static_cast<std::uint32_t>(digest);
    const auto high = static_cast<std::uint32_t>(digest >> 32);
    for (std::size_t i = slotOf(digest, mask);; i = (i + 1) & mask) {
        if (table_[i] == 0)
            return nullptr;
        IndexEntry &entry = entries_[table_[i] - 1];
        if (entry.digestLow == low && entry.digestHigh == high)
            return &entry;
    }
}

void
DiskCache::indexLocked(std::uint64_t digest, std::uint32_t segment,
                       std::uint64_t offset, std::uint64_t length)
{
    IndexEntry *entry = findLocked(digest);
    if (entry == nullptr) {
        if (2 * (entries_.size() + 1) > table_.size()) {
            std::vector<std::uint32_t> grown(
                std::max<std::size_t>(1024, 2 * table_.size()), 0);
            const std::size_t mask = grown.size() - 1;
            for (std::uint32_t e = 0; e < entries_.size(); ++e) {
                const std::uint64_t d =
                    (std::uint64_t{entries_[e].digestHigh} << 32) |
                    entries_[e].digestLow;
                std::size_t i = slotOf(d, mask);
                while (grown[i] != 0)
                    i = (i + 1) & mask;
                grown[i] = e + 1;
            }
            table_.swap(grown);
        }
        const std::size_t mask = table_.size() - 1;
        std::size_t i = slotOf(digest, mask);
        while (table_[i] != 0)
            i = (i + 1) & mask;
        entries_.emplace_back();
        table_[i] = static_cast<std::uint32_t>(entries_.size());
        entry = &entries_.back();
        entry->digestLow = static_cast<std::uint32_t>(digest);
        entry->digestHigh = static_cast<std::uint32_t>(digest >> 32);
    } else if (entry->length != 0) {
        --segments_[entry->segment].live;
    }
    entry->segment = segment;
    entry->offset = static_cast<std::uint32_t>(offset);
    entry->length = static_cast<std::uint32_t>(length);
    ++segments_[segment].live;
}

bool
DiskCache::rollLocked()
{
    active_ = noSegment;
    for (;;) {
        // Zero-padded, so that names sort in creation order where
        // compaction breaks mtime ties.
        char name[64];
        std::snprintf(name, sizeof name, "%d-%08llx%s",
                      static_cast<int>(::getpid()),
                      static_cast<unsigned long long>(
                          nextSegmentSeq.fetch_add(1)),
                      segmentExtension);
        const std::string path = (fs::path(dir_) / name).string();
        const int fd = ::open(path.c_str(),
                              O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC,
                              0644);
        if (fd < 0 && errno == EEXIST)
            continue; // left by an earlier process with this pid
        if (fd < 0)
            return false;
        active_ = static_cast<std::uint32_t>(segments_.size());
        activeBytes_ = 0;
        segments_.push_back(Segment{
            path, std::make_shared<SegmentFile>(fd), 0, false, false});
        return true;
    }
}

void
DiskCache::dropSegmentLocked(std::uint32_t id)
{
    Segment &segment = segments_[id];
    segment.gone = true;
    segment.file.reset();
    if (active_ == id)
        active_ = noSegment;
}

bool
DiskCache::lookup(const LoopKey &key, CompiledLoop &out)
{
    std::shared_ptr<SegmentFile> file;
    IndexEntry where;
    bool touch = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const IndexEntry *entry = findLocked(key.digest);
        if (entry != nullptr && entry->length != 0 &&
            !segments_[entry->segment].gone) {
            Segment &segment = segments_[entry->segment];
            if (!segment.file) {
                const int fd =
                    ::open(segment.path.c_str(), O_RDONLY | O_CLOEXEC);
                if (fd >= 0)
                    segment.file = std::make_shared<SegmentFile>(fd);
                else if (errno == ENOENT)
                    segment.gone = true; // compacted by another writer
            }
            file = segment.file;
            where = *entry;
            touch = !segment.touched;
            segment.touched = true;
        }
    }
    if (!file) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    std::string bytes(where.length, '\0');
    LoopKey storedKey;
    CompiledLoop storedValue;
    if (!preadAll(file->fd, bytes.data(), bytes.size(), where.offset) ||
        !decodeCacheRecord(bytes, storedKey, storedValue)) {
        // Malformed, truncated or version-mismatched: never serve it
        // again, and unlink its segment once nothing in it is valid.
        std::lock_guard<std::mutex> lock(mutex_);
        IndexEntry *entry = findLocked(key.digest);
        if (entry != nullptr && entry->segment == where.segment &&
            entry->offset == where.offset && entry->length != 0) {
            entry->length = 0;
            Segment &segment = segments_[where.segment];
            if (--segment.live == 0 && !segment.gone &&
                ::unlink(segment.path.c_str()) == 0)
                dropSegmentLocked(where.segment);
        }
        corruptEvicted_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (storedKey.canonical != key.canonical) {
        // A full-digest collision: the record is valid, it is just
        // someone else's. Leave it in place.
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    // Refresh for LRU-by-mtime compaction, once per segment.
    if (touch)
        ::futimens(file->fd, nullptr);

    out = std::move(storedValue);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
DiskCache::store(const LoopKey &key, const CompiledLoop &value)
{
    const std::string record = encodeCacheRecord(key, value);

    std::lock_guard<std::mutex> lock(mutex_);
    if ((active_ == noSegment ||
         (activeBytes_ > 0 &&
          activeBytes_ + record.size() > segmentBytes_)) &&
        !rollLocked()) {
        storeErrors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const int fd = segments_[active_].file->fd;
    ssize_t wrote;
    do {
        wrote = ::pwrite(fd, record.data(), record.size(),
                         static_cast<off_t>(activeBytes_));
    } while (wrote < 0 && errno == EINTR);
    if (wrote != static_cast<ssize_t>(record.size())) {
        // Cut off the torn record; if even that fails, the next store
        // starts a fresh segment.
        if (::ftruncate(fd, static_cast<off_t>(activeBytes_)) != 0)
            active_ = noSegment;
        storeErrors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    indexLocked(key.digest, active_, activeBytes_, record.size());
    activeBytes_ += record.size();
    approxBytes_ += record.size();
    stores_.fetch_add(1, std::memory_order_relaxed);
    if (maxBytes_ > 0 && approxBytes_ > maxBytes_)
        compactLocked();
}

void
DiskCache::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);
    compactLocked();
}

void
DiskCache::compactLocked()
{
    std::vector<SegmentEntry> segments = listSegments(dir_);
    std::uint64_t total = 0;
    for (const SegmentEntry &segment : segments)
        total += segment.size;

    if (maxBytes_ > 0 && total > maxBytes_) {
        std::sort(segments.begin(), segments.end(),
                  [](const SegmentEntry &a, const SegmentEntry &b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.path < b.path;
                  });
        for (const SegmentEntry &unlinked : segments) {
            if (total <= maxBytes_)
                break;
            if (::unlink(unlinked.path.c_str()) != 0)
                continue;
            total -= std::min(unlinked.size, total);
            for (std::uint32_t id = 0; id < segments_.size(); ++id) {
                if (segments_[id].path != unlinked.path ||
                    segments_[id].gone)
                    continue;
                compacted_.fetch_add(segments_[id].live,
                                     std::memory_order_relaxed);
                dropSegmentLocked(id);
            }
        }
    }
    approxBytes_ = total;
}

std::uint64_t
DiskCache::residentBytes() const
{
    std::uint64_t total = 0;
    for (const SegmentEntry &segment : listSegments(dir_))
        total += segment.size;
    return total;
}

DiskCacheStats
DiskCache::stats() const
{
    DiskCacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.stores = stores_.load(std::memory_order_relaxed);
    stats.corruptEvicted =
        corruptEvicted_.load(std::memory_order_relaxed);
    stats.compacted = compacted_.load(std::memory_order_relaxed);
    stats.storeErrors = storeErrors_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace gpsched
