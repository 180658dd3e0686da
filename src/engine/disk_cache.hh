/**
 * @file
 * Persistent LoopKey -> CompiledLoop store, layered under the
 * in-memory ResultCache by the engine so structural dedupe survives
 * across processes and runs.
 *
 * Layout on disk: append-only segment files,
 *
 *   <dir>/<pid>-<n>.seg
 *
 * each a plain concatenation of self-verifying binary records
 * (serialize/record.hh: magic, format + key-schema versions, size,
 * checksum, full key, full value). Every cache instance appends to
 * segments of its own, one pwrite(2) per store, and rolls to a new
 * segment once the current one holds a sixteenth of the byte budget
 * (64 MiB when unlimited). No two writers ever share a segment, so
 * concurrent engines — separate processes included — sharing one
 * directory need no locks and never interleave records.
 *
 * Each instance indexes key digest -> (segment, offset, length) in
 * memory: a scan of the record framing at open fills it, and the
 * instance's own stores extend it. A miss costs no system call; a
 * hit costs one pread(2) and then the full decode, which re-verifies
 * everything and compares the decoded key's canonical bytes against
 * the requested key, so neither a digest collision nor any form of
 * corruption can ever surface a wrong schedule. A record that fails
 * verification is dropped from the index and never served again,
 * and a segment left with no valid record is unlinked. A torn tail
 * (a crashed or still-running writer's partial record) ends the scan
 * of its segment and counts as one corrupt record. Records stored by
 * other instances after this one opened are not seen by it.
 *
 * Capacity is a byte budget: crossing it triggers a compaction that
 * unlinks whole segments oldest-mtime-first until the budget holds
 * again. A hit refreshes its segment's mtime once per instance,
 * making the policy LRU-by-mtime at segment granularity.
 */

#ifndef GPSCHED_ENGINE_DISK_CACHE_HH
#define GPSCHED_ENGINE_DISK_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"

namespace gpsched
{

/** Aggregate disk-cache counters. */
struct DiskCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;

    /** Records dropped because they failed verification (torn
     *  segment tails included). */
    std::uint64_t corruptEvicted = 0;

    /** Records this instance served from segments that budget
     *  compaction unlinked. */
    std::uint64_t compacted = 0;

    /** Stores that failed on I/O and left no record. */
    std::uint64_t storeErrors = 0;

    /** hits / (hits + misses); 0 when no lookups happened. */
    double hitRate() const;
};

/** Append-only on-disk record store keyed by LoopKey. */
class DiskCache
{
  public:
    /**
     * Opens (creating if needed) the store rooted at @p dir.
     * Fatal — a user error, not a crash — when the directory cannot
     * be created or written.
     *
     * @param max_bytes resident-size budget; 0 = unlimited
     */
    DiskCache(std::string dir, std::uint64_t max_bytes);

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Loads @p key's record if present and valid. Any malformed or
     * mismatched-version record is dropped and reported as a miss.
     */
    bool lookup(const LoopKey &key, CompiledLoop &out);

    /**
     * Appends @p key -> @p value to this instance's segment with one
     * pwrite(2). I/O failures are counted, never fatal: a cache store
     * is always allowed to fail.
     */
    void store(const LoopKey &key, const CompiledLoop &value);

    /**
     * Unlinks segments oldest-mtime-first until the resident size is
     * within budget. Runs automatically when stores cross the
     * budget; exposed for tests and tools.
     */
    void compact();

    /** Bytes currently resident (walks the store). */
    std::uint64_t residentBytes() const;

    /** Root directory. */
    const std::string &dir() const { return dir_; }

    /** Byte budget (0 = unlimited). */
    std::uint64_t maxBytes() const { return maxBytes_; }

    /** Lifetime counters. */
    DiskCacheStats stats() const;

  private:
    /** An open segment descriptor, closed by its last holder. */
    struct SegmentFile;

    /** One segment file this instance knows of. */
    struct Segment
    {
        std::string path;

        /** Null until first read or written, and once gone. Shared
         *  with in-flight lookups, so dropping a segment never closes
         *  a descriptor under a pread. */
        std::shared_ptr<SegmentFile> file;

        /** Index entries that point here. */
        std::uint32_t live = 0;

        /** mtime already refreshed by a hit. */
        bool touched = false;

        /** Unlinked; its index entries are misses. */
        bool gone = false;
    };

    /** Where one record lives; 20 bytes, so that the index with its
     *  half-full hash table stays under 32 bytes a record. */
    struct IndexEntry
    {
        std::uint32_t digestLow = 0;
        std::uint32_t digestHigh = 0;
        std::uint32_t segment = 0;
        std::uint32_t offset = 0;

        /** 0 once the record was dropped. */
        std::uint32_t length = 0;
    };

    /** Index lookup; nullptr when @p digest was never indexed. */
    IndexEntry *findLocked(std::uint64_t digest);

    /** Points @p digest at a record, replacing an older location. */
    void indexLocked(std::uint64_t digest, std::uint32_t segment,
                     std::uint64_t offset, std::uint64_t length);

    /** Indexes the records of one existing segment file. */
    void scanSegmentLocked(const std::string &path);

    /** Opens a fresh segment for this instance's stores. */
    bool rollLocked();

    /** Forgets segment @p id after it was unlinked. */
    void dropSegmentLocked(std::uint32_t id);

    void compactLocked();

    std::string dir_;
    std::uint64_t maxBytes_;

    /** Roll size of this instance's segments. */
    std::uint64_t segmentBytes_;

    /** Guards everything below it. */
    std::mutex mutex_;

    std::vector<Segment> segments_;
    std::vector<IndexEntry> entries_;

    /** Open-addressing table over entries_: 1 + entry position,
     *  0 = empty; kept at most half full. */
    std::vector<std::uint32_t> table_;

    /** The segment stores append to (noSegment before the first
     *  store and after a failed write), and its length. */
    static constexpr std::uint32_t noSegment = UINT32_MAX;
    std::uint32_t active_ = noSegment;
    std::uint64_t activeBytes_ = 0;

    /** Resident bytes: the segments at open plus every append since;
     *  re-synced by each compaction. */
    std::uint64_t approxBytes_ = 0;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> corruptEvicted_{0};
    std::atomic<std::uint64_t> compacted_{0};
    std::atomic<std::uint64_t> storeErrors_{0};
};

} // namespace gpsched

#endif // GPSCHED_ENGINE_DISK_CACHE_HH
