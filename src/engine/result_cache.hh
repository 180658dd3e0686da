/**
 * @file
 * Sharded, mutex-striped LRU cache of compiled-loop results keyed by
 * LoopKey fingerprints. A lookup or insertion locks only the shard
 * the key's digest maps to, so concurrent workers compiling
 * different loops rarely contend. Keys compare by their full
 * canonical encoding, never by digest alone, so a hit is always an
 * exact job match.
 *
 * The cached CompiledLoop carries the loop *shape*'s result; the
 * engine patches the requesting loop's name onto a hit because names
 * are excluded from the fingerprint (see loop_key.hh).
 */

#ifndef GPSCHED_ENGINE_RESULT_CACHE_HH
#define GPSCHED_ENGINE_RESULT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"

namespace gpsched
{

/** Aggregate cache counters (summed over shards). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    /** hits / (hits + misses); 0 when no lookups happened. */
    double hitRate() const;
};

/** N-way sharded LRU map from LoopKey to CompiledLoop. */
class ResultCache
{
  public:
    /**
     * @param capacity total cached entries over all shards (>= 1)
     * @param num_shards lock stripes (>= 1); capacity is split evenly
     *        with each shard holding at least one entry
     */
    explicit ResultCache(std::size_t capacity,
                         std::size_t num_shards = 16);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Looks @p key up; on a hit copies the value into @p out,
     * refreshes recency and returns true.
     */
    bool lookup(const LoopKey &key, CompiledLoop &out);

    /**
     * Inserts (or refreshes) @p key -> @p value, evicting the shard's
     * least-recently-used entry when at capacity.
     */
    void insert(const LoopKey &key, const CompiledLoop &value);

    /** Drops every entry (stats are kept). */
    void clear();

    /** Entries currently cached over all shards. */
    std::size_t size() const;

    /** Total capacity over all shards. */
    std::size_t capacity() const { return capacityPerShard_ * shards_.size(); }

    /** Shard count. */
    std::size_t numShards() const { return shards_.size(); }

    /** Aggregated counters. */
    CacheStats stats() const;

  private:
    struct Entry
    {
        LoopKey key;
        CompiledLoop value;
    };

    /** Index keys point at the key inside their own LRU entry (list
     *  nodes never move), so each canonical string is stored once.
     *  Hashing is by digest; equality compares the full key. */
    struct KeyHash
    {
        std::size_t operator()(const LoopKey *key) const
        {
            return static_cast<std::size_t>(key->digest);
        }
    };
    struct KeyEqual
    {
        bool operator()(const LoopKey *a, const LoopKey *b) const
        {
            return *a == *b;
        }
    };

    /** One lock stripe: an LRU list plus an index into it. */
    struct Shard
    {
        mutable std::mutex mutex;
        std::list<Entry> lru; ///< front = most recently used
        std::unordered_map<const LoopKey *, std::list<Entry>::iterator,
                           KeyHash, KeyEqual>
            index;
        CacheStats stats;
    };

    Shard &shardFor(const LoopKey &key);

    std::size_t capacityPerShard_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace gpsched

#endif // GPSCHED_ENGINE_RESULT_CACHE_HH
