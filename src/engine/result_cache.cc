#include "engine/result_cache.hh"

#include "support/logging.hh"

namespace gpsched
{

double
CacheStats::hitRate() const
{
    std::uint64_t lookups = hits + misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(lookups);
}

ResultCache::ResultCache(std::size_t capacity, std::size_t num_shards)
{
    GPSCHED_ASSERT(capacity >= 1, "cache capacity must be >= 1");
    GPSCHED_ASSERT(num_shards >= 1, "cache needs >= 1 shard");
    if (num_shards > capacity)
        num_shards = capacity;
    capacityPerShard_ = (capacity + num_shards - 1) / num_shards;
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard &
ResultCache::shardFor(const LoopKey &key)
{
    return *shards_[key.digest % shards_.size()];
}

bool
ResultCache::lookup(const LoopKey &key, CompiledLoop &out)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(&key);
    if (it == shard.index.end()) {
        ++shard.stats.misses;
        return false;
    }
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    out = it->second->value;
    return true;
}

void
ResultCache::insert(const LoopKey &key, const CompiledLoop &value)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(&key);
    if (it != shard.index.end()) {
        it->second->value = value;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    if (shard.lru.size() >= capacityPerShard_) {
        shard.index.erase(&shard.lru.back().key);
        shard.lru.pop_back();
        ++shard.stats.evictions;
    }
    shard.lru.push_front(Entry{key, value});
    shard.index.emplace(&shard.lru.front().key, shard.lru.begin());
    ++shard.stats.insertions;
}

void
ResultCache::clear()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->index.clear();
        shard->lru.clear();
    }
}

std::size_t
ResultCache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->lru.size();
    }
    return total;
}

CacheStats
ResultCache::stats() const
{
    CacheStats total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.hits += shard->stats.hits;
        total.misses += shard->stats.misses;
        total.insertions += shard->stats.insertions;
        total.evictions += shard->stats.evictions;
    }
    return total;
}

} // namespace gpsched
