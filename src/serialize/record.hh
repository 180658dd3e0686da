/**
 * @file
 * Versioned binary codec for the persistent compile cache: the full
 * LoopKey and the full CompiledLoop — metrics, per-node placements,
 * transfers (including the bus class each one rides), spill splits
 * and the partition — framed as a self-verifying record.
 *
 * Record layout (all integers little-endian, see serialize/bytes.hh):
 *
 *   u32 magic               "GPSC"
 *   u32 recordFormatVersion bumped when this framing or the
 *                           CompiledLoop encoding changes
 *   u32 keySchemaVersion    version of the LoopKey canonical
 *                           encoding, which embeds the machine shape
 *                           (clusters, FU mixes, register files, bus
 *                           classes, the latency table); bumped when
 *                           makeLoopKey's encoding changes, so
 *                           records written against an older machine
 *                           encoding are invalidated wholesale
 *   u64 payloadSize         exact byte length of the payload
 *   u64 payloadChecksum     FNV-1a of the payload bytes
 *   payload                 encoded LoopKey then CompiledLoop
 *
 * decodeCacheRecord() verifies every layer — magic, both versions,
 * size, checksum, the key digest against its canonical bytes, and
 * bounds-checked field decoding — and reports failure on any
 * mismatch. Malformed bytes can therefore never crash a reader or
 * smuggle a wrong schedule past it; the disk cache treats a failed
 * decode as a miss, drops the record from its index and never
 * serves it again. recordLength() and recordKeyDigest() read only
 * the framing, which is how the disk cache walks its append-only
 * segment files (engine/disk_cache.hh) without decoding them.
 */

#ifndef GPSCHED_SERIALIZE_RECORD_HH
#define GPSCHED_SERIALIZE_RECORD_HH

#include <cstdint>
#include <string>

#include "core/gp_scheduler.hh"
#include "engine/loop_key.hh"
#include "serialize/bytes.hh"

namespace gpsched
{

/** "GPSC" read as a little-endian u32. */
constexpr std::uint32_t diskRecordMagic = 0x43535047u;

/** Version of the record framing + CompiledLoop field encoding. */
constexpr std::uint32_t recordFormatVersion = 1;

/**
 * Version of the LoopKey canonical encoding (engine/loop_key.cc).
 * The canonical string embeds the machine shape and every compiler
 * option, so bumping this constant when that encoding changes
 * invalidates every on-disk record written under the old scheme.
 *
 * v2: AssignmentPolicy ('A') and the transfer cost model ('T'/'z')
 * joined the option encoding — and changed scheduling defaults on
 * heterogeneous machines — so v1 records are stale.
 */
constexpr std::uint32_t keySchemaVersion = 2;

/** Byte offsets of the header fields (for tests and tooling). */
constexpr std::size_t recordMagicOffset = 0;
constexpr std::size_t recordVersionOffset = 4;
constexpr std::size_t recordKeySchemaOffset = 8;
constexpr std::size_t recordHeaderSize = 28;

// --- field-level codecs --------------------------------------------

void encodeLoopKey(ByteWriter &out, const LoopKey &key);

/** False when bytes are malformed or the digest does not match. */
bool decodeLoopKey(ByteReader &in, LoopKey &key);

void encodeCompiledLoop(ByteWriter &out, const CompiledLoop &loop);

/** False on malformed bytes; @p loop is unspecified then. */
bool decodeCompiledLoop(ByteReader &in, CompiledLoop &loop);

// --- record framing ------------------------------------------------

/** Serializes one cache record (header + key + value). */
std::string encodeCacheRecord(const LoopKey &key,
                              const CompiledLoop &value);

/**
 * Decodes and fully verifies one cache record. Returns false —
 * never crashes, never partially succeeds — on any corruption:
 * truncation, bit flips, version or schema mismatches, checksum
 * failures or trailing garbage.
 */
bool decodeCacheRecord(const std::string &bytes, LoopKey &key,
                       CompiledLoop &value);

/**
 * Length of the whole record whose header (recordHeaderSize bytes)
 * starts at @p header; 0 when the magic or either version does not
 * match. Neither the checksum nor the payload is read, so a length
 * only says where a record claims to end.
 */
std::uint64_t recordLength(const char *header);

/**
 * The key digest claimed by the @p length -byte record at @p record
 * (a length from recordLength()); false when the key's framing does
 * not fit in the record. Unverified, like recordLength().
 */
bool recordKeyDigest(const char *record, std::uint64_t length,
                     std::uint64_t &digest);

} // namespace gpsched

#endif // GPSCHED_SERIALIZE_RECORD_HH
