/**
 * @file
 * Endian-stable binary primitives for the serialization subsystem.
 *
 * ByteWriter appends fixed-width little-endian integers, IEEE-754
 * doubles (by bit pattern, so round trips are exact) and
 * length-prefixed strings to a growing buffer. ByteReader is its
 * bounds-checked inverse: every accessor checks the remaining input
 * first and, on underflow, latches a sticky failure flag and returns
 * a zero value instead of reading out of bounds. Decoders built on
 * the reader can therefore consume arbitrary untrusted bytes —
 * truncated, bit-flipped or plain garbage — and report failure
 * instead of crashing, which is the contract the on-disk compile
 * cache depends on (engine/disk_cache.hh).
 *
 * The encoding is independent of host byte order and of the widths
 * of C++ implementation types: a record written on any supported
 * platform decodes on any other.
 */

#ifndef GPSCHED_SERIALIZE_BYTES_HH
#define GPSCHED_SERIALIZE_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace gpsched
{

/** Appends little-endian primitives to a byte buffer. */
class ByteWriter
{
  public:
    void u8(std::uint8_t value);
    void u32(std::uint32_t value);
    void u64(std::uint64_t value);

    /** Two's-complement via the unsigned encodings. */
    void i32(std::int32_t value);
    void i64(std::int64_t value);

    /** IEEE-754 bit pattern; NaNs round trip bit-exactly. */
    void f64(double value);

    /** u32 byte length followed by the raw bytes. */
    void str(const std::string &value);

    /** Raw bytes, no length prefix. */
    void raw(const void *data, std::size_t size);

    const std::string &buffer() const { return buffer_; }
    std::string take() { return std::move(buffer_); }

  private:
    std::string buffer_;
};

/** Bounds-checked reader over an immutable byte buffer. */
class ByteReader
{
  public:
    /** @p bytes must outlive the reader. */
    ByteReader(const void *bytes, std::size_t size);
    explicit ByteReader(const std::string &bytes);

    /** False once any read ran past the end. Sticky. */
    bool ok() const { return ok_; }

    /** True when every byte has been consumed (and no read failed). */
    bool atEnd() const { return ok_ && pos_ == size_; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32();
    std::int64_t i64();
    double f64();

    /**
     * Length-prefixed string. Fails (and returns empty) when the
     * prefix exceeds the remaining input, so a corrupt length can
     * never trigger a huge allocation.
     */
    std::string str();

    /** Steps over @p n bytes; latches failure past the end. */
    void skip(std::size_t n);

  private:
    /** Claims @p n bytes; false (and latches failure) on underflow. */
    bool claim(std::size_t n);

    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace gpsched

#endif // GPSCHED_SERIALIZE_BYTES_HH
