#include "serialize/bytes.hh"

#include <cstring>

namespace gpsched
{

// --- writer --------------------------------------------------------

void
ByteWriter::u8(std::uint8_t value)
{
    buffer_.push_back(static_cast<char>(value));
}

void
ByteWriter::u32(std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        u8(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
ByteWriter::u64(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        u8(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
ByteWriter::i32(std::int32_t value)
{
    u32(static_cast<std::uint32_t>(value));
}

void
ByteWriter::i64(std::int64_t value)
{
    u64(static_cast<std::uint64_t>(value));
}

void
ByteWriter::f64(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value),
                  "double is not 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
}

void
ByteWriter::str(const std::string &value)
{
    u32(static_cast<std::uint32_t>(value.size()));
    raw(value.data(), value.size());
}

void
ByteWriter::raw(const void *data, std::size_t size)
{
    buffer_.append(static_cast<const char *>(data), size);
}

// --- reader --------------------------------------------------------

ByteReader::ByteReader(const void *bytes, std::size_t size)
    : data_(static_cast<const unsigned char *>(bytes)), size_(size)
{
}

ByteReader::ByteReader(const std::string &bytes)
    : ByteReader(bytes.data(), bytes.size())
{
}

bool
ByteReader::claim(std::size_t n)
{
    if (!ok_ || n > size_ - pos_) {
        ok_ = false;
        return false;
    }
    return true;
}

std::uint8_t
ByteReader::u8()
{
    if (!claim(1))
        return 0;
    return data_[pos_++];
}

void
ByteReader::skip(std::size_t n)
{
    if (claim(n))
        pos_ += n;
}

std::uint32_t
ByteReader::u32()
{
    if (!claim(4))
        return 0;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return value;
}

std::uint64_t
ByteReader::u64()
{
    if (!claim(8))
        return 0;
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return value;
}

std::int32_t
ByteReader::i32()
{
    return static_cast<std::int32_t>(u32());
}

std::int64_t
ByteReader::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
ByteReader::f64()
{
    std::uint64_t bits = u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
ByteReader::str()
{
    std::uint32_t size = u32();
    if (!claim(size))
        return std::string();
    std::string value(reinterpret_cast<const char *>(data_ + pos_),
                      size);
    pos_ += size;
    return value;
}

} // namespace gpsched
