/**
 * @file
 * The one little-endian codec behind every BranchLab byte format: the
 * BLTC trace entries (the trace cache's files and the CLI's `record
 * -o` export, header and sections checksummed), BLSG journal segments
 * and the BLRQ/BLRS daemon protocol all encode integers and doubles
 * with these helpers, so the byte order is decided in exactly one
 * place.
 *
 *  - appendLe*: append a value's bytes to a string buffer;
 *  - loadLe*:   read a value from a pointer the caller has already
 *               bounds-checked (mapped files, fixed headers);
 *  - LeReader:  a bounds-checked cursor over untrusted bytes (network
 *               frames), where every read reports truncation.
 *
 * On little-endian hosts a load or append is one memcpy, which the
 * compiler lowers to a single unaligned move -- checksum64 depends on
 * that on the warm cache path.
 */

#ifndef BRANCHLAB_SUPPORT_LE_CODEC_HH
#define BRANCHLAB_SUPPORT_LE_CODEC_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace branchlab
{

namespace le_detail
{

template <typename T>
inline T
load(const std::uint8_t *p)
{
    T value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, p, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            value |= static_cast<T>(p[i]) << (8 * i);
    }
    return value;
}

template <typename T>
inline void
append(std::string &out, T value)
{
    char bytes[sizeof(T)];
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &value, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    out.append(bytes, sizeof(T));
}

} // namespace le_detail

inline std::uint16_t
loadLe16(const std::uint8_t *p)
{
    return le_detail::load<std::uint16_t>(p);
}

inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return le_detail::load<std::uint32_t>(p);
}

inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    return le_detail::load<std::uint64_t>(p);
}

inline double
loadLeF64(const std::uint8_t *p)
{
    return std::bit_cast<double>(loadLe64(p));
}

inline void
appendLe16(std::string &out, std::uint16_t value)
{
    le_detail::append(out, value);
}

inline void
appendLe32(std::string &out, std::uint32_t value)
{
    le_detail::append(out, value);
}

inline void
appendLe64(std::string &out, std::uint64_t value)
{
    le_detail::append(out, value);
}

inline void
appendLeF64(std::string &out, double value)
{
    appendLe64(out, std::bit_cast<std::uint64_t>(value));
}

/** Bounds-checked little-endian reader over a byte string. Every
 *  read returns false (consuming nothing) when too few bytes remain. */
class LeReader
{
  public:
    explicit LeReader(std::string_view data) : data_(data) {}

    bool
    u8(std::uint8_t &v)
    {
        if (!has(1))
            return false;
        v = static_cast<std::uint8_t>(data_[pos_++]);
        return true;
    }

    bool u16(std::uint16_t &v) { return fixed(v, loadLe16); }
    bool u32(std::uint32_t &v) { return fixed(v, loadLe32); }
    bool u64(std::uint64_t &v) { return fixed(v, loadLe64); }
    bool f64(double &v) { return fixed(v, loadLeF64); }

    bool
    bytes(std::size_t n, std::string &v)
    {
        if (!has(n))
            return false;
        v.assign(data_.substr(pos_, n));
        pos_ += n;
        return true;
    }

    bool exhausted() const { return pos_ == data_.size(); }

  private:
    bool has(std::size_t n) const { return n <= data_.size() - pos_; }

    template <typename T, typename Load>
    bool
    fixed(T &v, Load load)
    {
        if (!has(sizeof(T)))
            return false;
        v = load(reinterpret_cast<const std::uint8_t *>(data_.data()) +
                 pos_);
        pos_ += sizeof(T);
        return true;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

} // namespace branchlab

#endif // BRANCHLAB_SUPPORT_LE_CODEC_HH
