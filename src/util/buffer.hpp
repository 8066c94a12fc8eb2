#pragma once
// Byte-buffer serialization. All on-disk and over-the-wire encoding in the
// library goes through BufferWriter/BufferReader, which use memcpy-based
// codecs (no type punning, no alignment assumptions) and little-endian
// layout. The library targets little-endian hosts, as the paper's systems
// (x86 Stampede2, POWER9 little-endian Summit) both are.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace bat {

static_assert(std::endian::native == std::endian::little,
              "on-disk format assumes a little-endian host");

/// Appends POD values / spans to a growable byte vector.
class BufferWriter {
public:
    BufferWriter() = default;
    explicit BufferWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }
    /// Write into `storage`, emptied first; its capacity is kept, so a
    /// caller that hands the same storage back each time (see take())
    /// allocates only when a write outgrows it.
    explicit BufferWriter(std::vector<std::byte>&& storage) : buf_(std::move(storage)) {
        buf_.clear();
    }

    void reserve(std::size_t bytes) { buf_.reserve(bytes); }

    template <typename T>
    void write(const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* p = reinterpret_cast<const std::byte*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(T));
    }

    template <typename T>
    void write_span(std::span<const T> s) {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* p = reinterpret_cast<const std::byte*>(s.data());
        buf_.insert(buf_.end(), p, p + s.size_bytes());
    }

    /// Length-prefixed (u32) UTF-8 string.
    void write_string(const std::string& s) {
        write(static_cast<std::uint32_t>(s.size()));
        const auto* p = reinterpret_cast<const std::byte*>(s.data());
        buf_.insert(buf_.end(), p, p + s.size());
    }

    /// Pad with zero bytes up to absolute offset `pos` (>= size()).
    void pad_to(std::size_t pos) {
        BAT_CHECK_MSG(pos >= buf_.size(), "pad_to(" << pos << ") behind size " << buf_.size());
        buf_.insert(buf_.end(), pos - buf_.size(), std::byte{0});
    }

    std::size_t size() const { return buf_.size(); }
    const std::vector<std::byte>& bytes() const { return buf_; }
    std::vector<std::byte> take() { return std::move(buf_); }

private:
    std::vector<std::byte> buf_;
};

/// Reads POD values / spans from a byte span with bounds checking.
class BufferReader {
public:
    explicit BufferReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

    template <typename T>
    T read() {
        static_assert(std::is_trivially_copyable_v<T>);
        BAT_CHECK_MSG(pos_ + sizeof(T) <= bytes_.size(), "buffer underrun");
        T v;
        std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    /// Read an element count of type `Count` and check that that many
    /// `elem_size`-byte elements fit in the remaining bytes, so callers can
    /// size containers from untrusted counts (overflow-safe: no product).
    template <typename Count>
    std::size_t read_count(std::size_t elem_size) {
        const auto n = read<Count>();
        BAT_CHECK_MSG(n <= remaining() / elem_size,
                      "count " << n << " exceeds the " << remaining() << " bytes left");
        return static_cast<std::size_t>(n);
    }

    template <typename T>
    void read_into(std::span<T> out) {
        static_assert(std::is_trivially_copyable_v<T>);
        BAT_CHECK_MSG(pos_ + out.size_bytes() <= bytes_.size(), "buffer underrun");
        if (out.empty()) {
            return;  // memcpy's pointers must be valid even for 0 bytes
        }
        std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
        pos_ += out.size_bytes();
    }

    std::string read_string() {
        const auto n = read<std::uint32_t>();
        BAT_CHECK_MSG(pos_ + n <= bytes_.size(), "buffer underrun (string)");
        std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
        pos_ += n;
        return s;
    }

    void seek(std::size_t pos) {
        BAT_CHECK(pos <= bytes_.size());
        pos_ = pos;
    }
    void skip(std::size_t n) { seek(pos_ + n); }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return bytes_.size() - pos_; }

private:
    std::span<const std::byte> bytes_;
    std::size_t pos_ = 0;
};

}  // namespace bat
