/**
 * @file
 * Compact binary archives for the prepared-state spill.
 *
 * The Writer writes the campaign service's spill of a
 * PreparedCampaign: the golden run record, and the image bytes the
 * spill's image digest is taken over.  The Reader reads back only the
 * golden record: no simulator state is ever written to or read from
 * bytes, because a loaded prepared state rebuilds its program and
 * reset core from the config.  Design points:
 *
 *  - One serialization function per type: classes expose
 *    `template <class Ar> void serializeState(Ar &)`.  The record
 *    types a spill holds (RunRecord, DueEvent, StatSet) instantiate
 *    it for both archives, so their field list cannot drift between
 *    the two directions; isa::Image only for the Writer.
 *  - Host-local format: scalars are memcpy'd in host representation.
 *    The files are a cache, not an interchange format — a reader on a
 *    different host simply misses and re-prepares.
 *  - Fail-soft reader: any underrun latches ok() == false with a
 *    reason; subsequent reads return zeros and the caller discards
 *    the result.  Whole-file integrity is the caller's job (the
 *    service frames files with an FNV-1a digest).
 */

#ifndef DFI_COMMON_SERIAL_HH
#define DFI_COMMON_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/failpoint.hh"

namespace dfi::serial
{

/**
 * Appends state to a growable byte buffer.  Never mutates the object
 * being saved; serializeState takes a non-const reference only so
 * the record types can share one function body with the Reader.
 *
 * Writes can fail (the `serial.write` failpoint models the allocator
 * or backing store giving out mid-save): the first failure latches
 * ok() == false, later appends are dropped, and the caller must
 * discard the buffer instead of persisting a truncated archive.
 */
class Writer
{
  public:
    static constexpr bool kSaving = true;

    bool ok() const { return ok_; }

    /** Latch a failure the caller met outside this archive. */
    void fail() { ok_ = false; }

    void
    bytes(const void *data, std::size_t n)
    {
        if (!ok_)
            return;
        if (failpoint::check("serial.write").kind ==
            failpoint::Action::Kind::Error) {
            ok_ = false;
            return;
        }
        buf_.append(static_cast<const char *>(data), n);
    }

    template <class T>
    void
    scalar(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if constexpr (std::is_same_v<T, bool>) {
            const std::uint8_t byte = v ? 1 : 0;
            bytes(&byte, 1);
        } else {
            bytes(&v, sizeof v);
        }
    }

    const std::string &buffer() const { return buf_; }

  private:
    std::string buf_;
    bool ok_ = true;
};

/** Bounds-checked reader over a byte buffer with a sticky failure flag. */
class Reader
{
  public:
    static constexpr bool kSaving = false;

    explicit Reader(std::string_view data) : data_(data) {}

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    std::size_t remaining() const { return data_.size() - pos_; }

    /** Latch a failure; the first reason wins. */
    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            error_ = why;
        }
    }

    bool
    bytes(void *out, std::size_t n)
    {
        if (ok_ && failpoint::check("serial.read").kind ==
                       failpoint::Action::Kind::Error)
            fail("injected read failure (serial.read failpoint)");
        if (!ok_ || n > remaining()) {
            std::memset(out, 0, n);
            fail("state stream underrun");
            return false;
        }
        std::memcpy(out, data_.data() + pos_, n);
        pos_ += n;
        return true;
    }

    template <class T>
    void
    scalar(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t byte = 0;
            bytes(&byte, 1);
            v = byte != 0;
        } else {
            bytes(&v, sizeof v);
        }
    }

  private:
    std::string_view data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

/**
 * Serialize a value: scalars and enums inline, everything else via
 * the type's serializeState member.
 */
template <class Ar, class T>
void
value(Ar &ar, T &v)
{
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>)
        ar.scalar(v);
    else
        v.serializeState(ar);
}

template <class Ar>
void
value(Ar &ar, std::string &s)
{
    std::uint64_t n = s.size();
    ar.scalar(n);
    if constexpr (Ar::kSaving) {
        ar.bytes(s.data(), s.size());
    } else {
        if (n > ar.remaining()) {
            ar.fail("string length exceeds stream");
            return;
        }
        s.assign(static_cast<std::size_t>(n), '\0');
        ar.bytes(s.data(), s.size());
    }
}

template <class Ar, class T>
void
value(Ar &ar, std::vector<T> &v)
{
    std::uint64_t n = v.size();
    ar.scalar(n);
    if constexpr (!Ar::kSaving) {
        if (n > ar.remaining()) {
            ar.fail("vector length exceeds stream");
            return;
        }
        v.assign(static_cast<std::size_t>(n), T{});
    }
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
        // An empty vector's data() may be null, and memcpy must not
        // see a null pointer even for zero bytes.
        if (v.empty())
            return;
        if constexpr (Ar::kSaving) {
            ar.bytes(v.data(), v.size() * sizeof(T));
        } else if (n * sizeof(T) > ar.remaining()) {
            ar.fail("vector payload exceeds stream");
        } else {
            ar.bytes(v.data(), v.size() * sizeof(T));
        }
    } else {
        for (auto &elem : v) {
            if constexpr (!Ar::kSaving) {
                if (!ar.ok())
                    return;
            }
            value(ar, elem);
        }
    }
}

template <class Ar, class V>
void
value(Ar &ar, std::map<std::string, V> &m)
{
    std::uint64_t n = m.size();
    ar.scalar(n);
    if constexpr (Ar::kSaving) {
        for (auto &[key, val] : m) {
            std::string name = key;
            value(ar, name);
            value(ar, val);
        }
    } else {
        if (n > ar.remaining()) {
            ar.fail("map size exceeds stream");
            return;
        }
        m.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            if (!ar.ok())
                return;
            std::string key;
            V val{};
            value(ar, key);
            value(ar, val);
            m.emplace(std::move(key), std::move(val));
        }
    }
}

} // namespace dfi::serial

#endif // DFI_COMMON_SERIAL_HH
