/**
 * @file
 * Compact binary state serialization for cache spill files.
 *
 * A deliberately small archive pair used by the campaign service to
 * persist PreparedCampaign state (golden run + checkpoint cores)
 * across daemon restarts.  Design points:
 *
 *  - One serialization function per type: classes expose
 *    `template <class Ar> void serializeState(Ar &)` and branch on
 *    `Ar::kSaving` only where save/load are asymmetric, so the field
 *    list can never drift between the two directions.
 *  - Host-local format: scalars are memcpy'd in host representation.
 *    The files are a cache, not an interchange format — a reader on a
 *    different host simply misses and re-prepares.
 *  - Fail-soft reader: any underrun or structural mismatch latches
 *    ok() == false with a reason; subsequent reads return zeros and
 *    the caller discards the result.  Whole-file integrity is the
 *    caller's job (the service frames files with an FNV-1a digest).
 *  - Page interning: copy-on-write page payloads are written once and
 *    referenced by ordinal afterwards, so a snapshot stack that shares
 *    pages on disk re-shares them after load instead of exploding to
 *    `snapshots * state size` bytes.
 */

#ifndef DFI_COMMON_SERIAL_HH
#define DFI_COMMON_SERIAL_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/failpoint.hh"

namespace dfi::serial
{

/**
 * Appends state to a growable byte buffer.  Never mutates the object
 * being saved; serializeState takes a non-const reference only so
 * save and load can share one function body.
 *
 * Writes can fail (the `serial.write` failpoint models the allocator
 * or backing store giving out mid-save): the first failure latches
 * ok() == false, later appends are dropped, and the caller must
 * discard the buffer instead of persisting a truncated archive.
 *
 * A counting writer (Writer(kCountOnly)) keeps no bytes and never
 * fails: size() is what the archive would hold, interned pages once,
 * which makes it a measure of the memory a snapshot stack keeps
 * alive.
 */
class Writer
{
  public:
    static constexpr bool kSaving = true;

    struct CountOnly
    {
    };
    static constexpr CountOnly kCountOnly{};

    Writer() = default;
    explicit Writer(CountOnly) : countOnly_(true) {}

    bool ok() const { return ok_; }

    void
    bytes(const void *data, std::size_t n)
    {
        if (countOnly_) {
            counted_ += n;
            return;
        }
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

    /**
     * Intern a page by identity.  Returns true (and the previously
     * assigned ordinal) when the page was already written; otherwise
     * assigns the next ordinal and returns false so the caller writes
     * the payload exactly once.
     */
    bool
    internPage(const void *page, std::uint64_t &id)
    {
        const auto it = interned_.find(page);
        if (it != interned_.end()) {
            id = it->second;
            return true;
        }
        id = interned_.size();
        interned_.emplace(page, id);
        return false;
    }

    const std::string &buffer() const { return buf_; }

    /** Bytes written (or, counting, that would have been). */
    std::uint64_t size() const { return countOnly_ ? counted_ : buf_.size(); }

  private:
    std::string buf_;
    bool ok_ = true;
    bool countOnly_ = false;
    std::uint64_t counted_ = 0;
    std::unordered_map<const void *, std::uint64_t> interned_;
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

    /** Record a freshly loaded page payload; returns its ordinal. */
    std::uint64_t
    registerPage(std::shared_ptr<void> page)
    {
        pages_.push_back(std::move(page));
        return pages_.size() - 1;
    }

    /** Resolve a previously registered page by ordinal. */
    std::shared_ptr<void>
    internedPage(std::uint64_t id)
    {
        if (id >= pages_.size()) {
            fail("interned page ordinal out of range");
            return nullptr;
        }
        return pages_[static_cast<std::size_t>(id)];
    }

  private:
    std::string_view data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
    std::vector<std::shared_ptr<void>> pages_;
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

/**
 * Fixed-size arithmetic array.  The length is in the stream so an
 * archive written with a different N fails instead of misparsing.
 */
template <class Ar, class T, std::size_t N>
void
value(Ar &ar, std::array<T, N> &a)
{
    static_assert(std::is_arithmetic_v<T>);
    std::uint64_t n = N;
    ar.scalar(n);
    if constexpr (!Ar::kSaving) {
        if (n != N) {
            ar.fail("array length mismatch");
            return;
        }
    }
    ar.bytes(a.data(), N * sizeof(T));
}

/** std::vector<bool> has no contiguous storage; one byte per element. */
template <class Ar>
void
value(Ar &ar, std::vector<bool> &v)
{
    std::uint64_t n = v.size();
    ar.scalar(n);
    if constexpr (Ar::kSaving) {
        for (const bool bit : v) {
            const std::uint8_t byte = bit ? 1 : 0;
            ar.scalar(byte);
        }
    } else {
        if (n > ar.remaining()) {
            ar.fail("bit vector length exceeds stream");
            return;
        }
        v.assign(static_cast<std::size_t>(n), false);
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::uint8_t byte = 0;
            ar.scalar(byte);
            v[i] = byte != 0;
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
