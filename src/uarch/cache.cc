#include "uarch/cache.hh"

#include "common/logging.hh"

namespace dfi::uarch
{

namespace
{

/** StatSet names of the CacheStat counters, in enum order. */
const char *const kCacheStatNames[] = {
    "read_accesses",
    "write_accesses",
    "read_hits",
    "write_hits",
    "read_misses",
    "write_misses",
    "replacements",
    "writebacks",
    "fills",
    "fill_lost",
    "prefetches",
};

std::uint32_t
log2u(std::uint32_t value)
{
    std::uint32_t bits = 0;
    while ((1u << bits) < value)
        ++bits;
    if ((1u << bits) != value)
        panic("cache geometry %s not a power of two", value);
    return bits;
}

} // namespace

Cache::Cache(const CacheConfig &config) : cfg_(config)
{
    if (cfg_.sizeBytes % (cfg_.lineBytes * cfg_.ways) != 0)
        panic("cache %s: size/line/ways mismatch", cfg_.name);
    sets_ = cfg_.sizeBytes / (cfg_.lineBytes * cfg_.ways);
    offsetBits_ = log2u(cfg_.lineBytes);
    setBits_ = log2u(sets_);
    tagBits_ = 32 - setBits_ - offsetBits_;

    const std::uint32_t lines = numLines();
    tags_ = dfi::FaultableArray(cfg_.name + ".tag", lines, tagBits_);
    data_ = dfi::FaultableArray(cfg_.name + ".data", lines,
                                cfg_.lineBytes * 8);
    valid_ = dfi::FaultableArray(cfg_.name + ".valid", lines, 1);
    dirty_.assign(lines, 0);
    lruStamp_.assign(lines, 0);
}

std::uint32_t
Cache::setOf(std::uint32_t addr) const
{
    return (addr >> offsetBits_) & (sets_ - 1);
}

std::uint32_t
Cache::tagOf(std::uint32_t addr) const
{
    return addr >> (offsetBits_ + setBits_);
}

std::uint32_t
Cache::rebuildAddr(std::uint32_t set, std::uint32_t tag) const
{
    return (tag << (offsetBits_ + setBits_)) | (set << offsetBits_);
}

Cache::Lookup
Cache::access(std::uint32_t addr, bool is_write)
{
    const std::uint32_t set = setOf(addr);
    const std::uint32_t tag = tagOf(addr);

    counters_.inc(is_write ? CacheStat::WriteAccesses
                           : CacheStat::ReadAccesses);

    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const std::uint32_t line = set * cfg_.ways + way;
        if (!valid_.readBit(line, 0))
            continue;
        const std::uint32_t stored_tag = static_cast<std::uint32_t>(
            tags_.readBits(line, 0, tagBits_));
        if (stored_tag == tag) {
            counters_.inc(is_write ? CacheStat::WriteHits
                                   : CacheStat::ReadHits);
            lruStamp_[line] = ++stamp_;
            return Lookup{true, line};
        }
    }
    counters_.inc(is_write ? CacheStat::WriteMisses
                           : CacheStat::ReadMisses);
    return Lookup{};
}

bool
Cache::probe(std::uint32_t addr) const
{
    const std::uint32_t set = setOf(addr);
    const std::uint32_t tag = tagOf(addr);
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const std::uint32_t line = set * cfg_.ways + way;
        if (!valid_.peekBit(line, 0))
            continue;
        // peek path: avoid watch side effects for probes
        std::uint32_t stored = 0;
        for (std::uint32_t b = 0; b < tagBits_; ++b)
            stored |= static_cast<std::uint32_t>(
                          tags_.peekBit(line, b))
                      << b;
        if (stored == tag)
            return true;
    }
    return false;
}

Cache::Eviction
Cache::fillTagsOnly(std::uint32_t addr)
{
    return fill(addr, nullptr);
}

Cache::Eviction
Cache::fill(std::uint32_t addr, const std::uint8_t *bytes)
{
    const std::uint32_t set = setOf(addr);
    const std::uint32_t tag = tagOf(addr);

    // Victim: first invalid way, else LRU.
    std::uint32_t victim = set * cfg_.ways;
    bool found_invalid = false;
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const std::uint32_t line = set * cfg_.ways + way;
        if (!valid_.readBit(line, 0)) {
            victim = line;
            found_invalid = true;
            break;
        }
    }
    if (!found_invalid) {
        std::uint64_t best = ~0ull;
        for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
            const std::uint32_t line = set * cfg_.ways + way;
            if (lruStamp_[line] < best) {
                best = lruStamp_[line];
                victim = line;
            }
        }
    }

    Eviction evicted;
    if (!found_invalid) {
        counters_.inc(CacheStat::Replacements);
        evicted.valid = true;
        evicted.dirty = dirty_[victim] != 0;
        const std::uint32_t old_tag = static_cast<std::uint32_t>(
            tags_.readBits(victim, 0, tagBits_));
        evicted.addr = rebuildAddr(set, old_tag);
        if (evicted.dirty && bytes != nullptr) {
            evicted.bytes.resize(cfg_.lineBytes);
            data_.readBytes(victim, 0, cfg_.lineBytes,
                            evicted.bytes.data());
            counters_.inc(CacheStat::Writebacks);
        }
    }

    tags_.writeBits(victim, 0, tagBits_, tag);
    if (bytes != nullptr)
        data_.writeBytes(victim, 0, cfg_.lineBytes, bytes);
    valid_.writeBit(victim, 0, true);
    dirty_[victim] = 0;
    lruStamp_[victim] = ++stamp_;
    counters_.inc(CacheStat::Fills);
    return evicted;
}

void
Cache::readLine(std::uint32_t line, std::uint32_t offset,
                std::uint32_t count, std::uint8_t *out) const
{
    data_.readBytes(line, offset, count, out);
}

void
Cache::writeLine(std::uint32_t line, std::uint32_t offset,
                 std::uint32_t count, const std::uint8_t *in)
{
    data_.writeBytes(line, offset, count, in);
    dirty_[line] = 1;
}

bool
Cache::lineValid(std::uint32_t line) const
{
    return valid_.peekBit(line, 0);
}

dfi::StatSet
Cache::stats() const
{
    return counters_.named(cfg_.name + ".", kCacheStatNames);
}

} // namespace dfi::uarch
