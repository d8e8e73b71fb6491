#include "uarch/hier.hh"

#include "common/logging.hh"

namespace dfi::uarch
{

MemHierarchy::MemHierarchy(const HierConfig &config,
                           syskit::GuestMemory memory)
    : cfg_(config), memory_(std::move(memory)), l1i_(config.l1i),
      l1d_(config.l1d), l2_(config.l2),
      pfD_("prefetch_l1d", config.l1d.lineBytes),
      pfI_("prefetch_l1i", config.l1i.lineBytes)
{
    const std::uint32_t line = cfg_.l1d.lineBytes;
    if (cfg_.l1i.lineBytes != line || cfg_.l2.lineBytes != line ||
        line > kMaxLineBytes) {
        fatal("cache line sizes must be equal and at most %s bytes "
              "(l1i %s, l1d %s, l2 %s)",
              kMaxLineBytes, cfg_.l1i.lineBytes, line,
              cfg_.l2.lineBytes);
    }
}

dfi::StatSet
MemHierarchy::stats() const
{
    dfi::StatSet out = l1i_.stats();
    out.merge(l1d_.stats());
    out.merge(l2_.stats());
    return out;
}

bool
MemHierarchy::directRead(std::uint32_t pa, std::uint32_t count,
                         std::uint8_t *out) const
{
    if (static_cast<std::uint64_t>(pa) + count > memory_.size())
        return false;
    memory_.peekBytes(pa, count, out);
    return true;
}

bool
MemHierarchy::directWrite(std::uint32_t pa, std::uint32_t count,
                          const std::uint8_t *in)
{
    if (static_cast<std::uint64_t>(pa) + count > memory_.size())
        return false;
    memory_.pokeBytes(pa, count, in);
    return true;
}

std::uint32_t
MemHierarchy::ensureLineL2(std::uint32_t line_addr, std::uint8_t *bytes)
{
    const std::uint32_t line_len = cfg_.l2.lineBytes;
    std::uint32_t latency = cfg_.l2.hitLatency;
    const Cache::Lookup hit = l2_.access(line_addr, false);
    if (hit.hit) {
        l2_.readLine(hit.line, 0, line_len, bytes);
        return latency;
    }
    // Miss: fetch from memory.
    latency += cfg_.memLatency;
    if (static_cast<std::uint64_t>(line_addr) + line_len <=
        memory_.size()) {
        memory_.peekBytes(line_addr, line_len, bytes);
    } else {
        for (std::uint32_t i = 0; i < line_len; ++i)
            bytes[i] = 0;
    }
    const Cache::Eviction evicted = l2_.fill(line_addr, bytes);
    handleL2Eviction(evicted);
    // Read back through the data array so resident L2 faults apply to
    // the filled line immediately.
    const Cache::Lookup refetch = l2_.access(line_addr, false);
    if (refetch.hit)
        l2_.readLine(refetch.line, 0, line_len, bytes);
    return latency;
}

void
MemHierarchy::handleL2Eviction(const Cache::Eviction &evicted)
{
    if (!evicted.valid || !evicted.dirty || evicted.bytes.empty())
        return;
    if (static_cast<std::uint64_t>(evicted.addr) +
            evicted.bytes.size() <=
        memory_.size()) {
        memory_.pokeBytes(evicted.addr,
                          static_cast<std::uint32_t>(
                              evicted.bytes.size()),
                          evicted.bytes.data());
    }
    // A write-back to an unmapped (tag-corrupted) address is dropped
    // by the memory controller.
}

void
MemHierarchy::handleL1Eviction(const Cache::Eviction &evicted)
{
    if (!evicted.valid || !evicted.dirty || evicted.bytes.empty())
        return; // tags-only evictions carry no data to move
    // Dirty L1 victim: install into L2 (allocate-on-writeback).
    const std::uint32_t line_len = cfg_.l2.lineBytes;
    const Cache::Lookup hit = l2_.access(evicted.addr, true);
    if (hit.hit) {
        l2_.writeLine(hit.line, 0, line_len, evicted.bytes.data());
    } else {
        const Cache::Eviction l2_victim =
            l2_.fill(evicted.addr, evicted.bytes.data());
        // The incoming line is dirty relative to memory.
        const Cache::Lookup placed = l2_.access(evicted.addr, true);
        if (placed.hit)
            l2_.writeLine(placed.line, 0, 0, evicted.bytes.data());
        handleL2Eviction(l2_victim);
    }
    if (cfg_.mode == HierMode::Shadow) {
        // Shadow mode: propagate to authoritative memory too (no-op
        // unless the array content was faulted).
        if (static_cast<std::uint64_t>(evicted.addr) +
                evicted.bytes.size() <=
            memory_.size()) {
            memory_.pokeBytes(evicted.addr,
                              static_cast<std::uint32_t>(
                                  evicted.bytes.size()),
                              evicted.bytes.data());
        }
    }
}

std::pair<std::uint32_t, std::uint32_t>
MemHierarchy::ensureLine(Cache &l1, std::uint32_t pa, bool is_write,
                         bool is_fetch)
{
    const std::uint32_t line_addr = l1.lineAddr(pa);
    std::uint32_t latency = l1.config().hitLatency;
    Cache::Lookup hit = l1.access(pa, is_write);
    if (!hit.hit) {
        if (cfg_.mode == HierMode::Shadow && !cfg_.modelDataArrays) {
            // Original-MARSS fill: tags/valid only, no byte traffic.
            latency += cfg_.l2.hitLatency;
            const Cache::Lookup l2_hit = l2_.access(line_addr, false);
            if (!l2_hit.hit) {
                latency += cfg_.memLatency;
                handleL2Eviction(l2_.fillTagsOnly(line_addr));
            }
            handleL1Eviction(l1.fillTagsOnly(line_addr));
            hit = l1.access(pa, false);
            if (!hit.hit)
                return {~0u, latency};
            return {hit.line, latency};
        }
        std::uint8_t bytes[kMaxLineBytes];
        latency += ensureLineL2(line_addr, bytes);
        const Cache::Eviction evicted = l1.fill(line_addr, bytes);
        handleL1Eviction(evicted);
        hit = l1.access(pa, false);
        if (!hit.hit) {
            // A resident fault in the tag/valid arrays can make the
            // just-filled line unreachable; treat as repeated miss.
            l1.counters().inc(CacheStat::FillLost);
            return {~0u, latency};
        }
        // Demand-miss prefetch.
        if (is_fetch && cfg_.prefetchL1I)
            prefetchInto(l1i_, pfI_, line_addr);
        else if (!is_fetch && cfg_.prefetchL1D)
            prefetchInto(l1d_, pfD_, line_addr);
    }
    return {hit.line, latency};
}

void
MemHierarchy::prefetchInto(Cache &l1, NextLinePrefetcher &pf,
                           std::uint32_t miss_line)
{
    const std::uint32_t target = pf.onMiss(miss_line);
    if (target >= memory_.size())
        return;
    if (l1.probe(target))
        return;
    l1.counters().inc(CacheStat::Prefetches);
    std::uint8_t bytes[kMaxLineBytes];
    ensureLineL2(l1.lineAddr(target), bytes);
    const Cache::Eviction evicted = l1.fill(l1.lineAddr(target), bytes);
    handleL1Eviction(evicted);
}

MemHierarchy::Access
MemHierarchy::accessLine(Cache &l1, std::uint32_t pa,
                         std::uint32_t count, std::uint8_t *data,
                         bool is_write, bool is_fetch)
{
    Access access;
    if (static_cast<std::uint64_t>(pa) + count > memory_.size()) {
        access.ok = false;
        for (std::uint32_t i = 0; i < count && !is_write; ++i)
            data[i] = 0;
        return access;
    }
    const auto [line, latency] = ensureLine(l1, pa, is_write, is_fetch);
    access.latency = latency;
    if (line == ~0u) {
        // Unreachable line (resident tag fault): fall back to memory
        // content like a repeated miss would eventually.
        access.latency += cfg_.memLatency;
        if (is_write)
            memory_.pokeBytes(pa, count, data);
        else
            memory_.peekBytes(pa, count, data);
        return access;
    }
    const std::uint32_t offset = pa - l1.lineAddr(pa);
    if (cfg_.mode == HierMode::Shadow && !cfg_.modelDataArrays) {
        // Original-MARSS behaviour: data lives only in main memory;
        // the caches track tags/timing but hold no data arrays.
        if (is_write)
            memory_.pokeBytes(pa, count, data);
        else
            memory_.peekBytes(pa, count, data);
        return access;
    }
    if (is_write) {
        l1.writeLine(line, offset, count, data);
        if (cfg_.mode == HierMode::Shadow)
            memory_.pokeBytes(pa, count, data); // authoritative copy
    } else {
        l1.readLine(line, offset, count, data);
    }
    return access;
}

MemHierarchy::Access
MemHierarchy::read(std::uint32_t pa, std::uint32_t count,
                   std::uint8_t *out)
{
    Access total;
    std::uint32_t done = 0;
    while (done < count) {
        const std::uint32_t line_addr = l1d_.lineAddr(pa + done);
        const std::uint32_t line_left =
            line_addr + cfg_.l1d.lineBytes - (pa + done);
        const std::uint32_t chunk = std::min(count - done, line_left);
        const Access a = accessLine(l1d_, pa + done, chunk, out + done,
                                    false, false);
        total.latency += a.latency;
        total.ok = total.ok && a.ok;
        done += chunk;
    }
    return total;
}

MemHierarchy::Access
MemHierarchy::write(std::uint32_t pa, std::uint32_t count,
                    const std::uint8_t *in)
{
    Access total;
    std::uint32_t done = 0;
    std::uint8_t buffer[64];
    while (done < count) {
        const std::uint32_t line_addr = l1d_.lineAddr(pa + done);
        const std::uint32_t line_left =
            line_addr + cfg_.l1d.lineBytes - (pa + done);
        const std::uint32_t chunk = std::min(count - done, line_left);
        for (std::uint32_t i = 0; i < chunk; ++i)
            buffer[i] = in[done + i];
        const Access a = accessLine(l1d_, pa + done, chunk, buffer,
                                    true, false);
        total.latency += a.latency;
        total.ok = total.ok && a.ok;
        done += chunk;
    }
    return total;
}

MemHierarchy::Access
MemHierarchy::fetch(std::uint32_t pa, std::uint32_t count,
                    std::uint8_t *out)
{
    Access total;
    std::uint32_t done = 0;
    while (done < count) {
        const std::uint32_t line_addr = l1i_.lineAddr(pa + done);
        const std::uint32_t line_left =
            line_addr + cfg_.l1i.lineBytes - (pa + done);
        const std::uint32_t chunk = std::min(count - done, line_left);
        const Access a = accessLine(l1i_, pa + done, chunk, out + done,
                                    false, true);
        total.latency += a.latency;
        total.ok = total.ok && a.ok;
        done += chunk;
    }
    return total;
}

MemHierarchy::Access
MemHierarchy::kernelRead(std::uint32_t pa, std::uint32_t count,
                         std::uint8_t *out)
{
    return read(pa, count, out);
}

void
MemHierarchy::kernelTouchInstr(std::uint32_t pa)
{
    if (pa >= memory_.size())
        return;
    std::uint8_t dummy[4];
    (void)accessLine(l1i_, pa, std::min<std::uint32_t>(4, 64), dummy,
                     false, true);
}

} // namespace dfi::uarch
