#include "syskit/memory.hh"

#include "common/logging.hh"

namespace dfi::syskit
{

GuestMemory::GuestMemory(std::uint32_t size, std::uint32_t code_limit)
    : bytes_(size, 0), codeLimit_(code_limit)
{
    if (code_limit < kCodeBase || code_limit > size)
        panic("GuestMemory: bad code limit %s for size %s", code_limit,
              size);
}

bool
GuestMemory::mapped(std::uint32_t addr, std::uint32_t len) const
{
    if (addr < kCodeBase)
        return false;
    const std::uint64_t end =
        static_cast<std::uint64_t>(addr) + len;
    return end <= bytes_.size();
}

MemFault
GuestMemory::checkAccess(std::uint32_t addr, std::uint32_t len,
                         bool is_write) const
{
    if (!mapped(addr, len))
        return MemFault::Unmapped;
    if (is_write && addr < codeLimit_)
        return MemFault::WriteToCode;
    return MemFault::None;
}

MemFault
GuestMemory::read(std::uint32_t addr, std::uint32_t len,
                  std::uint32_t *value) const
{
    const MemFault fault = checkAccess(addr, len, false);
    if (fault != MemFault::None)
        return fault;
    std::uint32_t v = 0;
    for (std::uint32_t i = 0; i < len; ++i)
        v |= static_cast<std::uint32_t>(bytes_.get(addr + i)) << (8 * i);
    *value = v;
    return MemFault::None;
}

MemFault
GuestMemory::write(std::uint32_t addr, std::uint32_t len,
                   std::uint32_t value)
{
    const MemFault fault = checkAccess(addr, len, true);
    if (fault != MemFault::None)
        return fault;
    for (std::uint32_t i = 0; i < len; ++i)
        bytes_.set(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
    return MemFault::None;
}

MemFault
GuestMemory::readBlock(std::uint32_t addr, std::uint32_t len,
                       std::uint8_t *out) const
{
    const MemFault fault = checkAccess(addr, len, false);
    if (fault != MemFault::None)
        return fault;
    for (std::uint32_t i = 0; i < len; ++i)
        out[i] = bytes_.get(addr + i);
    return MemFault::None;
}

MemFault
GuestMemory::writeBlock(std::uint32_t addr, std::uint32_t len,
                        const std::uint8_t *in)
{
    const MemFault fault = checkAccess(addr, len, true);
    if (fault != MemFault::None)
        return fault;
    for (std::uint32_t i = 0; i < len; ++i)
        bytes_.set(addr + i, in[i]);
    return MemFault::None;
}

void
GuestMemory::pokeBytes(std::uint32_t addr, std::uint32_t len,
                       const std::uint8_t *in)
{
    if (static_cast<std::uint64_t>(addr) + len > bytes_.size())
        panic("GuestMemory::pokeBytes out of range: %s + %s", addr, len);
    for (std::uint32_t i = 0; i < len; ++i)
        bytes_.set(addr + i, in[i]);
}

void
GuestMemory::peekBytes(std::uint32_t addr, std::uint32_t len,
                       std::uint8_t *out) const
{
    if (static_cast<std::uint64_t>(addr) + len > bytes_.size())
        panic("GuestMemory::peekBytes out of range: %s + %s", addr, len);
    for (std::uint32_t i = 0; i < len; ++i)
        out[i] = bytes_.get(addr + i);
}

} // namespace dfi::syskit
