#include "isa/image.hh"

#include "common/logging.hh"
#include "common/serial.hh"

namespace dfi::isa
{

std::uint32_t
Image::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("image has no symbol '%s'", name);
    return it->second;
}

syskit::GuestMemory
Image::makeMemory() const
{
    syskit::GuestMemory memory(memSize, codeLimit());
    if (!code.empty())
        memory.pokeBytes(codeBase,
                         static_cast<std::uint32_t>(code.size()),
                         code.data());
    if (!data.empty())
        memory.pokeBytes(dataBase,
                         static_cast<std::uint32_t>(data.size()),
                         data.data());
    return memory;
}

template <class Ar>
void
Image::serializeState(Ar &ar)
{
    serial::value(ar, isa);
    serial::value(ar, codeBase);
    serial::value(ar, entry);
    serial::value(ar, code);
    serial::value(ar, dataBase);
    serial::value(ar, data);
    serial::value(ar, bssBase);
    serial::value(ar, bssSize);
    serial::value(ar, memSize);
    serial::value(ar, stackTop);
    serial::value(ar, symbols);
}

template void Image::serializeState(serial::Writer &);

} // namespace dfi::isa
