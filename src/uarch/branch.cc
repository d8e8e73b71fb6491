#include "uarch/branch.hh"

namespace dfi::uarch
{

namespace
{

constexpr std::uint32_t kLocalEntries = 1024;
constexpr std::uint32_t kLocalHistBits = 10;
constexpr std::uint32_t kGlobalEntries = 4096;
constexpr std::uint32_t kGhrBits = 12;
constexpr std::uint32_t kBtbTagBits = 16;

/** StatSet names of the BtbStat counters, in enum order. */
const char *const kBtbStatNames[] = {
    "lookups",
    "hits",
};

void
bump(std::uint8_t &counter, bool up)
{
    if (up && counter < 3)
        ++counter;
    else if (!up && counter > 0)
        --counter;
}

} // namespace

TournamentPredictor::TournamentPredictor(ChooserIndex index_scheme)
    : scheme_(index_scheme), localPht_(kLocalEntries, 1),
      localHist_(kLocalEntries, 0), globalPht_(kGlobalEntries, 1),
      chooser_(kGlobalEntries, 2)
{
}

std::uint32_t
TournamentPredictor::localIndex(std::uint32_t pc) const
{
    return (pc >> 1) & (kLocalEntries - 1);
}

std::uint32_t
TournamentPredictor::globalIndex(std::uint32_t pc) const
{
    if (scheme_ == ChooserIndex::ByAddress) {
        // MARSS-like: history xor address.
        return (ghr_ ^ (pc >> 1)) & (kGlobalEntries - 1);
    }
    // gem5-like: pure history, the address is ignored.
    return ghr_ & (kGlobalEntries - 1);
}

std::uint32_t
TournamentPredictor::chooserIdx(std::uint32_t pc) const
{
    if (scheme_ == ChooserIndex::ByAddress)
        return (pc >> 1) & (kGlobalEntries - 1);
    return ghr_ & (kGlobalEntries - 1);
}

bool
TournamentPredictor::predict(std::uint32_t pc) const
{
    const std::uint16_t lh = localHist_[localIndex(pc)];
    const bool local_pred =
        localPht_[lh & (kLocalEntries - 1)] >= 2;
    const bool global_pred = globalPht_[globalIndex(pc)] >= 2;
    const bool use_global = chooser_[chooserIdx(pc)] >= 2;
    return use_global ? global_pred : local_pred;
}

void
TournamentPredictor::update(std::uint32_t pc, bool taken)
{
    const std::uint32_t li = localIndex(pc);
    const std::uint16_t lh = localHist_[li];
    std::uint8_t &local = localPht_[lh & (kLocalEntries - 1)];
    std::uint8_t &global = globalPht_[globalIndex(pc)];
    std::uint8_t &meta = chooser_[chooserIdx(pc)];

    const bool local_correct = (local >= 2) == taken;
    const bool global_correct = (global >= 2) == taken;
    if (local_correct != global_correct)
        bump(meta, global_correct);

    bump(local, taken);
    bump(global, taken);

    localHist_[li] = static_cast<std::uint16_t>(
        ((lh << 1) | (taken ? 1 : 0)) & ((1u << kLocalHistBits) - 1));
    ghr_ = ((ghr_ << 1) | (taken ? 1 : 0)) & ((1u << kGhrBits) - 1);
}

Btb::Btb(const BtbConfig &config)
    : cfg_(config), sets_(config.entries / config.ways),
      array_(config.name, config.entries, 1 + kBtbTagBits + 32),
      lru_(config.entries, 0)
{
}

std::uint32_t
Btb::setOf(std::uint32_t pc) const
{
    return (pc >> 1) & (sets_ - 1);
}

std::uint32_t
Btb::tagOf(std::uint32_t pc) const
{
    return (pc >> 1) & ((1u << kBtbTagBits) - 1);
}

std::uint32_t
Btb::lookup(std::uint32_t pc)
{
    const std::uint32_t set = setOf(pc);
    const std::uint32_t tag = tagOf(pc);
    counters_.inc(BtbStat::Lookups);
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const std::uint32_t entry = set * cfg_.ways + way;
        if (!array_.readBit(entry, 0))
            continue;
        const auto stored = static_cast<std::uint32_t>(
            array_.readBits(entry, 1, kBtbTagBits));
        if (stored == tag) {
            counters_.inc(BtbStat::Hits);
            lru_[entry] = ++stamp_;
            return static_cast<std::uint32_t>(
                array_.readBits(entry, 1 + kBtbTagBits, 32));
        }
    }
    return 0;
}

void
Btb::update(std::uint32_t pc, std::uint32_t target)
{
    const std::uint32_t set = setOf(pc);
    const std::uint32_t tag = tagOf(pc);

    // Refresh a matching entry, else pick invalid/LRU victim.
    std::uint32_t victim = set * cfg_.ways;
    std::uint64_t best = ~0ull;
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const std::uint32_t entry = set * cfg_.ways + way;
        if (!array_.readBit(entry, 0)) {
            victim = entry;
            best = 0;
            break;
        }
        const auto stored = static_cast<std::uint32_t>(
            array_.readBits(entry, 1, kBtbTagBits));
        if (stored == tag) {
            victim = entry;
            break;
        }
        if (lru_[entry] < best) {
            best = lru_[entry];
            victim = entry;
        }
    }
    array_.writeBit(victim, 0, true);
    array_.writeBits(victim, 1, kBtbTagBits, tag);
    array_.writeBits(victim, 1 + kBtbTagBits, 32, target);
    lru_[victim] = ++stamp_;
}

bool
Btb::entryLive(std::size_t index) const
{
    return array_.peekBit(index, 0);
}

dfi::StatSet
Btb::stats() const
{
    return counters_.named(cfg_.name + ".", kBtbStatNames);
}

Ras::Ras(std::string name, std::uint32_t entries)
    : entries_(entries), array_(std::move(name), entries, 32)
{
}

void
Ras::push(std::uint32_t return_pc)
{
    array_.writeBits(top_, 0, 32, return_pc);
    top_ = (top_ + 1) % entries_;
    if (depth_ < entries_)
        ++depth_;
}

std::uint32_t
Ras::pop()
{
    if (depth_ == 0)
        return 0;
    top_ = (top_ + entries_ - 1) % entries_;
    --depth_;
    return static_cast<std::uint32_t>(array_.readBits(top_, 0, 32));
}

template <class Ar>
void
TournamentPredictor::serializeState(Ar &ar)
{
    serial::value(ar, localPht_);
    serial::value(ar, localHist_);
    serial::value(ar, globalPht_);
    serial::value(ar, chooser_);
    serial::value(ar, ghr_);
}

template void TournamentPredictor::serializeState(serial::Writer &);
template void TournamentPredictor::serializeState(serial::Reader &);

template <class Ar>
void
Btb::serializeState(Ar &ar)
{
    serial::value(ar, array_);
    serial::value(ar, lru_);
    serial::value(ar, stamp_);
    serial::value(ar, counters_);
}

template void Btb::serializeState(serial::Writer &);
template void Btb::serializeState(serial::Reader &);

template <class Ar>
void
Ras::serializeState(Ar &ar)
{
    serial::value(ar, top_);
    serial::value(ar, depth_);
    serial::value(ar, array_);
}

template void Ras::serializeState(serial::Writer &);
template void Ras::serializeState(serial::Reader &);

} // namespace dfi::uarch
