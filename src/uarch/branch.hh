/**
 * @file
 * Front-end branch machinery: tournament direction predictor, branch
 * target buffers (two organizations), return-address stack.
 *
 * The two simulators instantiate different front-ends, per the paper:
 *  - MARSS-like: the meta (chooser) prediction is bound to the branch
 *    address; the BTB is split (4-way 1K-entry direct-branch BTB and
 *    4-way 512-entry indirect BTB).
 *  - gem5-like: the chooser and global components are indexed by the
 *    global history only (branch address ignored); one direct-mapped
 *    2K-entry BTB for all branches.
 * (Section IV, Remark 6 attributes L1I divergence to exactly these
 * differences.)
 *
 * BTB entries and the RAS are injectable arrays (Table IV); the
 * two-bit counter tables are plain state.
 */

#ifndef DFI_UARCH_BRANCH_HH
#define DFI_UARCH_BRANCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "storage/faultable_array.hh"

namespace dfi::uarch
{

/** How the chooser/global tables are indexed. */
enum class ChooserIndex
{
    ByAddress, //!< MARSS-like: branch pc selects the meta entry
    ByHistory  //!< gem5-like: global history selects the meta entry
};

/** Tournament direction predictor (local + global + chooser). */
class TournamentPredictor
{
  public:
    TournamentPredictor() = default;
    explicit TournamentPredictor(ChooserIndex index_scheme);

    /** Predict the direction of the branch at `pc`. */
    bool predict(std::uint32_t pc) const;

    /** Train with the actual outcome and update histories. */
    void update(std::uint32_t pc, bool taken);

    /** Heap bytes a copy owns outright: the counter and history
     *  tables. */
    std::uint64_t
    heapBytes() const
    {
        return localPht_.capacity() +
               localHist_.capacity() * sizeof(std::uint16_t) +
               globalPht_.capacity() + chooser_.capacity();
    }

  private:
    std::uint32_t localIndex(std::uint32_t pc) const;
    std::uint32_t globalIndex(std::uint32_t pc) const;
    std::uint32_t chooserIdx(std::uint32_t pc) const;

    ChooserIndex scheme_ = ChooserIndex::ByAddress;
    std::vector<std::uint8_t> localPht_;   // 1024 x 2-bit
    std::vector<std::uint16_t> localHist_; // 1024 x 10-bit
    std::vector<std::uint8_t> globalPht_;  // 4096 x 2-bit
    std::vector<std::uint8_t> chooser_;    // 4096 x 2-bit
    std::uint32_t ghr_ = 0;
};

/** Events a BTB counts, named `<btb>.<event>` (e.g. "btb.hits"). */
enum class BtbStat : std::uint8_t
{
    Lookups,
    Hits,
    Count
};

/** BTB organization. */
struct BtbConfig
{
    std::string name;
    std::uint32_t entries = 2048;
    std::uint32_t ways = 1; //!< 1 = direct-mapped
};

/**
 * Branch target buffer.  Entry row layout:
 * [tag:16][target:32] with a separate valid bit array.
 */
class Btb
{
  public:
    Btb() = default;
    explicit Btb(const BtbConfig &config);

    /** Predicted target for `pc`, or 0 when no entry matches. */
    std::uint32_t lookup(std::uint32_t pc);

    /** Install/refresh the target of a taken branch. */
    void update(std::uint32_t pc, std::uint32_t target);

    dfi::FaultableArray &array() { return array_; }
    const dfi::FaultableArray &array() const { return array_; }
    bool entryLive(std::size_t index) const;

    /** Heap bytes a copy owns outright: the LRU book. */
    std::uint64_t
    heapBytes() const
    {
        return lru_.capacity() * sizeof(std::uint64_t);
    }

    const dfi::Counters<BtbStat> &counters() const { return counters_; }
    /** The nonzero counters, named `<btb>.<event>`. */
    dfi::StatSet stats() const;

  private:
    std::uint32_t setOf(std::uint32_t pc) const;
    std::uint32_t tagOf(std::uint32_t pc) const;

    /** Mark `entry` most recently used (set-associative only). */
    void touch(std::uint32_t entry);

    BtbConfig cfg_;
    std::uint32_t sets_ = 0;
    dfi::FaultableArray array_; //!< rows: [valid:1][tag:16][target:32]
    /** Last-use stamps; empty when direct-mapped, where a set's only
     *  entry is always the victim. */
    std::vector<std::uint64_t> lru_;
    std::uint64_t stamp_ = 0;
    dfi::Counters<BtbStat> counters_;
};

/** Return-address stack with an injectable entry array. */
class Ras
{
  public:
    Ras() = default;
    explicit Ras(std::string name, std::uint32_t entries = 16);

    void push(std::uint32_t return_pc);
    /** Predicted return target (0 when empty). */
    std::uint32_t pop();

    dfi::FaultableArray &array() { return array_; }
    const dfi::FaultableArray &array() const { return array_; }
    std::uint32_t depth() const { return depth_; }
    std::uint32_t capacity() const { return entries_; }

  private:
    std::uint32_t entries_ = 16;
    std::uint32_t top_ = 0;   //!< next push slot
    std::uint32_t depth_ = 0; //!< live entries (<= entries_)
    dfi::FaultableArray array_;
};

} // namespace dfi::uarch

#endif // DFI_UARCH_BRANCH_HH
