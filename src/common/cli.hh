/**
 * @file
 * Declarative command-line flag parsing for the tool front ends.
 *
 * dfi-campaign, dfi-serve, dfi-diff and dfi-merge all take GNU-style
 * long flags over a strict numeric grammar (common/parse_num.hh).
 * Before this facade each tool hand-rolled its own argv loop, so the
 * diagnostics ("missing value for --x", "invalid value 'y' for --x")
 * and the --help layout drifted between them.  A FlagSet instead
 * registers every flag once — name, value placeholder, help text,
 * destination — and derives parsing, the usage text, and uniform
 * diagnostics from that single declaration.  The campaign flags
 * dfi-campaign and dfi-serve share are registered once, by
 * inject::bindCampaignFlags (inject/campaign.hh).
 *
 * Grammar: a token starting with '-' is a flag; a flag either takes
 * no value or consumes the following token.  Anything else is a
 * positional argument (collected only when the tool registered a
 * positional slot).  `--help`/`-h` and `--version` are built in and
 * report ParseResult::Help / ParseResult::Version without touching
 * any destination; tools print usage() or dfi::versionString() and
 * exit 0.
 */

#ifndef DFI_COMMON_CLI_HH
#define DFI_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace dfi::cli
{

/** Outcome of FlagSet::parse. */
enum class ParseResult
{
    Ok,      //!< all tokens consumed
    Help,    //!< --help/-h was given; print usage() and exit 0
    Version, //!< --version was given; print versionString(), exit 0
    Error,   //!< bad input; `error` names the offending token
};

/**
 * One tool's registered flags.  Registration order is presentation
 * order in the generated usage text; section() starts a titled group
 * (mirroring the hand-written help screens the tools had before).
 * Reopening a section appends to it.
 */
class FlagSet
{
  public:
    /**
     * @param tool     program name for diagnostics ("dfi-merge")
     * @param synopsis the usage line after the name ("[options] ...")
     */
    FlagSet(std::string tool, std::string synopsis);

    /** Start a titled section in the usage text. */
    void section(std::string title);

    /** Valueless flag: presence sets `*out` to true. */
    void flag(const std::string &name, const std::string &help,
              bool *out);

    /** Valueless flag with an arbitrary action. */
    void flag(const std::string &name, const std::string &help,
              std::function<void()> action);

    /**
     * Strictly-parsed unsigned flag (trailing garbage or a
     * non-number is an error naming the flag, never silently 0).
     */
    void uint64(const std::string &name, const std::string &value,
                const std::string &help, std::uint64_t *out,
                std::uint64_t max =
                    std::numeric_limits<std::uint64_t>::max());

    /** uint64 narrowed to 32 bits. */
    void uint32(const std::string &name, const std::string &value,
                const std::string &help, std::uint32_t *out);

    /** Strictly-parsed finite double flag. */
    void number(const std::string &name, const std::string &value,
                const std::string &help, double *out);

    /** String-valued flag (stored verbatim). */
    void text(const std::string &name, const std::string &value,
              const std::string &help, std::string *out);

    /**
     * Value-taking flag with a custom decoder (enumerations,
     * composite values like `I/N`).  The decoder returns false with
     * `error` set to the *reason*; parse() prefixes the flag name.
     */
    void custom(const std::string &name, const std::string &value,
                const std::string &help,
                std::function<bool(const std::string &text,
                                   std::string &error)>
                    decode);

    /**
     * Accept positional (non-flag) arguments into `*out`.  Without
     * this, any positional token is an error.
     */
    void positionals(std::string placeholder, std::string help,
                     std::vector<std::string> *out);

    /**
     * Parse argv.  On Error, `error` is a complete one-line
     * diagnostic (without the "tool:" prefix).
     */
    ParseResult parse(int argc, char **argv, std::string &error);

    /** The generated help screen (usage line + sectioned flags). */
    std::string usage() const;

  private:
    struct Flag
    {
        std::string name;    //!< "--jobs"
        std::string value;   //!< placeholder ("N"); empty = valueless
        std::string help;    //!< may contain '\n' continuations
        std::string section; //!< section active at registration
        /** Valueless action (value empty) ... */
        std::function<void()> action;
        /** ... or value decoder (value non-empty). */
        std::function<bool(const std::string &, std::string &)> decode;
    };

    void add(Flag flag);
    const Flag *find(const std::string &name) const;

    std::string tool_;
    std::string synopsis_;
    std::string currentSection_;
    std::vector<Flag> flags_;
    std::string positionalPlaceholder_;
    std::string positionalHelp_;
    std::vector<std::string> *positionalOut_ = nullptr;
};

} // namespace dfi::cli

#endif // DFI_COMMON_CLI_HH
