#include "common/cli.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parse_num.hh"

namespace dfi::cli
{

FlagSet::FlagSet(std::string tool, std::string synopsis)
    : tool_(std::move(tool)), synopsis_(std::move(synopsis))
{
}

void
FlagSet::section(std::string title)
{
    currentSection_ = std::move(title);
}

void
FlagSet::add(Flag flag)
{
    if (find(flag.name) != nullptr)
        panic("cli: flag '%s' registered twice", flag.name);
    flag.section = currentSection_;
    // A reopened section keeps its flags together: append after its
    // last flag, so usage() prints one group per section.
    const auto last = std::find_if(
        flags_.rbegin(), flags_.rend(),
        [&flag](const Flag &f) { return f.section == flag.section; });
    flags_.insert(last == flags_.rend() ? flags_.end() : last.base(),
                  std::move(flag));
}

const FlagSet::Flag *
FlagSet::find(const std::string &name) const
{
    for (const Flag &flag : flags_) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

void
FlagSet::flag(const std::string &name, const std::string &help,
              bool *out)
{
    flag(name, help, [out] { *out = true; });
}

void
FlagSet::flag(const std::string &name, const std::string &help,
              std::function<void()> action)
{
    Flag f;
    f.name = name;
    f.help = help;
    f.action = std::move(action);
    add(std::move(f));
}

void
FlagSet::custom(const std::string &name, const std::string &value,
                const std::string &help,
                std::function<bool(const std::string &, std::string &)>
                    decode)
{
    if (value.empty())
        panic("cli: value-taking flag '%s' needs a placeholder", name);
    Flag f;
    f.name = name;
    f.value = value;
    f.help = help;
    f.decode = std::move(decode);
    add(std::move(f));
}

void
FlagSet::uint64(const std::string &name, const std::string &value,
                const std::string &help, std::uint64_t *out,
                std::uint64_t max)
{
    custom(name, value, help,
           [out, max](const std::string &text, std::string &error) {
               if (!dfi::parseUnsigned(text, *out, max)) {
                   error = "expected an unsigned integer";
                   return false;
               }
               return true;
           });
}

void
FlagSet::uint32(const std::string &name, const std::string &value,
                const std::string &help, std::uint32_t *out)
{
    custom(name, value, help,
           [out](const std::string &text, std::string &error) {
               std::uint64_t wide = 0;
               if (!dfi::parseUnsigned(
                       text, wide,
                       std::numeric_limits<std::uint32_t>::max())) {
                   error = "expected an unsigned integer";
                   return false;
               }
               *out = static_cast<std::uint32_t>(wide);
               return true;
           });
}

void
FlagSet::number(const std::string &name, const std::string &value,
                const std::string &help, double *out)
{
    custom(name, value, help,
           [out](const std::string &text, std::string &error) {
               if (!dfi::parseDouble(text, *out)) {
                   error = "expected a number";
                   return false;
               }
               return true;
           });
}

void
FlagSet::text(const std::string &name, const std::string &value,
              const std::string &help, std::string *out)
{
    custom(name, value, help,
           [out](const std::string &text, std::string &) {
               *out = text;
               return true;
           });
}

void
FlagSet::positionals(std::string placeholder, std::string help,
                     std::vector<std::string> *out)
{
    positionalPlaceholder_ = std::move(placeholder);
    positionalHelp_ = std::move(help);
    positionalOut_ = out;
}

ParseResult
FlagSet::parse(int argc, char **argv, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return ParseResult::Help;
        if (arg == "--version")
            return ParseResult::Version;
        if (arg.empty() || arg[0] != '-') {
            if (positionalOut_ == nullptr) {
                error = "unexpected argument '" + arg +
                        "' (try --help)";
                return ParseResult::Error;
            }
            positionalOut_->push_back(arg);
            continue;
        }
        const Flag *flag = find(arg);
        if (flag == nullptr) {
            error = "unknown option '" + arg + "' (try --help)";
            return ParseResult::Error;
        }
        if (flag->value.empty()) {
            flag->action();
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + arg;
            return ParseResult::Error;
        }
        const std::string value = argv[++i];
        std::string reason;
        if (!flag->decode(value, reason)) {
            error = "invalid value '" + value + "' for " + arg +
                    (reason.empty() ? "" : " (" + reason + ")");
            return ParseResult::Error;
        }
    }
    return ParseResult::Ok;
}

std::string
FlagSet::usage() const
{
    // Column where help text starts: widest "  --flag VALUE" plus
    // two spaces, like the hand-written screens this replaces.
    std::size_t width = 0;
    for (const Flag &flag : flags_) {
        std::size_t w = 2 + flag.name.size();
        if (!flag.value.empty())
            w += 1 + flag.value.size();
        width = std::max(width, w);
    }
    const std::size_t column = width + 2;

    std::string out = "usage: " + tool_;
    if (!synopsis_.empty())
        out += " " + synopsis_;
    out += "\n";

    auto append_entry = [&out, column](const std::string &head,
                                       const std::string &help) {
        out += head;
        if (help.empty()) {
            out += "\n";
            return;
        }
        std::size_t begin = 0;
        bool first = true;
        while (begin <= help.size()) {
            const std::size_t end = help.find('\n', begin);
            const std::string line =
                help.substr(begin, end == std::string::npos
                                       ? std::string::npos
                                       : end - begin);
            if (first) {
                out += std::string(
                    column > head.size() ? column - head.size() : 1,
                    ' ');
                first = false;
            } else {
                out += std::string(column, ' ');
            }
            out += line;
            out += "\n";
            if (end == std::string::npos)
                break;
            begin = end + 1;
        }
    };

    std::string section;
    for (const Flag &flag : flags_) {
        if (flag.section != section) {
            section = flag.section;
            out += "\n";
            if (!section.empty())
                out += section + ":\n";
        }
        std::string head = "  " + flag.name;
        if (!flag.value.empty())
            head += " " + flag.value;
        append_entry(head, flag.help);
    }
    if (positionalOut_ != nullptr && !positionalHelp_.empty()) {
        out += "\n";
        append_entry("  " + positionalPlaceholder_, positionalHelp_);
    }
    return out;
}

} // namespace dfi::cli
