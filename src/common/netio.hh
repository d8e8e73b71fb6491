/**
 * @file
 * Socket/pipe line I/O for the NDJSON service protocol.
 *
 * Extracted from tools/dfi_serve.cc so the read/write helpers are
 * unit-testable over plain pipes and so both halves of the protocol
 * share one implementation of the hard parts:
 *
 *  - LineReader: buffered newline framing that distinguishes a
 *    complete line, EOF, an oversized line (protocol violation by a
 *    live peer), a read error, and an idle timeout — five outcomes a
 *    server must treat differently;
 *  - writeAll/writeLine: short-write/EINTR-correct full writes with
 *    an optional progress bound, so a stalled peer costs a bounded
 *    poll() wait instead of wedging the writer forever (the fd must
 *    be non-blocking for the bound to hold — see writeAll).
 *
 * Both paths are failpoint-instrumented (`sock.read`, `sock.write`:
 * EINTR, short transfer, hard error), which is how the chaos CI leg
 * and tests/inject/test_service.cc drive the recovery branches
 * without hand-rolled fixtures.
 */

#ifndef DFI_COMMON_NETIO_HH
#define DFI_COMMON_NETIO_HH

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>

namespace dfi::json
{
class Value;
}

namespace dfi::netio
{

/** Why LineReader::next() stopped. */
enum class ReadResult
{
    Line,    //!< `out` holds one complete line
    Eof,     //!< peer closed before a newline arrived
    TooLong, //!< line exceeds the bound (peer still alive)
    Error,   //!< read() failed; errno describes why
    Timeout, //!< no bytes arrived within the idle timeout
};

/**
 * Buffered newline-delimited reader.  One read() may deliver several
 * protocol lines at once (a fast warm-cache response lands in the
 * same chunk as the final progress event), so bytes past the first
 * newline are kept for the next call, not dropped.
 */
class LineReader
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * @param fd            source descriptor (blocking or not)
     * @param maxLineBytes  bound on one line; longer returns TooLong
     * @param idleTimeoutMs poll() bound per read; < 0 waits forever
     * @param deadline      no read waits past it (Timeout after it)
     */
    explicit LineReader(int fd, std::size_t maxLineBytes,
                        int idleTimeoutMs = -1,
                        Clock::time_point deadline = Clock::time_point::max())
        : fd_(fd), maxLineBytes_(maxLineBytes),
          idleTimeoutMs_(idleTimeoutMs), deadline_(deadline)
    {}

    /** Read one newline-terminated line (without the newline). */
    ReadResult next(std::string &out);

  private:
    /** The next poll() bound; < 0 waits forever. */
    int waitMs() const;

    int fd_;
    std::size_t maxLineBytes_;
    int idleTimeoutMs_;
    Clock::time_point deadline_;
    std::string pending_;
};

/**
 * Write all bytes; false on any error (EPIPE: peer vanished).
 * With timeoutMs >= 0 a write that cannot make progress within the
 * bound fails instead of blocking — the bound is per progress step,
 * and only holds when `fd` is non-blocking (a blocking fd sleeps in
 * write() itself, out of poll()'s reach).
 */
bool writeAll(int fd, std::string_view data, int timeoutMs = -1);

/** writeAll of one NDJSON line. */
bool writeLine(int fd, const json::Value &line, int timeoutMs = -1);

} // namespace dfi::netio

#endif // DFI_COMMON_NETIO_HH
