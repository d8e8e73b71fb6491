#include "common/netio.hh"

#include <algorithm>
#include <cerrno>
#include <limits>
#include <poll.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/json.hh"

namespace dfi::netio
{

namespace
{

/** Wait for `events` on fd; 1 ready, 0 timeout, -1 error. */
int
waitFor(int fd, short events, int timeoutMs)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    while (true) {
        const int ready = ::poll(&pfd, 1, timeoutMs);
        if (ready < 0 && errno == EINTR)
            continue;
        return ready;
    }
}

} // namespace

int
LineReader::waitMs() const
{
    if (deadline_ == Clock::time_point::max())
        return idleTimeoutMs_;
    const int left = static_cast<int>(std::clamp<long long>(
        std::chrono::ceil<std::chrono::milliseconds>(deadline_ -
                                                     Clock::now())
            .count(),
        0, std::numeric_limits<int>::max()));
    return idleTimeoutMs_ < 0 ? left : std::min(idleTimeoutMs_, left);
}

ReadResult
LineReader::next(std::string &out)
{
    out.clear();
    char buf[4096];
    while (true) {
        const std::size_t newline = pending_.find('\n');
        const std::size_t take =
            newline == std::string::npos ? pending_.size() : newline;
        if (out.size() + take > maxLineBytes_)
            return ReadResult::TooLong;
        out.append(pending_, 0, take);
        if (newline != std::string::npos) {
            pending_.erase(0, newline + 1);
            return ReadResult::Line;
        }
        pending_.clear();
        if (const int wait_ms = waitMs(); wait_ms >= 0) {
            const int ready = waitFor(fd_, POLLIN, wait_ms);
            if (ready < 0)
                return ReadResult::Error;
            if (ready == 0)
                return ReadResult::Timeout;
        }
        const failpoint::Action chaos =
            failpoint::check("sock.read");
        ssize_t n;
        if (chaos.kind == failpoint::Action::Kind::Error) {
            errno = EIO;
            n = -1;
        } else if (chaos.kind == failpoint::Action::Kind::Eintr) {
            errno = EINTR;
            n = -1;
        } else {
            const std::size_t want =
                chaos.kind == failpoint::Action::Kind::Short
                    ? 1
                    : sizeof buf;
            n = ::read(fd_, buf, want);
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Non-blocking fd raced poll (or no poll configured):
                // wait for readability and retry.
                const int ready = waitFor(fd_, POLLIN, waitMs());
                if (ready < 0)
                    return ReadResult::Error;
                if (ready == 0)
                    return ReadResult::Timeout;
                continue;
            }
            return ReadResult::Error;
        }
        if (n == 0)
            return ReadResult::Eof;
        pending_.assign(buf, static_cast<std::size_t>(n));
    }
}

bool
writeAll(int fd, std::string_view data, int timeoutMs)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const failpoint::Action chaos =
            failpoint::check("sock.write");
        ssize_t n;
        if (chaos.kind == failpoint::Action::Kind::Error) {
            errno = EIO;
            n = -1;
        } else if (chaos.kind == failpoint::Action::Kind::Eintr) {
            errno = EINTR;
            n = -1;
        } else {
            const std::size_t want =
                chaos.kind == failpoint::Action::Kind::Short
                    ? 1
                    : data.size() - off;
            n = ::write(fd, data.data() + off, want);
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // The peer is not draining its socket.  Bounded wait:
            // a stalled reader fails the write instead of wedging
            // the writing thread forever.
            const int ready = waitFor(fd, POLLOUT, timeoutMs);
            if (ready <= 0)
                return false;
            continue;
        }
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeLine(int fd, const json::Value &line, int timeoutMs)
{
    return writeAll(fd, line.dump() + "\n", timeoutMs);
}

} // namespace dfi::netio
