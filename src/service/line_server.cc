#include "line_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "service/net_io.hh"
#include "service/protocol.hh"

namespace printed::service
{

LineServer::Connection::~Connection() { ::close(fd); }

LineServer::~LineServer()
{
    stopAccepting();
    hangUp();
}

void
LineServer::start(const std::string &host, std::uint16_t port,
                  std::size_t maxRequestBytes,
                  const FaultPlan &faultPlan,
                  std::function<Session()> openSession)
{
    maxRequestBytes_ = maxRequestBytes;
    openSession_ = std::move(openSession);
    if (faultPlan.enabled())
        fault_ = std::make_unique<FaultInjector>(faultPlan);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    fatalIf(listenFd_ < 0,
            std::string("socket(): ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    fatalIf(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1,
            "bad listen address '" + host + "'");
    fatalIf(::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0,
            std::string("bind(): ") + std::strerror(errno));
    fatalIf(::listen(listenFd_, 64) != 0,
            std::string("listen(): ") + std::strerror(errno));

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    acceptThread_ = std::thread([this] {
        trace::setThreadName(role_ + "-accept");
        acceptLoop();
    });
}

void
LineServer::stopAccepting()
{
    refuseNew();
    // shutdown() unblocks the accept(2) in acceptLoop.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
}

void
LineServer::hangUp()
{
    // Readers see EOF and exit; each connection's fd closes with its
    // last reference.
    std::map<ConnPtr, std::thread> live;
    {
        std::lock_guard lk(liveMutex_);
        live.swap(live_);
    }
    for (const auto &[conn, reader] : live)
        ::shutdown(conn->fd, SHUT_RD);
    for (auto &[conn, reader] : live)
        reader.join();
    std::vector<std::thread> finished;
    {
        std::lock_guard lk(liveMutex_);
        finished.swap(finished_);
    }
    for (std::thread &t : finished)
        t.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
LineServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listen socket shut down
        }
        if (refusing_.load()) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        metrics::counter(role_ + ".connections").add(1);

        auto conn = std::make_shared<Connection>(fd);
        // Under the lock the reader's exit path takes, so its entry
        // is in place before it can look for it.
        std::lock_guard lk(liveMutex_);
        live_[conn] = std::thread([this, conn] {
            // A registered name outlives its thread, so naming every
            // reader would keep an entry per closed connection. While
            // tracing, that tid's events are kept anyway.
            if (trace::enabled())
                trace::setThreadName(role_ + "-reader");
            readerLoop(conn);
        });
    }
}

void
LineServer::readerLoop(const ConnPtr &conn)
{
    {
        const Session session = openSession_();
        std::string buffer;
        char chunk[4096];
        for (;;) {
            const ssize_t n =
                netio::recvSome(conn->fd, chunk, sizeof(chunk));
            if (n <= 0)
                break; // EOF, error, or shutdown(SHUT_RD)
            buffer.append(chunk, std::size_t(n));
            std::size_t start = 0;
            for (;;) {
                const std::size_t nl = buffer.find('\n', start);
                if (nl == std::string::npos)
                    break;
                std::string line = buffer.substr(start, nl - start);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                start = nl + 1;
                if (!line.empty())
                    session(conn, line);
            }
            buffer.erase(0, start);
            if (buffer.size() > maxRequestBytes_) {
                sendLine(conn, errorReply("", errc::parseError,
                                          "request line too long"));
                break;
            }
        }
        conn->open.store(false);
    }

    // Reap: leave the live set, join the readers that left before
    // this one (they have finished their loops), and leave this
    // thread for the next reader or hangUp() to join. hangUp() may
    // have taken the entry already.
    std::vector<std::thread> done;
    {
        std::lock_guard lk(liveMutex_);
        done.swap(finished_);
        if (const auto it = live_.find(conn); it != live_.end()) {
            finished_.push_back(std::move(it->second));
            live_.erase(it);
        }
    }
    for (std::thread &t : done)
        t.join();
}

void
LineServer::sendLine(const ConnPtr &conn, const std::string &line,
                     bool faultable)
{
    std::string framed = line;
    framed += '\n';

    if (faultable && fault_) {
        double delayMs = 0;
        switch (fault_->onComputeReply(delayMs)) {
          case FaultInjector::SendFault::None:
            break;
          case FaultInjector::SendFault::Drop: {
            // The reply vanishes: hang up without sending. The
            // client must detect the lost connection and replay.
            std::lock_guard lk(conn->writeMutex);
            conn->open.store(false);
            ::shutdown(conn->fd, SHUT_RDWR);
            return;
          }
          case FaultInjector::SendFault::Truncate: {
            // A torn frame: half the bytes, then hang up. The
            // client must discard the partial line, not parse it.
            std::lock_guard lk(conn->writeMutex);
            conn->open.store(false);
            netio::sendAll(conn->fd, framed.data(),
                           framed.size() / 2);
            ::shutdown(conn->fd, SHUT_RDWR);
            return;
          }
          case FaultInjector::SendFault::Delay:
            // A slow peer: stall outside the write lock so other
            // replies on this connection aren't held hostage.
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delayMs));
            break;
        }
    }

    std::lock_guard lk(conn->writeMutex);
    if (!netio::sendAll(conn->fd, framed.data(), framed.size()))
        conn->open.store(false); // client went away; drop the reply
}

} // namespace printed::service
