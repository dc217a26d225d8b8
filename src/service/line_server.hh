/**
 * @file
 * The one line-server front end of printedd and printed-balancer:
 * the accept loop, one reader thread per connection, "\n" / "\r\n"
 * framing, the request-line length limit, the faultable locked
 * sendLine, and the steps that stop accepting and hang up. The
 * owner supplies what a line means: Server executes it, Balancer
 * routes it.
 *
 * Connection lifecycle: a connection is live while its reader runs.
 * When the reader exits, the connection leaves the live set and the
 * next exiting reader (or hangUp()) joins it, so closed connections
 * hold at most one finished, unjoined thread. Its fd is closed only when the last
 * shared_ptr<Connection> drops: an executor may still hold a task
 * for it, and a late reply must land on this socket, never on a
 * reused fd number.
 */

#ifndef PRINTED_SERVICE_LINE_SERVER_HH
#define PRINTED_SERVICE_LINE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/fault_plan.hh"

namespace printed::service
{

class LineServer
{
  public:
    /** One client connection: socket (closed by the destructor),
     *  write lock, liveness. */
    struct Connection
    {
        explicit Connection(int fd) : fd(fd) {}
        ~Connection();

        const int fd;
        std::mutex writeMutex;
        std::atomic<bool> open{true}; ///< false once the peer is gone
    };
    using ConnPtr = std::shared_ptr<Connection>;

    /** A connection's line handler. Its reader calls it serially, so
     *  state it captures is private to the connection, lock-free. */
    using Session =
        std::function<void(const ConnPtr &, const std::string &line)>;

    /** `role` names the threads ("<role>-reader") and the counter
     *  "<role>.connections". */
    explicit LineServer(std::string role) : role_(std::move(role)) {}
    ~LineServer();

    LineServer(const LineServer &) = delete;
    LineServer &operator=(const LineServer &) = delete;

    /**
     * Bind, listen, and start accepting. `openSession` runs on each
     * new reader thread; the Session it returns serves that
     * connection and is destroyed before the reader leaves.
     */
    void start(const std::string &host, std::uint16_t port,
               std::size_t maxRequestBytes, const FaultPlan &faultPlan,
               std::function<Session()> openSession);

    std::uint16_t port() const { return port_; } ///< after start()

    /** The injected-fault schedule, or null when none is enabled. */
    FaultInjector *fault() { return fault_.get(); }

    /** Close new connections on arrival; safe from any thread. */
    void refuseNew() { refusing_.store(true); }

    /** refuseNew(), shut the listen socket, join the accept loop. */
    void stopAccepting();

    /** Hang up every live connection and join every reader. Call
     *  after stopAccepting(). */
    void hangUp();

    /**
     * Send one reply line (serialized per connection). `faultable`
     * marks compute replies, the only traffic the fault injector may
     * drop, truncate, or delay.
     */
    void sendLine(const ConnPtr &conn, const std::string &line,
                  bool faultable = false);

  private:
    void acceptLoop();
    void readerLoop(const ConnPtr &conn);

    const std::string role_;
    std::uint16_t port_ = 0;
    int listenFd_ = -1;
    std::size_t maxRequestBytes_ = 0;
    std::unique_ptr<FaultInjector> fault_;
    std::function<Session()> openSession_;
    std::atomic<bool> refusing_{false};
    std::thread acceptThread_;

    /** Running readers by connection, and exited ones to join. */
    std::mutex liveMutex_;
    std::map<ConnPtr, std::thread> live_;
    std::vector<std::thread> finished_;
};

} // namespace printed::service

#endif // PRINTED_SERVICE_LINE_SERVER_HH
