#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "runner/report.hh"
#include "sim/partition_policy.hh"
#include "workloads/registry.hh"

namespace dmpb {

namespace {

/** Set by the SIGTERM/SIGINT handler; polled by the accept loop.
 *  The handler only stores a flag -- everything else (mutexes,
 *  condition variables) happens in normal context. */
volatile std::sig_atomic_t g_signal_stop = 0;

void
stopSignalHandler(int)
{
    g_signal_stop = 1;
}

/** Thread-safe strerror: std::strerror shares one static buffer
 *  across threads (clang-tidy concurrency-mt-unsafe). */
std::string
errnoString(int err)
{
    return std::error_code(err, std::system_category()).message();
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

/**
 * One accepted client. Responses may be written from the reader
 * (immediate commands) and any worker (run responses) concurrently,
 * hence the write mutex. The fd is closed only by the destructor,
 * after every holder of the shared_ptr (the reader, queued jobs, the
 * shutdown slot) has dropped it, so a worker can never write into a
 * recycled descriptor.
 */
struct Server::Connection
{
    explicit Connection(int fd) : fd(fd) {}

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Send one response line; false once the peer is gone. */
    bool
    sendLine(const std::string &line) DMPB_EXCLUDES(write_mutex)
    {
        MutexLock lock(write_mutex);
        if (!open.load(std::memory_order_relaxed))
            return false;
        std::string framed = line + "\n";
        std::size_t sent = 0;
        while (sent < framed.size()) {
            ssize_t n = ::send(fd, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                open.store(false, std::memory_order_relaxed);
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Unblock a reader stuck in recv() without closing the fd. */
    void
    hangUp()
    {
        open.store(false, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
    }

    const int fd;
    AnnotatedMutex write_mutex;
    std::atomic<bool> open{true};
};

Server::Server(ServiceConfig service_config, ServeOptions options)
    : service_(std::move(service_config)), options_(std::move(options))
{
    if (options_.workers == 0)
        options_.workers = 1;
    if (options_.max_queue == 0)
        options_.max_queue = 1;
}

Server::~Server()
{
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

int
Server::serve()
{
    sockaddr_un addr{};
    if (options_.socket_path.empty() ||
        options_.socket_path.size() >= sizeof(addr.sun_path)) {
        dmpb_warn("serve: socket path must be 1..",
                  sizeof(addr.sun_path) - 1, " bytes: '",
                  options_.socket_path, "'");
        return 1;
    }

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        dmpb_warn("serve: socket(): ", errnoString(errno));
        return 1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        dmpb_warn("serve: cannot listen on ", options_.socket_path,
                  ": ", errnoString(errno));
        ::close(listen_fd_);
        listen_fd_ = -1;
        return 1;
    }

    g_signal_stop = 0;
    struct sigaction sa{};
    struct sigaction old_term{};
    struct sigaction old_int{};
    sa.sa_handler = stopSignalHandler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);

    dmpb_inform("dmpb serve: listening on ", options_.socket_path,
                " (", options_.workers, " worker(s), queue cap ",
                options_.max_queue, ")");

    {
        // Pipeline workers ride the repo's existing ThreadPool: one
        // long-lived drain task per worker thread. Destroying the
        // pool at scope exit joins them, and they only exit once the
        // admission queue is empty -- that IS the drain barrier.
        ThreadPool pool(options_.workers);
        for (std::size_t i = 0; i < options_.workers; ++i)
            pool.submit([this] { workerLoop(); });

        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        while (!stopping_.load(std::memory_order_acquire)) {
            if (g_signal_stop) {
                dmpb_inform("dmpb serve: signal received, draining");
                requestStop();
                break;
            }
            int ready = ::poll(&pfd, 1, 200);
            reapFinishedReaders();
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                dmpb_warn("serve: poll(): ", errnoString(errno));
                requestStop();
                break;
            }
            if (ready == 0 || !(pfd.revents & POLLIN))
                continue;
            int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) {
                if (errno != EINTR && errno != ECONNABORTED)
                    dmpb_warn("serve: accept(): ",
                              errnoString(errno));
                continue;
            }
            auto conn = std::make_shared<Connection>(fd);
            {
                // Registered before its reader can finish: the reader
                // takes this lock to report its exit.
                MutexLock lock(conns_mutex_);
                const std::uint64_t id = next_conn_id_++;
                Reader &reader = readers_[id];
                reader.conn = conn;
                reader.thread =
                    std::thread([this, conn, id] { readerLoop(conn, id); });
            }
            {
                MutexLock lock(stats_mutex_);
                ++stats_.connections;
            }
        }

        // Make sure the workers see the stop flag even when the loop
        // exited through a shutdown request (which already set it).
        requestStop();
    } // ThreadPool joins here: queue drained, in-flight work done.

    drainAndJoin();

    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);

    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    dmpb_inform("dmpb serve: drained and stopped");
    return 0;
}

void
Server::requestStop()
{
    {
        // Under the queue mutex so that no admission can interleave
        // between the flag flip and a worker's exit decision.
        MutexLock lock(queue_mutex_);
        stopping_.store(true, std::memory_order_release);
    }
    queue_cv_.notify_all();
}

void
Server::drainAndJoin()
{
    // Workers are already joined; every admitted request has been
    // answered. Tell the shutdown requester so, then hang up.
    {
        MutexLock lock(shutdown_mutex_);
        if (shutdown_requested_ && shutdown_conn_) {
            shutdown_conn_->sendLine(
                buildShutdownResponse(shutdown_id_));
            shutdown_conn_.reset();
        }
    }

    std::map<std::uint64_t, Reader> readers;
    {
        MutexLock lock(conns_mutex_);
        readers.swap(readers_);
        finished_.clear();
    }
    for (auto &entry : readers)
        entry.second.conn->hangUp();
    for (auto &entry : readers)
        entry.second.thread.join();
}

void
Server::reapFinishedReaders()
{
    std::vector<Reader> done;
    {
        MutexLock lock(conns_mutex_);
        done.reserve(finished_.size());
        for (std::uint64_t id : finished_) {
            auto it = readers_.find(id);
            done.push_back(std::move(it->second));
            readers_.erase(it);
        }
        finished_.clear();
    }
    // Each of these readers has left readerLoop, so the joins are
    // immediate. Dropping the Connection closes its fd unless a
    // queued run still holds it (then the last response closes it).
    for (Reader &reader : done)
        reader.thread.join();
}

void
Server::readerLoop(std::shared_ptr<Connection> conn, std::uint64_t id)
{
    char buf[4096];
    // Pending bytes of the current, unterminated line. inbuf holds no
    // '\n' between receives, so each byte is scanned once: a client
    // trickling a long line costs linear, not quadratic, CPU.
    std::string inbuf;
    while (conn->open.load(std::memory_order_relaxed)) {
        ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        std::size_t scan = inbuf.size();
        inbuf.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
            std::size_t eol = inbuf.find('\n', scan);
            if (eol == std::string::npos)
                break;
            std::string line = inbuf.substr(start, eol - start);
            start = scan = eol + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                handleLine(conn, line);
        }
        inbuf.erase(0, start);
        if (inbuf.size() > kMaxRequestLineBytes) {
            {
                MutexLock lock(stats_mutex_);
                ++stats_.errors;
            }
            conn->sendLine(buildErrorResponse(
                0, "request line exceeds " +
                       std::to_string(kMaxRequestLineBytes) +
                       " bytes without a newline; closing connection"));
            conn->hangUp();
            break;
        }
    }
    conn->open.store(false, std::memory_order_relaxed);
    MutexLock lock(conns_mutex_);
    finished_.push_back(id);
}

void
Server::handleLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line)
{
    ServeRequest request;
    std::string error;
    if (!parseServeRequest(line, request, error)) {
        {
            MutexLock lock(stats_mutex_);
            ++stats_.errors;
        }
        conn->sendLine(buildErrorResponse(request.id, error));
        return;
    }

    switch (request.cmd) {
      case ServeCmd::Run:
      case ServeCmd::Colocate:
        // Both kinds share the admission queue, priorities and the
        // worker pool; the worker dispatches on cmd.
        handleRun(conn, std::move(request));
        return;
      case ServeCmd::Stats:
        conn->sendLine(statsResponse(request.id));
        return;
      case ServeCmd::List:
        conn->sendLine(listResponse(request.id));
        return;
      case ServeCmd::Ping:
        conn->sendLine(buildPongResponse(request.id));
        return;
      case ServeCmd::Shutdown:
        {
            MutexLock lock(shutdown_mutex_);
            if (!shutdown_requested_) {
                shutdown_requested_ = true;
                shutdown_conn_ = conn;
                shutdown_id_ = request.id;
            }
        }
        requestStop();
        return;
    }
}

void
Server::handleRun(const std::shared_ptr<Connection> &conn,
                  ServeRequest request)
{
    std::size_t depth = 0;
    const char *rejection = nullptr;
    {
        MutexLock lock(queue_mutex_);
        depth = queue_.size();
        if (stopping_.load(std::memory_order_relaxed)) {
            rejection = "shutting-down";
        } else if (depth >= options_.max_queue) {
            rejection = "overloaded";
        } else {
            Job job;
            job.request = std::move(request);
            job.conn = conn;
            job.enqueued = std::chrono::steady_clock::now();
            job.seq = next_seq_++;
            queue_.push(std::move(job));
        }
    }
    if (rejection != nullptr) {
        {
            MutexLock lock(stats_mutex_);
            ++stats_.rejected;
        }
        conn->sendLine(
            buildRejectedResponse(request.id, rejection, depth));
        return;
    }
    {
        MutexLock lock(stats_mutex_);
        ++stats_.admitted;
    }
    queue_cv_.notify_one();
}

bool
Server::popJob(Job &out)
{
    MutexLock lock(queue_mutex_);
    while (queue_.empty() &&
           !stopping_.load(std::memory_order_relaxed))
        queue_cv_.wait(lock.native());
    if (queue_.empty())
        return false;
    out = queue_.top();
    queue_.pop();
    return true;
}

void
Server::workerLoop()
{
    Job job;
    while (popJob(job)) {
        double queue_s = secondsSince(job.enqueued);
        std::string result_json;
        if (job.request.cmd == ServeCmd::Colocate) {
            result_json = writeColocationJson(
                service_.executeColocation(job.request.colocation));
        } else {
            result_json =
                writeOutcomeJson(service_.execute(job.request.pipeline));
        }
        {
            // Count before sending: a client holding the response
            // must never read a stats snapshot that predates it.
            MutexLock lock(stats_mutex_);
            ++stats_.completed;
        }
        job.conn->sendLine(buildRunResponse(job.request.id, queue_s,
                                            result_json));
        job.conn.reset();
    }
}

ServeStats
Server::stats() const
{
    ServeStats snapshot;
    {
        MutexLock lock(stats_mutex_);
        snapshot = stats_;
    }
    {
        MutexLock lock(queue_mutex_);
        snapshot.queue_depth = queue_.size();
    }
    return snapshot;
}

std::string
Server::statsResponse(std::uint64_t id) const
{
    ServeStats s = stats();
    JsonWriter json;
    json.openObject();
    json.field("id", id);
    json.field("ok", true);
    json.openObject("stats");
    json.field("connections", s.connections);
    json.field("admitted", s.admitted);
    json.field("completed", s.completed);
    json.field("rejected", s.rejected);
    json.field("errors", s.errors);
    json.field("queue_depth", s.queue_depth);
    json.field("workers",
               static_cast<std::uint64_t>(options_.workers));
    json.field("max_queue",
               static_cast<std::uint64_t>(options_.max_queue));
    const auto emitCache = [&json](const char *key,
                                   const MemoryCacheStats &c) {
        json.openObject(key);
        json.field("hits", c.hits);
        json.field("misses", c.misses);
        json.field("evictions", c.evictions);
        json.field("entries", c.entries);
        json.field("capacity", c.capacity);
        json.closeObject();
    };
    emitCache("ref_cache", service_.referenceCacheStats());
    emitCache("tuner_cache", service_.tunerCacheStats());
    emitCache("trace_memo", service_.traceMemoStats());
    json.closeObject();
    json.closeObject();
    return json.str();
}

std::string
Server::listResponse(std::uint64_t id) const
{
    JsonWriter json;
    json.openObject();
    json.field("id", id);
    json.field("ok", true);
    json.openArray("workloads");
    for (const std::string &name : WorkloadRegistry::instance().names())
        json.element(name);
    json.closeArray();
    json.openArray("scales");
    json.element(scaleName(Scale::Tiny));
    json.element(scaleName(Scale::Quick));
    json.element(scaleName(Scale::Paper));
    json.closeArray();
    json.openArray("policies");
    for (const std::string &name : partitionPolicyNames())
        json.element(name);
    json.closeArray();
    json.closeObject();
    return json.str();
}

} // namespace dmpb
