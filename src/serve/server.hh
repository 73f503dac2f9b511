/**
 * @file
 * The `dmpb --serve` daemon: a benchmark-as-a-service front end over
 * PipelineService.
 *
 * One Server binds a local Unix-domain socket and speaks the NDJSON
 * protocol of serve/protocol.hh. Run requests are admission-controlled
 * through a bounded priority queue: when the queue is full the request
 * is rejected immediately with `"rejected":"overloaded"` instead of
 * growing memory without bound, which is the whole back-pressure
 * contract -- a client that floods the daemon learns so synchronously.
 * Admitted requests are drained by a fixed set of worker tasks running
 * on the repo's existing ThreadPool (base/thread_pool); each worker
 * executes PipelineService::execute and streams the outcome back as
 * one response line on the requesting connection.
 *
 * Shutdown is graceful on both paths: SIGTERM/SIGINT flips the same
 * flag a `{"cmd":"shutdown"}` request does. New run requests are then
 * rejected with `"rejected":"shutting-down"`, already-admitted work
 * drains to completion, and the shutdown requester (if any) receives
 * its response only after the drain, so observing the response means
 * every admitted request has been answered.
 */

#ifndef DMPB_SERVE_SERVER_HH
#define DMPB_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_annotations.hh"
#include "runner/pipeline_service.hh"
#include "serve/protocol.hh"

namespace dmpb {

/**
 * Longest request line the daemon buffers. A connection whose pending
 * bytes pass this without a newline gets one error response naming
 * the limit and is hung up, so a client that never sends '\n' cannot
 * grow the daemon's memory without bound.
 */
constexpr std::size_t kMaxRequestLineBytes = 1024 * 1024;

/** Daemon knobs (the service itself is configured by ServiceConfig). */
struct ServeOptions
{
    /** Filesystem path of the Unix-domain listening socket. A stale
     *  socket file at this path is replaced. Kept short: sockaddr_un
     *  caps it at ~107 bytes. */
    std::string socket_path;
    /** Pipeline worker tasks draining the admission queue. */
    std::size_t workers = 1;
    /** Admission-queue capacity; a run request arriving when this
     *  many are already queued is rejected ("overloaded"). */
    std::size_t max_queue = 64;
};

/** Daemon-level counter snapshot (stats command). */
struct ServeStats
{
    std::uint64_t connections = 0;   ///< accepted connections, total
    std::uint64_t admitted = 0;      ///< run requests queued
    std::uint64_t completed = 0;     ///< run responses sent
    std::uint64_t rejected = 0;      ///< back-pressure rejections
    std::uint64_t errors = 0;        ///< malformed-request responses
    std::uint64_t queue_depth = 0;   ///< runnable requests right now
};

/** The serve daemon. Construct, then serve() until shutdown. */
class Server
{
  public:
    Server(ServiceConfig service_config, ServeOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket and run the accept loop on the calling thread
     * until a shutdown request or SIGTERM/SIGINT arrives, then drain
     * and tear down. Returns 0 on a clean run, 1 when the socket
     * could not be bound. Installs SIGTERM/SIGINT handlers for the
     * duration of the call and restores the previous ones after.
     */
    int serve();

    /** Request a graceful stop (as the signal path does). Safe from
     *  any thread; serve() returns once the drain completes. */
    void requestStop() DMPB_EXCLUDES(queue_mutex_);

    /** Counter snapshot (thread-safe). */
    ServeStats stats() const
        DMPB_EXCLUDES(stats_mutex_, queue_mutex_);

    const ServeOptions &options() const { return options_; }
    const PipelineService &service() const { return service_; }

  private:
    struct Connection;

    /** One admitted run request waiting for a worker. */
    struct Job
    {
        ServeRequest request;
        std::shared_ptr<Connection> conn;
        std::chrono::steady_clock::time_point enqueued;
        std::uint64_t seq = 0;
    };

    /** Heap order: higher priority first, admission order within. */
    struct JobOrder
    {
        bool
        operator()(const Job &a, const Job &b) const
        {
            if (a.request.priority != b.request.priority)
                return a.request.priority < b.request.priority;
            return a.seq > b.seq;
        }
    };

    /** One accepted connection and the thread reading it. */
    struct Reader
    {
        std::shared_ptr<Connection> conn;
        std::thread thread;
    };

    void readerLoop(std::shared_ptr<Connection> conn, std::uint64_t id)
        DMPB_EXCLUDES(conns_mutex_);
    /** Join and drop the readers whose connection has closed, so a
     *  long-lived daemon holds fds and threads only for live
     *  clients. Called from the accept loop. */
    void reapFinishedReaders() DMPB_EXCLUDES(conns_mutex_);
    void handleLine(const std::shared_ptr<Connection> &conn,
                    const std::string &line);
    void handleRun(const std::shared_ptr<Connection> &conn,
                   ServeRequest request)
        DMPB_EXCLUDES(queue_mutex_, stats_mutex_);
    void workerLoop() DMPB_EXCLUDES(queue_mutex_, stats_mutex_);
    bool popJob(Job &out) DMPB_EXCLUDES(queue_mutex_);
    void drainAndJoin() DMPB_EXCLUDES(shutdown_mutex_, conns_mutex_);

    std::string statsResponse(std::uint64_t id) const;
    std::string listResponse(std::uint64_t id) const;

    PipelineService service_;
    ServeOptions options_;

    int listen_fd_ = -1;

    /** Set once shutdown begins: no new admissions, queue drains.
     *  Atomic, not guarded: the accept loop polls it locklessly; the
     *  release-store in requestStop() happens under queue_mutex_ so
     *  workers cannot race an admission against their exit check. */
    std::atomic<bool> stopping_{false};

    /** Admission queue: priority desc, admission order within. */
    mutable AnnotatedMutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::priority_queue<Job, std::vector<Job>, JobOrder> queue_
        DMPB_GUARDED_BY(queue_mutex_);
    std::uint64_t next_seq_ DMPB_GUARDED_BY(queue_mutex_) = 0;

    /** Live connections + their reader threads, by connection id;
     *  finished_ lists the ids whose reader has exited and awaits
     *  reapFinishedReaders(). */
    AnnotatedMutex conns_mutex_;
    std::map<std::uint64_t, Reader> readers_
        DMPB_GUARDED_BY(conns_mutex_);
    std::vector<std::uint64_t> finished_ DMPB_GUARDED_BY(conns_mutex_);
    std::uint64_t next_conn_id_ DMPB_GUARDED_BY(conns_mutex_) = 0;

    /** The shutdown requester, answered post-drain. */
    AnnotatedMutex shutdown_mutex_;
    std::shared_ptr<Connection> shutdown_conn_
        DMPB_GUARDED_BY(shutdown_mutex_);
    std::uint64_t shutdown_id_ DMPB_GUARDED_BY(shutdown_mutex_) = 0;
    bool shutdown_requested_ DMPB_GUARDED_BY(shutdown_mutex_) = false;

    mutable AnnotatedMutex stats_mutex_;
    ServeStats stats_ DMPB_GUARDED_BY(stats_mutex_);
};

} // namespace dmpb

#endif // DMPB_SERVE_SERVER_HH
