/**
 * @file
 * End-to-end tests for the serve daemon (serve/server + protocol):
 * a real Server on a real Unix socket, driven by a raw NDJSON client.
 * Covers the immediate commands, run responses (and their parseable
 * result payload), back-pressure rejections when the admission queue
 * is full, error responses with recovered ids, request lines trickled
 * a byte at a time or sent without a newline past the line cap,
 * graceful shutdown draining admitted work, closed connections
 * releasing their fd and reader thread, repeated runs replaying from
 * the shared edge-trace memo, and the loadgen harness against a live
 * daemon. Part of the CI TSan job: the daemon is the repo's most
 * thread-dense subsystem.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"

namespace dmpb {
namespace {

/** A unique, short (sockaddr_un-sized) socket path per test. */
std::string
testSocketPath()
{
    static int counter = 0;
    return "/tmp/dmpb-t" + std::to_string(::getpid()) + "-" +
           std::to_string(counter++) + ".sock";
}

TunerConfig
quickTuner()
{
    TunerConfig t;
    t.max_iterations = 2;
    t.impact_samples = 1;
    t.trace_cap = 128 * 1024;
    return t;
}

ServiceConfig
quickService()
{
    ServiceConfig c;
    c.cluster = paperCluster5();
    c.tuner = quickTuner();
    return c;  // empty cache dirs: no disk traffic from tests
}

/** Raw blocking NDJSON test client. */
class TestClient
{
  public:
    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** Connect, retrying while the daemon is still binding. */
    bool
    connect(const std::string &path, int attempts = 100)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        for (int i = 0; i < attempts; ++i) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd_ < 0)
                return false;
            if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0) {
                return true;
            }
            ::close(fd_);
            fd_ = -1;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        return false;
    }

    /** Make recvLine() fail after @p seconds without data instead of
     *  blocking forever. */
    void
    setRecvTimeout(int seconds)
    {
        timeval tv{};
        tv.tv_sec = seconds;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    bool send(const std::string &line) { return sendRaw(line + "\n"); }

    /** Send @p bytes as they are, without a framing newline. */
    bool
    sendRaw(const std::string &bytes)
    {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    recvLine(std::string &line)
    {
        for (;;) {
            std::size_t eol = inbuf_.find('\n');
            if (eol != std::string::npos) {
                line = inbuf_.substr(0, eol);
                inbuf_.erase(0, eol + 1);
                return true;
            }
            char buf[4096];
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            inbuf_.append(buf, static_cast<std::size_t>(n));
        }
    }

    /** Request/response helper for one in-flight request. */
    bool
    rpc(const std::string &line, JsonValue &response)
    {
        std::string text;
        if (!send(line) || !recvLine(text))
            return false;
        return JsonValue::parse(text, response);
    }

  private:
    int fd_ = -1;
    std::string inbuf_;
};

/** A Server on its own thread, torn down via protocol shutdown. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServeOptions options,
                           ServiceConfig config = quickService())
        : server_(std::move(config), std::move(options)),
          thread_([this] { exit_code_ = server_.serve(); })
    {}

    ~ServerFixture()
    {
        if (thread_.joinable()) {
            server_.requestStop();
            thread_.join();
        }
    }

    Server &server() { return server_; }

    int
    join()
    {
        thread_.join();
        return exit_code_;
    }

  private:
    Server server_;
    int exit_code_ = -1;
    std::thread thread_;
};

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLoggingEnabled(false); }
    void TearDown() override { setLoggingEnabled(true); }
};

TEST_F(ServeTest, ImmediateCommandsAndRunRoundTrip)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    options.workers = 2;
    ServerFixture fixture(options);

    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));

    JsonValue pong;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"ping\",\"id\":1}", pong));
    EXPECT_EQ(pong.find("id")->asU64(), 1u);
    EXPECT_TRUE(pong.find("ok")->asBool());
    EXPECT_TRUE(pong.find("pong")->asBool());

    JsonValue list;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"list\",\"id\":2}", list));
    ASSERT_NE(list.find("workloads"), nullptr);
    const auto &names = list.find("workloads")->items();
    ASSERT_FALSE(names.empty());
    EXPECT_EQ(names[0].asString(), "TeraSort");

    // "cmd" defaults to run when a workload field is present.
    JsonValue run;
    ASSERT_TRUE(client.rpc(
        "{\"workload\":\"terasort\",\"scale\":\"tiny\","
        "\"seed\":7,\"id\":3}",
        run));
    EXPECT_EQ(run.find("id")->asU64(), 3u);
    ASSERT_TRUE(run.find("ok")->asBool());
    const JsonValue *result = run.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("short_name")->asString(), "TeraSort");
    EXPECT_EQ(result->find("status")->asString(), "ok");
    ASSERT_NE(result->find("proxy"), nullptr);
    EXPECT_NE(result->find("proxy")->find("checksum"), nullptr);
    EXPECT_GE(run.find("queue_s")->asNumber(-1.0), 0.0);

    JsonValue stats;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"stats\",\"id\":4}", stats));
    const JsonValue *s = stats.find("stats");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->find("admitted")->asU64(), 1u);
    EXPECT_EQ(s->find("completed")->asU64(), 1u);
    EXPECT_EQ(s->find("connections")->asU64(), 1u);
    EXPECT_NE(s->find("ref_cache"), nullptr);
    EXPECT_NE(s->find("tuner_cache"), nullptr);

    JsonValue shutdown;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"shutdown\",\"id\":5}",
                           shutdown));
    EXPECT_TRUE(shutdown.find("ok")->asBool());
    EXPECT_TRUE(shutdown.find("shutdown")->asBool());
    EXPECT_EQ(fixture.join(), 0);
}

/** Entries of a /proc/self directory (open fds, live threads). */
std::size_t
procSelfEntries(const char *dir)
{
    std::size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string("/proc/self/") + dir)) {
        (void)entry;
        ++n;
    }
    return n;
}

/** The "result" object of a run response line, minus elapsed_s. */
std::string
resultBytes(const std::string &line)
{
    std::string result = line.substr(line.find("\"result\":"));
    const std::size_t at = result.find("\"elapsed_s\":");
    return result.erase(at, result.find(',', at) - at);
}

TEST_F(ServeTest, RepeatedRunReplaysFromTheTraceMemo)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    ServerFixture fixture(options);
    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));

    const std::string run =
        "{\"workload\":\"terasort\",\"scale\":\"tiny\",\"seed\":7}";
    std::string first;
    ASSERT_TRUE(client.send(run));
    ASSERT_TRUE(client.recvLine(first));
    JsonValue stats;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"stats\",\"id\":2}", stats));
    const JsonValue *memo = stats.find("stats")->find("trace_memo");
    ASSERT_NE(memo, nullptr);
    const std::uint64_t hits = memo->find("hits")->asU64();
    const std::uint64_t misses = memo->find("misses")->asU64();
    // Parallel tuner clones may miss one key concurrently, so a key
    // can count more than one miss.
    EXPECT_GT(memo->find("entries")->asU64(), 0u);
    EXPECT_LE(memo->find("entries")->asU64(), misses);
    EXPECT_EQ(memo->find("capacity")->asU64(), kEdgeTraceMemoEntries);

    // The same request again: every edge simulation is a memo hit,
    // and the answer is the same bytes.
    std::string second;
    ASSERT_TRUE(client.send(run));
    ASSERT_TRUE(client.recvLine(second));
    ASSERT_TRUE(client.rpc("{\"cmd\":\"stats\",\"id\":3}", stats));
    memo = stats.find("stats")->find("trace_memo");
    EXPECT_GT(memo->find("hits")->asU64(), hits);
    EXPECT_EQ(memo->find("misses")->asU64(), misses);
    EXPECT_EQ(resultBytes(first), resultBytes(second));
}

TEST_F(ServeTest, ClosedConnectionsReleaseTheirFdAndThread)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    ServerFixture fixture(options);
    auto pingOnce = [&](std::uint64_t id) {
        TestClient client;
        ASSERT_TRUE(client.connect(options.socket_path));
        JsonValue pong;
        ASSERT_TRUE(client.rpc("{\"cmd\":\"ping\",\"id\":" +
                                   std::to_string(id) + "}",
                               pong));
        EXPECT_TRUE(pong.find("pong")->asBool());
    };
    pingOnce(0);
    const std::size_t fds = procSelfEntries("fd");
    const std::size_t threads = procSelfEntries("task");

    // One client at a time: connect, ping, close.
    constexpr std::uint64_t kClients = 300;
    for (std::uint64_t i = 1; i <= kClients; ++i)
        pingOnce(i);

    // The accept loop reaps within one poll interval (200 ms).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (procSelfEntries("fd") > fds + 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LE(procSelfEntries("fd"), fds + 2);
    EXPECT_LE(procSelfEntries("task"), threads + 2);
    EXPECT_EQ(fixture.server().stats().connections, kClients + 1);
}

TEST_F(ServeTest, MalformedRequestsGetCorrelatedErrors)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    ServerFixture fixture(options);

    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));

    JsonValue bad_json;
    ASSERT_TRUE(client.rpc("this is not json", bad_json));
    EXPECT_FALSE(bad_json.find("ok")->asBool());
    EXPECT_NE(bad_json.find("error"), nullptr);

    // The id survives even when the request shape is invalid, so the
    // client can correlate the error.
    JsonValue bad_cmd;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"bogus\",\"id\":9}", bad_cmd));
    EXPECT_EQ(bad_cmd.find("id")->asU64(), 9u);
    EXPECT_NE(bad_cmd.find("error")->asString().find("bogus"),
              std::string::npos);

    JsonValue no_workload;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"run\",\"id\":10}",
                           no_workload));
    EXPECT_EQ(no_workload.find("id")->asU64(), 10u);
    EXPECT_FALSE(no_workload.find("ok")->asBool());

    // An unknown workload is a valid request with a failed outcome.
    JsonValue unknown;
    ASSERT_TRUE(client.rpc(
        "{\"workload\":\"nope\",\"scale\":\"tiny\",\"id\":11}",
        unknown));
    EXPECT_TRUE(unknown.find("ok")->asBool());
    EXPECT_EQ(unknown.find("result")->find("status")->asString(),
              "failed");
}

TEST_F(ServeTest, RequestSentOneByteAtATimeGetsOneResponse)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    ServerFixture fixture(options);

    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));

    // One send() per byte: the reader sees the line in 1-byte pieces
    // and must still assemble exactly one request from them.
    for (char c : std::string("{\"cmd\":\"ping\",\"id\":42}\n"))
        ASSERT_TRUE(client.sendRaw(std::string(1, c)));
    JsonValue pong;
    std::string line;
    ASSERT_TRUE(client.recvLine(line));
    ASSERT_TRUE(JsonValue::parse(line, pong)) << line;
    EXPECT_EQ(pong.find("id")->asU64(), 42u);
    EXPECT_TRUE(pong.find("pong")->asBool());

    // Exactly one response: the next line answers the next request.
    JsonValue next;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"ping\",\"id\":43}", next));
    EXPECT_EQ(next.find("id")->asU64(), 43u);
}

TEST_F(ServeTest, OverlongRequestLineIsRejectedAndConnectionClosed)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    ServerFixture fixture(options);

    TestClient hostile;
    ASSERT_TRUE(hostile.connect(options.socket_path));
    hostile.setRecvTimeout(30);
    // Twice the cap, no newline. The daemon hangs up mid-stream, so
    // the send itself may fail with EPIPE; only the replies matter.
    hostile.sendRaw(std::string(2 * kMaxRequestLineBytes, 'x'));
    std::string line;
    ASSERT_TRUE(hostile.recvLine(line));
    JsonValue error;
    ASSERT_TRUE(JsonValue::parse(line, error)) << line;
    EXPECT_FALSE(error.find("ok")->asBool());
    EXPECT_NE(error.find("error")->asString().find(
                  std::to_string(kMaxRequestLineBytes)),
              std::string::npos)
        << line;
    EXPECT_FALSE(hostile.recvLine(line)) << "expected EOF, got " << line;

    // The daemon itself is unharmed.
    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    JsonValue pong;
    ASSERT_TRUE(client.rpc("{\"cmd\":\"ping\",\"id\":1}", pong));
    EXPECT_TRUE(pong.find("pong")->asBool());
    EXPECT_EQ(fixture.server().stats().errors, 1u);
}

TEST_F(ServeTest, FullQueueRejectsWithBackPressure)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    options.workers = 1;
    options.max_queue = 1;
    ServerFixture fixture(options);

    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));

    // Flood without reading: admission (a queue push) far outpaces a
    // pipeline execution, so with one worker and one queue slot the
    // bulk of these must be rejected -- and rejected synchronously,
    // which is the back-pressure contract.
    constexpr std::uint64_t kFlood = 32;
    for (std::uint64_t i = 0; i < kFlood; ++i) {
        ASSERT_TRUE(client.send(
            "{\"workload\":\"terasort\",\"scale\":\"tiny\","
            "\"seed\":7,\"id\":" +
            std::to_string(i + 1) + "}"));
    }

    std::size_t ok = 0, rejected = 0;
    for (std::uint64_t i = 0; i < kFlood; ++i) {
        std::string line;
        ASSERT_TRUE(client.recvLine(line));
        JsonValue response;
        ASSERT_TRUE(JsonValue::parse(line, response)) << line;
        if (response.find("ok")->asBool()) {
            ++ok;
        } else {
            ++rejected;
            EXPECT_EQ(response.find("rejected")->asString(),
                      "overloaded");
            EXPECT_NE(response.find("queue_depth"), nullptr);
        }
    }
    EXPECT_EQ(ok + rejected, kFlood);
    EXPECT_GE(ok, 1u);
    EXPECT_GE(rejected, 1u);
    EXPECT_EQ(fixture.server().stats().rejected, rejected);
}

TEST_F(ServeTest, ShutdownDrainsAdmittedWorkFirst)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    options.workers = 1;
    options.max_queue = 16;
    ServerFixture fixture(options);

    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));

    constexpr std::uint64_t kRuns = 3;
    for (std::uint64_t i = 0; i < kRuns; ++i) {
        ASSERT_TRUE(client.send(
            "{\"workload\":\"terasort\",\"scale\":\"tiny\","
            "\"seed\":7,\"id\":" +
            std::to_string(i + 1) + "}"));
    }
    ASSERT_TRUE(client.send("{\"cmd\":\"shutdown\",\"id\":99}"));

    // Every admitted run is answered; the shutdown response arrives
    // only after them (it is sent post-drain by construction).
    std::size_t run_responses = 0;
    bool saw_shutdown = false;
    for (std::uint64_t i = 0; i < kRuns + 1; ++i) {
        std::string line;
        ASSERT_TRUE(client.recvLine(line));
        JsonValue response;
        ASSERT_TRUE(JsonValue::parse(line, response)) << line;
        if (response.find("shutdown") != nullptr) {
            saw_shutdown = true;
            EXPECT_EQ(response.find("id")->asU64(), 99u);
            EXPECT_EQ(run_responses, kRuns)
                << "shutdown response overtook admitted work";
        } else {
            EXPECT_FALSE(saw_shutdown);
            EXPECT_TRUE(response.find("ok")->asBool());
            ++run_responses;
        }
    }
    EXPECT_TRUE(saw_shutdown);
    EXPECT_EQ(fixture.join(), 0);

    // A later run against the drained daemon cannot connect: the
    // socket file is gone.
    TestClient late;
    EXPECT_FALSE(late.connect(options.socket_path, 2));
}

TEST_F(ServeTest, RequestStopStopsAnIdleServer)
{
    ServeOptions options;
    options.socket_path = testSocketPath();
    ServerFixture fixture(options);
    TestClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    fixture.server().requestStop();
    EXPECT_EQ(fixture.join(), 0);
}

TEST_F(ServeTest, LoadGenReplaysMixedTrafficAgainstLiveDaemon)
{
    // Run the daemon the way production would: caches on, so warm
    // requests replay from the in-memory layer and only the strided
    // cold (bypass) requests pay for a full pipeline. This is also
    // what keeps the test affordable under TSan, where a pipeline is
    // an order of magnitude slower.
    const std::string cache_dir = "test-serve-loadgen-cache";
    std::filesystem::remove_all(cache_dir);
    ServiceConfig config = quickService();
    config.cache.proxy_dir = cache_dir;
    config.cache.ref_dir = cache_dir;

    ServeOptions options;
    options.socket_path = testSocketPath();
    options.workers = 2;
    options.max_queue = 8;
    ServerFixture fixture(options, config);

    LoadGenOptions load;
    load.socket_path = options.socket_path;
    load.requests = 40;
    load.connections = 4;
    load.workloads = {"terasort"};
    load.scale = Scale::Tiny;
    load.seed = 7;
    load.cold_percent = 10;
    LoadGenReport report = runLoadGen(load);
    std::filesystem::remove_all(cache_dir);

    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.requests, 40u);
    EXPECT_EQ(report.cold, 4u);
    EXPECT_EQ(report.errors, 0u);
    EXPECT_GT(report.throughput_rps, 0.0);
    EXPECT_GT(report.p50_ms, 0.0);
    EXPECT_LE(report.p50_ms, report.p95_ms);
    EXPECT_LE(report.p95_ms, report.p99_ms);
    EXPECT_LE(report.min_ms, report.p50_ms);
    EXPECT_LE(report.p99_ms, report.max_ms);

    // The loadgen output renders and round-trips.
    std::string table = renderLoadGenTable(report);
    EXPECT_NE(table.find("throughput"), std::string::npos);
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(renderLoadGenJson(report), doc));
    EXPECT_EQ(doc.find("requests")->asU64(), 40u);

    ServeStats stats = fixture.server().stats();
    EXPECT_EQ(stats.completed, 40u);
    EXPECT_EQ(stats.connections, 4u);
}

} // namespace
} // namespace dmpb
