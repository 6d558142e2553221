// Loopback integration tests for the network serving front-end (src/rpc):
// the epoll multi-reactor TcpServer, the per-connection framing negotiation
// (text and binary), the blocking Client, the single-threaded
// ConnectionSet that both the server's reactors and the distributed testbed
// run on, and the log-linear LatencyHistogram. Concurrency-sensitive paths
// (admission, deadlines, graceful drain, multi-client interleaving) are made
// deterministic with the same gate-the-pool trick serve_test uses: plug the
// worker pool with a blocking task so admitted requests sit in the dispatch
// queue until the test releases them.
//
// The CARAT_TEST_REACTORS environment variable (default 1) sets the reactor
// count for every test that does not pin its own — CI runs the suite at 1
// and at 4 so the whole protocol surface is exercised against both the
// single-reactor and the sharded front-end.
//
// Carries the `tsan` label (tests/CMakeLists.txt): reactor threads, pool
// workers and client threads all cross the per-reactor mutexes, so this
// suite is the ThreadSanitizer workout for the rpc layer.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "model/solver.h"
#include "rpc/client.h"
#include "rpc/framing.h"
#include "rpc/latency_histogram.h"
#include "rpc/connection_set.h"
#include "rpc/tcp_server.h"
#include "serve/query.h"
#include "serve/solver_service.h"

namespace carat {
namespace {

std::size_t TestReactors() {
  const char* env = std::getenv("CARAT_TEST_REACTORS");
  if (env == nullptr) return 1;
  const long n = std::strtol(env, nullptr, 10);
  return n >= 1 ? static_cast<std::size_t>(n) : 1;
}

serve::SolverService::Options ServiceOptions(exec::ThreadPool* pool) {
  serve::SolverService::Options o;
  o.pool = pool;
  o.warm_start = false;  // cold solves are bit-identical across front-ends
  return o;
}

rpc::TcpServer::Options ServerOptions(serve::SolverService* service,
                                      exec::ThreadPool* pool) {
  rpc::TcpServer::Options o;
  o.service = service;
  o.pool = pool;
  o.reactors = TestReactors();
  return o;
}

void WaitForSubmitted(const rpc::TcpServer& server, std::uint64_t n) {
  while (server.stats().requests_submitted < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool ConnectTo(rpc::Client* client, const rpc::TcpServer& server,
               rpc::FramingKind framing = rpc::FramingKind::kText) {
  rpc::Client::ConnectOptions options;
  options.recv_timeout_ms = 30'000;
  options.connect_timeout_ms = 10'000;
  options.framing = framing;
  std::string error;
  const bool ok = client->Connect("127.0.0.1", server.port(), &error, options);
  EXPECT_TRUE(ok) << error;
  return ok;
}

/// Minimal blocking acceptor on an ephemeral loopback port, for driving the
/// client against misbehaving servers (drip-feeds, mid-response kills).
class RawServer {
 public:
  ~RawServer() { Close(); }

  bool Listen(std::uint16_t port = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 1) != 0) {
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      return false;
    }
    port_ = ntohs(bound.sin_port);
    return true;
  }

  /// -1 when nothing connects within `timeout_ms` (-1 waits forever).
  int Accept(int timeout_ms = -1) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return -1;
    return ::accept(fd_, nullptr, nullptr);
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogram, EmptyReportsZero) {
  rpc::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_EQ(h.PercentileMs(50.0), 0.0);
  EXPECT_EQ(h.PercentileMs(99.0), 0.0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  rpc::LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(3);  // < 8 us: exact buckets
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.PercentileMs(50.0), 0.003);
  EXPECT_DOUBLE_EQ(h.PercentileMs(100.0), 0.003);
}

TEST(LatencyHistogram, PercentilesBoundRelativeError) {
  rpc::LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(1'000);  // 1 ms
  h.Record(100'000);                             // one 100 ms outlier
  EXPECT_EQ(h.count(), 100u);
  const double p50 = h.PercentileMs(50.0);
  const double p99 = h.PercentileMs(99.0);
  const double p100 = h.PercentileMs(100.0);
  // Interpolated within the bucket: reported values stay inside the bucket
  // that holds the true value ([0.960, 1.023] ms and [98.304, 106.495] ms),
  // so the relative error is bounded by the bucket width (12.5%).
  EXPECT_GE(p50, 0.960);
  EXPECT_LE(p50, 1.023);
  EXPECT_GE(p99, 0.960);
  EXPECT_LE(p99, 1.023);  // rank 99 still falls in the 1 ms bucket
  EXPECT_GE(p100, 98.304);
  EXPECT_LE(p100, 106.495);
}

TEST(LatencyHistogram, InterpolationPinsKnownStreams) {
  // Regression for the upper-edge bias: a constant stream used to report
  // the bucket's inclusive upper edge (1.023 ms for 1000 us observations)
  // for every percentile. With midpoint interpolation observation k of c
  // sits at fraction (k - 0.5) / c of the bucket span [960, 1023].
  rpc::LatencyHistogram constant;
  for (int i = 0; i < 100; ++i) constant.Record(1'000);
  EXPECT_NEAR(constant.PercentileMs(50.0), 0.991185, 1e-9);   // not 1.023
  EXPECT_NEAR(constant.PercentileMs(99.0), 1.022055, 1e-9);
  EXPECT_LT(constant.PercentileMs(50.0), constant.PercentileMs(99.0));

  // A two-level stream: p99 lands on rank 99, the 9th of 10 observations
  // in the [3840, 4095] us bucket.
  rpc::LatencyHistogram mixed;
  for (int i = 0; i < 90; ++i) mixed.Record(1'000);
  for (int i = 0; i < 10; ++i) mixed.Record(4'000);
  EXPECT_NEAR(mixed.PercentileMs(99.0), 4.05675, 1e-9);
}

TEST(LatencyHistogram, OverflowIsCountedAndClamped) {
  rpc::LatencyHistogram h;
  h.Record(3'000'000'000'000);  // ~35 days in us: past the ~36 min tracked max
  h.Record(1'000);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_GT(h.PercentileMs(100.0), h.PercentileMs(1.0));
}

TEST(LatencyHistogram, HugeValuesClampIntoTheLastBucket) {
  rpc::LatencyHistogram h;
  h.Record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_GT(h.PercentileMs(50.0), 0.0);
}

TEST(LatencyHistogram, MergeAggregatesAcrossInstances) {
  rpc::LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(1'000);
  for (int i = 0; i < 100; ++i) b.Record(1'000);
  b.Record(~std::uint64_t{0});
  a.Merge(b);
  EXPECT_EQ(a.count(), 201u);
  EXPECT_EQ(a.overflow_count(), 1u);
  // Merged percentiles read the combined distribution: rank 101 of 200 in
  // the [960, 1023] bucket.
  EXPECT_NEAR(a.PercentileMs(50.0), 0.9916575, 1e-9);
}

TEST(LatencyHistogram, ClearResets) {
  rpc::LatencyHistogram h;
  h.Record(1'000);
  h.Record(~std::uint64_t{0});
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_EQ(h.PercentileMs(50.0), 0.0);
}

// ---- TcpServer over loopback ----------------------------------------------

TEST(TcpServer, AnswersByteIdenticallyToTheSharedFormatter) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // The acceptance bar: the TCP front-end answers with exactly the bytes
  // carat_serve would print for the same query line.
  serve::Query query;
  model::ModelInput input;
  ASSERT_TRUE(serve::ParseQuery("mb4 6", &query, &input, &error)) << error;
  const model::ModelSolution direct = model::CaratModel(input).Solve();
  const std::string expected = "x " + serve::FormatResult(query, direct);

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  std::string response;
  ASSERT_TRUE(client.Request("x mb4 6", &response));
  EXPECT_EQ(response, expected);

  // And a cache hit replays the identical bytes.
  ASSERT_TRUE(client.Request("y mb4 6", &response));
  EXPECT_EQ(response, "y " + serve::FormatResult(query, direct));
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(TcpServer, BinaryFramingAnswersByteIdenticalPayloads) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // One server, two framings, the same id-matched query stream: the
  // response payloads must be byte-identical (ids are decimal so they
  // round-trip through the binary u64 id field unchanged).
  rpc::Client text;
  rpc::Client binary;
  ASSERT_TRUE(ConnectTo(&text, server, rpc::FramingKind::kText));
  ASSERT_TRUE(ConnectTo(&binary, server, rpc::FramingKind::kBinary));
  const std::vector<std::string> queries = {
      "101 mb4 6", "102 mb4 12 what_if=mpl:10", "103 sweep 2:4", "104 bogus"};
  for (const std::string& q : queries) {
    std::string from_text, from_binary;
    ASSERT_TRUE(text.Request(q, &from_text)) << q;
    ASSERT_TRUE(binary.Request(q, &from_binary)) << q;
    EXPECT_EQ(from_text, from_binary) << q;
  }
  // STATS aside (counters move between the two requests), both connections
  // stay healthy afterwards.
  std::string response;
  ASSERT_TRUE(binary.Request("105 STATS", &response));
  EXPECT_EQ(response.rfind("105 STATS accepted=", 0), 0u) << response;
}

TEST(TcpServer, BinaryNegotiationRefusedWhenDisabled) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer::Options opts = ServerOptions(&service, &pool);
  opts.enable_binary_framing = false;  // carat_served --framing=text
  rpc::TcpServer server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A text-mode client sending the raw 0x00 hello sees a text ERROR and a
  // closed connection.
  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  ASSERT_TRUE(client.SendRaw(std::string(1, rpc::kBinaryFramingByte)));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, "? ERROR binary framing disabled");
  EXPECT_FALSE(client.ReadLine(&response));

  // Text connections are untouched by the strict mode.
  rpc::Client fresh;
  ASSERT_TRUE(ConnectTo(&fresh, server));
  ASSERT_TRUE(fresh.Request("a mb4 4", &response));
  EXPECT_EQ(response.rfind("a mb4,4,ok", 0), 0u) << response;
}

TEST(TcpServer, MalformedBinaryFramesAnswerErrorAndClose) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer::Options opts = ServerOptions(&service, &pool);
  opts.max_line_bytes = 64;
  rpc::TcpServer server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A frame length below the 8-byte id minimum is malformed.
  {
    rpc::Client client;
    ASSERT_TRUE(ConnectTo(&client, server, rpc::FramingKind::kBinary));
    ASSERT_TRUE(client.SendRaw(std::string("\x03\x00\x00\x00", 4)));
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_EQ(response, "0 ERROR binary frame length 3 < 8");
    EXPECT_FALSE(client.ReadLine(&response));
  }
  // A payload past max_line_bytes is oversized — rejected from the length
  // prefix alone, before the payload arrives.
  {
    rpc::Client client;
    ASSERT_TRUE(ConnectTo(&client, server, rpc::FramingKind::kBinary));
    ASSERT_TRUE(client.SendRaw(std::string("\xff\x00\x00\x00", 4)));
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_EQ(response, "0 ERROR binary frame payload exceeds 64 bytes");
    EXPECT_FALSE(client.ReadLine(&response));
  }
  EXPECT_EQ(server.stats().frames_oversized, 2u);

  // A torn binary frame (EOF mid-frame) is discarded without an error.
  {
    rpc::Client client;
    ASSERT_TRUE(ConnectTo(&client, server, rpc::FramingKind::kBinary));
    std::string wire;
    rpc::Framing::Create(rpc::FramingKind::kBinary)->Encode("7", "mb4 4", &wire);
    ASSERT_TRUE(client.SendRaw(wire.substr(0, wire.size() - 2)));
    client.CloseSend();
    std::string response;
    EXPECT_FALSE(client.ReadLine(&response));  // no response, clean EOF
  }
  EXPECT_EQ(server.stats().frames_oversized, 2u);

  // The server is unharmed.
  rpc::Client fresh;
  ASSERT_TRUE(ConnectTo(&fresh, server, rpc::FramingKind::kBinary));
  std::string response;
  ASSERT_TRUE(fresh.Request("9 mb4 4", &response));
  EXPECT_EQ(response.rfind("9 mb4,4,ok", 0), 0u) << response;
}

TEST(TcpServer, MultipleClientsInterleaveAndEveryRequestIsAnswered) {
  exec::ThreadPool pool(2);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<std::thread> threads;
  std::vector<int> answered(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, &server, &answered] {
      rpc::Client client;
      if (!ConnectTo(&client, server)) return;
      for (int i = 0; i < kPerClient; ++i) {
        // Pipeline all requests before reading any response.
        const int n = 2 + (c + i) % 5;
        client.SendLine("c" + std::to_string(c) + "." + std::to_string(i) +
                        " mb4 " + std::to_string(n));
      }
      std::string response;
      for (int i = 0; i < kPerClient; ++i) {
        if (!client.ReadLine(&response)) break;
        // Every response belongs to this client and reports a solution.
        EXPECT_EQ(response.rfind("c" + std::to_string(c) + ".", 0), 0u)
            << response;
        EXPECT_NE(response.find(",ok,"), std::string::npos) << response;
        ++answered[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(answered[c], kPerClient);
  const rpc::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.requests_completed,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.requests_rejected, 0u);
}

TEST(TcpServer, AdmissionBoundAnswersBusyOutOfOrder) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer::Options opts = ServerOptions(&service, &pool);
  opts.max_inflight = 1;
  rpc::TcpServer server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Plug the single worker: request "a" is admitted but cannot start, so
  // "b" deterministically finds the admission queue full.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  ASSERT_TRUE(client.SendLine("a mb4 4"));
  ASSERT_TRUE(client.SendLine("b mb4 4"));

  // BUSY comes back first even though "a" was sent first: responses are
  // written per-completion, not in request order.
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, "b BUSY");
  release.set_value();
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response.rfind("a mb4,4,ok", 0), 0u) << response;

  const rpc::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_submitted, 1u);
  EXPECT_EQ(stats.requests_rejected, 1u);
  EXPECT_EQ(stats.requests_completed, 1u);
}

TEST(TcpServer, ExpiredDeadlineAnswersTimeoutWithoutSolving) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  ASSERT_TRUE(client.SendLine("a mb4 4 deadline_ms=1"));
  WaitForSubmitted(server, 1);
  // Let the deadline lapse while the request sits in the dispatch queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();

  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, "a TIMEOUT");
  EXPECT_EQ(server.stats().requests_timed_out, 1u);
  EXPECT_EQ(server.stats().requests_completed, 0u);
  // The whole point of queue-time deadlines: no solver work was done.
  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(service.stats().solved, 0u);
}

TEST(TcpServer, GracefulDrainAnswersEveryAdmittedRequest) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.SendLine("g" + std::to_string(i) + " mb4 " +
                                std::to_string(4 + i)));
  }
  WaitForSubmitted(server, kRequests);

  // Shutdown mid-batch: it must block until all three queued solves have
  // been answered and flushed, then close the connection.
  std::thread shutdown([&server] { server.Shutdown(); });
  release.set_value();
  shutdown.join();

  int got = 0;
  std::string response;
  while (client.ReadLine(&response)) {
    EXPECT_EQ(response.rfind("g", 0), 0u) << response;
    EXPECT_NE(response.find(",ok,"), std::string::npos) << response;
    ++got;
  }
  EXPECT_EQ(got, kRequests);  // then clean EOF
  EXPECT_EQ(server.stats().requests_completed,
            static_cast<std::uint64_t>(kRequests));

  // Drained means drained: the listener is gone.
  rpc::Client late;
  std::string late_error;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port(), &late_error));
}

TEST(TcpServer, DrainUnderBurstLoadAnswersEveryAdmittedRequest) {
  // The multi-reactor drain correctness bar: Shutdown while 64 clients are
  // mid-burst across 4 reactors must answer every admitted request (result,
  // BUSY or TIMEOUT — never silence) and then close every connection.
  exec::ThreadPool pool(2);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer::Options opts = ServerOptions(&service, &pool);
  opts.reactors = 4;
  opts.max_inflight = 4096;  // sized above the offered window
  rpc::TcpServer server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 64;
  constexpr int kPerClient = 4;
  // Plug the pool so every request is still in flight when the drain starts.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });
  pool.Submit([gate] { gate.wait(); });

  std::atomic<int> answered{0};
  std::atomic<int> read_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    const rpc::FramingKind framing = (c % 2) != 0 ? rpc::FramingKind::kBinary
                                                  : rpc::FramingKind::kText;
    threads.emplace_back([c, framing, &server, &answered, &read_failures] {
      rpc::Client client;
      if (!ConnectTo(&client, server, framing)) {
        read_failures.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(c) * 100 + i + 1;
        client.SendLine(std::to_string(id) + " mb4 " +
                        std::to_string(2 + (c + i) % 5));
      }
      std::string response;
      int got = 0;
      while (got < kPerClient && client.ReadLine(&response)) {
        EXPECT_NE(response.find(' '), std::string::npos) << response;
        ++got;
      }
      answered.fetch_add(got);
      if (got < kPerClient) read_failures.fetch_add(kPerClient - got);
    });
  }

  WaitForSubmitted(server, kClients * kPerClient);
  std::thread shutdown([&server] { server.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.set_value();
  shutdown.join();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(read_failures.load(), 0);
  const rpc::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_submitted,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.requests_completed + stats.requests_timed_out,
            stats.requests_submitted);
  EXPECT_EQ(stats.active_connections, 0u);
}

TEST(TcpServer, OversizedFrameIsRejectedAndConnectionClosed) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer::Options opts = ServerOptions(&service, &pool);
  opts.max_line_bytes = 64;
  rpc::TcpServer server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  ASSERT_TRUE(client.SendLine(std::string(100, 'x')));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, "? ERROR line exceeds 64 bytes");
  EXPECT_FALSE(client.ReadLine(&response));  // server closed the connection
  EXPECT_EQ(server.stats().frames_oversized, 1u);

  // An unbounded partial line (no newline at all) is also rejected.
  rpc::Client partial;
  ASSERT_TRUE(ConnectTo(&partial, server));
  ASSERT_TRUE(partial.SendRaw(std::string(100, 'y')));
  ASSERT_TRUE(partial.ReadLine(&response));
  EXPECT_EQ(response, "? ERROR line exceeds 64 bytes");
  EXPECT_FALSE(partial.ReadLine(&response));
  EXPECT_EQ(server.stats().frames_oversized, 2u);

  // The server itself is unharmed.
  rpc::Client fresh;
  ASSERT_TRUE(ConnectTo(&fresh, server));
  ASSERT_TRUE(fresh.Request("a mb4 4", &response));
  EXPECT_EQ(response.rfind("a mb4,4,ok", 0), 0u) << response;
}

TEST(TcpServer, TornFrameIsDiscardedWithoutAnError) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  ASSERT_TRUE(client.SendRaw("a mb4"));  // no terminating newline
  client.CloseSend();
  std::string response;
  EXPECT_FALSE(client.ReadLine(&response));  // discarded, no response, EOF

  EXPECT_EQ(server.stats().parse_errors, 0u);
  EXPECT_EQ(server.stats().requests_submitted, 0u);

  rpc::Client fresh;
  ASSERT_TRUE(ConnectTo(&fresh, server));
  ASSERT_TRUE(fresh.Request("b mb4 4", &response));
  EXPECT_EQ(response.rfind("b mb4,4,ok", 0), 0u) << response;
}

TEST(TcpServer, MalformedRequestsAnswerErrorAndKeepTheConnection) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  std::string response;
  ASSERT_TRUE(client.Request("a bogus 4", &response));
  EXPECT_EQ(response.rfind("a ERROR ", 0), 0u) << response;
  ASSERT_TRUE(client.Request("b mb4 4 deadline_ms=nope", &response));
  EXPECT_EQ(response.rfind("b ERROR ", 0), 0u) << response;
  EXPECT_EQ(server.stats().parse_errors, 2u);

  // Parse errors are per-request, not per-connection.
  ASSERT_TRUE(client.Request("c mb4 4", &response));
  EXPECT_EQ(response.rfind("c mb4,4,ok", 0), 0u) << response;
}

TEST(TcpServer, StatsVerbReportsLiveCountersWithReactorBreakdown) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer::Options opts = ServerOptions(&service, &pool);
  opts.reactors = 2;
  rpc::TcpServer server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  std::string response;
  ASSERT_TRUE(client.Request("a mb4 4", &response));
  ASSERT_TRUE(client.Request("s STATS", &response));
  EXPECT_EQ(response.rfind("s STATS ", 0), 0u) << response;
  for (const char* field :
       {"accepted=1", "submitted=1", "completed=1", "rejected=0",
        "cache_hits=0", "solved=1", "p50_ms=", "p99_ms=", "reactors=2",
        "r0_active=", "r0_submitted=", "r1_completed="}) {
    EXPECT_NE(response.find(field), std::string::npos)
        << "missing " << field << " in: " << response;
  }
  EXPECT_EQ(server.LatencyPercentileMs(50.0) > 0.0, true);
}

TEST(TcpServer, PerQueryMvaOverrideDoesNotAliasInTheCache) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  std::string exact, approx;
  ASSERT_TRUE(client.Request("a mb4 8 mva=exact", &exact));
  ASSERT_TRUE(client.Request("b mb4 8 mva=approx", &approx));
  // Same input, different solver options: two distinct solves, no aliasing.
  EXPECT_EQ(service.stats().solved, 2u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
  // And each repeats from its own cache entry.
  std::string exact2;
  ASSERT_TRUE(client.Request("c mb4 8 mva=exact", &exact2));
  EXPECT_EQ(exact2.substr(2), exact.substr(2));
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(TcpServer, ShutdownIsIdempotentAndSafeFromManyThreads) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&server] { server.Shutdown(); });
  }
  for (std::thread& t : threads) t.join();
  server.Shutdown();  // and once more after it has fully stopped
}

TEST(TcpServer, NonNumericListenHostIsRejected) {
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer::Options opts = ServerOptions(&service, &pool);
  opts.host = "example.invalid";
  rpc::TcpServer server(std::move(opts));
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_EQ(error, "not a numeric IPv4 listen address: 'example.invalid'");
}

TEST(TcpServer, HalfClosedClientStillReceivesEveryAdmittedAnswer) {
  // A client that half-closes after pipelining still hears every admitted
  // answer, then a clean EOF: the connection drains its in-flight answers
  // before it closes.
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });

  rpc::Client client;
  ASSERT_TRUE(ConnectTo(&client, server));
  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.SendLine("h" + std::to_string(i) + " mb4 " +
                                std::to_string(4 + i)));
  }
  client.CloseSend();
  WaitForSubmitted(server, kRequests);
  // Let the server see the EOF while all three are still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();

  const auto start = std::chrono::steady_clock::now();
  int got = 0;
  std::string response;
  while (client.ReadLine(&response)) {
    EXPECT_EQ(response.rfind("h", 0), 0u) << response;
    EXPECT_NE(response.find(",ok,"), std::string::npos) << response;
    ++got;
  }
  EXPECT_EQ(got, kRequests);
  // The read ended on the server's close, not on the 30 s receive timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_EQ(server.stats().requests_completed,
            static_cast<std::uint64_t>(kRequests));
}

TEST(TcpServer, NonReadingClientIsCutOffAtTheOutboundBound) {
  // One client pipelines far more STATS answers than the loopback socket
  // buffers plus ConnectionSet::kMaxOutboundBytes hold and never reads. The
  // server must close that connection, not buffer without bound, and keep
  // answering everybody else meanwhile.
  exec::ThreadPool pool(1);
  serve::SolverService service(ServiceOptions(&pool));
  rpc::TcpServer server(ServerOptions(&service, &pool));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  rpc::Client other;
  ASSERT_TRUE(ConnectTo(&other, server));
  std::string response;
  ASSERT_TRUE(other.Request("o STATS", &response));

  rpc::Client stalled;
  ASSERT_TRUE(ConnectTo(&stalled, server));
  std::string flood;
  for (int i = 0; i < 100'000; ++i) flood += "s STATS\n";
  // The send ends when the server has read it all or closed the connection.
  std::thread sender([&] { stalled.SendRaw(flood); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int answered = 0;
  while (server.stats().connections_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (!other.Request("o" + std::to_string(answered) + " STATS",
                       &response)) {
      ADD_FAILURE() << "the other client went unanswered";
      break;
    }
    EXPECT_EQ(response.rfind("o" + std::to_string(answered) + " STATS ", 0),
              0u)
        << response;
    ++answered;
  }
  sender.join();
  EXPECT_EQ(server.stats().connections_closed, 1u)
      << "the non-reading client was never cut off";
  // The other connection is unharmed.
  ASSERT_TRUE(other.Request("z STATS", &response));
  EXPECT_EQ(response.rfind("z STATS ", 0), 0u) << response;
}

// ---- Client robustness -----------------------------------------------------

TEST(Client, ReceiveDeadlineBoundsADripFeedingServer) {
  // Regression: a per-read SO_RCVTIMEO never fires against a server that
  // drips one byte per interval, so a wedged-but-trickling peer could hold
  // the client forever. The deadline is total, not per-read.
  RawServer raw;
  ASSERT_TRUE(raw.Listen());
  std::atomic<bool> stop{false};
  std::thread dripper([&raw, &stop] {
    const int fd = raw.Accept();
    if (fd < 0) return;
    while (!stop.load()) {
      if (::send(fd, "x", 1, MSG_NOSIGNAL) <= 0) break;  // never a newline
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::close(fd);
  });

  rpc::Client client;
  rpc::Client::ConnectOptions options;
  options.recv_timeout_ms = 150;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", raw.port(), &error, options))
      << error;
  const auto start = std::chrono::steady_clock::now();
  std::string line;
  EXPECT_FALSE(client.ReadLine(&line));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 100);
  EXPECT_LT(elapsed.count(), 5'000);  // bounded despite the steady drip
  stop.store(true);
  client.Close();
  dripper.join();
}

TEST(Client, ServerKilledMidResponseFailsTheReadInsteadOfHanging) {
  RawServer raw;
  ASSERT_TRUE(raw.Listen());
  std::thread killer([&raw] {
    const int fd = raw.Accept();
    if (fd < 0) return;
    char buf[256];
    [[maybe_unused]] const ssize_t n = ::read(fd, buf, sizeof(buf));
    // Half a response — no terminating newline — then a hard close.
    [[maybe_unused]] const ssize_t m =
        ::send(fd, "a mb4,8,ok", 10, MSG_NOSIGNAL);
    ::close(fd);
  });

  rpc::Client client;
  rpc::Client::ConnectOptions options;
  options.recv_timeout_ms = 5'000;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", raw.port(), &error, options))
      << error;
  std::string response;
  EXPECT_FALSE(client.Request("a mb4 8", &response));  // EOF mid-response
  killer.join();
}

TEST(Client, ConnectTimeoutFailsInsteadOfBlocking) {
  // A listener that never accepts, with its backlog saturated: the kernel
  // drops further SYNs, so an untimed connect would block through the full
  // SYN-retransmission schedule (minutes). The connect timeout must bound
  // it instead.
  RawServer raw;
  ASSERT_TRUE(raw.Listen());  // backlog 1, never accepted
  std::vector<int> plugs;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, SOCK_NONBLOCK);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(raw.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    plugs.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  rpc::Client client;
  rpc::Client::ConnectOptions options;
  options.connect_timeout_ms = 250;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  const bool connected = client.Connect("127.0.0.1", raw.port(), &error,
                                        options);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Either the SYN is dropped and the timeout fires, or this kernel lets
  // the handshake finish anyway (some sandboxes do); what must never
  // happen is a multi-minute block on the SYN retransmission schedule.
  if (!connected) EXPECT_EQ(error, "connect: timed out");
  EXPECT_LT(elapsed.count(), 5'000);
  for (const int fd : plugs) ::close(fd);

  // And a refused connect reports the socket error through the same
  // nonblocking connect + SO_ERROR path instead of succeeding silently.
  RawServer closed;
  ASSERT_TRUE(closed.Listen());
  const std::uint16_t dead_port = closed.port();
  closed.Close();  // nothing listens here any more
  rpc::Client refused;
  error.clear();
  EXPECT_FALSE(refused.Connect("127.0.0.1", dead_port, &error, options));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(error.rfind("connect: ", 0), 0u) << error;
}

// ---- Client reconnect-with-backoff ----------------------------------------

TEST(Client, ReconnectBackoffSurvivesALateBindingListener) {
  // Reserve a port, free it, and only re-listen after a delay: a
  // single-attempt connect must fail, a budgeted one must land once the
  // listener appears (a client racing a freshly spawned server to its
  // listen socket).
  RawServer probe;
  ASSERT_TRUE(probe.Listen());
  const std::uint16_t port = probe.port();
  probe.Close();

  rpc::Client::ConnectOptions one;
  one.connect_timeout_ms = 250;
  one.connect_attempts = 1;
  std::string error;
  rpc::Client fail_fast;
  EXPECT_FALSE(fail_fast.Connect("127.0.0.1", port, &error, one));

  // The late listener echoes one binary frame by hand. (ConnectionSet binds
  // ephemeral ports only, so it cannot re-take a reserved one.)
  std::thread binder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    RawServer late;
    ASSERT_TRUE(late.Listen(port));
    const int fd = late.Accept(/*timeout_ms=*/10'000);
    ASSERT_GE(fd, 0);
    const auto framing = rpc::Framing::Create(rpc::FramingKind::kBinary);
    std::string in;
    std::vector<rpc::Framing::Message> frames;
    std::string decode_error;
    char chunk[256];
    while (frames.empty()) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      in.append(chunk, static_cast<std::size_t>(n));
      if (in[0] == rpc::kBinaryFramingByte) in.erase(0, 1);
      framing->Decode(&in, 1 << 20, &frames, &decode_error);
    }
    if (!frames.empty()) {
      std::string reply;
      framing->Encode(frames[0].id, "echo " + frames[0].body, &reply);
      EXPECT_EQ(::write(fd, reply.data(), reply.size()),
                static_cast<ssize_t>(reply.size()));
    }
    ::close(fd);
  });

  rpc::Client::ConnectOptions patient;
  patient.connect_timeout_ms = 250;
  patient.connect_attempts = 40;
  patient.reconnect_backoff_ms = 50;
  patient.recv_timeout_ms = 5'000;
  patient.framing = rpc::FramingKind::kBinary;
  rpc::Client client;
  EXPECT_TRUE(client.Connect("127.0.0.1", port, &error, patient)) << error;

  // EXPECT, not ASSERT: the binder must be joined whatever happens.
  EXPECT_TRUE(client.SendLine("7 ping"));
  std::string line;
  EXPECT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "7 echo ping");
  binder.join();
}

// ---- ConnectionSet (single-threaded peer-to-peer framed push) --------------

using ConnId = rpc::ConnectionSet::ConnId;

void IgnoreClose(ConnId, const std::string&) {}

// Serves `net` until `done()` holds or five seconds pass.
template <typename Done>
bool PollUntil(rpc::ConnectionSet& net, Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    if (!net.Poll(deadline)) return false;
  }
  return done();
}

TEST(ConnectionSet, SurfacesEphemeralPortAndPushesBothWays) {
  ConnId peer = 0;
  std::vector<std::string> got;
  rpc::ConnectionSet net(
      [&](ConnId conn, const std::string& id, const std::string& body) {
        peer = conn;
        got.push_back(id + "|" + body);
      },
      IgnoreClose);
  std::string error;
  ASSERT_TRUE(net.Listen(&error)) << error;
  ASSERT_NE(net.port(), 0);  // the ephemeral pick is visible

  rpc::Client::ConnectOptions copts;
  copts.framing = rpc::FramingKind::kBinary;
  copts.recv_timeout_ms = 5'000;
  rpc::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port(), &error, copts));
  ASSERT_TRUE(client.SendLine("3 REMDO 42"));
  ASSERT_TRUE(PollUntil(net, [&] { return !got.empty(); }));
  EXPECT_EQ(got[0], "3|REMDO 42");
  // Server-initiated push on the retained connection id: the pattern site
  // daemons use for unsolicited mesh traffic.
  ASSERT_TRUE(net.Send(peer, "0", "PROBE 1 0 2"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "0 PROBE 1 0 2");
}

TEST(ConnectionSet, DialedLinksSpeakBinaryBothWaysOnOneThread) {
  // Two sets on one thread, one dialing the other: neither ever blocks, so
  // serving them in turn is enough to carry frames both ways.
  std::vector<std::string> at_listener;
  std::vector<std::string> at_dialer;
  ConnId accepted = 0;
  rpc::ConnectionSet listener(
      [&](ConnId conn, const std::string& id, const std::string& body) {
        accepted = conn;
        at_listener.push_back(id + "|" + body);
      },
      IgnoreClose);
  rpc::ConnectionSet dialer(
      [&](ConnId, const std::string& id, const std::string& body) {
        at_dialer.push_back(id + "|" + body);
      },
      IgnoreClose);
  std::string error;
  ASSERT_TRUE(listener.Listen(&error)) << error;
  const ConnId link = dialer.Dial("127.0.0.1", listener.port(), &error);
  ASSERT_NE(link, 0u) << error;
  ASSERT_TRUE(dialer.Send(link, "0", "SITE 0"));  // queued while connecting
  const auto serve_both = [&](auto done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      const auto slice =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
      dialer.Poll(slice);
      listener.Poll(slice);
    }
    return done();
  };
  ASSERT_TRUE(serve_both([&] { return !at_listener.empty(); }));
  EXPECT_EQ(at_listener[0], "0|SITE 0");
  ASSERT_TRUE(listener.Send(accepted, "9", "PONG 4"));
  ASSERT_TRUE(serve_both([&] { return !at_dialer.empty(); }));
  EXPECT_EQ(at_dialer[0], "9|PONG 4");
}

TEST(ConnectionSet, FrameOverTheBoundClosesTheConnection) {
  std::vector<std::string> got;
  std::string closed_because;
  rpc::ConnectionSet net(
      [&](ConnId, const std::string&, const std::string& body) {
        got.push_back(body);
      },
      [&](ConnId, const std::string& reason) { closed_because = reason; });
  std::string error;
  ASSERT_TRUE(net.Listen(&error)) << error;
  rpc::Client::ConnectOptions copts;
  copts.framing = rpc::FramingKind::kBinary;
  copts.recv_timeout_ms = 5'000;
  rpc::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port(), &error, copts));
  // One good frame, then a header announcing a body one byte over 1 MiB:
  // the good frame is delivered, and the connection ends on the header
  // alone, before any of the oversized body is buffered.
  ASSERT_TRUE(client.SendLine("1 VOTE 5"));
  const std::uint32_t len =
      static_cast<std::uint32_t>(8 + rpc::ConnectionSet::kMaxFrameBytes + 1);
  std::string header(4, '\0');
  for (int i = 0; i < 4; ++i) {
    header[static_cast<std::size_t>(i)] = static_cast<char>(len >> (8 * i));
  }
  header += std::string(8, '\0');  // id 0
  ASSERT_TRUE(client.SendRaw(header));
  ASSERT_TRUE(PollUntil(net, [&] { return !closed_because.empty(); }));
  EXPECT_EQ(got, std::vector<std::string>{"VOTE 5"});
  EXPECT_NE(closed_because.find("exceeds"), std::string::npos)
      << closed_because;
  std::string line;
  EXPECT_FALSE(client.ReadLine(&line));  // the server closed its end
}

TEST(ConnectionSet, WakeFromAnotherThreadEndsAWaitWithoutDeadline) {
  rpc::ConnectionSet net(
      [](ConnId, const std::string&, const std::string&) {}, IgnoreClose);
  std::atomic<bool> woken{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    woken.store(true);
    net.Wake();
  });
  // Nothing but the Wake can end this wait (an EINTR return waits again).
  while (!woken.load()) {
    ASSERT_TRUE(net.Poll(std::chrono::steady_clock::time_point::max()));
  }
  waker.join();
}

// ---- LatencyHistogram::Merge edge cases ------------------------------------

TEST(LatencyHistogram, MergeWithEmptyIsIdentityBothWays) {
  rpc::LatencyHistogram populated, empty;
  for (int i = 0; i < 50; ++i) populated.Record(1'000);
  const double p50 = populated.PercentileMs(50.0);

  populated.Merge(empty);  // empty into populated: a no-op
  EXPECT_EQ(populated.count(), 50u);
  EXPECT_EQ(populated.PercentileMs(50.0), p50);

  rpc::LatencyHistogram target;
  target.Merge(populated);  // populated into empty: exact copy
  EXPECT_EQ(target.count(), 50u);
  EXPECT_EQ(target.overflow_count(), 0u);
  EXPECT_EQ(target.PercentileMs(50.0), p50);

  rpc::LatencyHistogram both;
  both.Merge(rpc::LatencyHistogram{});  // empty into empty
  EXPECT_EQ(both.count(), 0u);
  EXPECT_EQ(both.PercentileMs(99.0), 0.0);
}

TEST(LatencyHistogram, MergeAddsOverflowBucketsAcrossInstances) {
  rpc::LatencyHistogram a, b;
  a.Record(~std::uint64_t{0});
  a.Record(3'000'000'000'000);
  b.Record(~std::uint64_t{0});
  for (int i = 0; i < 7; ++i) b.Record(2'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 10u);
  EXPECT_EQ(a.overflow_count(), 3u);  // 2 + 1, kept distinct from the counts
  // The clamped tail stays in the distribution: the top percentile reads
  // the last bucket, the median the 2 ms cluster.
  EXPECT_GT(a.PercentileMs(99.0), 1'000'000.0);
  EXPECT_LT(a.PercentileMs(50.0), 10.0);
}

}  // namespace
}  // namespace carat
