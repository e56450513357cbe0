// Tests for the serve subsystem: the JSON model, the wire protocol, the
// session registry, admission control, the warm pool, and the Server's
// end-to-end determinism contract — a solve's `result` payload is
// bit-identical cold, warm, across server instances, and across four
// concurrent TCP clients.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/serialization.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "serve/instruments.h"
#include "serve/json.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/session.h"
#include "serve/warm_cache.h"

namespace uic {
namespace serve {
namespace {

// --- Json --------------------------------------------------------------

TEST(ServeJson, DumpIsInsertionOrderedAndIntegralNumbersArePlain) {
  Json obj = Json::Object();
  obj.Set("zeta", Json::Int(3));
  obj.Set("alpha", Json::Bool(true));
  obj.Set("pi", Json::Number(0.5));
  Json arr = Json::Array();
  arr.Append(Json::Str("a\"b"));
  arr.Append(Json::Null());
  obj.Set("list", std::move(arr));
  EXPECT_EQ(obj.Dump(),
            "{\"zeta\":3,\"alpha\":true,\"pi\":0.5,\"list\":[\"a\\\"b\",null]}");
}

TEST(ServeJson, ParseDumpRoundTripIsExact) {
  const std::string line =
      "{\"id\":7,\"verb\":\"solve\",\"budgets\":[3,3],\"eps\":0.5,"
      "\"warm\":false,\"note\":\"tab\\tnl\\n\",\"sub\":{\"x\":null}}";
  Result<Json> parsed = Json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().Dump(), line);
}

TEST(ServeJson, ParserRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("{'a':1}").ok());
  // Depth cap: 80 nested arrays exceed the 64-deep limit.
  std::string deep(80, '[');
  deep += std::string(80, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(ServeJson, DuplicateObjectKeysAreRejected) {
  // Last-wins duplicate handling silently dropped client data; a request
  // with two `seed` members is a client bug the server must surface.
  Result<Json> dup = Json::Parse("{\"a\":1,\"a\":2}");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos)
      << dup.status().message();
  EXPECT_FALSE(Json::Parse("{\"o\":{\"x\":1,\"x\":1}}").ok());
  // The same key in sibling objects is fine.
  EXPECT_TRUE(Json::Parse("{\"a\":1,\"b\":{\"a\":1}}").ok());
}

TEST(ServeJson, IntegerOverflowIsAnErrorNotSilentFolding) {
  // Literals beyond long long used to fold to a nearby double silently;
  // a seed of 2^64 would quietly become a different seed.
  EXPECT_FALSE(Json::Parse("{\"a\":9223372036854775808}").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":-9223372036854775809}").ok());
  // In-range integers round-trip exactly (2^62 is double-representable).
  Result<Json> big = Json::Parse("{\"a\":4611686018427387904}");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().Find("a")->AsInt(), 4611686018427387904LL);
  // Doubles outside long long's range fold to the caller's default
  // (never an out-of-range cast), so range validators reject them.
  Result<Json> huge = Json::Parse("{\"a\":1e300}");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge.value().Find("a")->AsInt(-1), -1);
}

TEST(ServeJson, SetOverwritesInPlaceAndFindMissesReturnNull) {
  Json obj = Json::Object();
  obj.Set("a", Json::Int(1));
  obj.Set("b", Json::Int(2));
  obj.Set("a", Json::Int(9));
  EXPECT_EQ(obj.Dump(), "{\"a\":9,\"b\":2}");
  EXPECT_EQ(obj.Find("c"), nullptr);
  ASSERT_NE(obj.Find("a"), nullptr);
  EXPECT_EQ(obj.Find("a")->AsInt(), 9);
}

// --- protocol ----------------------------------------------------------

TEST(ServeProtocol, ParsesTheEnvelopeAndEchoesIdVerbatim) {
  Result<Request> r =
      ParseRequest("{\"id\":\"abc\",\"verb\":\"ping\",\"deadline_ms\":250}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().id.AsString(), "abc");
  EXPECT_EQ(r.value().verb, "ping");
  EXPECT_EQ(r.value().deadline_ms, 250.0);

  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2]").ok());
  EXPECT_FALSE(ParseRequest("{\"id\":1}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"ping\",\"deadline_ms\":-1}").ok());
}

TEST(ServeProtocol, ResponseFramingIsPinned) {
  Json result = Json::Object();
  result.Set("pong", Json::Bool(true));
  EXPECT_EQ(OkResponse(Json::Int(3), result, Json::Null()),
            "{\"id\":3,\"ok\":true,\"result\":{\"pong\":true}}");
  Json serve_info = Json::Object();
  serve_info.Set("warm", Json::Bool(false));
  EXPECT_EQ(
      OkResponse(Json::Null(), result, serve_info),
      "{\"id\":null,\"ok\":true,\"result\":{\"pong\":true},"
      "\"serve\":{\"warm\":false}}");
  EXPECT_EQ(ErrorResponse(Json::Int(4), ErrorCode::kOverloaded, "shed"),
            "{\"id\":4,\"ok\":false,\"error\":{\"code\":\"overloaded\","
            "\"message\":\"shed\"}}");
}

TEST(ServeProtocol, StatusCodesMapOntoTheWireVocabulary) {
  EXPECT_EQ(CodeFromStatus(Status::InvalidArgument("x")),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeFromStatus(Status::NotFound("x")), ErrorCode::kNotFound);
  EXPECT_EQ(CodeFromStatus(Status::FailedPrecondition("x")),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(CodeFromStatus(Status::Internal("x")), ErrorCode::kInternal);
}

// --- session registry --------------------------------------------------

Graph TinyGraph(uint64_t seed) {
  Json spec = Json::Object();
  spec.Set("network", Json::Str("er"));
  spec.Set("nodes", Json::Int(50));
  spec.Set("edges", Json::Int(200));
  spec.Set("net_seed", Json::Int(static_cast<long long>(seed)));
  Result<Graph> g = BuildGraphFromSpec(spec);
  EXPECT_TRUE(g.ok()) << g.status().message();
  return std::move(g.value());
}

TEST(ServeSession, GenerationsAreUniqueAndReloadBumpsThem) {
  SessionRegistry registry(/*max_graphs=*/2, /*max_params=*/2);
  Result<GraphSession> a = registry.AddGraph("g", TinyGraph(1));
  ASSERT_TRUE(a.ok());
  Result<GraphSession> b = registry.AddGraph("g", TinyGraph(2));
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b.value().generation, a.value().generation);
  // The old pin stays alive for in-flight users even after the reload.
  EXPECT_NE(a.value().graph, b.value().graph);

  uint64_t dropped = 0;
  ASSERT_TRUE(registry.RemoveGraph("g", &dropped).ok());
  EXPECT_EQ(dropped, b.value().generation);
  EXPECT_FALSE(registry.GetGraph("g").ok());
  EXPECT_FALSE(registry.RemoveGraph("g").ok());
}

TEST(ServeSession, CapsRefuseNewNamesButAllowReloads) {
  SessionRegistry registry(/*max_graphs=*/1, /*max_params=*/1);
  ASSERT_TRUE(registry.AddGraph("g", TinyGraph(1)).ok());
  // Replacing the existing name is fine; a second name is over the cap.
  EXPECT_TRUE(registry.AddGraph("g", TinyGraph(2)).ok());
  Result<GraphSession> over = registry.AddGraph("g2", TinyGraph(3));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), Status::Code::kFailedPrecondition);
}

TEST(ServeSession, GraphSpecValidation) {
  Json bad = Json::Object();
  bad.Set("network", Json::Str("mars"));
  EXPECT_FALSE(BuildGraphFromSpec(bad).ok());
  Json empty = Json::Object();
  EXPECT_FALSE(BuildGraphFromSpec(empty).ok());
  Json params_bad = Json::Object();
  params_bad.Set("config", Json::Str("no-such-config"));
  EXPECT_FALSE(BuildParamsFromSpec(params_bad).ok());
}

// --- admission control -------------------------------------------------

// The admission and warm-pool events are counted on the registry only;
// these tests read a counter's delta over the test body.
struct CounterDelta {
  explicit CounterDelta(const obs::Counter& c) : counter(c), base(c.Value()) {}
  long long operator()() const {
    return static_cast<long long>(counter.Value() - base);
  }
  const obs::Counter& counter;
  const uint64_t base;
};

TEST(ServeAdmission, AdmitsUpToConcurrencyAndReleasesSlots) {
  const CounterDelta admitted(Instruments().admitted);
  AdmissionController gate({/*concurrency=*/2, /*queue_capacity=*/4});
  double queued_ms = -1.0;
  EXPECT_EQ(gate.Admit(0.0, &queued_ms), AdmissionController::Decision::kAdmitted);
  EXPECT_GE(queued_ms, 0.0);
  EXPECT_EQ(gate.Admit(0.0), AdmissionController::Decision::kAdmitted);
  gate.Release();
  gate.Release();
  gate.AwaitIdle();
  EXPECT_EQ(admitted(), 2);
  EXPECT_EQ(gate.Describe().Find("running")->AsInt(), 0);
}

TEST(ServeAdmission, DeadlineFailsAQueuedRequestWithoutRunningIt) {
  // Zero slots: the request can never be admitted, so a finite deadline
  // must fail it deterministically.
  const CounterDelta deadline_exceeded(Instruments().queue_deadline_exceeded);
  AdmissionController gate({/*concurrency=*/0, /*queue_capacity=*/4});
  EXPECT_EQ(gate.Admit(5.0), AdmissionController::Decision::kDeadlineExceeded);
  EXPECT_EQ(deadline_exceeded(), 1);
  gate.AwaitIdle();  // the failed request left no residue
}

TEST(ServeAdmission, ShedsWhenTheQueueIsFullAndDrainFailsWaiters) {
  const CounterDelta shed(Instruments().shed);
  AdmissionController gate({/*concurrency=*/0, /*queue_capacity=*/1});
  std::atomic<int> waiter_decision{-1};
  BackgroundThread waiter([&] {
    waiter_decision.store(static_cast<int>(gate.Admit(0.0)));
  });
  // Wait until the waiter is queued, then a second arrival is shed.
  while (gate.Describe().Find("queued")->AsInt() < 1) {
  }
  EXPECT_EQ(gate.Admit(0.0), AdmissionController::Decision::kShed);
  gate.BeginDrain();
  waiter.Join();
  EXPECT_EQ(waiter_decision.load(),
            static_cast<int>(AdmissionController::Decision::kDraining));
  EXPECT_EQ(gate.Admit(0.0), AdmissionController::Decision::kDraining);
  EXPECT_EQ(shed(), 1);
  EXPECT_EQ(gate.Describe().Find("max_queue_depth")->AsInt(), 1);
}

// --- warm pool ---------------------------------------------------------

TEST(ServeWarmPool, SecondAcquireOfAKeyIsAHitWithTheSameCache) {
  WarmPool pool(/*max_entries=*/4);
  auto graph = std::make_shared<const Graph>(TinyGraph(1));
  WarmLease first = pool.Acquire({/*generation=*/1, /*seed=*/4, false}, graph);
  EXPECT_FALSE(first.hit());
  RrStreamCache* cache = first.cache();
  ASSERT_NE(cache, nullptr);
  first.Release();
  WarmLease second = pool.Acquire({1, 4, false}, graph);
  EXPECT_TRUE(second.hit());
  EXPECT_EQ(second.cache(), cache);
  // Distinct coordinates get distinct entries.
  WarmLease other_seed = pool.Acquire({1, 5, false}, graph);
  EXPECT_FALSE(other_seed.hit());
  EXPECT_NE(other_seed.cache(), cache);
  WarmLease other_model = pool.Acquire({1, 4, true}, graph);
  EXPECT_FALSE(other_model.hit());
}

TEST(ServeWarmPool, SameKeyLeaseIsExclusiveUntilRelease) {
  WarmPool pool(/*max_entries=*/4);
  auto graph = std::make_shared<const Graph>(TinyGraph(1));
  WarmLease held = pool.Acquire({1, 4, false}, graph);
  std::atomic<bool> acquired{false};
  BackgroundThread contender([&] {
    WarmLease lease = pool.Acquire({1, 4, false}, graph);
    acquired.store(true);
  });
  // The contender must still be blocked on the held lease.
  EXPECT_FALSE(acquired.load());
  held.Release();
  contender.Join();
  EXPECT_TRUE(acquired.load());
}

TEST(ServeWarmPool, LruEvictionAndGenerationDropsForgetEntries) {
  const CounterDelta evictions(Instruments().warm_evictions);
  WarmPool pool(/*max_entries=*/1);
  auto graph = std::make_shared<const Graph>(TinyGraph(1));
  pool.Acquire({1, 4, false}, graph).Release();
  // A second key evicts the idle first entry (cap is 1)...
  pool.Acquire({1, 5, false}, graph).Release();
  // ...so re-acquiring the first key is a miss again.
  WarmLease again = pool.Acquire({1, 4, false}, graph);
  EXPECT_FALSE(again.hit());
  again.Release();
  EXPECT_GE(evictions(), 1);

  pool.DropGeneration(1);
  EXPECT_EQ(pool.Describe().Find("entries")->AsInt(), 0);
  WarmLease fresh = pool.Acquire({1, 4, false}, graph);
  EXPECT_FALSE(fresh.hit());
}

TEST(ServeWarmPool, DropWhileLeasedLeavesTheLeaseUsableAndTheKeyFresh) {
  WarmPool pool(/*max_entries=*/4);
  auto graph = std::make_shared<const Graph>(TinyGraph(1));
  WarmLease held = pool.Acquire({1, 4, false}, graph);
  pool.DropGeneration(1);
  EXPECT_EQ(pool.Describe().Find("entries")->AsInt(), 0);

  // The dropped key misses at once: it never waits on the held lease.
  std::atomic<bool> acquired{false};
  std::optional<WarmLease> fresh;
  BackgroundThread acquirer([&] {
    fresh.emplace(pool.Acquire({1, 4, false}, graph));
    acquired.store(true);
  });
  for (int i = 0; i < 500 && !acquired.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(acquired.load());

  // The held entry still serves its solve.
  RrOptions options;
  options.stream_cache = held.cache();
  {
    RrCollection collection(*graph, /*seed=*/4, /*workers=*/1, options);
    collection.GenerateUntil(100);
    EXPECT_EQ(collection.size(), 100u);
  }
  EXPECT_EQ(held.cache()->stats().sampled_sets, 100u);
  held.Release();  // also frees an acquirer that wrongly waited
  acquirer.Join();
  EXPECT_FALSE(fresh->hit());
  RrStreamCache* replacement = fresh->cache();
  fresh->Release();

  // Both released: the key hits the replacement, not the dropped entry.
  WarmLease again = pool.Acquire({1, 4, false}, graph);
  EXPECT_TRUE(again.hit());
  EXPECT_EQ(again.cache(), replacement);
  EXPECT_EQ(pool.Describe().Find("entries")->AsInt(), 1);
}

// --- Server end-to-end -------------------------------------------------

ServerOptions GoldenOptions() {
  ServerOptions options;
  options.include_timing = false;  // byte-reproducible responses
  return options;
}

/// Run the canonical load sequence on `server`: graph "g", params "p".
void LoadFixtures(Server& server) {
  const std::string g = server.HandleLine(
      "{\"id\":1,\"verb\":\"load_graph\",\"name\":\"g\",\"network\":\"er\","
      "\"nodes\":300,\"edges\":1500}");
  ASSERT_NE(g.find("\"ok\":true"), std::string::npos) << g;
  const std::string p = server.HandleLine(
      "{\"id\":2,\"verb\":\"load_params\",\"name\":\"p\","
      "\"config\":\"config12\"}");
  ASSERT_NE(p.find("\"ok\":true"), std::string::npos) << p;
}

const char kSolveCold[] =
    "{\"id\":10,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
    "\"budgets\":[3,3],\"seed\":4,\"eval_sims\":100,\"warm\":false}";
const char kSolveWarm[] =
    "{\"id\":11,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
    "\"budgets\":[3,3],\"seed\":4,\"eval_sims\":100}";

/// Extract the Dump of one top-level member of a response line.
std::string Section(const std::string& response, const std::string& key) {
  Result<Json> parsed = Json::Parse(response);
  EXPECT_TRUE(parsed.ok()) << response;
  if (!parsed.ok()) return "";
  const Json* section = parsed.value().Find(key);
  EXPECT_NE(section, nullptr) << key << " missing in " << response;
  return section == nullptr ? "" : section->Dump();
}

/// The value of one series in `server`'s exposition; -1 when absent.
long long SeriesValue(const Server& server, const std::string& series) {
  const std::string text = server.MetricsText();
  const size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + series.size() + 2));
}

TEST(ServeServer, PingStatsAndErrorPaths) {
  Server server(GoldenOptions());
  const std::string other = "uic_serve_verb_requests_total{verb=\"other\"}";
  const long long other_before = SeriesValue(server, other);
  EXPECT_EQ(server.HandleLine("{\"id\":1,\"verb\":\"ping\"}"),
            "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}");
  EXPECT_NE(server.HandleLine("garbage").find("\"code\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(
      server.HandleLine("{\"verb\":\"warp\"}").find("\"code\":\"bad_request\""),
      std::string::npos);
  EXPECT_NE(server
                .HandleLine("{\"id\":2,\"verb\":\"solve\",\"graph\":\"nope\","
                            "\"budgets\":[1]}")
                .find("\"code\":\"not_found\""),
            std::string::npos);
  const Json stats = server.Stats();
  ASSERT_NE(stats.Find("requests"), nullptr);
  EXPECT_EQ(stats.Find("requests")->Find("errors")->AsInt(), 3);
  // The unparsable line and the unknown verb both count under "other".
  ASSERT_GE(other_before, 0);
  EXPECT_EQ(SeriesValue(server, other), other_before + 2);
}

TEST(ServeServer, WarmResultIsByteIdenticalToColdAndSamplesNothing) {
  Server server(GoldenOptions());
  LoadFixtures(server);

  const std::string cold = server.HandleLine(kSolveCold);
  ASSERT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  const std::string warm1 = server.HandleLine(kSolveWarm);
  const std::string warm2 = server.HandleLine(kSolveWarm);

  // The determinism contract: `result` is bit-identical cold vs warm.
  const std::string want = Section(cold, "result");
  EXPECT_EQ(Section(warm1, "result"), want);
  EXPECT_EQ(Section(warm2, "result"), want);

  // Warm accounting: the first warm solve fills the pool, the repeat
  // reuses it — zero RR sets sampled, strictly fewer than the miss.
  Result<Json> warm2_parsed = Json::Parse(warm2);
  ASSERT_TRUE(warm2_parsed.ok());
  const Json* serve_info = warm2_parsed.value().Find("serve");
  ASSERT_NE(serve_info, nullptr);
  EXPECT_TRUE(serve_info->Find("warm_hit")->AsBool());
  EXPECT_EQ(serve_info->Find("rr_sets_sampled")->AsInt(), 0);
  EXPECT_GT(serve_info->Find("rr_sets_served")->AsInt(), 0);
}

TEST(ServeServer, ResultsAreIdenticalAcrossServerInstances) {
  // Two fresh daemons, same requests → same bytes (seed-only determinism;
  // nothing about process or cache history may leak into `result`).
  std::string first;
  {
    Server server(GoldenOptions());
    LoadFixtures(server);
    first = Section(server.HandleLine(kSolveWarm), "result");
  }
  Server server(GoldenOptions());
  LoadFixtures(server);
  EXPECT_EQ(Section(server.HandleLine(kSolveWarm), "result"), first);
  EXPECT_EQ(Section(server.HandleLine(kSolveCold), "result"), first);
}

TEST(ServeServer, ReloadingAGraphInvalidatesItsWarmEntries) {
  Server server(GoldenOptions());
  LoadFixtures(server);
  ASSERT_NE(server.HandleLine(kSolveWarm).find("\"ok\":true"),
            std::string::npos);
  // Reload "g" with a different topology: the warm entry keyed on the old
  // generation must not serve the new graph's solves.
  const std::string reload = server.HandleLine(
      "{\"id\":3,\"verb\":\"load_graph\",\"name\":\"g\",\"network\":\"er\","
      "\"nodes\":300,\"edges\":1500,\"net_seed\":7}");
  ASSERT_NE(reload.find("\"ok\":true"), std::string::npos) << reload;
  const std::string after = server.HandleLine(kSolveWarm);
  Result<Json> parsed = Json::Parse(after);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().Find("serve")->Find("warm_hit")->AsBool());
}

TEST(ServeServer, UnloadDropsSessionsAndWarmState) {
  Server server(GoldenOptions());
  LoadFixtures(server);
  ASSERT_NE(server.HandleLine(kSolveWarm).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(server.HandleLine("{\"id\":4,\"verb\":\"unload\",\"graph\":\"g\"}")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(server.HandleLine(kSolveWarm).find("\"code\":\"not_found\""),
            std::string::npos);
  EXPECT_EQ(server.Stats().Find("warm_cache")->Find("entries")->AsInt(), 0);
}

TEST(ServeServer, MetricsVerbReturnsTheTimingGatedExposition) {
  Server server(GoldenOptions());  // include_timing off: golden mode
  ASSERT_NE(server.HandleLine("{\"id\":1,\"verb\":\"ping\"}")
                .find("\"ok\":true"),
            std::string::npos);
  const std::string response =
      server.HandleLine("{\"id\":2,\"verb\":\"metrics\"}");
  Result<Json> parsed = Json::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool());
  const Json* result = parsed.value().Find("result");
  ASSERT_NE(result, nullptr) << response;
  EXPECT_EQ(result->Find("format")->AsString(), "prometheus-text");
  const std::string& text = result->Find("text")->AsString();
  EXPECT_NE(text.find("# TYPE uic_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("uic_serve_requests_total{status=\"ok\"}"),
            std::string::npos);
  EXPECT_NE(text.find("uic_serve_verb_requests_total{verb=\"ping\"}"),
            std::string::npos);
  // The timing gate: no wall-clock series may reach a golden-mode scrape.
  EXPECT_EQ(text.find("uic_serve_solve_latency_ms"), std::string::npos);
  EXPECT_EQ(text.find("_bucket"), std::string::npos);
  EXPECT_EQ(text.find("_us_total"), std::string::npos);

  // With timing on, the latency histogram family appears.
  Server timed(ServerOptions{});
  EXPECT_NE(timed.MetricsText().find("uic_serve_solve_latency_ms_bucket"),
            std::string::npos);
}

TEST(ServeServer, ShutdownVerbDrainsAndPipeSessionEnds) {
  Server server(GoldenOptions());
  EXPECT_NE(server.HandleLine("{\"id\":1,\"verb\":\"shutdown\"}")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_TRUE(server.stopping());
  // Post-drain requests that need admission are refused as unavailable.
  EXPECT_NE(server
                .HandleLine("{\"id\":2,\"verb\":\"load_graph\",\"name\":\"g\","
                            "\"network\":\"er\",\"nodes\":50,\"edges\":200}")
                .find("\"code\":\"unavailable\""),
            std::string::npos);
}

TEST(ServeServer, FourConcurrentTcpClientsGetByteIdenticalResults) {
  // The reference bytes, served single-threaded over HandleLine.
  Server reference(GoldenOptions());
  LoadFixtures(reference);
  const std::string want = Section(reference.HandleLine(kSolveWarm), "result");

  Server server(GoldenOptions());
  LoadFixtures(server);
  Result<TcpListener> listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().message();
  const uint16_t port = listener.value().port();
  BackgroundThread serving(
      [&] { (void)server.ServeTcp(listener.value()); });

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 3;
  std::vector<std::string> results(kClients * kRequestsPerClient);
  std::vector<std::atomic<bool>> client_ok(kClients);
  for (auto& ok : client_ok) ok.store(false);
  {
    std::vector<std::unique_ptr<BackgroundThread>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<BackgroundThread>([&, c] {
        Result<TcpConnection> conn = TcpListener::Connect(port);
        if (!conn.ok()) return;
        FdLineChannel channel(conn.value().fd(), conn.value().fd(),
                              /*socket_fds=*/true);
        for (int r = 0; r < kRequestsPerClient; ++r) {
          if (!channel.WriteLine(kSolveWarm)) return;
          std::string response;
          if (!channel.ReadLine(&response)) return;
          // Raw line only; parsing (with its gtest assertions) happens on
          // the main thread after the join.
          results[static_cast<size_t>(c * kRequestsPerClient + r)] =
              std::move(response);
        }
        client_ok[static_cast<size_t>(c)].store(true);
      }));
    }
    for (auto& client : clients) client->Join();
  }
  // Shut the daemon down and join the accept loop (drain contract).
  {
    Result<TcpConnection> conn = TcpListener::Connect(port);
    ASSERT_TRUE(conn.ok());
    FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    ASSERT_TRUE(channel.WriteLine("{\"id\":99,\"verb\":\"shutdown\"}"));
    std::string response;
    ASSERT_TRUE(channel.ReadLine(&response));
  }
  serving.Join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(client_ok[static_cast<size_t>(c)].load()) << "client " << c;
  }
  for (const std::string& response : results) {
    EXPECT_EQ(Section(response, "result"), want);
  }
}

// --- request-line cap -----------------------------------------------------

TEST(ServeServer, OverlongLineGetsBadRequestThenTheConnectionCloses) {
  Server server(GoldenOptions());
  Result<TcpListener> listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().message();
  const uint16_t port = listener.value().port();
  BackgroundThread serving([&] { (void)server.ServeTcp(listener.value()); });

  {
    // A line just under the cap still parses (trailing blanks are legal
    // JSON whitespace).
    Result<TcpConnection> conn = TcpListener::Connect(port);
    ASSERT_TRUE(conn.ok()) << conn.status().message();
    FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    std::string ping = "{\"id\":1,\"verb\":\"ping\"}";
    ping.resize(FdLineChannel::kMaxLineBytes - 1, ' ');
    ASSERT_TRUE(channel.WriteLine(ping));
    std::string response;
    ASSERT_TRUE(channel.ReadLine(&response));
    EXPECT_EQ(response, "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}");
  }
  {
    // cap + 1 bytes with no newline: one bad_request, then the server
    // closes the connection.
    Result<TcpConnection> conn = TcpListener::Connect(port);
    ASSERT_TRUE(conn.ok()) << conn.status().message();
    FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    ASSERT_TRUE(
        channel.WriteRaw(std::string(FdLineChannel::kMaxLineBytes + 1, 'x')));
    std::string response;
    ASSERT_TRUE(channel.ReadLine(&response));
    EXPECT_NE(response.find("\"code\":\"bad_request\""), std::string::npos)
        << response;
    EXPECT_FALSE(channel.ReadLine(&response));  // EOF: the server closed
  }
  {
    Result<TcpConnection> conn = TcpListener::Connect(port);
    ASSERT_TRUE(conn.ok()) << conn.status().message();
    FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    ASSERT_TRUE(channel.WriteLine("{\"id\":2,\"verb\":\"shutdown\"}"));
    std::string response;
    ASSERT_TRUE(channel.ReadLine(&response));
  }
  serving.Join();
}

TEST(ServeServer, OverlongLineEndsAPipeSessionAsAtEof) {
  int in[2], out[2];
  ASSERT_EQ(pipe(in), 0);
  ASSERT_EQ(pipe(out), 0);
  // The writer outruns the pipe buffer, so it runs beside the session. The
  // ping after the over-long line must never be answered: the channel
  // stops reading at the cap.
  BackgroundThread writer([&] {
    FdLineChannel channel(-1, in[1]);
    (void)channel.WriteRaw(std::string(FdLineChannel::kMaxLineBytes + 1, 'x') +
                           "\n{\"id\":3,\"verb\":\"ping\"}\n");
    close(in[1]);
  });
  Server server(GoldenOptions());
  FdLineChannel session(in[0], out[1]);
  server.ServePipe(session);
  EXPECT_TRUE(session.line_too_long());
  writer.Join();
  close(out[1]);

  FdLineChannel reader(out[0], -1);
  std::string response;
  ASSERT_TRUE(reader.ReadLine(&response));
  EXPECT_NE(response.find("\"code\":\"bad_request\""), std::string::npos)
      << response;
  EXPECT_FALSE(reader.ReadLine(&response)) << response;
  close(in[0]);
  close(out[0]);
}

// --- failpoints: channel-level fault injection -------------------------
//
// The send/recv/poll sites are exercised over a pipe pair, not TCP: both
// ends of an in-process TCP conversation share FdLineChannel, so a channel
// failpoint would fire nondeterministically on whichever side reads first.
// With a pipe, exactly one channel reads and one writes.

/// Registry hygiene: every failpoint test starts and ends with a clean
/// registry so a leaked policy cannot fail an unrelated test.
class FailpointChannel : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    ASSERT_EQ(pipe(fds_), 0);
  }
  void TearDown() override {
    failpoint::ClearAll();
    if (fds_[0] >= 0) close(fds_[0]);
    if (fds_[1] >= 0) close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FailpointChannel, ShortReadsReassembleTheLine) {
  FdLineChannel writer(/*read_fd=*/-1, fds_[1]);
  FdLineChannel reader(fds_[0], /*write_fd=*/-1);
  ASSERT_TRUE(writer.WriteLine("{\"id\":1,\"verb\":\"ping\"}"));
  // Every read capped at one byte: the loop must reassemble the frame.
  ASSERT_TRUE(failpoint::Set("serve.net.recv", "short_io(1)").ok());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "{\"id\":1,\"verb\":\"ping\"}");
}

TEST_F(FailpointChannel, ReadErrorFailsOnceThenTheChannelRecovers) {
  FdLineChannel writer(-1, fds_[1]);
  FdLineChannel reader(fds_[0], -1);
  ASSERT_TRUE(writer.WriteLine("hello"));
  ASSERT_TRUE(failpoint::Set("serve.net.recv", "error(EIO):once").ok());
  std::string line;
  EXPECT_FALSE(reader.ReadLine(&line));
  // The fault was transient (once): the data is still in the pipe and the
  // next read must deliver it — a failed read never poisons the channel.
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "hello");
}

TEST_F(FailpointChannel, EintrIsRetriedTransparently) {
  FdLineChannel writer(-1, fds_[1]);
  FdLineChannel reader(fds_[0], -1);
  ASSERT_TRUE(writer.WriteLine("hello"));
  ASSERT_TRUE(failpoint::Set("serve.net.recv", "error(EINTR):once").ok());
  ASSERT_TRUE(failpoint::Set("serve.net.poll", "error(EINTR):once").ok());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));  // both EINTRs retried in-loop
  EXPECT_EQ(line, "hello");
}

TEST_F(FailpointChannel, PollTransientFailuresAreBoundedThenGiveUp) {
  // Persistent ENOMEM from poll(): the channel backs off through the poll
  // interval a bounded number of times (~1s total), then reports failure
  // instead of spinning forever.
  FdLineChannel reader(fds_[0], -1);
  ASSERT_TRUE(failpoint::Set("serve.net.poll", "error(ENOMEM)").ok());
  std::string line;
  EXPECT_FALSE(reader.ReadLine(&line));
}

TEST_F(FailpointChannel, ShortWritesCompleteTheFrame) {
  FdLineChannel writer(-1, fds_[1]);
  FdLineChannel reader(fds_[0], -1);
  ASSERT_TRUE(failpoint::Set("serve.net.send", "short_io(1)").ok());
  ASSERT_TRUE(writer.WriteLine("{\"id\":2,\"verb\":\"stats\"}"));
  failpoint::ClearAll();
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "{\"id\":2,\"verb\":\"stats\"}");
}

TEST_F(FailpointChannel, WriteErrorFailsOnceThenTheChannelRecovers) {
  FdLineChannel writer(-1, fds_[1]);
  FdLineChannel reader(fds_[0], -1);
  ASSERT_TRUE(failpoint::Set("serve.net.send", "error(EPIPE):once").ok());
  EXPECT_FALSE(writer.WriteLine("lost"));
  ASSERT_TRUE(writer.WriteLine("kept"));
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "kept");  // the failed frame wrote nothing
}

// --- failpoints: server matrix ------------------------------------------

class FailpointServer : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::ClearAll(); }
  void TearDown() override { failpoint::ClearAll(); }
};

/// Assert `response` is a typed protocol error carrying `code`.
void ExpectErrorCode(const std::string& response, const std::string& code) {
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"code\":\"" + code + "\""), std::string::npos)
      << response;
}

/// The recovery half of the matrix contract: after an injected failure
/// the same daemon instance must answer a ping AND a full solve.
void ExpectStillServes(Server& server) {
  EXPECT_EQ(server.HandleLine("{\"id\":91,\"verb\":\"ping\"}"),
            "{\"id\":91,\"ok\":true,\"result\":{\"pong\":true}}");
  const std::string solve = server.HandleLine(kSolveWarm);
  EXPECT_NE(solve.find("\"ok\":true"), std::string::npos) << solve;
}

TEST(ServeServer, DegenerateGeneratorSpecsGetAReplyAndTheServerLives) {
  // Each of these once ended the daemon: the first two in a generator
  // CHECK, the third in a bad_alloc from reserving for edges the graph
  // cannot hold, the fourth in the ItemParams item-count CHECK, the last
  // two in an out-of-bounds write (a node count of 2^32 - 1 wraps the
  // 32-bit CSR offsets). The fifth once fell back to scale 0.3 silently.
  // The next four once read a wrongly typed string field as absent: they
  // solved bundle-grd, solved under IC, ran the generator and unloaded
  // "g". The next converted a 4e16 node count to 32 bits, which is
  // undefined behaviour. The last five could take the host's memory or a
  // slot for seconds: cone-max tabulates 2^items values when loaded,
  // levelwise generation costs items · 3^(items − 1), and an estimate,
  // mc-greedy and bdhs evaluate all 2^items itemsets (21 additive items
  // load, but nothing may tabulate them). The last five were once answered
  // ok: the daemon dropped a misspelt key (`edgez`, `itemz`,
  // `bdhs_varient`) or a tuning field it did not read (a `sampling_kernel`
  // no kernel has, a negative `greedy_sims`). Now each gets its reply and
  // the daemon keeps serving.
  std::string ones21 = "[1";
  for (int i = 1; i < 21; ++i) ones21 += ",1";
  ones21 += "]";
  struct Case {
    std::string request;
    const char* want;
  };
  const std::string wrap_path = ::testing::TempDir() + "uic_wrap_graph.txt";
  {
    std::ofstream out(wrap_path);
    out << "nodes 4294967295\nedges 0\n";
  }
  const Case kCases[] = {
      {"{\"id\":40,\"verb\":\"load_graph\",\"name\":\"g1\",\"network\":\"er\","
       "\"nodes\":1}",
       "\"code\":\"bad_request\""},
      {"{\"id\":41,\"verb\":\"load_graph\",\"name\":\"g5\",\"network\":\"pa\","
       "\"nodes\":5}",
       "\"code\":\"bad_request\""},
      // Over-asked edges load the complete 10-node graph.
      {"{\"id\":42,\"verb\":\"load_graph\",\"name\":\"g10\",\"network\":\"er\","
       "\"nodes\":10,\"edges\":4000000000000}",
       "\"edges\":90"},
      {"{\"id\":43,\"verb\":\"load_params\",\"name\":\"p31\","
       "\"config\":\"additive\",\"items\":31}",
       "\"code\":\"bad_request\""},
      {"{\"id\":44,\"verb\":\"load_graph\",\"name\":\"gs\","
       "\"network\":\"flixster\",\"scale\":0}",
       "\"code\":\"bad_request\""},
      {"{\"id\":45,\"verb\":\"load_graph\",\"name\":\"gw\",\"path\":\"" +
           wrap_path + "\"}",
       "\"code\":\"bad_request\""},
      {"{\"id\":46,\"verb\":\"load_graph\",\"name\":\"gn\",\"network\":\"er\","
       "\"nodes\":4294967295,\"edges\":0}",
       "\"code\":\"bad_request\""},
      {"{\"id\":47,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"algorithm\":7}",
       "\"code\":\"bad_request\""},
      {"{\"id\":48,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"model\":1}",
       "\"code\":\"bad_request\""},
      {"{\"id\":49,\"verb\":\"load_graph\",\"name\":\"gp\",\"path\":42,"
       "\"network\":\"er\",\"nodes\":50,\"edges\":200}",
       "\"code\":\"bad_request\""},
      {"{\"id\":50,\"verb\":\"unload\",\"graph\":\"g\",\"params\":false}",
       "\"code\":\"bad_request\""},
      {"{\"id\":51,\"verb\":\"load_graph\",\"name\":\"gt\","
       "\"network\":\"twitter\",\"scale\":1e12}",
       "\"code\":\"bad_request\""},
      {"{\"id\":52,\"verb\":\"load_params\",\"name\":\"pc\","
       "\"config\":\"cone-max\",\"items\":21}",
       "\"code\":\"bad_request\""},
      {"{\"id\":53,\"verb\":\"load_params\",\"name\":\"pl\","
       "\"config\":\"levelwise\",\"items\":17}",
       "\"code\":\"bad_request\""},
      {"{\"id\":54,\"verb\":\"load_params\",\"name\":\"p21\","
       "\"config\":\"additive\",\"items\":21}",
       "\"ok\":true"},
      {"{\"id\":55,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p21\","
       "\"budgets\":" + ones21 + ",\"eval_sims\":10}",
       "\"code\":\"bad_request\""},
      {"{\"id\":56,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p21\","
       "\"budgets\":" + ones21 + ",\"algorithm\":\"mc-greedy\"}",
       "\"code\":\"bad_request\""},
      {"{\"id\":57,\"verb\":\"load_graph\",\"name\":\"gu\","
       "\"network\":\"er\",\"nodes\":50,\"edgez\":200}",
       "\"code\":\"bad_request\""},
      {"{\"id\":58,\"verb\":\"load_params\",\"name\":\"pu\","
       "\"config\":\"config12\",\"itemz\":3}",
       "\"code\":\"bad_request\""},
      {"{\"id\":59,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"algorithm\":\"bdhs\","
       "\"bdhs_varient\":\"concave\"}",
       "\"code\":\"bad_request\""},
      {"{\"id\":60,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"sampling_kernel\":\"warp\"}",
       "\"code\":\"bad_request\""},
      {"{\"id\":61,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"greedy_sims\":-3}",
       "\"code\":\"bad_request\""},
  };
  Server server(GoldenOptions());
  LoadFixtures(server);
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.request);
    const std::string response = server.HandleLine(c.request);
    EXPECT_NE(response.find(c.want), std::string::npos) << response;
    ExpectStillServes(server);
  }
  std::remove(wrap_path.c_str());
}

TEST(ServeServer, FullRegistryShedsLoadsAndUnfitSolvesAreFailedPreconditions) {
  // Two rows of the failure table in docs/serving.md: a load into a full
  // registry is shed (overloaded), while a solve that Solver::Validate
  // rejects with FailedPrecondition answers failed_precondition.
  ServerOptions options = GoldenOptions();
  options.max_graphs = 1;
  options.max_params = 1;
  Server server(options);
  LoadFixtures(server);
  ExpectErrorCode(
      server.HandleLine("{\"id\":70,\"verb\":\"load_graph\",\"name\":\"g2\","
                        "\"network\":\"er\",\"nodes\":50,\"edges\":200}"),
      "overloaded");
  ExpectErrorCode(
      server.HandleLine("{\"id\":71,\"verb\":\"load_params\",\"name\":\"p2\","
                        "\"config\":\"config12\"}"),
      "overloaded");
  // mc-greedy needs the utility configuration.
  ExpectErrorCode(
      server.HandleLine("{\"id\":72,\"verb\":\"solve\",\"graph\":\"g\","
                        "\"budgets\":[3,3],\"algorithm\":\"mc-greedy\"}"),
      "failed_precondition");
  ExpectStillServes(server);
}

TEST(ServeServer, RejectedSolvesLeaveNoWarmEntry) {
  // A solve is checked before the warm lease is taken. The first two once
  // left an entry behind, so the next valid solve of the key reported a
  // warm hit while it sampled every set; the eps and eval_sims limits,
  // which moved into CheckSolve, must stay ahead of the lease too, and so
  // must an unknown key, which the daemon once dropped and solved.
  struct Case {
    const char* request;
    const char* code;
  };
  const Case kCases[] = {
      {"{\"id\":60,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"seed\":4,\"algorithm\":\"nope\"}",
       "not_found"},
      {"{\"id\":61,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[400,3],\"seed\":4}",
       "bad_request"},
      {"{\"id\":62,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"seed\":4,\"eps\":1e-9}",
       "bad_request"},
      {"{\"id\":63,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"seed\":4,\"eval_sims\":2000000}",
       "bad_request"},
      {"{\"id\":64,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
       "\"budgets\":[3,3],\"seed\":4,\"sampling_kernal\":\"scan\"}",
       "bad_request"},
  };
  Server server(GoldenOptions());
  LoadFixtures(server);
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.request);
    ExpectErrorCode(server.HandleLine(c.request), c.code);
  }
  const Json stats = server.Stats();
  EXPECT_EQ(stats.Find("warm_cache")->Find("entries")->AsInt(), 0);
  EXPECT_EQ(stats.Find("warm_cache")->Find("misses")->AsInt(), 0);
  Result<Json> valid = Json::Parse(server.HandleLine(kSolveWarm));
  ASSERT_TRUE(valid.ok());
  EXPECT_FALSE(valid.value().Find("serve")->Find("warm_hit")->AsBool());
}

TEST_F(FailpointServer, EveryInjectedFailureYieldsATypedErrorThenRecovers) {
  struct Case {
    const char* site;
    const char* policy;
    const char* request;
    const char* code;
  };
  const Case kCases[] = {
      // Admission forced to shed on an idle server.
      {"serve.scheduler.admit", "error(EIO):once", kSolveWarm, "overloaded"},
      // Post-admission internal failure in the solve path.
      {"serve.solve.admitted", "error(EIO):once", kSolveWarm, "internal"},
      // Graph lookup loses the race with a concurrent unload.
      {"serve.session.get_graph", "error(EIO):once", kSolveWarm, "not_found"},
      // Registry insert fails after the graph was built.
      {"serve.session.add_graph", "error(EIO):once",
       "{\"id\":21,\"verb\":\"load_graph\",\"name\":\"g2\","
       "\"network\":\"er\",\"nodes\":50,\"edges\":200}",
       "internal"},
  };
  Server server(GoldenOptions());
  LoadFixtures(server);
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.site);
    ASSERT_TRUE(failpoint::Set(c.site, c.policy).ok());
    ExpectErrorCode(server.HandleLine(c.request), c.code);
    ExpectStillServes(server);
    failpoint::ClearAll();
  }
}

TEST_F(FailpointServer, SerializationFaultsSurfaceAsNotFoundAndRecover) {
  Server server(GoldenOptions());
  const std::string graph_path = ::testing::TempDir() + "uic_fp_graph.txt";
  const std::string params_path = ::testing::TempDir() + "uic_fp_params.txt";
  ASSERT_TRUE(SaveGraph(TinyGraph(3), graph_path).ok());
  Json params_spec = Json::Object();
  params_spec.Set("config", Json::Str("config12"));
  Result<ItemParams> params = BuildParamsFromSpec(params_spec);
  ASSERT_TRUE(params.ok()) << params.status().message();
  ASSERT_TRUE(SaveItemParams(params.value(), params_path).ok());

  const std::string load_graph_req =
      "{\"id\":30,\"verb\":\"load_graph\",\"name\":\"gfile\",\"path\":\"" +
      graph_path + "\"}";
  const std::string load_params_req =
      "{\"id\":31,\"verb\":\"load_params\",\"name\":\"pfile\",\"path\":\"" +
      params_path + "\"}";

  // Control: both files load cleanly with no faults armed.
  ASSERT_NE(server.HandleLine(load_graph_req).find("\"ok\":true"),
            std::string::npos);
  ASSERT_NE(server.HandleLine(load_params_req).find("\"ok\":true"),
            std::string::npos);

  // An injected read error and a truncated file both surface as the
  // typed IO failure (not_found on the wire), never a crash or a
  // half-loaded session.
  ASSERT_TRUE(
      failpoint::Set("core.serialization.load_graph", "error(EIO):once").ok());
  ExpectErrorCode(server.HandleLine(load_graph_req), "not_found");
  ASSERT_TRUE(
      failpoint::Set("core.serialization.load_graph", "short_io(40):once").ok());
  ExpectErrorCode(server.HandleLine(load_graph_req), "not_found");
  ASSERT_TRUE(
      failpoint::Set("core.serialization.load_params", "error(EIO):once").ok());
  ExpectErrorCode(server.HandleLine(load_params_req), "not_found");

  // All triggers spent: the same files load again on the same daemon.
  EXPECT_NE(server.HandleLine(load_graph_req).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(server.HandleLine(load_params_req).find("\"ok\":true"),
            std::string::npos);
}

TEST_F(FailpointServer, EveryKPolicyShedsDeterministically) {
  Server server(GoldenOptions());
  LoadFixtures(server);
  // every(2) on admission: solves alternate admitted, shed, admitted...
  // purely off the evaluation counter — rerunning gives the same pattern.
  ASSERT_TRUE(
      failpoint::Set("serve.scheduler.admit", "error(EIO):every(2)").ok());
  EXPECT_NE(server.HandleLine(kSolveWarm).find("\"ok\":true"),
            std::string::npos);
  ExpectErrorCode(server.HandleLine(kSolveWarm), "overloaded");
  EXPECT_NE(server.HandleLine(kSolveWarm).find("\"ok\":true"),
            std::string::npos);
}

TEST_F(FailpointServer, DelayPoliciesNeverPerturbTheResultPayload) {
  // The robustness machinery must not touch welfare estimates: a solve
  // slowed down at three different sites returns bit-identical `result`.
  Server server(GoldenOptions());
  LoadFixtures(server);
  const std::string want = Section(server.HandleLine(kSolveCold), "result");
  ASSERT_TRUE(failpoint::Configure("serve.warm.acquire=delay_ms(2),"
                                   "serve.solve.admitted=delay_ms(2),"
                                   "serve.session.get_graph=delay_ms(1)")
                  .ok());
  EXPECT_EQ(Section(server.HandleLine(kSolveWarm), "result"), want);
}

TEST_F(FailpointServer, MidSolveDeadlineReturnsPartialStatsAndRecovers) {
  Server server(GoldenOptions());
  LoadFixtures(server);
  // Queued-phase admission passes (the queue is empty), then the injected
  // post-admission delay blows the 10ms end-to-end budget mid-solve.
  ASSERT_TRUE(
      failpoint::Set("serve.solve.admitted", "delay_ms(30):once").ok());
  const std::string response = server.HandleLine(
      "{\"id\":40,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
      "\"budgets\":[3,3],\"seed\":4,\"eval_sims\":100,\"deadline_ms\":10}");
  ExpectErrorCode(response, "deadline_exceeded");
  Result<Json> parsed = Json::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  const Json* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr) << response;
  // The partial payload reports progress, never a mistakable result.
  const Json* partial = error->Find("partial");
  ASSERT_NE(partial, nullptr) << response;
  EXPECT_NE(partial->Find("num_rr_sets"), nullptr) << response;
  EXPECT_NE(partial->Find("rr_sets_sampled"), nullptr) << response;
  EXPECT_NE(partial->Find("rr_sets_served"), nullptr) << response;
  EXPECT_EQ(parsed.value().Find("result"), nullptr) << response;
  ExpectStillServes(server);
}

TEST_F(FailpointServer, DeadlineExceededSolvesCountAsErrorsNeverSolves) {
  // The request-accounting invariant: requests == ok + errors and
  // solves <= ok. A solve that blows its deadline mid-flight lands in
  // errors, never solves (the old RecordSolve tallied it regardless, so
  // solves could exceed ok).
  Server server(GoldenOptions());
  LoadFixtures(server);
  ASSERT_NE(server.HandleLine(kSolveWarm).find("\"ok\":true"),
            std::string::npos);
  ASSERT_TRUE(
      failpoint::Set("serve.solve.admitted", "delay_ms(30):once").ok());
  ExpectErrorCode(
      server.HandleLine(
          "{\"id\":50,\"verb\":\"solve\",\"graph\":\"g\",\"params\":\"p\","
          "\"budgets\":[3,3],\"seed\":4,\"eval_sims\":100,"
          "\"deadline_ms\":10}"),
      "deadline_exceeded");
  const Json stats = server.Stats();
  const Json* requests = stats.Find("requests");
  ASSERT_NE(requests, nullptr);
  const long long ok = requests->Find("ok")->AsInt();
  const long long errors = requests->Find("errors")->AsInt();
  const long long solves = requests->Find("solves")->AsInt();
  EXPECT_EQ(requests->Find("requests")->AsInt(), ok + errors);
  EXPECT_LE(solves, ok);
  // This session: two loads + one ok solve, one deadline-exceeded solve.
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(solves, 1);
}

TEST_F(FailpointServer, SetFailpointsVerbRequiresTestingMode) {
  Server server(GoldenOptions());  // testing defaults to false
  ExpectErrorCode(
      server.HandleLine(
          "{\"id\":1,\"verb\":\"set_failpoints\",\"failpoints\":{}}"),
      "failed_precondition");
  EXPECT_FALSE(failpoint::AnyActive());
}

TEST_F(FailpointServer, SetFailpointsVerbArmsFiresAndDisarms) {
  ServerOptions options = GoldenOptions();
  options.testing = true;
  Server server(options);
  LoadFixtures(server);
  const std::string armed = server.HandleLine(
      "{\"id\":1,\"verb\":\"set_failpoints\",\"failpoints\":"
      "{\"serve.solve.admitted\":\"error(EIO):once\"}}");
  ASSERT_NE(armed.find("\"ok\":true"), std::string::npos) << armed;
  EXPECT_NE(
      armed.find("\"serve.solve.admitted\":\"error(EIO):once\""),
      std::string::npos)
      << armed;
  ExpectErrorCode(server.HandleLine(kSolveWarm), "internal");
  ExpectStillServes(server);
  // 'off' disarms and the response reports an empty armed set.
  const std::string off = server.HandleLine(
      "{\"id\":2,\"verb\":\"set_failpoints\",\"failpoints\":"
      "{\"serve.solve.admitted\":\"off\"}}");
  ASSERT_NE(off.find("\"ok\":true"), std::string::npos) << off;
  EXPECT_NE(off.find("\"armed\":{}"), std::string::npos) << off;
  // Malformed input is a bad_request, and arms nothing.
  ExpectErrorCode(server.HandleLine(
                      "{\"id\":3,\"verb\":\"set_failpoints\",\"failpoints\":"
                      "{\"a\":\"bogus(1)\"}}"),
                  "bad_request");
  ExpectErrorCode(
      server.HandleLine("{\"id\":4,\"verb\":\"set_failpoints\"}"),
      "bad_request");
  EXPECT_FALSE(failpoint::AnyActive());
}

TEST_F(FailpointServer, AcceptFaultsNeverTakeDownTheListener) {
  Server server(GoldenOptions());
  Result<TcpListener> listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().message();
  const uint16_t port = listener.value().port();
  // The accept site is TCP-safe to inject in-process: only the server
  // side ever calls Accept (clients connect). An aborted handshake and an
  // fd-table-exhaustion storm must both leave the listener serving.
  ASSERT_TRUE(
      failpoint::Set("serve.net.accept", "error(ECONNABORTED):once").ok());
  BackgroundThread serving([&] { (void)server.ServeTcp(listener.value()); });

  {
    Result<TcpConnection> conn = TcpListener::Connect(port);
    ASSERT_TRUE(conn.ok()) << conn.status().message();
    FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    ASSERT_TRUE(channel.WriteLine("{\"id\":1,\"verb\":\"ping\"}"));
    std::string response;
    ASSERT_TRUE(channel.ReadLine(&response));
    EXPECT_EQ(response, "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}");
  }
  ASSERT_TRUE(failpoint::Set("serve.net.accept", "error(EMFILE):once").ok());
  {
    Result<TcpConnection> conn = TcpListener::Connect(port);
    ASSERT_TRUE(conn.ok()) << conn.status().message();
    FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    ASSERT_TRUE(channel.WriteLine("{\"id\":2,\"verb\":\"shutdown\"}"));
    std::string response;
    ASSERT_TRUE(channel.ReadLine(&response));
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }
  serving.Join();
}

}  // namespace
}  // namespace serve
}  // namespace uic
