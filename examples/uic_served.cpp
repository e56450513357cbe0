// uic_served: the long-running welfare-query daemon (src/serve/).
//
// Speaks the JSON-lines protocol of serve/protocol.h over stdin/stdout
// (pipe mode, the default — what the golden serve-session test scripts)
// or a loopback TCP socket (--port; 0 picks an ephemeral port, printed on
// stdout so harnesses can connect). Sessions, warm RR pools, admission
// control, and the determinism contract all live in serve/server.h; this
// binary is only flags, signals, and the transport.
//
//   uic_served < session.jsonl > responses.jsonl
//   uic_served --port 0 --workers 4 --concurrency 2 &
//
// SIGINT/SIGTERM begin a graceful drain: in-flight requests finish and
// are answered, queued ones fail with "unavailable", readers stop within
// the poll interval, and the process exits 0.
//
// Exit codes: 0 clean (EOF, `shutdown` verb, or signal-initiated drain),
// 1 transport/setup failure, 2 usage error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/thread_pool.h"
#include "exp/flags.h"
#include "obs/trace.h"
#include "serve/net.h"
#include "serve/server.h"

namespace uic {
namespace {

constexpr const char* kUsage =
    "usage: uic_served [options] < requests.jsonl   (pipe mode)\n"
    "       uic_served --port N [options]           (loopback TCP mode)\n"
    "\n"
    "  --port N            listen on 127.0.0.1:N (0 = ephemeral, printed)\n"
    "  --workers N         pool threads, 0 = hardware, max 1024 (default 0)\n"
    "  --concurrency N     simultaneous admitted requests    (default 2)\n"
    "  --queue-capacity N  queued requests before shedding   (default 16)\n"
    "  --max-graphs N      graph sessions pinned at once     (default 8)\n"
    "  --max-params N      param sessions pinned at once     (default 32)\n"
    "  --warm-entries N    warm RR-pool LRU bound            (default 16)\n"
    "  --no-timing         omit wall-clock response fields (golden mode)\n"
    "  --metrics-port N    also serve the Prometheus text exposition over\n"
    "                      HTTP on 127.0.0.1:N (0 = ephemeral, printed)\n"
    "  --trace-out FILE    record JSONL span trees to FILE (off by default)\n"
    "  --testing           enable the set_failpoints verb (fault injection;\n"
    "                      never in production). The UIC_FAILPOINTS env var\n"
    "                      (common/failpoint.h grammar) arms failpoints\n"
    "                      regardless of this flag.\n"
    "\n"
    "SIGINT/SIGTERM drain in-flight requests and exit 0.\n";

/// Signal flag shared with the server (the `shutdown` verb sets it too).
std::atomic<bool> g_stop{false};

extern "C" void OnSignal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

/// Positive integer flag with a usage error instead of a CHECK abort.
bool GetSize(const Flags& flags, const char* name, long def, size_t* out) {
  const long v = flags.GetInt(name, def);
  if (v <= 0) {
    std::fprintf(stderr, "uic_served: --%s must be positive\n", name);
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

/// Every flag kUsage lists, and --help.
constexpr std::string_view kFlags[] = {
    "port", "workers", "concurrency", "queue-capacity", "max-graphs",
    "max-params", "warm-entries", "no-timing", "metrics-port", "trace-out",
    "testing", "help"};

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  flags.RejectUnknown(kFlags);
  if (flags.GetBool("help")) {
    std::fputs(kUsage, stderr);
    return 0;
  }

  const long workers = flags.GetInt("workers", 0);
  if (workers < 0 || workers > static_cast<long>(kMaxPoolThreads)) {
    std::fprintf(stderr, "uic_served: --workers must be in [0, %u]\n",
                 kMaxPoolThreads);
    return 2;
  }
  if (workers > 0) ThreadPool::ConfigureShared(static_cast<unsigned>(workers));

  serve::ServerOptions options;
  size_t concurrency = 0;
  if (!GetSize(flags, "concurrency", 2, &concurrency) ||
      !GetSize(flags, "queue-capacity", 16, &options.queue_capacity) ||
      !GetSize(flags, "max-graphs", 8, &options.max_graphs) ||
      !GetSize(flags, "max-params", 32, &options.max_params) ||
      !GetSize(flags, "warm-entries", 16, &options.warm_entries)) {
    return 2;
  }
  options.concurrency = static_cast<unsigned>(concurrency);
  options.include_timing = !flags.GetBool("no-timing");
  options.testing = flags.GetBool("testing");

  // No SA_RESTART: a signal must interrupt blocked reads so the drain
  // starts immediately (the channel layer retries EINTR everywhere it is
  // benign). SIGPIPE off: a vanished client is a write error, not death.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty() &&
      !obs::TraceRecorder::Global().EnableFile(trace_out)) {
    std::fprintf(stderr, "uic_served: cannot open --trace-out %s\n",
                 trace_out.c_str());
    return 2;
  }

  serve::Server server(options, &g_stop);

  // The metrics endpoint rides on its own listener + BackgroundThread so
  // a scrape can never queue behind (or be shed by) request admission.
  serve::TcpListener metrics_listener;
  std::unique_ptr<BackgroundThread> metrics_thread;
  const long metrics_port = flags.GetInt("metrics-port", -1);
  if (metrics_port >= 0) {
    if (metrics_port > 65535) {
      std::fprintf(stderr,
                   "uic_served: --metrics-port must be in [0, 65535]\n");
      return 2;
    }
    Result<serve::TcpListener> listener =
        serve::TcpListener::Listen(static_cast<uint16_t>(metrics_port));
    if (!listener.ok()) {
      std::fprintf(stderr, "uic_served: %s\n",
                   listener.status().ToString().c_str());
      return 1;
    }
    metrics_listener = listener.MoveValue();
    std::fprintf(stderr, "uic_served: metrics on 127.0.0.1:%u\n",
                 static_cast<unsigned>(metrics_listener.port()));
    metrics_thread = std::make_unique<BackgroundThread>([&server,
                                                         &metrics_listener]() {
      const Status status = server.ServeMetricsHttp(metrics_listener);
      if (!status.ok()) {
        std::fprintf(stderr, "uic_served: metrics endpoint: %s\n",
                     status.ToString().c_str());
      }
    });
  }
  struct TraceFlusher {
    std::unique_ptr<BackgroundThread>* thread;
    ~TraceFlusher() {
      g_stop.store(true, std::memory_order_relaxed);
      if (*thread != nullptr) (*thread)->Join();
      obs::TraceRecorder::Global().Disable();
    }
  } flusher{&metrics_thread};

  const long port = flags.GetInt("port", -1);
  if (port >= 0) {
    if (port > 65535) {
      std::fprintf(stderr, "uic_served: --port must be in [0, 65535]\n");
      return 2;
    }
    Result<serve::TcpListener> listener =
        serve::TcpListener::Listen(static_cast<uint16_t>(port));
    if (!listener.ok()) {
      std::fprintf(stderr, "uic_served: %s\n",
                   listener.status().ToString().c_str());
      return 1;
    }
    std::printf("uic_served: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(listener.value().port()));
    std::fflush(stdout);
    const Status status = server.ServeTcp(listener.value());
    if (!status.ok()) {
      std::fprintf(stderr, "uic_served: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  // Pipe mode: requests on stdin, responses on stdout, nothing else on
  // stdout (golden sessions compare it byte-for-byte).
  serve::FdLineChannel channel(/*read_fd=*/0, /*write_fd=*/1);
  server.ServePipe(channel);
  return 0;
}

}  // namespace
}  // namespace uic

int main(int argc, char** argv) { return uic::Run(argc, argv); }
