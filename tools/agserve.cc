// agserve — stage a PyMini module once, serve it over TCP.
//
// Server mode (default):
//   agserve [--port=N] [--workers=N] [--batch=N] [--linger-us=N]
//           [--inter-op=N] [--intra-op=N] [--queue-depth=N]
//           [--retries=N] [--budget-ms=N] <file.pym>
//   agserve --artifact=model.agc [same server flags]
// stages every top-level function of the file at startup (the paper's
// one-time conversion cost; functions stage concurrently), prints the
// bound port, and serves length-prefixed requests
// (src/serve/protocol.h) against the shared sessions until a client
// sends shutdown. --artifact skips staging entirely: the server loads
// pre-compiled graphs, plans, and mmap'd weights from an .agc file
// produced by `agc compile` (millisecond cold-start). --batch>1 turns
// on cross-request dynamic batching; --retries/--budget-ms configure
// the RunPolicy applied to every served run.
//
// Client modes (talk to a running server):
//   agserve --call=FN --port=N [--feeds=v1,v2,...] [--deadline-ms=N]
//   agserve --probe --port=N
//   agserve --shutdown --port=N
//
// Exit status: 0 on success, 1 on execution/transport failure, 2 on
// usage / IO problems.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/client.h"
#include "serve/server.h"
#include "support/strings.h"

namespace {

constexpr std::string_view kTool = "agserve";
using ag::ParseFeeds;
using ag::ParseIntFlag;

void PrintUsage() {
  std::cerr
      << "usage: agserve [--port=N] [--workers=N] [--batch=N]\n"
         "               [--linger-us=N] [--inter-op=N] [--intra-op=N]\n"
         "               [--queue-depth=N] [--retries=N] [--budget-ms=N]\n"
         "               <file.pym>\n"
         "       agserve --artifact=model.agc [same server flags]\n"
         "       agserve --call=FN --port=N [--feeds=v1,v2,...]\n"
         "               [--deadline-ms=N]\n"
         "       agserve --probe --port=N\n"
         "       agserve --shutdown --port=N\n"
         "  --artifact=F    serve a pre-compiled .agc artifact (from\n"
         "                  `agc compile`) instead of staging a .pym\n"
         "  --port=N        port to listen on / connect to (default: "
         "0 = ephemeral)\n"
         "  --workers=N     dispatch threads (default 2)\n"
         "  --batch=N       dynamic batching: coalesce up to N "
         "compatible requests\n"
         "  --linger-us=N   batching linger window (default 200)\n"
         "  --retries=N     attempts per request on deadline/cancel "
         "(default 1)\n"
         "  --budget-ms=N   absolute retry wall budget per request\n"
         "  --call=FN       run FN on the server and print outputs\n"
         "  --feeds=v1,...  scalar float feed per parameter "
         "(default: 1.0 each)\n"
         "  --deadline-ms=N client budget for --call (queue wait "
         "counts)\n"
         "  --probe         ping the server; exit 0 if it answers\n"
         "  --shutdown      ask the server to exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string artifact_path;
  std::string call_fn;
  std::string feeds_spec;
  bool probe = false;
  bool shutdown = false;
  int64_t port = 0;
  int64_t workers = 2;
  int64_t batch = 1;
  int64_t linger_us = 200;
  int64_t inter_op = 0;
  int64_t intra_op = 0;
  int64_t queue_depth = 256;
  int64_t retries = 1;
  int64_t budget_ms = 0;
  int64_t deadline_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--port", arg.substr(7), 0, &port)) return 2;
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--workers", arg.substr(10), 1, &workers)) {
        return 2;
      }
    } else if (arg.rfind("--batch=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--batch", arg.substr(8), 1, &batch)) return 2;
    } else if (arg.rfind("--linger-us=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--linger-us", arg.substr(12), 0, &linger_us)) {
        return 2;
      }
    } else if (arg.rfind("--inter-op=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--inter-op", arg.substr(11), 0, &inter_op)) {
        return 2;
      }
    } else if (arg.rfind("--intra-op=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--intra-op", arg.substr(11), 0, &intra_op)) {
        return 2;
      }
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--queue-depth", arg.substr(14), 1,
                        &queue_depth)) {
        return 2;
      }
    } else if (arg.rfind("--retries=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--retries", arg.substr(10), 1, &retries)) {
        return 2;
      }
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--budget-ms", arg.substr(12), 1, &budget_ms)) {
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseIntFlag(kTool, "--deadline-ms", arg.substr(14), 1,
                        &deadline_ms)) {
        return 2;
      }
    } else if (arg.rfind("--artifact=", 0) == 0) {
      artifact_path = arg.substr(11);
    } else if (arg.rfind("--call=", 0) == 0) {
      call_fn = arg.substr(7);
    } else if (arg.rfind("--feeds=", 0) == 0) {
      feeds_spec = arg.substr(8);
    } else if (arg == "--probe") {
      probe = true;
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "agserve: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "agserve: more than one input file\n";
      return 2;
    }
  }

  const bool client_mode = !call_fn.empty() || probe || shutdown;
  if (client_mode) {
    if (port == 0) {
      std::cerr << "agserve: client modes need --port\n";
      return 2;
    }
    try {
      ag::serve::Client client(static_cast<uint16_t>(port));
      if (probe) {
        const bool alive = client.Ping();
        std::cout << (alive ? "alive" : "no response") << "\n";
        return alive ? 0 : 1;
      }
      if (shutdown) {
        return client.RequestShutdown() ? 0 : 1;
      }
      std::vector<float> feed_values;
      if (!feeds_spec.empty() && !ParseFeeds(kTool, feeds_spec, &feed_values)) {
        return 2;
      }
      std::vector<ag::Tensor> feeds;
      feeds.reserve(feed_values.size());
      for (float v : feed_values) feeds.push_back(ag::Tensor::Scalar(v));
      const ag::serve::WireResponse response =
          client.Call(call_fn, std::move(feeds), deadline_ms);
      if (!response.ok) {
        std::cerr << "agserve: " << call_fn << " failed: "
                  << response.error_message << "\n";
        return 1;
      }
      for (const ag::Tensor& t : response.outputs) {
        std::cout << t.DebugString() << "\n";
      }
      return 0;
    } catch (const ag::Error& e) {
      std::cerr << "agserve: " << e.what() << "\n";
      return 1;
    }
  }

  if (path.empty() == artifact_path.empty()) {
    if (!path.empty()) {
      std::cerr << "agserve: give either a .pym file or --artifact, "
                   "not both\n";
    } else {
      PrintUsage();
    }
    return 2;
  }
  std::ostringstream buffer;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "agserve: cannot read " << path << "\n";
      return 2;
    }
    buffer << in.rdbuf();
  }

  try {
    ag::serve::ServerOptions options;
    options.workers = static_cast<int>(workers);
    options.queue_depth = static_cast<size_t>(queue_depth);
    options.max_batch = static_cast<int>(batch);
    options.batch_linger_us = linger_us;
    options.inter_op_threads = static_cast<int>(inter_op);
    options.intra_op_threads = static_cast<int>(intra_op);
    options.policy.max_attempts = static_cast<int>(retries);
    options.policy.total_budget_ms = budget_ms;

    ag::serve::ServerCore core(options);
    if (!artifact_path.empty()) {
      core.LoadArtifact(artifact_path);
    } else {
      core.LoadSource(buffer.str(), path);
    }
    for (const std::string& err : core.staging_errors()) {
      std::cerr << "agserve: warning: cannot stage " << err << "\n";
    }
    if (core.functions().empty()) {
      std::cerr << "agserve: no stageable functions in "
                << (artifact_path.empty() ? path : artifact_path) << "\n";
      return 2;
    }
    core.Start();

    ag::serve::TcpServer server(&core, static_cast<uint16_t>(port));
    server.Start();
    std::cout << "agserve: listening on 127.0.0.1:" << server.port()
              << " (" << core.functions().size() << " function(s)";
    if (batch > 1) std::cout << ", batch<=" << batch;
    std::cout << ")" << std::endl;  // flush: scripts wait for this line

    server.WaitForShutdown();
    server.Stop();
    core.Stop();
    std::cout << core.stats().DebugString() << "\n"
              << core.metadata().DebugString();
    return 0;
  } catch (const ag::Error& e) {
    std::cerr << "agserve: " << e.what() << "\n";
    return 1;
  }
}
