// Blocking agserve client — one connection, sequential request/response.
//
// Used by agserve --call/--probe/--shutdown, serve_test, and
// perfbench's rnn_serve connections. Not thread-safe: one Client per
// thread (the protocol supports pipelining; this client doesn't need
// it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace ag::serve {

class Client {
 public:
  // Connects to 127.0.0.1:port; throws Error(kRuntime) on failure.
  explicit Client(uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  // Runs `fn` on the server with positional feeds. deadline_ms > 0 is
  // the client's total budget: the server stamps it absolute at frame
  // read, so queue wait and execution share it. Returns the decoded
  // response (ok or structured error) — only transport failures throw.
  WireResponse Call(const std::string& fn, std::vector<Tensor> feeds,
                    int64_t deadline_ms = 0);

  // Liveness probe; true when the server answered the ping.
  bool Ping();

  // Asks the server to exit its serve loop (acknowledged).
  bool RequestShutdown();

  // Half-closes without a goodbye — from the server's side this is a
  // mid-conversation disconnect, which must cancel the connection's
  // in-flight work (tested in serve_test).
  void Drop();

 private:
  int fd_ = -1;
  uint32_t next_id_ = 1;
};

}  // namespace ag::serve
