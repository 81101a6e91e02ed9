// Protocol handler interface for the real appliance.
//
// The protocol layer invokes the handler matching the connecting port
// (paper Section 2.2); the handler authenticates the client, parses its
// wire protocol into NestRequests, and routes them through the dispatcher.
// Bulk data moves through the TransferExecutor, on the connection's own
// thread, so every protocol shares the transfer manager's scheduling.
#pragma once

#include <memory>
#include <string>

#include "cluster/cluster_node.h"
#include "dispatcher/dispatcher.h"
#include "net/socket.h"
#include "protocol/executor.h"
#include "protocol/gsi.h"

namespace nest::protocol {

struct ServerContext {
  dispatcher::Dispatcher* dispatcher = nullptr;
  GsiRegistry* gsi = nullptr;
  TransferExecutor* executor = nullptr;
  // Cluster federation (null when the appliance runs standalone): REPL
  // stream ops, status surfaces, and GET redirection to better replicas.
  cluster::ClusterNode* cluster = nullptr;
  // Allow anonymous access on non-GSI protocols (paper default: yes).
  bool allow_anonymous = true;
  // Identity this appliance presents when it acts as a *client* in
  // three-party transfers (Chirp THIRDPUT). Empty = anonymous.
  std::string own_subject;
  std::string own_secret;
};

class ProtocolHandler {
 public:
  explicit ProtocolHandler(ServerContext ctx) : ctx_(ctx) {}
  virtual ~ProtocolHandler() = default;
  virtual const char* name() const = 0;
  // Serve one client connection until it closes. Runs on its own thread.
  virtual void serve(net::TcpStream& stream) = 0;

 protected:
  ServerContext ctx_;
};

}  // namespace nest::protocol
